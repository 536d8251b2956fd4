"""Forward rendering: light table quadrature, the shading sum, and its algebra.

The renderer itself is vectorized and tiled; every numerical claim here is
checked against the plain triple-loop evaluator in tests/oracles.py.
"""

import math
import threading

import numpy as np
import pytest

import oracles
from conftest import random_material, random_scene
import gradshade as gs
from gradshade import _shading
from gradshade.brdf import PARAM_COUNT, flat_index, material_from_raw
from gradshade.core import NormalMap, view_direction_grid
from gradshade.render import build_light_table, prepare_problem, render_linear

Z = np.array([0.0, 0.0, 1.0])


def ln2_material():
    """Constant reflectance (3,3,3) regardless of geometry."""
    raw = np.zeros(PARAM_COUNT)
    for k in range(3):
        for s in range(3):
            for j in range(6):
                raw[flat_index(k, s, 0, j)] = math.log(2.0)
    return material_from_raw(raw)


# ---------------------------------------------------------------------------
# light table

def test_light_directions_are_unit():
    table = build_light_table(6, 12)
    assert np.abs(np.linalg.norm(table.directions, axis=2) - 1.0).max() < 1e-14


def test_light_table_first_texel_hand_values():
    table = build_light_table(2, 4)
    # texel (0,0): theta = pi/4, phi = pi/4
    expected_dir = [
        math.cos(math.pi / 4) * math.sin(math.pi / 4),
        math.cos(math.pi / 4),
        math.sin(math.pi / 4) * math.sin(math.pi / 4),
    ]
    assert np.allclose(table.directions[0, 0], expected_dir, atol=1e-15)
    assert np.allclose(table.directions[0, 0], [0.5, 0.70711, 0.5], atol=5e-6)
    expected_w = math.sin(math.pi / 4) * (math.pi / 2) * (math.pi / 2)
    assert table.weights[0, 0] == pytest.approx(expected_w, abs=1e-15)
    assert table.weights[0, 0] == pytest.approx(1.7447160499, abs=1e-9)


def test_light_table_matches_loop_oracle():
    table = build_light_table(5, 9)
    flat_d = table.directions.reshape(-1, 3)
    flat_w = table.weights.reshape(-1)
    for i, (d, w) in enumerate(oracles.light_directions(5, 9)):
        assert np.allclose(flat_d[i], d, atol=1e-14)
        assert flat_w[i] == pytest.approx(w, abs=1e-14)


def test_weights_sum_to_full_sphere():
    table = build_light_table(64, 128)
    assert table.weights.sum() == pytest.approx(4.0 * math.pi, rel=1e-3)
    # the midpoint rule slightly overestimates integral of sin
    assert table.weights.sum() > 4.0 * math.pi


# ---------------------------------------------------------------------------
# the shading sum

def test_zero_environment_renders_black(sphere_scene):
    env = gs.EnvironmentMap(np.zeros((4, 8, 3)))
    scene = gs.RenderScene(sphere_scene.normal_map, sphere_scene.camera, env, sphere_scene.materials)
    assert np.array_equal(gs.render(scene).pixels, np.zeros((16, 16, 3)))


def test_single_lit_texel_hand_value():
    # one texel on, constant (3,3,3) material, normal aligned with the texel
    table = build_light_table(4, 8)
    th, tw = 2, 5
    omega = table.directions[th, tw]
    rad = np.zeros((4, 8, 3))
    rad[th, tw] = 1.0
    env = gs.EnvironmentMap(rad)
    n = np.zeros((1, 1, 3))
    n[0, 0] = omega
    nm = NormalMap(n, np.ones((1, 1), dtype=bool))
    scene = gs.RenderScene(nm, gs.Camera("orthographic", 1, 1), env, (ln2_material(),))
    out = gs.render(scene).pixels[0, 0]
    assert np.allclose(out, 3.0 * table.weights[th, tw], rtol=1e-12)


def test_constant_env_apex_pixel_approximates_pi():
    # I = 3c * sum_i max(0, n.w_i) weight_i -> 3c*pi for n = +z
    c = 0.7
    env = gs.EnvironmentMap(np.full((32, 64, 3), c))
    nm = NormalMap(Z.reshape(1, 1, 3).copy(), np.ones((1, 1), dtype=bool))
    scene = gs.RenderScene(nm, gs.Camera("orthographic", 1, 1), env, (ln2_material(),))
    out = gs.render(scene).pixels[0, 0]
    assert np.allclose(out, 3.0 * c * math.pi, rtol=0.01)


def test_matches_triple_loop_oracle(rng):
    for trial in range(6):
        mode = "orthographic" if trial % 2 else "pinhole"
        scene = random_scene(
            rng,
            int(rng.integers(3, 8)),
            int(rng.integers(3, 8)),
            int(rng.integers(2, 5)),
            int(rng.integers(4, 8)),
            mode=mode,
        )
        mine = render_linear(scene)
        ref = oracles.render_scene(scene)
        scale = max(np.abs(ref).max(), 1e-30)
        assert np.abs(mine - ref).max() / scale < 1e-10


def back_facing_normal_map(rng, height, width):
    """Random normals facing away from +z, with the exact -z normal at the centre."""
    n = rng.standard_normal((height, width, 3))
    n[:, :, 2] = -np.abs(n[:, :, 2]) - 0.2
    n[height // 2, width // 2] = (0.0, 0.0, -1.0)
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    return NormalMap(n, np.ones((height, width), dtype=bool))


# An env whose texel (row, col) points (almost) exactly against the view of
# the orthographic camera and of the centre pixel of an odd-sized pinhole
# image: (0, 0, -1) up to rounding, so |omega + v| < 1e-8 and the pair has no
# half vector. A normal facing away from the camera sees that texel lit.
OPPOSED = {"orthographic": ((3, 6), (1, 4)), "pinhole": ((33, 66), (16, 49))}


@pytest.mark.parametrize("mode", sorted(OPPOSED))
def test_back_facing_normals_and_opposed_texels(rng, mode):
    env_shape, texel = OPPOSED[mode]
    side = 3
    centre = (side // 2, side // 2)
    cam = gs.Camera(mode, side, side, 50.0)
    omega = build_light_table(*env_shape).directions[texel]
    assert np.linalg.norm(omega + view_direction_grid(cam)[centre]) < 1e-15

    nm = back_facing_normal_map(rng, side, side)
    env = gs.EnvironmentMap(rng.gamma(1.0, 1.0, env_shape + (3,)))
    scene = gs.RenderScene(nm, cam, env, (random_material(rng, amp_range=(0.1, 1.0)),))
    mine = render_linear(scene)
    ref = oracles.render_scene(scene)
    assert np.abs(mine - ref).max() / np.abs(ref).max() < 1e-10
    g = gs.backward(scene, rng.standard_normal((side, side, 3)))
    for arr in (g.d_normals, g.d_env, g.d_materials):
        assert np.isfinite(arr).all() and arr.any()

    # Lit only at the opposed texel, the centre pixel gets exactly nothing.
    rad = np.zeros(env_shape + (3,))
    rad[texel] = 1.0
    dark = gs.RenderScene(nm, cam, gs.EnvironmentMap(rad), scene.materials)
    assert (render_linear(dark)[centre] == 0.0).all()
    upstream = np.zeros((side, side, 3))
    upstream[centre] = 1.0
    assert (gs.backward(dark, upstream, groups={"light"}).d_env[texel] == 0.0).all()
    if mode == "orthographic":  # every pixel shares the view
        assert not render_linear(dark).any()
        assert not gs.backward(dark, np.ones((side, side, 3)), groups={"light"}).d_env[texel].any()


def test_background_stays_black(sphere_scene):
    img = gs.render(sphere_scene).pixels
    assert np.array_equal(img[~sphere_scene.normal_map.mask], 0.0 * img[~sphere_scene.normal_map.mask])
    assert (img[~sphere_scene.normal_map.mask] == 0.0).all()


def test_single_region_segmentation_is_bit_identical(sphere_scene):
    nm = sphere_scene.normal_map
    ids = np.where(nm.mask, 0, -1).astype(np.int32)
    seg = gs.SegmentationMask(ids, 1)
    seg_scene = gs.RenderScene(nm, sphere_scene.camera, sphere_scene.env, sphere_scene.materials, seg)
    assert np.array_equal(gs.render(seg_scene).pixels, gs.render(sphere_scene).pixels)


def test_two_regions_pick_their_own_material(rng):
    n = np.tile(Z, (2, 2, 1)).astype(float)
    mask = np.ones((2, 2), dtype=bool)
    nm = NormalMap(n, mask)
    ids = np.array([[0, 0], [1, 1]], dtype=np.int32)
    seg = gs.SegmentationMask(ids, 2)
    env = gs.EnvironmentMap(rng.gamma(1.0, 1.0, (4, 8, 3)))
    m0, m1 = random_material(rng, amp_range=(0.1, 1.0)), random_material(rng, amp_range=(0.1, 1.0))
    cam = gs.Camera("orthographic", 2, 2)
    both = gs.render(gs.RenderScene(nm, cam, env, (m0, m1), seg)).pixels
    only0 = gs.render(gs.RenderScene(nm, cam, env, (m0,))).pixels
    only1 = gs.render(gs.RenderScene(nm, cam, env, (m1,))).pixels
    assert np.array_equal(both[0], only0[0])
    assert np.array_equal(both[1], only1[1])


def test_linearity_in_illumination(rng):
    scene = random_scene(rng, 6, 6, 3, 6)
    e1 = rng.gamma(1.0, 1.0, (3, 6, 3))
    e2 = rng.gamma(1.0, 1.0, (3, 6, 3))
    alpha, beta = 1.7, 0.4

    def with_env(e):
        return render_linear(
            gs.RenderScene(scene.normal_map, scene.camera, gs.EnvironmentMap(e), scene.materials)
        )

    combo = with_env(alpha * e1 + beta * e2)
    split = alpha * with_env(e1) + beta * with_env(e2)
    scale = max(np.abs(combo).max(), 1e-30)
    assert np.abs(combo - split).max() / scale < 1e-9


def test_env_scaling_by_power_of_two_is_bitwise(sphere_scene):
    base = gs.render(sphere_scene).pixels
    doubled = gs.render(
        gs.RenderScene(
            sphere_scene.normal_map,
            sphere_scene.camera,
            gs.EnvironmentMap(2.0 * sphere_scene.env.radiance),
            sphere_scene.materials,
        )
    ).pixels
    assert np.array_equal(doubled, 2.0 * base)


def test_reflectance_map_equals_sphere_render():
    env = gs.default_blob_env(4, 8)
    mat = gs.preset_materials()["matte"]
    rm = gs.render_reflectance_map(mat, env, resolution=16)
    nm = gs.sphere_normal_map(16)
    scene = gs.RenderScene(nm, gs.Camera("orthographic", 16, 16), env, (mat,))
    assert np.array_equal(rm.pixels, gs.render(scene).pixels)


def test_reflectance_map_zero_env_is_black_disk():
    rm = gs.render_reflectance_map(gs.preset_materials()["matte"], gs.EnvironmentMap(np.zeros((2, 4, 3))), resolution=12)
    assert np.array_equal(rm.pixels, np.zeros((12, 12, 3)))


def hot_scene(side=8):
    raw = np.zeros(PARAM_COUNT)
    for j in range(6):
        raw[flat_index(0, 0, 0, j)] = 80.0  # e^80 explodes past the overflow guard
    hot = material_from_raw(raw)
    nm = gs.sphere_normal_map(side)
    env = gs.EnvironmentMap(np.ones((4, 8, 3)))
    return gs.RenderScene(nm, gs.Camera("orthographic", side, side), env, (hot,))


def test_overflow_error_carries_pixel_location():
    with pytest.raises(gs.ShadingOverflowError, match=r"pixel \(\d+, \d+\)"):
        gs.render(hot_scene())


@pytest.mark.parametrize("group", ["light", "normal", "material"])
def test_backward_raises_where_render_overflows(group):
    with pytest.raises(gs.ShadingOverflowError, match=r"pixel \(\d+, \d+\)"):
        gs.backward(hot_scene(), np.ones((8, 8, 3)), groups={group})


def test_overflow_confined_to_unlit_pairs_does_not_raise():
    """Lobes raise only where they are evaluated, and every lit pair is evaluated."""
    raw = np.zeros(PARAM_COUNT)
    for j, a in ((0, 0.5), (1, 0.5), (2, 0.5), (4, 1000.0), (5, 1000.0)):
        raw[flat_index(0, 0, 0, j)] = a  # points 4 and 5 act only past theta_d = pi/4
    n = np.zeros((8, 8, 3))
    n[:, :, 2] = 1.0
    # Camera-facing normals under an orthographic view: every lit pair has
    # theta_d < pi/4, and every pair past it is unlit for the whole tile.
    nm = NormalMap(n, np.ones((8, 8), dtype=bool))
    scene = gs.RenderScene(nm, gs.Camera("orthographic", 8, 8), gs.default_blob_env(4, 8), (material_from_raw(raw),))
    img = gs.render(scene).pixels
    assert np.isfinite(img).all() and img.max() > 1.0
    assert np.abs(img - oracles.render_scene(scene)).max() < 1e-10
    grads = gs.backward(scene, np.ones((8, 8, 3)))
    assert np.isfinite(grads.d_normals).all() and np.isfinite(grads.d_materials).all()


def _listed_pairs(scene):
    """Pairs the tile engine shades, and the most light blocks one chunk needs."""
    problem = prepare_problem(scene)
    normals = scene.normal_map.normals[scene.normal_map.mask]
    pairs, most_blocks = 0, 0
    for _, ci in problem.chunks:
        tiles = _shading._tiles(problem, normals, ci)
        sizes = [tile.ell.size for tile in tiles]
        pairs += sum(sizes)
        most_blocks = max(most_blocks, len(sizes))
    return problem, normals, pairs, most_blocks


def _glossy_sphere(side, env_shape):
    cam = gs.Camera("orthographic", side, side)
    return gs.RenderScene(gs.sphere_normal_map(side), cam, gs.default_blob_env(*env_shape), (gs.preset_materials()["glossy"],))


@pytest.mark.parametrize("side, env_shape, share", [(128, (64, 128), 0.55), (32, (16, 32), 0.67)])
def test_screen_tiles_shade_only_their_lit_lights(side, env_shape, share):
    """The criterion-10 scene, and the 32² scene of the criterion-4 target, shade a bounded share of their pairs."""
    problem, normals, pairs, _ = _listed_pairs(_glossy_sphere(side, env_shape))
    assert 0 < pairs <= share * problem.pixel_count * problem.light_count
    if side == 32:  # the transfer cache stores exactly the shaded pairs, 3 float64 each
        assert _shading.build_transfer(problem, normals, _glossy_sphere(side, env_shape).materials).nbytes == 24 * pairs


def test_a_tile_can_list_several_light_blocks():
    """Premise of the multi-block thread test in tests/test_contracts.py."""
    assert _listed_pairs(_glossy_sphere(16, (48, 96)))[3] > 1


def test_scene_validation_catches_mismatches(sphere_scene):
    nm = sphere_scene.normal_map
    with pytest.raises(ValueError):
        gs.RenderScene(nm, gs.Camera("orthographic", 8, 8), sphere_scene.env, sphere_scene.materials)
    ids = np.where(nm.mask, 0, -1).astype(np.int32)
    seg = gs.SegmentationMask(ids, 1)
    with pytest.raises(ValueError):
        gs.RenderScene(nm, sphere_scene.camera, sphere_scene.env, sphere_scene.materials * 2, seg)


def test_render_is_deterministic_across_thread_counts(sphere_scene):
    base = gs.render(sphere_scene, threads=1).pixels
    for t in (2, 3, 8):
        assert np.array_equal(gs.render(sphere_scene, threads=t).pixels, base)


def test_scratch_pool_stops_growing_after_the_largest_tiles(monkeypatch):
    """Scratch buffers are keyed by name: scenes with new edge tiles reuse them."""
    monkeypatch.setattr(_shading, "_SCRATCH", threading.local())  # fresh scratch for each thread
    env = gs.default_blob_env(32, 64)  # 2048 texels: two full light blocks
    mat = gs.preset_materials()["glossy"]

    def render_sphere(side, mode):
        cam = gs.Camera(mode, side, side, 50.0)
        gs.render(gs.RenderScene(gs.sphere_normal_map(side), cam, env, (mat,)))

    def pool_bytes():  # the renders run serially, in this thread
        return sum(a.nbytes for a in vars(_shading._SCRATCH).values())

    for mode in ("orthographic", "pinhole"):
        render_sphere(40, mode)  # full 64-pixel tiles and full light blocks
    largest = pool_bytes()
    assert largest > 0
    for side in range(41, 47):  # every side cuts its edge tiles differently
        render_sphere(side, "orthographic")
    render_sphere(33, "pinhole")
    assert pool_bytes() == largest
