"""Analytic gradients against finite differences and basic adjoint algebra.

The renderer is linear in the environment map, so the light-group comparison
is essentially exact; normal and material groups carry the usual central
difference truncation error and get a looser gate.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import plane_normal_map, random_material, random_normal_map, random_scene, sampled_upstream
from test_brdf import constant_material
from test_render import hot_scene
from test_several_tiles import noised_scene
import gradshade as gs
from gradshade import _shading
from gradshade.brdf import PARAM_COUNT, material_from_raw
from gradshade.core import NormalMap
from gradshade.grad import ALL_GROUPS, fd_check
from gradshade.render import prepare_problem, render_linear

# Criterion-1 gates: the light group is exactly linear, the others carry
# central-difference truncation error.
FD_GATES = {"light": 1e-9, "normal": 1e-4, "material": 1e-4}


def random_two_region_scene(rng, side, env_h, env_w, mode):
    """A random scene split into left and right regions with their own materials."""
    nm = random_normal_map(rng, side, side)
    right = np.broadcast_to(np.arange(side)[None, :] >= side // 2, nm.mask.shape)
    seg = gs.SegmentationMask(np.where(nm.mask, right.astype(np.int32), -1), 2)
    env = gs.EnvironmentMap(rng.gamma(1.0, 1.0, (env_h, env_w, 3)))
    mats = (random_material(rng), random_material(rng))
    return gs.RenderScene(nm, gs.Camera(mode, side, side, 55.0), env, mats, seg)


FD_SWEEP_SCENES = {
    "pinhole-one-region": lambda rng: random_scene(rng, 8, 8, 8, 16, mode="pinhole", fov=55.0),
    "ortho-two-region": lambda rng: random_two_region_scene(rng, 8, 8, 16, "orthographic"),
    "pinhole-two-region": lambda rng: random_two_region_scene(rng, 8, 8, 16, "pinhole"),
}


def test_zero_upstream_gives_zero_gradients(sphere_scene):
    g = gs.backward(sphere_scene, np.zeros((16, 16, 3)))
    assert not g.d_normals.any()
    assert not g.d_env.any()
    assert not g.d_materials.any()


def test_gradient_shapes(sphere_scene):
    g = gs.backward(sphere_scene, np.ones((16, 16, 3)))
    assert g.d_normals.shape == (16, 16, 3)
    assert g.d_env.shape == (8, 16, 3)
    assert g.d_materials.shape == (1, PARAM_COUNT)


def test_background_normal_gradient_is_zero(sphere_scene):
    g = gs.backward(sphere_scene, np.ones((16, 16, 3)))
    assert not g.d_normals[~sphere_scene.normal_map.mask].any()


def test_backward_is_linear_in_upstream(sphere_scene, rng):
    u = rng.standard_normal((16, 16, 3))
    g1 = gs.backward(sphere_scene, u)
    g2 = gs.backward(sphere_scene, 2.5 * u)
    assert np.abs(g2.d_env - 2.5 * g1.d_env).max() < 1e-12 * max(1.0, np.abs(g1.d_env).max())
    assert np.allclose(g2.d_normals, 2.5 * g1.d_normals, rtol=1e-12, atol=1e-12)
    assert np.allclose(g2.d_materials, 2.5 * g1.d_materials, rtol=1e-12, atol=1e-12)


def test_env_gradient_ignores_env_values(sphere_scene, rng):
    # d(render)/dL is a constant Jacobian: changing L must not change it
    u = rng.standard_normal((16, 16, 3))
    g1 = gs.backward(sphere_scene, u, groups={"light"})
    other = gs.RenderScene(
        sphere_scene.normal_map,
        sphere_scene.camera,
        gs.EnvironmentMap(sphere_scene.env.radiance * 3.0 + 0.1),
        sphere_scene.materials,
    )
    g2 = gs.backward(other, u, groups={"light"})
    assert np.array_equal(g1.d_env, g2.d_env)


def test_env_gradient_matches_exhaustive_finite_differences(rng):
    # small scene, every texel/channel probed; linearity makes FD exact
    scene = random_scene(rng, 4, 4, 2, 4, amp_range=(0.1, 1.0))
    u = rng.standard_normal((4, 4, 3))
    g = gs.backward(scene, u, groups={"light"}).d_env
    step = 1e-3
    rad = scene.env.radiance
    for h in range(2):
        for w in range(4):
            for k in range(3):
                plus, minus = rad.copy(), rad.copy()
                plus[h, w, k] += step
                minus[h, w, k] = max(minus[h, w, k] - step, 0.0)
                denom = plus[h, w, k] - minus[h, w, k]
                ip = render_linear(gs.RenderScene(scene.normal_map, scene.camera, gs.EnvironmentMap(plus), scene.materials))
                im = render_linear(gs.RenderScene(scene.normal_map, scene.camera, gs.EnvironmentMap(minus), scene.materials))
                fd = float((u * (ip - im)).sum()) / denom
                assert g[h, w, k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_fd_check_light_group_is_near_exact(sphere_scene):
    rep = fd_check(sphere_scene, "light", trials=20, seed=4)
    assert rep.group == "light"
    assert rep.max_rel_error < 1e-9


def test_fd_check_normal_group_on_sphere(sphere_scene):
    rep = fd_check(sphere_scene, "normal", trials=20, seed=5)
    assert rep.max_rel_error < 1e-4


def test_fd_check_material_group(sphere_scene):
    rep = fd_check(sphere_scene, "material", trials=20, seed=6)
    assert rep.max_rel_error < 1e-4


def test_fd_check_pinhole_scene(rng):
    scene = random_scene(rng, 8, 8, 4, 8, mode="pinhole", fov=55.0)
    for group in ("light", "normal", "material"):
        tol = 1e-9 if group == "light" else 1e-4
        rep = fd_check(scene, group, trials=12, seed=13)
        assert rep.max_rel_error < tol, (group, rep.worst_coordinate)


@pytest.mark.parametrize("kind", sorted(FD_SWEEP_SCENES))
def test_fd_sweep_matches_criterion_1_gates(kind):
    """The criterion-1 loop on pinhole and two-region scenes, 12 seeded scenes each."""
    worst = dict.fromkeys(FD_GATES, 0.0)
    for i in range(12):
        rng = np.random.default_rng(6100 + i)
        scene = FD_SWEEP_SCENES[kind](rng)
        for group in FD_GATES:
            step = 1.0 if group == "light" else None  # linear in the env: no truncation error
            rep = fd_check(scene, group, step=step, trials=3, seed=6200 + 7 * i)
            worst[group] = max(worst[group], rep.max_rel_error)
    assert all(worst[g] < FD_GATES[g] for g in FD_GATES), worst


def test_fd_check_zero_material_is_finite(sphere_scene):
    zero = material_from_raw(np.zeros(PARAM_COUNT))
    scene = gs.RenderScene(sphere_scene.normal_map, sphere_scene.camera, sphere_scene.env, (zero,))
    rep = fd_check(scene, "material", trials=10, seed=2)
    assert np.isfinite(rep.max_rel_error)
    assert rep.max_rel_error < 1e-4


def test_fd_report_carries_trials(sphere_scene):
    rep = fd_check(sphere_scene, "material", trials=7, seed=0)
    assert len(rep.trials) == 7
    worst = max(rep.trials, key=lambda t: t.rel_error)
    assert rep.max_rel_error == worst.rel_error
    assert rep.worst_coordinate == worst.coordinate


def test_fd_check_normal_group_raises_when_every_pixel_sits_on_a_kink():
    # a 4x5 env has a texel column at phi = pi, where n . omega is ~1e-16 for a
    # camera-facing normal: no pixel is clear of the max(0, n . omega) kink
    scene = gs.RenderScene(
        plane_normal_map(8), gs.Camera("orthographic", 8, 8), gs.default_blob_env(4, 5),
        (gs.preset_materials()["matte"],),
    )
    with pytest.raises(RuntimeError, match="clear of gradient kinks"):
        fd_check(scene, "normal")


def test_multi_region_material_gradients_are_local(rng):
    # gradients for region r must come only from region-r pixels
    nm_full = gs.sphere_normal_map(12)
    ids = np.where(nm_full.mask, 0, -1).astype(np.int32)
    ids[6:, :][nm_full.mask[6:, :]] = 1
    seg = gs.SegmentationMask(ids, 2)
    env = gs.default_blob_env(4, 8)
    mats = (random_material(rng, amp_range=(0.1, 1.0)), random_material(rng, amp_range=(0.1, 1.0)))
    cam = gs.Camera("orthographic", 12, 12)
    scene = gs.RenderScene(nm_full, cam, env, mats, seg)

    u_top = np.zeros((12, 12, 3))
    u_top[:6] = 1.0  # touches only region 0 pixels
    g = gs.backward(scene, u_top, groups={"material"})
    assert g.d_materials[0].any()
    assert not g.d_materials[1].any()


def test_unknown_group_rejected(sphere_scene):
    with pytest.raises(ValueError):
        gs.backward(sphere_scene, np.zeros((16, 16, 3)), groups={"albedo"})
    with pytest.raises(ValueError):
        fd_check(sphere_scene, "albedo")


@pytest.mark.parametrize("residual", [False, True], ids=["upstream", "residual"])
def test_empty_group_set_rejected_before_shading(sphere_scene, monkeypatch, residual):
    """No group asks for no gradient: the pass raises rather than shade every pixel for three Nones."""

    def refuse(*args, **kw):
        raise AssertionError("a tile was shaded")

    monkeypatch.setattr(_shading, "_tiles", refuse)
    with pytest.raises(ValueError, match="non-empty"):
        if residual:
            problem, normals, env, upstream = _engine_args(sphere_scene, np.random.default_rng(1))
            _shading.backward(problem, normals, sphere_scene.materials, env, None, (), target=upstream)
        else:
            gs.backward(sphere_scene, np.ones((16, 16, 3)), groups=())


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
def test_fd_check_rejects_bad_step(sphere_scene, step):
    with pytest.raises(ValueError, match="step"):
        fd_check(sphere_scene, "light", step=step)


def test_nonfinite_upstream_rejected(sphere_scene):
    u = np.zeros((16, 16, 3))
    u[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        gs.backward(sphere_scene, u)


def test_groups_subset_returns_only_requested(sphere_scene):
    g = gs.backward(sphere_scene, np.ones((16, 16, 3)), groups={"light"})
    assert g.d_env is not None and g.d_env.any()
    assert g.d_normals is None and g.d_materials is None
    assert frozenset(ALL_GROUPS) == {"light", "normal", "material"}


def _engine_args(scene, rng):
    """The foreground-stream arguments of _shading.forward/backward for a scene."""
    mask = scene.normal_map.mask
    upstream = rng.standard_normal((int(mask.sum()), 3))
    return prepare_problem(scene), scene.normal_map.normals[mask], scene.env.radiance.reshape(-1, 3), upstream


@pytest.mark.parametrize("mode", ["orthographic", "pinhole"])
def test_light_adjoint_is_bit_identical_across_paths(rng, mode):
    """Light-only, all-groups and transfer-cache light adjoints reduce the same f * cmax arrays the same way.

    The solver's bit-identity with and without its transfer cache rests on this:
    against one target, the cached residual pass gives the fresh one's image and
    light adjoint bit for bit.
    """
    scene = random_two_region_scene(rng, 16, 24, 48, mode)  # 1152 texels: some tiles list two light blocks
    problem, normals, env, upstream = _engine_args(scene, rng)
    mats = scene.materials
    light = _shading.backward(problem, normals, mats, env, upstream, {"light"})[1]
    every = _shading.backward(problem, normals, mats, env, upstream, _shading.GROUPS)[1]
    assert light.any()
    assert every.tobytes() == light.tobytes()
    target = np.abs(upstream)
    fresh = _shading.backward(problem, normals, mats, env, None, {"light"}, target=target)
    transfer = _shading.build_transfer(problem, normals, mats)
    cached = _shading.backward(problem, normals, mats, env, None, {"light"}, transfer=transfer, target=target)
    assert fresh[1][1].any()
    assert [cached[0].tobytes(), cached[1][1].tobytes()] == [fresh[0].tobytes(), fresh[1][1].tobytes()]


@pytest.mark.parametrize("groups", [{"light"}, {"light", "normal"}, {"material"}], ids=["light", "light+normal", "material"])
def test_transfer_cache_serves_only_the_residual_light_pass(rng, groups):
    scene = random_two_region_scene(rng, 16, 6, 12, "orthographic")
    problem, normals, env, upstream = _engine_args(scene, rng)
    transfer = _shading.build_transfer(problem, normals, scene.materials)
    with pytest.raises(ValueError, match="transfer cache"):
        _shading.backward(problem, normals, scene.materials, env, upstream, groups, transfer=transfer)
    if groups != {"light"}:
        with pytest.raises(ValueError, match="transfer cache"):
            _shading.backward(problem, normals, scene.materials, env, None, groups, transfer=transfer, target=upstream)


@pytest.mark.parametrize("mode", ["orthographic", "pinhole"])
def test_fd_check_with_one_pixel_chunks(rng, mode):
    """Chunks of a single pixel, where a pinhole basis has one row like an orthographic one."""
    n = random_normal_map(rng, 20, 20, coverage=1.0).normals.copy()
    mask = np.zeros((20, 20), dtype=bool)
    mask[[3, 3, 12, 19], [4, 13, 18, 2]] = True  # four pixels, each alone in its 8x8 screen tile
    n[~mask] = 0.0
    env = gs.EnvironmentMap(rng.gamma(1.0, 1.0, (6, 12, 3)))
    scene = gs.RenderScene(NormalMap(n, mask), gs.Camera(mode, 20, 20, 55.0), env, (random_material(rng),))
    assert {ci.size for _, ci in prepare_problem(scene).chunks} == {1}
    for group, gate in FD_GATES.items():
        step = 1.0 if group == "light" else None
        rep = fd_check(scene, group, step=step, trials=12, seed=31)
        assert rep.max_rel_error < gate, (group, rep.worst_coordinate)


def test_backward_chunk_memory_does_not_grow_with_the_env(monkeypatch):
    """A chunk's working allocations stay within a light block; its light partial holds only its listed lights.

    Both env sizes make a tile list full LIGHT_BLOCK blocks, so the per-block
    arrays have the same size and only the light table differs, 4x.
    """
    monkeypatch.setattr(_shading, "_SCRATCH", _shading._Scratch())  # this thread's store, sized by the warm-up call
    working = []
    for env_shape in ((64, 128), (128, 256)):
        cam = gs.Camera("orthographic", 16, 16)
        scene = gs.RenderScene(gs.sphere_normal_map(16), cam, gs.default_blob_env(*env_shape), (gs.preset_materials()["glossy"],))
        problem, normals, env, upstream = _engine_args(scene, np.random.default_rng(9))
        ci = problem.chunks[0][1]
        args = (problem, normals, scene.materials, env * problem.weights[:, None], upstream[ci], _shading.GROUPS, 0)
        _shading._backward_chunk(*args)
        tracemalloc.start()
        try:
            _, _, partials, _, _ = _shading._backward_chunk(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        working.append(peak - held)
        listed = np.concatenate([lights for lights, _ in partials])
        assert np.unique(listed).size == listed.size < problem.light_count
        assert all(values.shape == (lights.size, 3) for lights, values in partials)
    assert working[1] <= 1.05 * working[0], working


# Scratch of one worker after a several-tile backward of every group, in (C, LIGHT_BLOCK)
# float64 buffers for the largest chunk C: measured 10.31 orthographic (ten pair
# buffers, the (1, B) view rows and the (18, B) coefficient curves) and 30.0 pinhole,
# where the view rows and the curves are (C, B) per row.
SCRATCH_BUFFERS = {"orthographic": 10.5, "pinhole": 30.5}


@pytest.mark.parametrize("mode", ["orthographic", "pinhole"])
def test_backward_scratch_holds_one_lobe_buffer_per_role(monkeypatch, mode):
    """Upstream and residual backward of every group over several-tile chunks share one bounded store."""
    monkeypatch.setattr(_shading, "_SCRATCH", _shading._Scratch())  # a fresh store for each thread
    scene = gs.RenderScene(
        gs.sphere_normal_map(24), gs.Camera(mode, 24, 24, 50.0), gs.default_blob_env(48, 96), (gs.preset_materials()["glossy"],)
    )
    problem, normals, env, upstream = _engine_args(scene, np.random.default_rng(4))
    counts = [ci.size for _, ci in problem.chunks]
    assert max(counts) == _shading.PIXEL_TILE**2
    assert all(_shading._listed(problem, normals[ci], {}).size > _shading.LIGHT_BLOCK for _, ci in problem.chunks)
    _shading.backward(problem, normals, scene.materials, env, upstream, _shading.GROUPS)
    _shading.backward(problem, normals, scene.materials, env, None, _shading.GROUPS, target=np.abs(upstream))
    held = sum(a.nbytes for a in _shading._SCRATCH.store.values())  # both ran serially, in this thread
    assert held <= SCRATCH_BUFFERS[mode] * max(counts) * _shading.LIGHT_BLOCK * 8


# ---------------------------------------------------------------------------
# Gram matrices of the residual pass's Jacobian rows, which the solver's Gauss-Newton steps use

JACOBIAN_SCENES = {  # the several-tile scenes: a 24² two-region sphere under 48×96, every chunk listing several tiles
    "ortho-two-region": lambda: random_two_region_scene(np.random.default_rng(41), 8, 8, 16, "orthographic"),
    "pinhole-two-region": lambda: random_two_region_scene(np.random.default_rng(41), 8, 8, 16, "pinhole"),
    "ortho-several-tiles": lambda: noised_scene("orthographic"),
    "pinhole-several-tiles": lambda: noised_scene("pinhole"),
}


def residual_pass(scene, threads=1):
    """(problem, (d_n, d_env, d_m), (G_n (F, 3, 3), G_m (R, 3, 36, 36))) of the residual pass at the scene's state."""
    mask = scene.normal_map.mask
    problem = prepare_problem(scene)
    _, grads, grams = _shading.backward(
        problem, scene.normal_map.normals[mask], scene.materials, scene.env.radiance.reshape(-1, 3), None,
        {"normal", "material"}, threads=threads, target=np.zeros((int(mask.sum()), 3)),
    )
    return problem, grads, grams


def region_of(problem):
    regions = np.empty(problem.pixel_count, dtype=np.int64)
    for region, ci in problem.chunks:
        regions[ci] = region
    return regions


@pytest.mark.parametrize("group", ["normal", "material"])
@pytest.mark.parametrize("name", JACOBIAN_SCENES)
def test_jacobian_rows_match_central_differences(name, group):
    """Each block's Gram along a seeded direction, d^T G d, against |J d|^2 from central differences, at the criterion-1 gates.

    A block is a pixel (normals) or a (region, channel) (materials). I(p) depends on n_p alone and channel k on
    channel k's control points alone, so one central difference of the whole image gives J d of every block at
    once: a pixel's three channels, or the sum of squares over a region's pixels. A block's error is taken
    relative to the larger of the two values, floored at 1e-6 of the largest, as fd_check does.
    """
    scene = JACOBIAN_SCENES[name]()
    problem, _, (gn, gm) = residual_pass(scene)
    mask = scene.normal_map.mask
    n, env, materials = scene.normal_map.normals[mask], scene.env.radiance.reshape(-1, 3), scene.materials
    rng = np.random.default_rng(29)
    if group == "normal":  # tangent to the unit sphere, as in tests/test_several_tiles.py
        d = rng.standard_normal(n.shape)
        d -= np.sum(d * n, axis=1, keepdims=True) * n
        step = 1e-6
        analytic = np.einsum("pi,pij,pj->p", d, gn, d)

        def image(sign):
            return _shading.forward(problem, n + sign * step * d, materials, env)
    else:
        d = rng.standard_normal((len(materials), 3, 36))
        step = 1e-5
        analytic = np.einsum("rki,rkij,rkj->rk", d, gm, d)

        def image(sign):
            moved = [m.with_raw(m.raw + sign * step * dm.ravel()) for m, dm in zip(materials, d)]
            return _shading.forward(problem, n, moved, env)

    jd = (image(1.0) - image(-1.0)) / (2.0 * step)
    if group == "normal":
        numeric = np.sum(jd * jd, axis=1)
    else:
        numeric = np.zeros((len(materials), 3))
        np.add.at(numeric, region_of(problem), jd * jd)
    floor = 1e-6 * np.abs(analytic).max()
    rel = np.abs(analytic - numeric) / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    assert rel.max() < FD_GATES[group], (rel.max(), np.unravel_index(int(rel.argmax()), rel.shape))


@pytest.mark.parametrize("name", JACOBIAN_SCENES)
def test_jacobian_rows_are_bit_identical_across_thread_counts(name):
    """The residual pass's gradients and Grams come out the same bytes at 1, 2 and 3 workers."""
    scene = JACOBIAN_SCENES[name]()
    runs = [residual_pass(scene, threads)[1:] for threads in (1, 2, 3)]
    (dn, _, dm), (gn, gm) = runs[0]
    assert dn.any() and dm.any() and gn.any() and gm.any()
    for grads, grams in runs[1:]:
        assert [a.tobytes() for a in (grads[0], grads[2], *grams)] == [a.tobytes() for a in (dn, dm, gn, gm)]


# ---------------------------------------------------------------------------
# A sparse upstream: gs.backward shades only the pixels it weights

SPARSE_SCENES = {  # 24² two-region scenes: 128 texels give each chunk one light tile, 4608 give it several
    "ortho-one-tile": lambda: random_two_region_scene(np.random.default_rng(43), 24, 8, 16, "orthographic"),
    "pinhole-one-tile": lambda: random_two_region_scene(np.random.default_rng(43), 24, 8, 16, "pinhole"),
    "ortho-several-tiles": lambda: random_two_region_scene(np.random.default_rng(43), 24, 48, 96, "orthographic"),
    "pinhole-several-tiles": lambda: random_two_region_scene(np.random.default_rng(43), 24, 48, 96, "pinhole"),
}


@pytest.mark.parametrize("name", SPARSE_SCENES)
def test_sparse_upstream_matches_the_unrestricted_engine(name, monkeypatch):
    """Each gradient within 1e-13 of its largest value of the full engine pass, and 0 normal gradient where u is 0.

    Not bit for bit: a chunk of weighted pixels may list other lights than the screen tiles they came from.
    """
    scene = SPARSE_SCENES[name]()
    mask = scene.normal_map.mask
    u_image = sampled_upstream(scene, seed=5)
    u = u_image[mask]
    weighted = u.any(axis=1)
    assert 0 < weighted.sum() < 0.2 * weighted.size
    shaded = []
    real = _shading._tiles

    def counting(problem, normals, ci, *args, **kw):
        shaded.append(ci.size)
        return real(problem, normals, ci, *args, **kw)

    monkeypatch.setattr(_shading, "_tiles", counting)
    grads = gs.backward(scene, u_image)
    assert sum(shaded) == weighted.sum()  # each chunk of weighted pixels shaded once, no other pixel
    monkeypatch.undo()
    full = _shading.backward(
        prepare_problem(scene), scene.normal_map.normals[mask], scene.materials, scene.env.radiance.reshape(-1, 3), u,
        _shading.GROUPS,
    )
    d_normals = grads.d_normals[mask]
    pairs = zip((d_normals, grads.d_env.reshape(-1, 3), grads.d_materials), (full[0], full[1], full[2].reshape(2, -1)))
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert not d_normals[~weighted].any() and d_normals[weighted].any()


def test_all_zero_upstream_shades_no_tile(monkeypatch):
    """Nothing is weighted, so nothing is shaded: the overflowing scene gives zero gradients and does not raise."""

    def refuse(*args, **kw):
        raise AssertionError("a tile was shaded")

    monkeypatch.setattr(_shading, "_tiles", refuse)
    grads = gs.backward(hot_scene(), np.zeros((8, 8, 3)))
    assert not grads.d_normals.any() and not grads.d_env.any() and not grads.d_materials.any()


@pytest.mark.parametrize("call", ["upstream", "residual"])
def test_a_joined_chunk_shades_its_pixels_against_every_light_it_lists(call):
    """Pins the overflow contract of a restricted pass: a kept pixel is shaded against the lights that any pixel
    of its joined chunk sees lit, so the pass can raise at a pair unlit for its pixel that the full pass never shades.

    Two screen tiles of one row, each of one normal, under two lights: tile 0 sees only the light along the view
    lit, tile 1 sees both. The lobes 3 (e^(80 base) - 1) pass OVERFLOW_LIMIT iff base > 0.85, which no lit pair
    reaches; tile 0's normal has base 0.97 against the second light, which it sees unlit.
    """
    view, omega = np.array([0.0, 0.0, 1.0]), np.array([math.sin(math.radians(160)), 0.0, math.cos(math.radians(160))])
    problem = _shading.prepare(np.ones((1, 16), dtype=bool), view, np.stack([view, omega]), np.array([0.5, 0.5]))
    n_p = np.array([math.cos(math.radians(25)), 0.0, math.sin(math.radians(25))])
    n_q = np.array([0.5, 0.86, 0.1]) / np.linalg.norm([0.5, 0.86, 0.1])
    assert n_p @ omega < 0.0 < n_q @ omega and n_p @ view > 0.0 and n_q @ view > 0.0
    normals = np.repeat(np.stack([n_p, n_q]), 8, axis=0)
    materials, env = (constant_material(80.0, 1.0),), np.ones((2, 3))

    def run(shading):
        if call == "upstream":
            return _shading.backward(shading, normals, materials, env, np.ones((16, 3)), _shading.GROUPS)
        image, grads, grams = _shading.backward(shading, normals, materials, env, None, _shading.GROUPS, target=np.ones((16, 3)))
        return (image, *grads, *grams)

    assert np.isfinite(_shading.forward(problem, normals, materials, env)).all()
    assert all(np.isfinite(out).all() for out in run(problem))
    one_tile = np.zeros(16, dtype=bool)
    one_tile[[0, 1]] = True
    assert all(np.isfinite(out).all() for out in run(_shading.restrict(problem, one_tile)))
    two_tiles = np.zeros(16, dtype=bool)
    two_tiles[[0, 8]] = True
    joined = _shading.restrict(problem, two_tiles)
    assert [ci.tolist() for _, ci in joined.chunks] == [[0, 8]]
    with pytest.raises(gs.ShadingOverflowError, match=r"pixel \(0, 0\), light texel 1"):
        run(joined)
