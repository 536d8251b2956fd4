"""Several-tile chunks against checks that do not compare the engine with itself.

On a 24² two-region sphere with noised normals under a 48×96 environment,
every chunk lists more than LIGHT_BLOCK lights, so each of its adjoints sums
over several light tiles. The oracle and finite-difference criteria run on
scenes too small for that. Here the outputs are checked against the scene's
symmetries, against the image's linearity in the light, and against central
differences along one seeded direction per group.
"""

import numpy as np
import pytest

import gradshade as gs
from gradshade import _shading
from gradshade.core import NormalMap
from gradshade.render import prepare_problem, render_linear

MODES = ("orthographic", "pinhole")
SIDE = 24
ENV_SHAPE = (48, 96)
# Largest error of a mirrored output relative to that output's largest value;
# the measured errors are below 1e-14, see CHANGES.md.
MIRROR_GATE = 1e-12
# Criterion-1 gates, as in tests/test_acceptance.py.
FD_GATES = {"light": 1e-9, "normal": 1e-4, "material": 1e-4}


def noised_scene(mode):
    """The two-region sphere with normals noised by 0.2, regions split at the middle column."""
    nm = gs.sphere_normal_map(SIDE)
    rng = np.random.default_rng(17)
    n = nm.normals + 0.2 * rng.standard_normal(nm.normals.shape)
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    n[~nm.mask] = 0.0
    right = np.broadcast_to(np.arange(SIDE)[None, :] >= SIDE // 2, nm.mask.shape)
    seg = gs.SegmentationMask(np.where(nm.mask, right.astype(np.int32), -1), 2)
    presets = gs.preset_materials()
    cam = gs.Camera(mode, SIDE, SIDE, 50.0)
    env = gs.default_blob_env(*ENV_SHAPE)
    return gs.RenderScene(NormalMap(n, nm.mask), cam, env, (presets["glossy"], presets["matte"]), seg)


def upstream_for(scene, seed=5):
    u = np.zeros(scene.normal_map.normals.shape)
    mask = scene.normal_map.mask
    u[mask] = np.random.default_rng(seed).standard_normal((int(mask.sum()), 3))
    return u


def mirrored(scene, axis):
    """The scene mirrored across the image's columns (axis 1) or rows (axis 0).

    A column mirror negates n_x and maps env column w to (W/2 - 1 - w) mod W,
    which takes azimuth phi to pi - phi. A row mirror negates n_y and reverses
    the env rows, which takes inclination theta to pi - theta.
    """
    nm, seg = scene.normal_map, scene.segmentation
    n = np.flip(nm.normals, axis).copy()
    n[..., 1 - axis] *= -1.0
    n[~np.flip(nm.mask, axis)] = 0.0  # -0.0 back to the stored background zeros
    env = scene.env.radiance[:, env_columns(scene.env.width)] if axis == 1 else scene.env.radiance[::-1]
    return gs.RenderScene(
        NormalMap(n, np.flip(nm.mask, axis).copy()),
        scene.camera,
        gs.EnvironmentMap(np.ascontiguousarray(env)),
        scene.materials,
        gs.SegmentationMask(np.flip(seg.region_ids, axis).copy(), seg.region_count),
    )


def env_columns(width):
    """Source column of each mirrored env column; the map is its own inverse."""
    return (width // 2 - 1 - np.arange(width)) % width


def rel_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("mode", MODES)
def test_every_chunk_lists_several_light_blocks(mode):
    """Premise of this module."""
    scene = noised_scene(mode)
    problem = prepare_problem(scene)
    normals = scene.normal_map.normals[scene.normal_map.mask]
    assert all(_shading._listed(problem, normals[ci]).size > _shading.LIGHT_BLOCK for _, ci in problem.chunks)


@pytest.mark.parametrize("axis", [1, 0], ids=["columns", "rows"])
@pytest.mark.parametrize("mode", MODES)
def test_mirrored_scene_mirrors_the_image_and_every_gradient(mode, axis):
    scene = noised_scene(mode)
    mirror = mirrored(scene, axis)
    u = upstream_for(scene)
    image, image_m = render_linear(scene), render_linear(mirror)
    grads, grads_m = gs.backward(scene, u), gs.backward(mirror, np.flip(u, axis))

    dn = np.flip(grads.d_normals, axis).copy()
    dn[..., 1 - axis] *= -1.0
    denv = grads.d_env[:, env_columns(scene.env.width)] if axis == 1 else grads.d_env[::-1]
    errors = {
        "image": rel_error(image_m, np.flip(image, axis)),
        "d_normals": rel_error(grads_m.d_normals, dn),
        "d_env": rel_error(grads_m.d_env, denv),
        "d_materials": rel_error(grads_m.d_materials, grads.d_materials),
    }
    assert max(errors.values()) < MIRROR_GATE, errors


@pytest.mark.parametrize("mode", MODES)
def test_image_is_linear_in_the_light(mode):
    """sum(u * I) = sum(d_env * L), to round-off of the sum's absolute terms."""
    scene = noised_scene(mode)
    u = upstream_for(scene)
    d_env = gs.backward(scene, u, groups={"light"}).d_env
    image = render_linear(scene)
    lhs, rhs = float(np.sum(u * image)), float(np.sum(d_env * scene.env.radiance))
    assert abs(lhs - rhs) <= 1e-12 * float(np.sum(np.abs(u * image)))


def loss(scene, u, group, delta):
    """sum(u * I) through the engine with one group moved by ``delta``; moved normals need not be unit length."""
    normals, env, materials = scene.normal_map.normals, scene.env.radiance, scene.materials
    if group == "normal":
        normals = normals + delta
    elif group == "light":
        env = env + delta
    else:
        materials = [m.with_raw(m.raw + d) for m, d in zip(materials, delta)]
    mask = scene.normal_map.mask
    return float(np.sum(u[mask] * _shading.forward(prepare_problem(scene), normals[mask], materials, env.reshape(-1, 3))))


@pytest.mark.parametrize("group", ["light", "normal", "material"])
@pytest.mark.parametrize("mode", MODES)
def test_directional_derivative_matches_central_difference(mode, group):
    """One central difference of sum(u * I) along a seeded direction, at the criterion-1 gates."""
    scene = noised_scene(mode)
    u = upstream_for(scene)
    grads = gs.backward(scene, u, groups={group})
    grad = {"light": grads.d_env, "normal": grads.d_normals, "material": grads.d_materials}[group]
    direction = np.random.default_rng(23).standard_normal(grad.shape)
    if group == "normal":  # tangent to the unit sphere: a raw step past |n| = 1 meets the base clamp at h . n = 1
        n = scene.normal_map.normals
        direction -= np.sum(direction * n, axis=2, keepdims=True) * n
    step = {"light": 1.0, "normal": 1e-6, "material": 1e-5}[group]
    numeric = (loss(scene, u, group, step * direction) - loss(scene, u, group, -step * direction)) / (2.0 * step)
    analytic = float(np.sum(grad * direction))
    assert abs(analytic - numeric) <= FD_GATES[group] * max(abs(analytic), abs(numeric)), (analytic, numeric)
