"""Synthetic scenes: the analytic sphere, blob environments, preset materials."""

import math

import numpy as np
import pytest

import gradshade as gs
from conftest import plane_normal_map
from gradshade.fixtures import (
    gaussian_blob_env,
    preset_materials,
    sphere_normal_map,
)


# ---------------------------------------------------------------------------
# sphere normal map

def test_sphere_center_pixel_faces_camera():
    nm = sphere_normal_map(9)
    assert np.allclose(nm.normals[4, 4], [0.0, 0.0, 1.0], atol=1e-12)
    assert nm.mask[4, 4]


def test_sphere_matches_analytic_formula_everywhere():
    # n = (u, -v, sqrt(1 - u^2 - v^2)) at pixel centres; check every pixel
    res = 20
    nm = sphere_normal_map(res)
    coords = 2.0 * (np.arange(res) + 0.5) / res - 1.0
    for py in (3, 9, 16):
        for px in (4, 9, 15):
            u, v = coords[px], coords[py]
            if u * u + v * v > 1.0:
                assert not nm.mask[py, px]
                continue
            expect = np.array([u, -v, math.sqrt(1.0 - u * u - v * v)])
            assert np.allclose(nm.normals[py, px], expect, atol=1e-15)
    # one frozen spot: res=20, row 9, col 15 -> u=0.55, v=-0.05
    assert np.allclose(nm.normals[9, 15], [0.55, 0.05, math.sqrt(0.695)], atol=1e-15)


def test_sphere_corners_are_background():
    nm = sphere_normal_map(16)
    for h, w in [(0, 0), (0, 15), (15, 0), (15, 15)]:
        assert not nm.mask[h, w]
        assert not nm.normals[h, w].any()


def test_sphere_foreground_unit_length():
    nm = sphere_normal_map(33)
    fg = nm.mask
    assert np.abs(np.linalg.norm(nm.normals[fg], axis=1) - 1.0).max() < 1e-12
    assert nm.normals[fg][:, 2].min() >= 0.0


def test_sphere_mask_is_the_disk():
    res = 24
    nm = sphere_normal_map(res)
    coords = 2.0 * (np.arange(res) + 0.5) / res - 1.0
    inside = coords[None, :] ** 2 + coords[:, None] ** 2 <= 1.0
    assert np.array_equal(nm.mask, inside)


def test_sphere_y_axis_points_up():
    # top rows of the image look up: n_y > 0 above center, < 0 below
    nm = sphere_normal_map(17)
    assert nm.normals[1, 8, 1] > 0
    assert nm.normals[15, 8, 1] < 0


def test_sphere_resolution_floor():
    with pytest.raises(ValueError):
        sphere_normal_map(7)


def test_plane_map_constant_and_full():
    nm = plane_normal_map(5)
    assert nm.mask.all()
    assert np.all(nm.normals == np.array([0.0, 0.0, 1.0]))
    tilted = plane_normal_map(4, normal=(1.0, 0.0, 1.0))
    assert np.allclose(tilted.normals[2, 2], [math.sqrt(0.5), 0.0, math.sqrt(0.5)], atol=1e-12)


def test_plane_scene_renders_flat():
    # identical geometry at every pixel -> identical radiance at every pixel
    scene = gs.RenderScene(
        plane_normal_map(6),
        gs.Camera("orthographic", 6, 6),
        gs.default_blob_env(8, 16),
        (preset_materials()["matte"],),
    )
    img = gs.render(scene).pixels
    assert np.all(img == img[0, 0])
    assert img[0, 0].min() > 0.0


# ---------------------------------------------------------------------------
# blob environments

def test_blob_env_no_blobs_is_zero():
    env = gaussian_blob_env(4, 8, [])
    assert not env.radiance.any()


def test_blob_env_peak_at_blob_direction():
    # align the blob with an exact texel center so the peak equals rgb
    h, w = 8, 16
    theta = (2 + 0.5) / h * math.pi
    phi = (5 + 0.5) / w * (2.0 * math.pi)
    d = (math.sin(theta) * math.cos(phi), math.cos(theta), math.sin(theta) * math.sin(phi))
    env = gaussian_blob_env(h, w, [(d, 0.3, (2.0, 3.0, 4.0))])
    assert np.allclose(env.radiance[2, 5], [2.0, 3.0, 4.0], atol=1e-12)
    assert env.radiance[:, :, 0].argmax() == 2 * w + 5


def test_blob_env_wide_sigma_is_nearly_uniform():
    env = gaussian_blob_env(8, 16, [((0.0, 1.0, 0.0), 100.0, (1.0, 1.0, 1.0))])
    r = env.radiance[:, :, 0]
    assert r.max() / r.min() < 1.01


def test_blob_env_rejects_bad_blobs():
    with pytest.raises(ValueError):
        gaussian_blob_env(4, 8, [((0, 1, 0), 0.0, (1, 1, 1))])
    with pytest.raises(ValueError):
        gaussian_blob_env(4, 8, [((0, 1, 0), 0.5, (-1, 1, 1))])


def test_default_blob_env_properties():
    env = gs.default_blob_env(16, 32)
    assert env.radiance.shape == (16, 32, 3)
    assert env.radiance.min() > 0.0  # three blobs with broad support
    assert np.isfinite(env.radiance).all()


# ---------------------------------------------------------------------------
# preset materials

def test_presets_have_expected_names():
    mats = preset_materials()
    assert set(mats) >= {"zero", "matte", "glossy"}
    for name, m in mats.items():
        assert m.name == name
        assert m.raw.shape == (108,)
        assert np.isfinite(m.raw).all()


def test_zero_preset_renders_black(sphere_scene):
    scene = gs.RenderScene(
        sphere_scene.normal_map,
        sphere_scene.camera,
        sphere_scene.env,
        (preset_materials()["zero"],),
    )
    assert not gs.render(scene).pixels.any()


def test_matte_preset_is_smooth_across_the_sphere():
    scene = gs.RenderScene(
        sphere_normal_map(32),
        gs.Camera("orthographic", 32, 32),
        gs.default_blob_env(8, 16),
        (preset_materials()["matte"],),
    )
    img = gs.render(scene).pixels
    interior = gs.sphere_normal_map(32).mask.copy()
    interior[:1], interior[-1:], interior[:, :1], interior[:, -1:] = 0, 0, 0, 0
    # also drop pixels whose 4-neighbours leave the mask
    nb = interior & np.roll(interior, 1, 0) & np.roll(interior, -1, 0)
    nb &= np.roll(interior, 1, 1) & np.roll(interior, -1, 1)
    lum = img.mean(axis=2)
    for dy, dx in [(0, 1), (1, 0)]:
        step = np.abs(lum - np.roll(lum, (dy, dx), (0, 1)))
        assert step[nb & np.roll(nb, (dy, dx), (0, 1))].max() < 0.15 * lum[nb].max()


def test_glossy_preset_highlights_the_mirror_pixel():
    # one tight blob; the brightest rendered pixel must be where the sphere
    # normal bisects view and blob directions (found by brute force)
    res = 48
    nm = sphere_normal_map(res)
    d = np.array([0.5, 0.6, 0.7])
    d = d / np.linalg.norm(d)
    env = gaussian_blob_env(16, 32, [(tuple(d), 0.08, (30.0, 30.0, 30.0))])
    scene = gs.RenderScene(nm, gs.Camera("orthographic", res, res), env, (preset_materials()["glossy"],))
    img = gs.render(scene).pixels.mean(axis=2)
    half = d + np.array([0.0, 0.0, 1.0])
    half = half / np.linalg.norm(half)
    # brute-force pixel whose normal is closest to the half vector
    score = np.where(nm.mask, nm.normals @ half, -np.inf)
    best = np.unravel_index(np.argmax(score), score.shape)
    bright = np.unravel_index(np.argmax(img), img.shape)
    assert abs(best[0] - bright[0]) <= 1 and abs(best[1] - bright[1]) <= 1
    # and it is a strict local max
    y, x = bright
    patch = img[y - 1 : y + 2, x - 1 : x + 2]
    assert img[y, x] == patch.max()
    assert (patch < img[y, x]).sum() == 8


def test_fixture_determinism():
    a = sphere_normal_map(16)
    b = sphere_normal_map(16)
    assert np.array_equal(a.normals, b.normals)
    e1 = gs.default_blob_env(8, 16)
    e2 = gs.default_blob_env(8, 16)
    assert np.array_equal(e1.radiance, e2.radiance)
    m1 = preset_materials()["glossy"]
    m2 = preset_materials()["glossy"]
    assert np.array_equal(m1.raw, m2.raw)
