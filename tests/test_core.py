"""Camera geometry and scene container invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import gradshade as gs
from gradshade.core import (
    Camera,
    DegenerateVectorError,
    NormalMap,
    SegmentationMask,
    normalize,
    view_direction_grid,
)


def test_normalize_axis_vector():
    assert np.allclose(normalize(np.array([0.0, 0.0, 2.0])), [0.0, 0.0, 1.0])


def test_normalize_diagonal():
    v = normalize(np.array([1.0, 1.0, 0.0]))
    assert np.allclose(v, [0.70711, 0.70711, 0.0], atol=5e-6)
    assert math.isclose(np.linalg.norm(v), 1.0, rel_tol=1e-12)


def test_normalize_zero_vector_raises():
    with pytest.raises(DegenerateVectorError):
        normalize(np.zeros(3))


def test_orthographic_view_is_constant():
    grid = view_direction_grid(Camera("orthographic", 7, 5))
    assert grid.shape == (5, 7, 3)
    assert np.array_equal(grid, np.broadcast_to([0.0, 0.0, 1.0], (5, 7, 3)))


def test_pinhole_center_of_single_pixel_image():
    cam = Camera("pinhole", 1, 1, 90.0)
    assert np.allclose(view_direction_grid(cam)[0, 0], [0.0, 0.0, 1.0], atol=1e-15)


def test_pinhole_corner_pixel_hand_value():
    # fov 90, 2x2 image, pixel (0,0): ray (-0.5, 0.5, -1), view = -normalize(ray)
    cam = Camera("pinhole", 2, 2, 90.0)
    v = view_direction_grid(cam)[0, 0]
    expected = -np.array([-0.5, 0.5, -1.0]) / np.linalg.norm([-0.5, 0.5, -1.0])
    assert np.allclose(v, expected, atol=1e-12)
    assert np.allclose(v, [0.40825, -0.40825, 0.81650], atol=5e-6)


def test_view_grid_matches_pointwise():
    cam = Camera("pinhole", 6, 4, 47.0)
    grid = view_direction_grid(cam)
    for py in range(4):
        for px in range(6):
            assert np.allclose(grid[py, px], oracles.pinhole_view(cam, px, py), atol=1e-15)


@given(fov=st.floats(10.0, 170.0))
def test_pinhole_view_is_unit_length(fov):
    grid = view_direction_grid(Camera("pinhole", 16, 12, fov))
    assert np.abs(np.linalg.norm(grid, axis=-1) - 1.0).max() < 1e-12
    assert (grid[..., 2] > 0.0).all()  # always points back toward the camera


def test_camera_validation():
    with pytest.raises(ValueError):
        Camera("spherical", 4, 4)
    with pytest.raises(ValueError):
        Camera("pinhole", 4, 4, 180.0)
    with pytest.raises(ValueError):
        Camera("pinhole", 0, 4, 60.0)


def test_normal_map_checks_unit_length():
    n = np.zeros((2, 2, 3))
    n[:, :, 2] = 1.0
    mask = np.ones((2, 2), dtype=bool)
    nm = NormalMap(n, mask)
    assert nm.height == 2 and nm.width == 2
    n_bad = n.copy()
    n_bad[0, 0] = (0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        NormalMap(n_bad, mask)


def test_normal_map_zeroes_background():
    n = np.zeros((1, 2, 3))
    n[0, 0] = (0.0, 0.0, 1.0)
    n[0, 1] = (1.0, 0.0, 0.0)  # stale background value, must be wiped
    mask = np.array([[True, False]])
    nm = NormalMap(n, mask)
    assert np.array_equal(nm.normals[0, 1], [0.0, 0.0, 0.0])


def test_normal_map_arrays_are_frozen(sphere_scene):
    nm = sphere_scene.normal_map
    with pytest.raises(ValueError):
        nm.normals[0, 0, 0] = 5.0


def test_segmentation_id_range():
    ids = np.array([[0, 1], [-1, 1]], dtype=np.int32)
    seg = SegmentationMask(ids, 2)
    assert seg.region_count == 2
    with pytest.raises(ValueError):
        SegmentationMask(np.array([[0, 3]], dtype=np.int32), 2)


def test_environment_map_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        gs.EnvironmentMap(-np.ones((2, 2, 3)))
    bad = np.ones((2, 2, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        gs.EnvironmentMap(bad)
    for empty in ((0, 4, 3), (4, 0, 3)):
        with pytest.raises(ValueError):
            gs.EnvironmentMap(np.zeros(empty))


def _payloads():
    """Each frozen type's array payloads: name -> (build from the payload, a valid payload, its out-of-range values)."""
    up = np.zeros((2, 2, 3))
    up[:, :, 2] = 1.0
    mask = np.ones((2, 2), dtype=bool)
    lo, hi = gs.default_bounds()
    mid = (lo + hi) / 2.0
    table = gs.build_light_table(2, 4)
    return {
        "NormalMap.normals": (lambda v: NormalMap(v, mask), up, ()),
        "EnvironmentMap.radiance": (gs.EnvironmentMap, np.ones((2, 4, 3)), (-1.0,)),
        "RadianceImage.pixels": (gs.RadianceImage, np.ones((2, 2, 3)), (-1.0,)),
        "LdrImage.pixels": (gs.LdrImage, np.ones((2, 2, 3)), (-1.0, 256.0)),
        "DsbrdfMaterial.raw": (lambda v: gs.DsbrdfMaterial(v, lo, hi), mid, ()),
        "DsbrdfMaterial.lo": (lambda v: gs.DsbrdfMaterial(mid, v, hi), lo, ()),
        "DsbrdfMaterial.hi": (lambda v: gs.DsbrdfMaterial(mid, lo, v), hi, ()),
        "QuadBSpline.control_points": (gs.QuadBSpline, np.zeros(6), ()),
        "LightTable.directions": (lambda v: gs.LightTable(v, table.weights), table.directions, ()),
        "LightTable.weights": (lambda v: gs.LightTable(table.directions, v), table.weights, ()),
    }


def _rejections():
    """(payload, bad value) pairs; a bad value of None stands for a wrong shape."""
    for name, (_, _, out_of_range) in _payloads().items():
        for bad in (None, np.nan, np.inf, *out_of_range):
            yield pytest.param(name, bad, id=f"{name}-{'shape' if bad is None else bad}")


@pytest.mark.parametrize("name, bad", list(_rejections()))
def test_every_array_payload_rejects_a_bad_value(name, bad):
    build, good, _ = _payloads()[name]
    build(good.copy())  # the valid payload passes
    if bad is None:
        value = good[..., :-1].copy()
    else:
        value = good.copy()
        value.flat[0] = bad
    with pytest.raises(ValueError):
        build(value)
