"""Reflectance model: the DSBRDF lobes as the tile engine shades them, coefficient curves, parameter codec.

The lobe and half-angle tests shade one pixel under one light through
``_shading.forward``: with unit radiance the image is f * max(0, n . omega) * w,
so f = I / (cmax * w) is compared against the scalar oracle at the oracle's
own half angles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_material
from gradshade import _shading
from gradshade.brdf import (
    AMPLITUDE_BOUNDS,
    EPS_BASE,
    EXPONENT_BOUNDS,
    PARAM_COUNT,
    DsbrdfMaterial,
    ShadingOverflowError,
    default_bounds,
    denormalize_params,
    flat_index,
    material_from_raw,
    normalize_params,
)
from gradshade.core import normalize
from gradshade.spline import basis_matrix

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


W = 0.7  # the light's quadrature weight; not 1, so a dropped weight would show


def shade(material, n, omega, v):
    """Image of one pixel with normal n, orthographic view v and one light omega of weight W under unit radiance."""
    problem = _shading.prepare(np.ones((1, 1), bool), v, np.asarray(omega)[None], np.array([W]))
    return _shading.forward(problem, np.asarray(n)[None], (material,), np.ones((1, 3)))[0]


def reflectance(material, n, omega, v):
    """f of one lit pair, I / (L cmax W)."""
    return shade(material, n, omega, v) / (max(0.0, float(n @ omega)) * W)


def assert_matches_oracle(f, material, n, omega, v):
    """f against the scalar oracle at its own (theta_d, h . n), gated at 1e-12 absolute plus 1e-12 relative."""
    ref = oracles.brdf_value(material.raw, *oracles.half_angles(omega, v, n))
    assert np.allclose(f, ref, rtol=1e-12, atol=1e-12), (f, ref)


def constant_material(amplitude, exponent):
    raw = np.zeros(PARAM_COUNT)
    for k in range(3):
        for s in range(3):
            for j in range(6):
                raw[flat_index(k, s, 0, j)] = amplitude
                raw[flat_index(k, s, 1, j)] = exponent
    return material_from_raw(raw)


# ---------------------------------------------------------------------------
# half angles, as the engine derives them from dot products

def test_retroreflection_axis(rng):
    # omega = v = n: h = n, so h . n = 1 and theta_d = 0, where every curve
    # reads its first control point
    mat = random_material(rng)
    assert oracles.half_angles(Z, Z, Z) == (0.0, 1.0)
    f = reflectance(mat, Z, Z, Z)
    hand = [sum(math.expm1(mat.raw[flat_index(k, s, 0, 0)]) for s in range(3)) for k in range(3)]
    assert np.allclose(f, hand, rtol=1e-12, atol=1e-12)
    assert_matches_oracle(f, mat, Z, Z, Z)


def test_45_degree_half_vector(rng):
    # omega = x, v = z: h = (1, 0, 1) / sqrt 2 and theta_d = pi / 4; with
    # n = (1, 0, 2) / sqrt 5, h . n = 3 / sqrt 10
    mat = random_material(rng)
    n = normalize((1.0, 0.0, 2.0))
    theta_d, h_dot_n = oracles.half_angles(X, Z, n)
    assert theta_d == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert h_dot_n == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-12)
    f = reflectance(mat, n, X, Z)
    assert np.allclose(f, oracles.brdf_value(mat.raw, math.pi / 4.0, 3.0 / math.sqrt(10.0)), rtol=1e-12, atol=1e-12)
    assert_matches_oracle(f, mat, n, X, Z)


def test_opposed_directions_are_invalid():
    # f = 3 everywhere, so only the undefined half vector can make a lit pair black
    mat = constant_material(math.log(2.0), 0.0)
    assert oracles.half_angles(-Z, Z, -Z) is None
    assert np.array_equal(shade(mat, -Z, -Z, Z), np.zeros(3))
    near = normalize((1e-3, 0.0, -1.0))
    assert np.allclose(reflectance(mat, near, near, Z), 3.0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_half_vector_is_unit_and_symmetric(seed):
    # the half vector of (omega, v) is that of (v, omega): swapping the light
    # and the view gives the same f, and both match the oracle's explicit unit h
    r = np.random.default_rng(seed)
    n, omega, v = (normalize(r.standard_normal(3)) for _ in range(3))
    omega, v = (d if d @ n > 0.0 else -d for d in (omega, v))
    if min(omega @ n, v @ n) <= 1e-3:
        return
    mat = random_material(r)
    f = reflectance(mat, n, omega, v)
    assert np.allclose(f, reflectance(mat, n, v, omega), rtol=1e-12, atol=1e-12)
    assert_matches_oracle(f, mat, n, omega, v)
    theta_d, _ = oracles.half_angles(omega, v, n)
    assert 0.0 <= theta_d <= math.pi / 2.0


# ---------------------------------------------------------------------------
# coefficient curves, control_points @ basis_matrix(theta) as the engine forms them

def test_zero_material_coefficients():
    m = material_from_raw(np.zeros(PARAM_COUNT)).control_points @ basis_matrix(0.3)
    assert m.shape == (3, 3, 2)
    assert np.array_equal(m, np.zeros((3, 3, 2)))


def test_single_constant_curve():
    raw = np.zeros(PARAM_COUNT)
    for j in range(6):
        raw[flat_index(0, 0, 0, j)] = 2.0
    m = material_from_raw(raw).control_points @ basis_matrix(0.77)
    assert m[0, 0, 0] == pytest.approx(2.0, abs=1e-14)
    m[0, 0, 0] = 0.0
    assert np.array_equal(m, np.zeros((3, 3, 2)))


def test_theta_zero_reads_first_control_points(rng):
    mat = random_material(rng)
    m = mat.control_points @ basis_matrix(0.0)
    for k in range(3):
        for s in range(3):
            for t in range(2):
                assert m[k, s, t] == mat.raw[flat_index(k, s, t, 0)]


def test_coeffs_match_spline_oracle(rng):
    mat = random_material(rng)
    for theta in (0.0, 0.2, 0.9, math.pi / 2):
        m = mat.control_points @ basis_matrix(theta)
        for k in range(3):
            for s in range(3):
                for t in range(2):
                    ref = oracles.material_coefficient(mat.raw, k, s, t, theta)
                    assert m[k, s, t] == pytest.approx(ref, abs=1e-13)


# ---------------------------------------------------------------------------
# lobe evaluation, one pixel through _shading.forward

def test_zero_material_is_black(rng):
    mat = material_from_raw(np.zeros(PARAM_COUNT))
    for _ in range(5):
        n = normalize(rng.standard_normal(3))
        assert np.array_equal(shade(mat, n, n, normalize(rng.standard_normal(3))), np.zeros(3))


def test_invalid_geometry_shades_to_zero(rng):
    # a light at or within 1e-9 of -v has no half vector; lit (n = omega) it
    # still shades to 0. Axis views keep omega . v at -1 exactly, so the
    # engine's |omega + v| = sqrt(2 + 2 omega . v) is 0 as well.
    mat = random_material(rng)
    for v in np.vstack([np.eye(3), -np.eye(3)]):
        for tilt in (0.0, 1e-9, -1e-9):
            omega = normalize(-v + tilt * np.roll(v, 1))
            assert oracles.half_angles(omega, v, omega) is None
            assert np.array_equal(shade(mat, omega, omega, v), np.zeros(3))


def test_log_two_constant_material_gives_three():
    # amplitude ln 2, exponent 0: each lobe is e^{ln 2 * base^0} - 1 = 1, at any
    # theta_d and h . n, grazing ones included
    mat = constant_material(math.log(2.0), 0.0)
    grazing = (normalize((0.3, 0.0, -1.0)), normalize((1.0, 0.0, 0.1)), Z)  # h . n below EPS_BASE
    for n, omega, v in [(Z, Z, Z), (normalize((1.0, 0.0, 2.0)), X, Z), grazing]:
        assert np.allclose(reflectance(mat, n, omega, v), [3.0, 3.0, 3.0], atol=1e-12)


def test_single_lobe_hand_value():
    raw = np.zeros(PARAM_COUNT)
    for j in range(6):
        raw[flat_index(0, 0, 0, j)] = 1.0
        raw[flat_index(0, 0, 1, j)] = 2.0
    # omega = v = z and n . z = 0.5: h . n = 0.5, so f_0 = e^{1 * 0.5^2} - 1
    f = reflectance(material_from_raw(raw), np.array([math.sqrt(0.75), 0.0, 0.5]), Z, Z)
    assert f[0] == pytest.approx(math.exp(0.25) - 1.0, abs=1e-14)
    assert f[1] == 0.0 and f[2] == 0.0


def test_eval_matches_oracle(rng):
    # random lit pairs, views on either side of the surface
    for _ in range(300):
        n, omega, v = (normalize(rng.standard_normal(3)) for _ in range(3))
        if omega @ n < 0.0:
            omega = -omega
        if omega @ n <= 1e-3:
            continue
        mat = random_material(rng)
        assert_matches_oracle(reflectance(mat, n, omega, v), mat, n, omega, v)


def test_h_dot_n_is_clamped_from_below(rng):
    # omega = x, v = z, n = (0.6, 0.8 cos phi, 0.8 sin phi): n . omega = 0.6 for
    # every phi (the same cmax), and h . n = (0.6 + 0.8 sin phi) / sqrt 2 <= 0
    # once sin phi <= -0.75, so the lobes all see base = EPS_BASE
    mat = random_material(rng)
    images = []
    for phi in (-math.asin(0.75), -0.35 * math.pi, -0.5 * math.pi, -0.6 * math.pi):
        n = np.array([0.6, 0.8 * math.cos(phi), 0.8 * math.sin(phi)])
        assert n @ X == 0.6
        assert oracles.half_angles(X, Z, n)[1] <= EPS_BASE
        images.append(shade(mat, n, X, Z))
    assert all(np.array_equal(image, images[0]) for image in images)
    ref = oracles.brdf_value(mat.raw, math.pi / 4.0, EPS_BASE)
    assert np.allclose(images[0] / (0.6 * W), ref, rtol=1e-12, atol=1e-12)


def test_overflow_is_reported():
    # three lobes of e^a - 1: a = 60 stays below OVERFLOW_LIMIT (1e30), a = 80 passes it
    n = normalize((0.0, 0.3, 1.0))
    assert np.isfinite(shade(constant_material(60.0, 0.0), n, Z, Z)).all()
    with pytest.raises(ShadingOverflowError, match=r"pixel \(0, 0\), light texel 0"):
        shade(constant_material(80.0, 0.0), n, Z, Z)


# ---------------------------------------------------------------------------
# parameter codec

def test_normalize_endpoints_and_midpoint():
    lo, hi = default_bounds()
    assert np.allclose(normalize_params(DsbrdfMaterial(lo, lo, hi)), -0.95)
    assert np.allclose(normalize_params(DsbrdfMaterial(hi, lo, hi)), 0.95)
    assert np.allclose(normalize_params(DsbrdfMaterial((lo + hi) / 2.0, lo, hi)), 0.0)


def test_denormalize_endpoints_and_midpoint():
    lo, hi = default_bounds()
    assert np.allclose(denormalize_params(np.full(PARAM_COUNT, -0.95)).raw, lo)
    assert np.allclose(denormalize_params(np.full(PARAM_COUNT, 0.95)).raw, hi)
    assert np.allclose(denormalize_params(np.zeros(PARAM_COUNT)).raw, (lo + hi) / 2.0)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_codec_round_trip(seed):
    r = np.random.default_rng(seed)
    lo, hi = default_bounds()
    raw = r.uniform(lo, hi)
    back = denormalize_params(normalize_params(material_from_raw(raw))).raw
    assert np.abs(back - raw).max() < 1e-12


def test_default_bounds_follow_parameter_roles():
    lo, hi = default_bounds()
    for k in range(3):
        for s in range(3):
            for j in range(6):
                ai = flat_index(k, s, 0, j)
                bi = flat_index(k, s, 1, j)
                assert (lo[ai], hi[ai]) == AMPLITUDE_BOUNDS
                assert (lo[bi], hi[bi]) == EXPONENT_BOUNDS


def test_material_validation():
    with pytest.raises(ValueError):
        material_from_raw(np.zeros(107))
    raw = np.zeros(PARAM_COUNT)
    raw[3] = np.inf
    with pytest.raises(ValueError):
        material_from_raw(raw)
    lo, hi = default_bounds()
    with pytest.raises(ValueError):
        DsbrdfMaterial(np.zeros(PARAM_COUNT), hi, lo)  # inverted bounds


def test_flat_index_layout_is_bijective():
    seen = {flat_index(k, s, t, j) for k in range(3) for s in range(3) for t in range(2) for j in range(6)}
    assert seen == set(range(PARAM_COUNT))
    assert flat_index(0, 0, 0, 0) == 0
    assert flat_index(2, 2, 1, 5) == PARAM_COUNT - 1
    for axis, size in enumerate((3, 3, 2, 6)):
        for bad in (size, -1):
            index = [0, 0, 0, 0]
            index[axis] = bad
            with pytest.raises(IndexError):
                flat_index(*index)
