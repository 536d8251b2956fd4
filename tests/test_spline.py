"""Quadratic B-spline basis, evaluation, and least-squares fitting.

The basis is cross-checked against a recursive Cox-de Boor oracle written
independently in tests/oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gradshade.spline import (
    CONTROL_COUNT,
    QuadBSpline,
    RankDeficientError,
    basis_matrix,
    fit,
    greville_thetas,
)

HALF_PI = math.pi / 2.0


def test_endpoints_interpolate():
    assert basis_matrix(0.0).shape == (6,)  # a scalar angle gives one row
    assert np.allclose(basis_matrix(0.0), [1, 0, 0, 0, 0, 0], atol=1e-15)
    assert np.allclose(basis_matrix(HALF_PI), [0, 0, 0, 0, 0, 1], atol=1e-15)


def test_interior_knot_support():
    # normalized t = 0.5 sits on a knot: only basis functions 2 and 3 survive
    w = basis_matrix(HALF_PI / 2.0)
    assert abs(w.sum() - 1.0) < 1e-15
    assert w[2] > 0 and w[3] > 0
    assert np.allclose(w[[0, 1, 4, 5]], 0.0, atol=1e-15)
    # and they agree with the recursion oracle, as do the other knots and ends
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert np.allclose(basis_matrix(t * HALF_PI), oracles.basis_weights(t), atol=1e-15), t


def test_basis_matches_recursion_oracle_on_grid():
    ts = np.linspace(0.0, 1.0, 257)
    mine = basis_matrix(ts * HALF_PI)
    ref = np.array([oracles.basis_weights(t) for t in ts])
    assert np.abs(mine - ref).max() < 1e-14


def test_partition_of_unity_and_local_support():
    # a 2-d block of angles gives a (rows, columns, 6) array, row by row the same
    ts = np.linspace(0.0, HALF_PI, 1000).reshape(40, 25)
    b = basis_matrix(ts)
    assert b.shape == (40, 25, 6)
    assert np.array_equal(b, np.stack([basis_matrix(row) for row in ts]))
    assert np.abs(b.sum(axis=-1) - 1.0).max() < 1e-12
    assert (b >= 0.0).all()
    assert (np.count_nonzero(b, axis=-1) <= 3).all()


def test_out_of_domain_angles_are_clamped():
    assert np.array_equal(basis_matrix(-0.3), basis_matrix(0.0))
    assert np.array_equal(basis_matrix(2.0), basis_matrix(HALF_PI))
    rows = basis_matrix(np.array([-np.inf, np.inf, np.nan]))
    assert np.array_equal(rows[:2], [basis_matrix(0.0), basis_matrix(HALF_PI)])
    # NaN is not an angle to clamp: it stays visible instead of picking a span
    assert not np.isfinite(rows[2]).all()


def test_constant_control_points_evaluate_to_constant():
    sp = QuadBSpline(np.full(6, 3.25))
    ts = np.linspace(0.0, HALF_PI, 50)
    assert np.abs(sp.evaluate(ts) - 3.25).max() < 1e-13


def test_endpoint_evaluation_returns_first_control_point():
    sp = QuadBSpline(np.array([7.0, 1.0, -2.0, 0.5, 3.0, 9.0]))
    assert sp.evaluate(0.0) == 7.0
    assert sp.evaluate(HALF_PI) == 9.0


@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
def test_evaluate_matches_oracle(cps):
    sp = QuadBSpline(np.array(cps))
    for t in (0.0, 0.1, 0.37, 0.5, 0.75, 0.99, 1.0):
        assert math.isclose(
            float(sp.evaluate(t * HALF_PI)), oracles.spline_value(cps, t), abs_tol=1e-12
        )


def test_evaluate_is_linear_in_control_points(rng):
    a = QuadBSpline(rng.standard_normal(6))
    b = QuadBSpline(rng.standard_normal(6))
    combo = QuadBSpline(2.0 * a.control_points - 0.5 * b.control_points)
    ts = rng.uniform(0.0, HALF_PI, 40)
    lhs = combo.evaluate(ts)
    rhs = 2.0 * a.evaluate(ts) - 0.5 * b.evaluate(ts)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_fit_recovers_known_spline_from_18_samples(rng):
    truth = QuadBSpline(rng.uniform(-2.0, 2.0, 6))
    thetas = np.linspace(0.0, HALF_PI, 18)
    recovered = fit(thetas, truth.evaluate(thetas))
    assert np.abs(recovered.control_points - truth.control_points).max() < 1e-8


def test_fit_exact_at_greville_abscissae(rng):
    truth = QuadBSpline(rng.uniform(-3.0, 3.0, 6))
    thetas = greville_thetas()
    assert len(thetas) == CONTROL_COUNT
    recovered = fit(thetas, truth.evaluate(thetas))
    assert np.abs(recovered.control_points - truth.control_points).max() < 1e-10


def test_fit_zero_samples_gives_zero_spline():
    thetas = np.linspace(0.0, HALF_PI, 18)
    assert np.array_equal(fit(thetas, np.zeros(18)).control_points, np.zeros(6))


def test_fit_matches_lstsq_oracle(rng):
    thetas = np.sort(rng.uniform(0.0, HALF_PI, 25))
    values = rng.standard_normal(25)
    mine = fit(thetas, values).control_points
    ref = oracles.fit_controls(thetas, values)
    assert np.abs(mine - ref).max() < 1e-9


def test_fit_rejects_degenerate_sample_placement():
    # all samples at one endpoint constrain a single control point
    thetas = np.zeros(10)
    with pytest.raises(RankDeficientError):
        fit(thetas, np.ones(10))


def test_fit_requires_six_samples():
    with pytest.raises(ValueError):
        fit(np.linspace(0, HALF_PI, 5), np.zeros(5))


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_fit_after_sampling_is_identity(seed):
    r = np.random.default_rng(seed)
    truth = QuadBSpline(r.uniform(-4.0, 4.0, 6))
    count = int(r.integers(6, 30))
    # well-spread grid with jitter; keep the ends pinned so the design matrix
    # always sees the boundary basis functions
    thetas = np.linspace(0.0, HALF_PI, count)
    if count > 6:
        jitter = r.uniform(-0.4, 0.4, count) * (HALF_PI / count)
        thetas = np.clip(thetas + jitter, 0.0, HALF_PI)
    recovered = fit(thetas, truth.evaluate(thetas))
    assert np.abs(recovered.control_points - truth.control_points).max() < 1e-8
