"""Inverse rendering: losses, the L-BFGS core, and the alternating solver."""

import numpy as np
import pytest

from conftest import random_material
import gradshade as gs
from gradshade import _shading, invert
from gradshade.brdf import PARAM_COUNT, material_from_raw, normalize_params
from gradshade.core import NormalMap
from gradshade.invert import (
    InverseProblem,
    LossWeights,
    OptimizerConfig,
    SceneState,
    lbfgs_minimize,
    loss_combined,
    loss_material,
    loss_normal,
    objective,
    solve,
)

TIGHT = OptimizerConfig(rel_tol=1e-18, grad_tol=1e-13)


def single_pixel_map(n):
    arr = np.asarray(n, dtype=float).reshape(1, 1, 3)
    return NormalMap(arr, np.ones((1, 1), dtype=bool))


# ---------------------------------------------------------------------------
# losses

def test_loss_normal_identity(sphere_scene):
    nm = sphere_scene.normal_map
    assert loss_normal(nm, nm) == 0.0


def test_loss_normal_antipodal():
    a = single_pixel_map([0.0, 0.0, 1.0])
    b = single_pixel_map([0.0, 0.0, -1.0])
    assert loss_normal(a, b) == pytest.approx(4.0, abs=1e-15)


def test_loss_normal_orthogonal_is_two():
    # ||a-b||^2 = 2 - 2 cos(angle) for unit vectors
    a = single_pixel_map([0.0, 0.0, 1.0])
    b = single_pixel_map([1.0, 0.0, 0.0])
    assert loss_normal(a, b) == pytest.approx(2.0, abs=1e-15)


def test_loss_normal_mask_mismatch():
    a = single_pixel_map([0.0, 0.0, 1.0])
    n = np.zeros((1, 1, 3))
    b = NormalMap(n, np.zeros((1, 1), dtype=bool))
    with pytest.raises(ValueError):
        loss_normal(a, b)


def test_loss_material_basics():
    x = np.zeros(PARAM_COUNT)
    assert loss_material(x, x) == 0.0
    y = x.copy()
    y[17] = 0.25
    assert loss_material(x, y) == pytest.approx(0.0625, abs=1e-15)
    lo = np.full(PARAM_COUNT, -0.95)
    hi = np.full(PARAM_COUNT, 0.95)
    assert loss_material(lo, hi) == pytest.approx(108 * 1.9**2, rel=1e-12)
    assert loss_material(lo, hi) == pytest.approx(389.88, abs=1e-10)


def test_loss_combined_weights():
    assert loss_combined(LossWeights(), 0.0, 0.0, 0.0) == 0.0
    assert loss_combined(LossWeights(), 1.0, 1.0, 1.0) == pytest.approx(11001.0)
    assert loss_combined(LossWeights(1.0, 1.0, 1.0), 2.0, 3.0, 4.0) == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# L-BFGS core

def test_lbfgs_quadratic_dim10(rng):
    c = rng.standard_normal(10)

    def fg(x):
        return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

    res = lbfgs_minimize(fg, np.zeros(10), TIGHT, max_iters=50)
    assert res.iterations <= 5
    assert np.linalg.norm(res.x - c) < 1e-8


def diagonal_bowl(x):
    """x^T D x with D = diag(1..20), criterion 7's kappa=20 problem."""
    diag = np.arange(1.0, 21.0)
    return float(x @ (diag * x)), 2.0 * diag * x


def test_lbfgs_ill_conditioned_diagonal():
    res = lbfgs_minimize(diagonal_bowl, np.ones(20), TIGHT, max_iters=60)
    assert res.value < 1e-10
    assert res.iterations <= 60


def test_lbfgs_stationary_start_returns_immediately():
    def fg(x):
        return float(x @ x), 2.0 * x

    res = lbfgs_minimize(fg, np.zeros(4), TIGHT, max_iters=10)
    assert res.iterations == 0
    assert res.value == 0.0


def test_lbfgs_iterates_never_increase(rng):
    # slightly nasty quartic bowl
    def fg(x):
        v = float(np.sum(x**4) + np.sum(x**2))
        return v, 4.0 * x**3 + 2.0 * x

    values = []
    res = lbfgs_minimize(fg, rng.uniform(-2, 2, 8), TIGHT, max_iters=40, callback=lambda i, v, g, x: values.append(v))
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert res.value <= values[0]


def test_lbfgs_line_search_failure_at_first_iterate():
    # a lying oracle: the reported gradient points downhill-to-uphill, so the
    # search direction increases f and no backtrack can satisfy Armijo
    def fg(x):
        return float(x @ x), -2.0 * x

    # one positive-definite pair: the two-loop direction is still "descent" for the lie
    memory = [(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), 0.5)]
    res = lbfgs_minimize(fg, np.ones(3), OptimizerConfig(max_backtracks=5), max_iters=10, memory=memory)
    assert np.array_equal(res.x, np.ones(3)) and res.value == 3.0
    assert (res.iterations, res.stop_reason, res.trace) == (0, "line_search", [])
    assert res.evaluations == 1 + 6  # x0, then the first trial and 5 backtracks
    assert memory == []  # cleared in place, so the next run on the problem starts cold


def test_lbfgs_line_search_failure_at_a_later_iterate_keeps_the_memory():
    # the bowl turns to +inf everywhere after three value calls: two steps are
    # accepted, then no trial of the third iteration is
    calls = []

    def fg(x):
        calls.append(None)
        value, grad = diagonal_bowl(x)
        return (value if len(calls) <= 3 else np.inf), grad

    memory = []
    seen = []
    res = lbfgs_minimize(fg, np.ones(20), OptimizerConfig(max_backtracks=5), max_iters=10, memory=memory,
                         callback=lambda i, v, g, x: seen.append(list(memory)))
    assert (res.iterations, res.stop_reason) == (2, "line_search")
    assert res.evaluations == 3 + 6
    assert res.value == res.trace[-1][0] < 20.0
    assert len(memory) == 2
    assert all(p is q for p, q in zip(memory, seen[-1], strict=True))


def test_lbfgs_projection_hook_keeps_feasible(rng):
    # minimize distance to a point outside the feasible box, projected onto it
    c = np.array([2.0, 2.0])

    def fg(x):
        return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

    res = lbfgs_minimize(
        fg, np.zeros(2), TIGHT, max_iters=30, project=lambda x: np.clip(x, -1.0, 1.0)
    )
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_lbfgs_first_step_from_empty_memory_has_at_most_unit_length():
    # ||g0|| = 100 here, so the full step -g would land 100 away from x0
    c = np.array([30.0, -40.0])
    trials = []

    def fg(x):
        trials.append(x.copy())
        return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

    res = lbfgs_minimize(fg, np.zeros(2), TIGHT, max_iters=20)
    assert np.linalg.norm(trials[1] - trials[0]) <= 1.0 + 1e-12
    assert np.allclose(trials[1], c / 50.0, rtol=1e-12)
    assert np.linalg.norm(res.x - c) < 1e-8


def test_lbfgs_memory_is_extended_in_place_and_capped():
    fg = diagonal_bowl
    memory = []
    sizes = []
    lbfgs_minimize(fg, np.ones(20), OptimizerConfig(memory_pairs=3), max_iters=10, memory=memory,
                   callback=lambda i, v, g, x: sizes.append(len(memory)))
    assert sizes == [1, 2, 3] + [3] * 7
    for s, y, rho in memory:
        assert rho == 1.0 / float(s @ y)
    # memory longer than the cap is trimmed to its newest pairs before the first step
    newest = memory[-2:]
    sizes.clear()
    lbfgs_minimize(fg, np.ones(20), OptimizerConfig(memory_pairs=2), max_iters=4, memory=memory,
                   callback=lambda i, v, g, x: sizes.append(len(memory)))
    assert max(sizes) == 2 and len(memory) == 2
    assert all(not any(p is q for q in memory) for p in newest)  # both replaced by later pairs


def test_lbfgs_warm_start_takes_fewer_evaluations_on_kappa_20_diagonal():
    # a run continued with the memory of the run that got it there needs
    # fewer value calls than one continued cold
    memory = []
    first = lbfgs_minimize(diagonal_bowl, np.ones(20), TIGHT, max_iters=10, memory=memory)
    assert len(memory) == TIGHT.memory_pairs
    warm = lbfgs_minimize(diagonal_bowl, first.x, TIGHT, max_iters=60, memory=memory)
    cold = lbfgs_minimize(diagonal_bowl, first.x, TIGHT, max_iters=60)
    assert warm.value < 1e-10 and cold.value < 1e-10
    assert warm.evaluations < cold.evaluations


# ---------------------------------------------------------------------------
# objective

def make_problem(free=frozenset({"normal", "light", "material"})):
    nm = gs.sphere_normal_map(12)
    env = gs.default_blob_env(6, 12)
    mat = gs.preset_materials()["matte"]
    cam = gs.Camera("orthographic", 12, 12)
    target = gs.render(gs.RenderScene(nm, cam, env, (mat,)))
    return InverseProblem(
        target=target, normal_map=nm, env=env, materials=(mat,), camera=cam, free_groups=free
    )


def test_objective_zero_at_ground_truth():
    prob = make_problem()
    state = SceneState(prob.normal_map, prob.materials, prob.env)
    value, grads = objective(prob, state)
    assert value == 0.0
    assert not grads.d_normals[prob.normal_map.mask].any() or np.abs(grads.d_normals).max() < 1e-12
    assert np.abs(grads.d_env).max() < 1e-12
    assert np.abs(grads.d_materials).max() < 1e-12


def test_objective_gradients_match_finite_differences(rng):
    prob = make_problem(free=frozenset({"light"}))
    env0 = prob.env.radiance * rng.uniform(0.5, 1.5, prob.env.radiance.shape)
    state = SceneState(prob.normal_map, prob.materials, gs.EnvironmentMap(env0))
    value, grads = objective(prob, state)
    step = 1e-4
    for probe in range(6):
        h = int(rng.integers(0, env0.shape[0]))
        w = int(rng.integers(0, env0.shape[1]))
        k = int(rng.integers(0, 3))
        delta = step * max(1.0, abs(env0[h, w, k]))
        plus, minus = env0.copy(), env0.copy()
        plus[h, w, k] += delta
        minus[h, w, k] -= delta
        vp, _ = objective(prob, SceneState(prob.normal_map, prob.materials, gs.EnvironmentMap(plus)))
        vm, _ = objective(prob, SceneState(prob.normal_map, prob.materials, gs.EnvironmentMap(minus)))
        fd = (vp - vm) / (2.0 * delta)
        assert grads.d_env[h, w, k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_objective_includes_regularizers():
    prob = make_problem()
    # move the environment away from the prior; image term changes too, but the
    # b * ||L - L'||^2 term must appear in the difference against a=b=0
    env2 = gs.EnvironmentMap(prob.env.radiance + 0.1)
    state = SceneState(prob.normal_map, prob.materials, env2)
    with_reg, _ = objective(prob, state)
    bare_problem = InverseProblem(
        target=prob.target, normal_map=prob.normal_map, env=prob.env,
        materials=prob.materials, camera=prob.camera, a=0.0, b=0.0,
    )
    without_reg, _ = objective(bare_problem, state)
    expected_gap = prob.b * float(np.sum((env2.radiance - prob.env.radiance) ** 2))
    assert with_reg - without_reg == pytest.approx(expected_gap, rel=1e-12)


# ---------------------------------------------------------------------------
# alternating solve

def test_solve_at_ground_truth_stays_at_ground_truth():
    prob = make_problem(free=frozenset({"material"}))
    res = solve(prob, OptimizerConfig(max_cycles=3))
    # the normalize/denormalize round trip inside the solver leaves last-ulp
    # noise, so "unchanged" means at rounding level, not bitwise
    assert res.initial_objective == 0.0
    assert res.final_objective < 1e-18
    assert np.abs(res.materials[0].raw - prob.materials[0].raw).max() < 1e-9
    # frozen groups must come back bit-identical
    assert np.array_equal(res.env.radiance, prob.env.radiance)
    assert np.array_equal(res.normal_map.normals, prob.normal_map.normals)


def test_solve_material_only_recovery_small():
    prob_gt = make_problem()
    zero = material_from_raw(np.zeros(PARAM_COUNT))
    prob = InverseProblem(
        target=prob_gt.target,
        normal_map=prob_gt.normal_map,
        env=prob_gt.env,
        materials=(zero,),
        camera=prob_gt.camera,
        free_groups=frozenset({"material"}),
    )
    res = solve(prob, OptimizerConfig(max_cycles=6, rel_tol=1e-9))
    assert res.final_objective < 0.05 * res.initial_objective
    objs = [t.objective for t in res.trace]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_solve_trace_is_monotone_across_groups(rng):
    prob_gt = make_problem()
    pert = prob_gt.normal_map.normals + 0.05 * rng.standard_normal((12, 12, 3)) * prob_gt.normal_map.mask[:, :, None]
    norms = np.linalg.norm(pert, axis=2, keepdims=True)
    pert = np.where(prob_gt.normal_map.mask[:, :, None], pert / np.where(norms == 0, 1, norms), 0.0)
    prob = InverseProblem(
        target=prob_gt.target,
        normal_map=NormalMap(pert, prob_gt.normal_map.mask),
        env=gs.EnvironmentMap(prob_gt.env.radiance * 1.15),
        materials=prob_gt.materials,
        camera=prob_gt.camera,
    )
    res = solve(prob, OptimizerConfig(max_cycles=3, inner_iters_per_group=8))
    objs = [t.objective for t in res.trace]
    assert len(objs) > 0
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert res.final_objective < res.initial_objective
    groups_seen = {t.group for t in res.trace}
    assert groups_seen.issubset({"normal", "light", "material"})


def make_brighter_env_problem():
    """make_problem() started from the env x1.15, all three groups free."""
    prob_gt = make_problem()
    return InverseProblem(
        target=prob_gt.target,
        normal_map=prob_gt.normal_map,
        env=gs.EnvironmentMap(prob_gt.env.radiance * 1.15),
        materials=prob_gt.materials,
        camera=prob_gt.camera,
    )


def test_solve_shades_each_evaluation_once(monkeypatch):
    prob = make_brighter_env_problem()
    counts = {"forward": 0, "backward": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(_shading, "forward", counting("forward", _shading.forward))
    monkeypatch.setattr(_shading, "backward", counting("backward", _shading.backward))
    res = solve(prob, OptimizerConfig(max_cycles=3, inner_iters_per_group=8))
    assert len(res.trace) > 0
    # a plain forward for the initial objective only; every later evaluation is
    # one residual-mode backward that yields its value and gradient together
    assert counts["forward"] == 1
    order = ("normal", "light", "material")
    assert [(r.cycle, r.group) for r in res.runs] == [(c, g) for c in range(res.cycles) for g in order]
    assert counts["backward"] == sum(r.evaluations for r in res.runs)
    # the gradients used: x0 of every group run, then one per accepted step
    assert sum(r.iterations + 1 for r in res.runs) == res.cycles * 3 + len(res.trace)
    assert counts["backward"] > sum(r.iterations + 1 for r in res.runs)  # it backtracked
    assert sum(r.iterations for r in res.runs) == len(res.trace)
    # warm-started runs: at most 9 evaluations each (x0 and 8 accepted steps)
    assert res.cycles == 3
    assert all(r.evaluations <= 9 for r in res.runs if r.cycle > 0)


def test_solve_follows_a_non_default_cycle_order():
    # all three groups are free, but only the groups in cycle_order run, in its order
    prob = make_brighter_env_problem()
    order = ("material", "normal")
    res = solve(prob, OptimizerConfig(max_cycles=2, inner_iters_per_group=4, cycle_order=order))
    assert [(r.cycle, r.group) for r in res.runs] == [(0, "material"), (0, "normal"), (1, "material"), (1, "normal")]
    steps = [(t.cycle, order.index(t.group)) for t in res.trace]
    assert steps and steps == sorted(steps)
    assert np.array_equal(res.env.radiance, prob.env.radiance)


def test_solve_clears_the_memory_of_a_group_whose_line_search_fails(monkeypatch):
    prob = make_brighter_env_problem()
    real = invert.lbfgs_minimize
    handed = []  # (memory list, its length) at the start of each group run

    def light_fails_in_cycle_two(fun, x0, config, *, memory, **kwargs):
        handed.append((memory, len(memory)))
        if len(handed) == 5:  # every trial after x0 reads +inf, so no step is accepted
            calls = []

            def inf_after_x0(x):
                calls.append(None)
                value, grad = fun(x)
                return (value if len(calls) == 1 else np.inf), grad

            return real(inf_after_x0, x0, config, memory=memory, **kwargs)
        return real(fun, x0, config, memory=memory, **kwargs)

    monkeypatch.setattr(invert, "lbfgs_minimize", light_fails_in_cycle_two)
    config = OptimizerConfig(max_cycles=3, inner_iters_per_group=8)
    res = solve(prob, config)
    assert res.cycles == 3 and len(handed) == 9
    # one list per group, kept across cycles
    assert all(handed[i][0] is handed[i % 3][0] for i in range(9))
    assert len({id(m) for m, _ in handed}) == 3
    sizes = [n for _, n in handed]
    assert sizes[:3] == [0, 0, 0]
    assert min(sizes[3:7]) > 0 and sizes[8] > 0
    assert sizes[7] == 0  # light starts cold after its failed run
    failed = res.runs[4]
    assert (failed.cycle, failed.group, failed.iterations, failed.stop_reason) == (1, "light", 0, "line_search")
    assert failed.evaluations == 1 + config.max_backtracks + 1
    assert not any(t.cycle == 1 and t.group == "light" for t in res.trace)


def test_solve_respects_free_groups():
    prob_gt = make_problem()
    shifted_env = gs.EnvironmentMap(prob_gt.env.radiance * 1.3)
    prob = InverseProblem(
        target=prob_gt.target,
        normal_map=prob_gt.normal_map,
        env=shifted_env,
        materials=prob_gt.materials,
        camera=prob_gt.camera,
        free_groups=frozenset({"material"}),
    )
    res = solve(prob, OptimizerConfig(max_cycles=2))
    # env and normals frozen; only the material may move
    assert np.array_equal(res.env.radiance, shifted_env.radiance)
    assert np.array_equal(res.normal_map.normals, prob_gt.normal_map.normals)


def test_solve_projections_hold(rng):
    prob_gt = make_problem()
    prob = InverseProblem(
        target=prob_gt.target,
        normal_map=prob_gt.normal_map,
        env=gs.EnvironmentMap(prob_gt.env.radiance * 0.5),
        materials=(material_from_raw(np.zeros(PARAM_COUNT)),),
        camera=prob_gt.camera,
    )
    res = solve(prob, OptimizerConfig(max_cycles=2, inner_iters_per_group=5))
    fg = res.normal_map.mask
    assert np.abs(np.linalg.norm(res.normal_map.normals[fg], axis=1) - 1.0).max() < 1e-9
    assert res.env.radiance.min() >= 0.0
    norm = normalize_params(res.materials[0])
    assert norm.min() >= -0.95 - 1e-12 and norm.max() <= 0.95 + 1e-12


# ---------------------------------------------------------------------------
# material editing

def test_edit_with_same_material_is_bit_exact(sphere_scene):
    out = gs.edit_material(sphere_scene, sphere_scene.materials)
    assert np.array_equal(out.pixels, gs.render(sphere_scene).pixels)


def test_edit_with_zero_material_blacks_foreground(sphere_scene):
    zero = material_from_raw(np.zeros(PARAM_COUNT))
    out = gs.edit_material(sphere_scene, (zero,))
    assert not out.pixels.any()


def test_edit_swap_equals_segmentation_relabel(rng):
    # 4x4 flat scene split into two regions; swapping materials must equal
    # relabeling the segmentation
    n = np.zeros((4, 4, 3))
    n[:, :, 2] = 1.0
    nm = NormalMap(n, np.ones((4, 4), dtype=bool))
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[:, 2:] = 1
    env = gs.EnvironmentMap(rng.gamma(1.0, 1.0, (4, 8, 3)))
    m0, m1 = random_material(rng, amp_range=(0.1, 1.0)), random_material(rng, amp_range=(0.1, 1.0))
    cam = gs.Camera("orthographic", 4, 4)
    scene = gs.RenderScene(nm, cam, env, (m0, m1), gs.SegmentationMask(ids, 2))
    swapped = gs.edit_material(scene, (m1, m0))
    relabeled = gs.RenderScene(nm, cam, env, (m0, m1), gs.SegmentationMask(1 - ids, 2))
    assert np.array_equal(swapped.pixels, gs.render(relabeled).pixels)


def test_edit_region_count_mismatch(sphere_scene):
    with pytest.raises(ValueError):
        gs.edit_material(sphere_scene, sphere_scene.materials * 2)
