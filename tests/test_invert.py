"""Inverse rendering: the L-BFGS core, the Gauss-Newton blocks and the alternating solver."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_material
from test_contracts import two_region_problem, two_region_scene
from test_grad import region_of
import gradshade as gs
from gradshade import _shading, invert
from gradshade.brdf import PARAM_COUNT, flat_index, material_from_raw
from gradshade.core import NormalMap
from gradshade.invert import InverseProblem, OptimizerConfig, _Objective, lbfgs_minimize, solve
from gradshade.render import build_light_table

TIGHT = OptimizerConfig(rel_tol=1e-18)


# ---------------------------------------------------------------------------
# L-BFGS core

def test_lbfgs_quadratic_dim10(rng):
    c = rng.standard_normal(10)

    def fg(x):
        return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

    res = lbfgs_minimize(fg, np.zeros(10), replace(TIGHT, inner_iters_per_group=50))
    assert res.iterations <= 5
    assert np.linalg.norm(res.x - c) < 1e-8


def diagonal_bowl(x):
    """x^T D x with D = diag(1..20), criterion 7's kappa=20 problem."""
    diag = np.arange(1.0, 21.0)
    return float(x @ (diag * x)), 2.0 * diag * x


def test_lbfgs_ill_conditioned_diagonal():
    res = lbfgs_minimize(diagonal_bowl, np.ones(20), replace(TIGHT, inner_iters_per_group=60))
    assert res.value < 1e-10
    assert res.iterations <= 60


def test_lbfgs_stationary_start_returns_immediately():
    def fg(x):
        return float(x @ x), 2.0 * x

    res = lbfgs_minimize(fg, np.zeros(4), replace(TIGHT, inner_iters_per_group=10))
    assert res.iterations == 0
    assert res.value == 0.0


def test_lbfgs_iterates_never_increase(rng):
    # slightly nasty quartic bowl
    def fg(x):
        v = float(np.sum(x**4) + np.sum(x**2))
        return v, 4.0 * x**3 + 2.0 * x

    res = lbfgs_minimize(fg, rng.uniform(-2, 2, 8), replace(TIGHT, inner_iters_per_group=40))
    values = [v for v, _ in res.trace]
    assert len(values) == res.iterations > 0
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert res.value <= values[0]


def test_lbfgs_line_search_failure_at_first_iterate():
    # a lying oracle: the reported gradient points downhill-to-uphill, so the
    # search direction increases f and no backtrack can satisfy Armijo
    def fg(x):
        return float(x @ x), -2.0 * x

    # one positive-definite pair: the two-loop direction is still "descent" for the lie
    memory = [(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), 0.5)]
    res = lbfgs_minimize(fg, np.ones(3), OptimizerConfig(inner_iters_per_group=10), memory=memory)
    assert np.array_equal(res.x, np.ones(3)) and res.value == 3.0
    assert (res.iterations, res.stop_reason, res.trace) == (0, "line_search", [])
    assert res.evaluations == 1 + 1 + invert.MAX_BACKTRACKS  # x0, then the first trial and every backtrack
    assert memory == []  # cleared in place, so the next run on the problem starts cold


def test_lbfgs_line_search_failure_at_a_later_iterate_keeps_the_memory():
    # the bowl turns to +inf everywhere after three value calls: two steps are
    # accepted, then no trial of the third iteration is
    memory = []
    seen = []  # the pairs in the caller's memory list at each value call

    def fg(x):
        seen.append(list(memory))
        value, grad = diagonal_bowl(x)
        return (value if len(seen) <= 3 else np.inf), grad

    res = lbfgs_minimize(fg, np.ones(20), OptimizerConfig(inner_iters_per_group=10), memory=memory)
    assert (res.iterations, res.stop_reason) == (2, "line_search")
    assert res.evaluations == len(seen) == 3 + 1 + invert.MAX_BACKTRACKS
    assert res.value == res.trace[-1][0] < 20.0
    assert len(memory) == 2
    # the failed trials saw the pairs of the two accepted steps, which the run then kept
    assert all(p is q for snapshot in seen[3:] for p, q in zip(memory, snapshot, strict=True))


def test_lbfgs_projection_hook_keeps_feasible(rng):
    # minimize distance to a point outside the feasible box, projected onto it
    c = np.array([2.0, 2.0])

    def fg(x):
        return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

    res = lbfgs_minimize(
        fg, np.zeros(2), replace(TIGHT, inner_iters_per_group=30), project=lambda x: np.clip(x, -1.0, 1.0)
    )
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_lbfgs_first_step_from_empty_memory_has_at_most_unit_length():
    # ||g0|| = 100 here, so the full step -g would land 100 away from x0
    c = np.array([30.0, -40.0])
    trials = []

    def fg(x):
        trials.append(x.copy())
        return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

    res = lbfgs_minimize(fg, np.zeros(2), replace(TIGHT, inner_iters_per_group=20))
    assert np.linalg.norm(trials[1] - trials[0]) <= 1.0 + 1e-12
    assert np.allclose(trials[1], c / 50.0, rtol=1e-12)
    assert np.linalg.norm(res.x - c) < 1e-8


def test_lbfgs_memory_is_extended_in_place_and_capped(monkeypatch):
    memory = []
    sizes = []  # length of the caller's memory list at each value call

    def fg(x):
        sizes.append(len(memory))
        return diagonal_bowl(x)

    monkeypatch.setattr(invert, "MEMORY_PAIRS", 3)
    res = lbfgs_minimize(fg, np.ones(20), OptimizerConfig(inner_iters_per_group=10), memory=memory)
    # x0 and the first trial see no pairs; each accepted step adds one, up to the cap
    assert res.iterations == 10 and len(memory) == 3
    assert sizes == [0, 0, 1, 2] + [3] * (res.evaluations - 4)
    for s, y, rho in memory:
        assert rho == 1.0 / float(s @ y)
    # memory longer than the cap is trimmed to its newest pairs before the first step
    newest = memory[-2:]
    sizes.clear()
    monkeypatch.setattr(invert, "MEMORY_PAIRS", 2)
    lbfgs_minimize(fg, np.ones(20), OptimizerConfig(inner_iters_per_group=4), memory=memory)
    assert max(sizes[1:]) == 2 and len(memory) == 2
    assert all(not any(p is q for q in memory) for p in newest)  # both replaced by later pairs


def test_lbfgs_warm_start_takes_fewer_evaluations_on_kappa_20_diagonal():
    # a run continued with the memory of the run that got it there needs
    # fewer value calls than one continued cold
    memory = []
    first = lbfgs_minimize(diagonal_bowl, np.ones(20), replace(TIGHT, inner_iters_per_group=10), memory=memory)
    assert len(memory) == invert.MEMORY_PAIRS
    long_run = replace(TIGHT, inner_iters_per_group=60)
    warm = lbfgs_minimize(diagonal_bowl, first.x, long_run, memory=memory)
    cold = lbfgs_minimize(diagonal_bowl, first.x, long_run)
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


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["a", "b"])
def test_regularizer_weights_must_be_non_negative_and_finite(name, bad):
    prob = make_problem()
    replace(prob, **{name: 0.0})  # a zero weight switches its prior off
    with pytest.raises(ValueError):
        replace(prob, **{name: bad})


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["rel_tol"])
def test_tolerances_must_be_positive_and_finite(name, bad):
    with pytest.raises(ValueError):
        OptimizerConfig(**{name: bad})


def objective_at(prob, env, group=None):
    """The solver's objective at the problem's normals and materials under ``env``: value, and the group's pass output.

    Without a group the image comes from a plain forward and the output is None.
    """
    obj = _Objective.of(prob, 1)
    env = env.reshape(-1, 3)
    if group is None:
        image, out = _shading.forward(obj.shading, obj.n_prior, prob.materials, env), None
    else:
        image, out = obj(obj.n_prior, prob.materials, env, group)
    return obj.value(image, obj.n_prior, env), out


def test_objective_zero_at_ground_truth():
    prob = make_problem()
    assert objective_at(prob, prob.env.radiance)[0] == 0.0
    value, denv = objective_at(prob, prob.env.radiance, "light")
    assert value == 0.0 and np.abs(denv).max() < 1e-12
    # the residual is 0, so the Gauss-Newton gradient 2 J^T r is too, whatever J^T J is
    for group, blocks, width in (("normal", prob.normal_map.mask.sum(), 3), ("material", 3, 36)):
        value, (grad, gram) = objective_at(prob, prob.env.radiance, group)
        assert value == 0.0 and grad.shape == (blocks, width) and not grad.any()
        assert gram.shape == (blocks, width, width) and np.isfinite(gram).all() and gram.any()


def test_objective_gradients_match_finite_differences(rng):
    prob = make_problem(free=frozenset({"light"}))
    env0 = prob.env.radiance * rng.uniform(0.5, 1.5, prob.env.radiance.shape)
    value, denv = objective_at(prob, env0, "light")
    d_env = denv.reshape(env0.shape)
    step = 1e-4
    for probe in range(6):
        h = int(rng.integers(0, env0.shape[0]))
        w = int(rng.integers(0, env0.shape[1]))
        k = int(rng.integers(0, 3))
        delta = step * max(1.0, abs(env0[h, w, k]))
        plus, minus = env0.copy(), env0.copy()
        plus[h, w, k] += delta
        minus[h, w, k] -= delta
        vp, _ = objective_at(prob, plus)
        vm, _ = objective_at(prob, minus)
        fd = (vp - vm) / (2.0 * delta)
        assert d_env[h, w, k] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_objective_includes_regularizers():
    prob = make_problem()
    # move the environment away from the prior; image term changes too, but the
    # b * ||L - L'||^2 term must appear in the difference against a=b=0
    env2 = prob.env.radiance + 0.1
    with_reg, _ = objective_at(prob, env2)
    bare_problem = InverseProblem(
        target=prob.target, normal_map=prob.normal_map, env=prob.env,
        materials=prob.materials, camera=prob.camera, a=0.0, b=0.0,
    )
    without_reg, _ = objective_at(bare_problem, env2)
    expected_gap = prob.b * float(np.sum((env2 - prob.env.radiance) ** 2))
    assert with_reg - without_reg == pytest.approx(expected_gap, rel=1e-12)


# ---------------------------------------------------------------------------
# alternating solve

def test_solve_at_ground_truth_stays_at_ground_truth():
    prob = make_problem(free=frozenset({"material"}))
    res = solve(prob, OptimizerConfig(max_cycles=3))
    # a stationary start: one pass at x0, whose gradient is 0, and nothing moves
    assert [(r.iterations, r.evaluations, r.stop_reason) for r in res.runs] == [(0, 1, "gradient")]
    assert res.initial_objective == 0.0
    assert res.final_objective == 0.0 and res.trace == ()
    assert res.materials[0].raw.tobytes() == prob.materials[0].raw.tobytes()
    # frozen groups must come back bit-identical
    assert np.array_equal(res.env.radiance, prob.env.radiance)
    assert np.array_equal(res.normal_map.normals, prob.normal_map.normals)
    # the same for the normal group
    res = solve(make_problem(free=frozenset({"normal"})), OptimizerConfig(max_cycles=3))
    assert [(r.iterations, r.evaluations, r.stop_reason) for r in res.runs] == [(0, 1, "gradient")]
    assert res.normal_map.normals.tobytes() == prob.normal_map.normals.tobytes()


def test_solve_on_an_empty_foreground_stops_at_its_first_pass():
    """An all-background map leaves the normal and material groups no block: each run stops at x0."""
    cam = gs.Camera("orthographic", 8, 8)
    prob = InverseProblem(
        target=gs.RadianceImage(np.zeros((8, 8, 3))),
        normal_map=NormalMap(np.zeros((8, 8, 3)), np.zeros((8, 8), dtype=bool)),
        env=gs.default_blob_env(4, 8),
        materials=(gs.preset_materials()["matte"],),
        camera=cam,
    )
    res = solve(prob, OptimizerConfig(max_cycles=2))
    assert res.initial_objective == res.final_objective == 0.0
    assert [(r.group, r.iterations, r.stop_reason) for r in res.runs] == [
        ("normal", 0, "gradient"), ("light", 0, "gradient"), ("material", 0, "gradient")
    ]


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
    # no plain forward: the initial objective comes from the first run's x0 pass, and
    # every evaluation is one residual-mode backward that yields the image with the
    # light gradient or with the Jacobian rows of the normals or materials
    assert counts["forward"] == 0
    order = ("normal", "light", "material")
    assert [(r.cycle, r.group) for r in res.runs] == [(c, g) for c in range(res.cycles) for g in order]
    assert counts["backward"] == sum(r.evaluations for r in res.runs)
    assert_trace_follows_runs(res)
    # some evaluation kept no step: a line-search backtrack or a pass whose blocks were all refused
    assert counts["backward"] > sum(r.iterations + 1 for r in res.runs)
    assert res.cycles == 3
    # a Gauss-Newton run makes at most 8 trial passes after x0; so does a warm light run here
    assert all(r.evaluations <= 9 for r in res.runs if r.group != "light" or r.cycle > 0)


def assert_trace_follows_runs(res):
    """The trace holds iterations 1..n of each run's (cycle, group), run after run; a 0-iteration run has none."""
    expected = [(r.cycle, r.group, it) for r in res.runs for it in range(1, r.iterations + 1)]
    assert [(t.cycle, t.group, t.iteration) for t in res.trace] == expected


def test_solve_trace_follows_the_runs():
    res = solve(make_brighter_env_problem(), OptimizerConfig(max_cycles=3, inner_iters_per_group=8))
    assert len({r.iterations for r in res.runs}) > 1
    assert_trace_follows_runs(res)


def test_solve_runs_a_subset_of_free_groups_in_the_fixed_order():
    # whatever order the free-group set iterates in, each cycle runs normal before material
    prob = replace(make_brighter_env_problem(), free_groups=frozenset({"material", "normal"}))
    res = solve(prob, OptimizerConfig(max_cycles=2, inner_iters_per_group=4))
    assert res.cycles == 2
    assert [(r.cycle, r.group) for r in res.runs] == [(0, "normal"), (0, "material"), (1, "normal"), (1, "material")]
    steps = [(t.cycle, _shading.GROUPS.index(t.group)) for t in res.trace]
    assert steps and steps == sorted(steps)
    assert res.env.radiance.tobytes() == prob.env.radiance.tobytes()


def test_solve_clears_the_memory_of_a_group_whose_line_search_fails(monkeypatch):
    prob = make_brighter_env_problem()
    real = invert.lbfgs_minimize
    handed = []  # (memory list, its length) at the start of each light run

    def light_fails_in_cycle_two(fun, x0, config, *, memory, **kwargs):
        handed.append((memory, len(memory)))
        if len(handed) == 2:  # every trial after x0 reads +inf, so no step is accepted
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
    # L-BFGS serves the light group alone, with one memory list kept across cycles
    assert res.cycles == 3 and len(handed) == 3
    assert all(m is handed[0][0] for m, _ in handed)
    sizes = [n for _, n in handed]
    assert sizes[0] == 0 and sizes[1] > 0
    assert sizes[2] == 0  # light starts cold after its failed run
    failed = res.runs[4]
    assert (failed.cycle, failed.group, failed.iterations, failed.stop_reason) == (1, "light", 0, "line_search")
    assert failed.evaluations == 1 + 1 + invert.MAX_BACKTRACKS
    assert not any(t.cycle == 1 and t.group == "light" for t in res.trace)
    assert_trace_follows_runs(res)


def test_solve_frees_each_transfer_cache_when_its_light_run_ends(monkeypatch):
    """No transfer cache outlives its light run: each is garbage when the next group run starts."""
    caches = []  # a weak reference to each cache built
    seen = []  # at the start of each group run: whether each cache built so far is dead
    real_build = _shading.build_transfer

    def recording_build(*args, **kwargs):
        cache = real_build(*args, **kwargs)
        caches.append(weakref.ref(cache))
        return cache

    def checked(run):
        def wrapped(*args, **kwargs):
            gc.collect()
            seen.append([ref() is None for ref in caches])
            return run(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(_shading, "build_transfer", recording_build)
    monkeypatch.setattr(invert, "_gauss_newton", checked(invert._gauss_newton))
    monkeypatch.setattr(invert, "_light_run", checked(invert._light_run))
    problem = two_region_problem("orthographic", 16, (16, 32))
    res = solve(problem, OptimizerConfig(max_cycles=2, inner_iters_per_group=4))
    assert res.cycles == 2 and len(caches) == 2 and len(seen) == 6  # a cache per light run
    assert [len(dead) for dead in seen] == [0, 0, 1, 1, 1, 2]
    assert all(all(dead) for dead in seen)
    gc.collect()
    assert all(ref() is None for ref in caches)


def noisy_normals_problem():
    """make_problem() with only the normals free, started from normals noised by 0.05."""
    prob = make_problem(frozenset({"normal"}))
    mask = prob.normal_map.mask
    n = prob.normal_map.normals + 0.05 * np.random.default_rng(3).standard_normal((12, 12, 3)) * mask[:, :, None]
    n[mask] /= np.linalg.norm(n[mask], axis=1, keepdims=True)
    return replace(prob, normal_map=NormalMap(n, mask))


@pytest.mark.parametrize("mode", ["orthographic", "pinhole"])
def test_restricted_pass_matches_the_full_pass_at_its_pixels(mode):
    """A pass over ~10% of the pixels: their image and normal blocks within 1e-13 of the full pass's largest, 0 elsewhere.

    Not bit for bit: a chunk that keeps fewer pixels may list fewer lights. A cut that keeps whole regions keeps
    their chunks as they are, so its material blocks are the full pass's bytes for those regions, and 0 for the rest.
    """
    problem = two_region_problem(mode)
    obj = _Objective.of(problem, 1)
    sh = obj.shading
    pixels = np.random.default_rng(2).random(sh.pixel_count) < 0.1
    cut = _shading.restrict(sh, pixels)
    stream = np.concatenate([ci for _, ci in sh.chunks])
    assert np.concatenate([ci for _, ci in cut.chunks]).tolist() == stream[pixels[stream]].tolist()
    assert all(ci.size for _, ci in cut.chunks) and len(cut.chunks) < len(sh.chunks)
    args = (obj.n_prior, problem.materials, obj.env_prior)
    full = {group: obj(*args, group) for group in ("normal", "material")}
    for group, (full_image, full_blocks) in full.items():
        image, blocks = obj(*args, group, pixels=pixels)
        assert not image[~pixels].any()
        assert np.abs(image[pixels] - full_image[pixels]).max() <= 1e-13 * np.abs(full_image).max()
        if group == "normal":  # per pixel: 2 J^T r (F, 3) and J^T J (F, 3, 3)
            for got, want in zip(blocks, full_blocks):
                assert not got[~pixels].any()
                assert np.abs(got[pixels] - want[pixels]).max() <= 1e-13 * np.abs(want).max()
    first = region_of(sh) == 0
    full_image, full_blocks = full["material"]
    image, blocks = obj(*args, "material", pixels=first)
    assert image[first].tobytes() == full_image[first].tobytes() and not image[~first].any()
    for got, want in zip(blocks, full_blocks):  # per (region, channel): 2 J^T r (6, 36) and J^T J (6, 36, 36)
        assert got[:3].tobytes() == want[:3].tobytes() and want[3:].any() and not got[3:].any()


def test_material_trial_passes_shade_whole_regions(monkeypatch):
    """A trial pass shades every pixel of each region with a moving channel, so a kept block's Gram is whole.

    Region 1 starts at its true material under the true normals and light, so its blocks never move.
    """
    scene = two_region_scene(16, "orthographic", (16, 32))
    matte = gs.preset_materials()["matte"]
    problem = InverseProblem(
        target=gs.render(scene), normal_map=scene.normal_map, env=scene.env, materials=(matte, matte),
        camera=scene.camera, segmentation=scene.segmentation, free_groups=frozenset({"material"}),
    )
    first = region_of(_Objective.of(problem, 1).shading) == 0
    cuts = []
    real = _shading.restrict

    def recording(shading, pixels):
        cuts.append(pixels.copy())
        return real(shading, pixels)

    monkeypatch.setattr(_shading, "restrict", recording)
    res = solve(problem, OptimizerConfig(max_cycles=2, inner_iters_per_group=4))
    assert res.final_objective < res.initial_objective
    assert len(cuts) == sum(r.evaluations - 1 for r in res.runs) > 0
    assert all(np.array_equal(pixels, first) for pixels in cuts)
    assert res.materials[1].raw.tobytes() == matte.raw.tobytes()


@pytest.mark.parametrize("side", [64, 192])
def test_material_solve_memory_per_foreground_pixel(side):
    """A one-cycle material-only solve (its x0 pass and one trial) peaks under 1 KB per foreground pixel.

    The residual pass returns a Gram matrix per (region, channel), not a Jacobian row per pixel; with the rows,
    (F, 3, 36) per pass, the peak was about 3.6 KB per pixel at both sizes.
    """
    nm = gs.sphere_normal_map(side)
    cam, env, presets = gs.Camera("orthographic", side, side), gs.default_blob_env(8, 16), gs.preset_materials()
    problem = InverseProblem(
        target=gs.render(gs.RenderScene(nm, cam, env, (presets["glossy"],))), normal_map=nm, env=env,
        materials=(presets["matte"],), camera=cam, free_groups=frozenset({"material"}),
    )
    config = OptimizerConfig(max_cycles=1, inner_iters_per_group=1)
    solve(problem, config)  # sizes the shading scratch, which persists across calls
    tracemalloc.start()
    try:
        res = solve(problem, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(r.group, r.evaluations) for r in res.runs] == [("material", 2)]
    assert peak / nm.mask.sum() < 1024, peak / nm.mask.sum()


def test_normal_run_never_raises_a_pixel_term(monkeypatch):
    """Each pixel is its own block: a pass keeps a pixel's step only where that pixel's term fell."""
    seen = []  # each pixel's term of E, at x0 and after each accepted pass
    real = invert._normal_blocks

    def recording(obj):
        pack, unpack, cells, terms, model, move = real(obj)

        def recorded(n, r, *blocks):
            out = model(n, r, *blocks)
            seen.append(out[0])
            return out

        return pack, unpack, cells, terms, recorded, move

    monkeypatch.setattr(invert, "_normal_blocks", recording)
    res = solve(noisy_normals_problem(), OptimizerConfig(max_cycles=1, inner_iters_per_group=10))
    (run,) = res.runs
    assert run.iterations == len(seen) - 1 >= 3
    assert all((later <= earlier).all() and (later < earlier).any() for earlier, later in zip(seen, seen[1:]))
    assert res.final_objective == pytest.approx(float(np.sum(seen[-1])), rel=1e-12)


def test_gauss_newton_leaves_a_pixel_that_sees_no_light_where_it_was():
    """a = 0 and a pixel whose only light is behind it: its J^T r, J^T J, H and g are 0, and its step is 0, not NaN."""
    table = build_light_table(6, 12)
    omega = table.directions[2, 3]
    env = np.zeros((6, 12, 3))
    env[2, 3] = 50.0  # the one light
    rng = np.random.default_rng(12)
    truth = omega + 0.3 * rng.standard_normal((4, 4, 3))
    truth /= np.linalg.norm(truth, axis=2, keepdims=True)
    truth[0, 0] = -omega
    start = truth + 0.05 * rng.standard_normal((4, 4, 3))
    start /= np.linalg.norm(start, axis=2, keepdims=True)
    start[0, 0] = -omega
    mask = np.ones((4, 4), dtype=bool)
    cam, mat = gs.Camera("orthographic", 4, 4), gs.preset_materials()["matte"]
    target = gs.render(gs.RenderScene(NormalMap(truth, mask), cam, gs.EnvironmentMap(env), (mat,)))
    assert not target.pixels[0, 0].any()
    prob = InverseProblem(
        target=target, normal_map=NormalMap(start, mask), env=gs.EnvironmentMap(env), materials=(mat,),
        camera=cam, a=0.0, free_groups=frozenset({"normal"}),
    )
    obj = _Objective.of(prob, 1)
    grad, gram = obj(obj.n_prior, prob.materials, obj.env_prior, "normal")[1]
    assert not grad[0].any() and not gram[0].any()  # pixel (0, 0) leads the stream
    res = solve(prob, OptimizerConfig(max_cycles=2, inner_iters_per_group=6))
    assert res.runs[0].iterations > 0 and res.final_objective < res.initial_objective
    assert np.isfinite(res.normal_map.normals).all()
    assert res.normal_map.normals[0, 0].tobytes() == prob.normal_map.normals[0, 0].tobytes()
    assert not np.array_equal(res.normal_map.normals, prob.normal_map.normals)


def test_normal_runs_shade_only_the_moving_pixels_on_the_benchmark_solve():
    """The criterion-4 problem as the benchmark's solve_full runs it: a normal run's trial passes skip settled pixels."""
    nm = gs.sphere_normal_map(32)
    env = gs.default_blob_env(16, 32)
    mat = gs.preset_materials()["glossy"]
    cam = gs.Camera("orthographic", 32, 32)
    target = gs.render(gs.RenderScene(nm, cam, env, (mat,)))
    noisy = nm.normals + 0.1 * np.random.default_rng(140825).standard_normal(nm.normals.shape)
    noisy[~nm.mask] = 0.0
    norms = np.linalg.norm(noisy, axis=2, keepdims=True)
    noisy = np.where(nm.mask[:, :, None], noisy / np.where(norms == 0, 1.0, norms), 0.0)
    prob = InverseProblem(
        target=target, normal_map=NormalMap(noisy, nm.mask), env=gs.EnvironmentMap(env.radiance * 1.2),
        materials=(mat,), camera=cam,
    )
    res = solve(prob, OptimizerConfig(max_cycles=3, inner_iters_per_group=12, rel_tol=1e-8))
    pixels = int(nm.mask.sum())
    assert all(r.shaded_pixels == r.evaluations * pixels for r in res.runs if r.group == "light")
    assert all(pixels <= r.shaded_pixels <= r.evaluations * pixels for r in res.runs)
    assert any(r.shaded_pixels < r.evaluations * pixels for r in res.runs if r.group == "normal")


def test_solve_starts_from_the_free_materials_clipped_into_their_box(monkeypatch):
    """A free material outside its box: every pass shades a feasible state, and E never rises from the initial objective."""
    nm = gs.sphere_normal_map(12)
    env = gs.default_blob_env(6, 12)
    glossy = gs.preset_materials()["glossy"]
    raw = glossy.raw.copy()
    raw[[flat_index(k, 1, 1, j) for k in range(3) for j in range(6)]] = 30.0  # sharp-lobe exponents above hi = 20
    mat = glossy.with_raw(raw)
    cam = gs.Camera("orthographic", 12, 12)
    target = gs.render(gs.RenderScene(nm, cam, env, (mat,)))
    n = nm.normals + np.random.default_rng(5).uniform(-0.02, 0.02, nm.normals.shape)
    n[nm.mask] /= np.linalg.norm(n[nm.mask], axis=1, keepdims=True)
    n[~nm.mask] = 0.0
    prob = InverseProblem(target=target, normal_map=NormalMap(n, nm.mask), env=env, materials=(mat,), camera=cam)
    clipped = mat.with_raw(np.clip(raw, mat.lo, mat.hi))
    assert not np.array_equal(clipped.raw, raw)

    real = _shading.backward
    shaded = []  # the materials of every pass

    def checked(problem, normals, materials, *args, **kwargs):
        shaded.append(materials)
        assert all((m.lo <= m.raw).all() and (m.raw <= m.hi).all() for m in materials)
        return real(problem, normals, materials, *args, **kwargs)

    monkeypatch.setattr(_shading, "backward", checked)
    res = solve(prob, OptimizerConfig(max_cycles=2, inner_iters_per_group=3))
    assert res.cycles == 2 and len(shaded) == sum(r.evaluations for r in res.runs)
    objs = [res.initial_objective] + [t.objective for t in res.trace]
    assert all(b <= a for a, b in zip(objs, objs[1:]))
    assert res.final_objective == objs[-1] < res.initial_objective
    # the initial objective is E at the clipped start, the state the first run continues from
    monkeypatch.setattr(_shading, "backward", real)
    obj = _Objective.of(prob, 1)
    image, _ = obj(obj.n_prior, (clipped,), obj.env_prior, "normal")
    assert res.initial_objective == obj.value(image, obj.n_prior, obj.env_prior)


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
    m = res.materials[0]
    assert (m.lo <= m.raw).all() and (m.raw <= m.hi).all()


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
