"""Bit-identity contracts: caches, worker counts and fused passes never change an output bit.

The solver shades the light group through a transfer cache when it fits its
byte budget; a zero budget takes the uncached path. Worker threads only trade
whole pixel chunks (screen tiles). Each solver evaluation takes its value and
gradient from one residual-mode backward pass. Either way every output must
come out bit-for-bit the same.
"""

import numpy as np
import pytest

import gradshade as gs
from gradshade import _shading
from gradshade.brdf import NORM_LIMIT
from gradshade.invert import _Objective
from gradshade.render import prepare_problem

MODES = ("orthographic", "pinhole")
SIDE = 20
ENV_SHAPE = (24, 48)


def two_region_scene(side, mode, env_shape=ENV_SHAPE):
    nm = gs.sphere_normal_map(side)
    cols = np.broadcast_to(np.arange(side)[None, :] >= side // 2, nm.mask.shape)
    seg = gs.SegmentationMask(np.where(nm.mask, cols.astype(np.int32), -1), 2)
    presets = gs.preset_materials()
    cam = gs.Camera(mode, side, side, 50.0)
    return gs.RenderScene(nm, cam, gs.default_blob_env(*env_shape), (presets["glossy"], presets["matte"]), seg)


def two_region_problem(mode, side=SIDE, env_shape=ENV_SHAPE):
    """A solve that starts away from the target in every group."""
    scene = two_region_scene(side, mode, env_shape)
    target = gs.render(scene)
    rng = np.random.default_rng(7)
    n = scene.normal_map.normals + 0.15 * rng.standard_normal(scene.normal_map.normals.shape)
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    n[~scene.normal_map.mask] = 0.0
    presets = gs.preset_materials()
    return gs.InverseProblem(
        target=target,
        normal_map=gs.NormalMap(n, scene.normal_map.mask),
        env=gs.EnvironmentMap(scene.env.radiance * 0.7),
        materials=(presets["matte"], presets["glossy"]),
        camera=scene.camera,
        segmentation=scene.segmentation,
    )


def config(**kw):
    return gs.OptimizerConfig(max_cycles=2, inner_iters_per_group=4, **kw)


def solve_bytes(res):
    """Every float of a SolveResult as bytes, so that -0.0 and 0.0 differ."""
    trace = np.array([(t.cycle, t.iteration, t.objective, t.grad_norm) for t in res.trace])
    parts = [
        [t.group for t in res.trace],
        res.cycles,
        res.runs,
        np.float64(res.initial_objective).tobytes(),
        np.float64(res.final_objective).tobytes(),
        trace.tobytes(),
        res.normal_map.normals.tobytes(),
        res.env.radiance.tobytes(),
    ]
    return parts + [m.raw.tobytes() for m in res.materials]


@pytest.fixture(scope="module", params=MODES)
def solved(request):
    problem = two_region_problem(request.param)
    return problem, gs.solve(problem, config())


def test_solve_is_bit_identical_without_caches(solved):
    problem, cached = solved
    assert cached.final_objective < cached.initial_objective
    assert {t.group for t in cached.trace} == {"normal", "light", "material"}
    uncached = gs.solve(problem, config(cache_budget_bytes=0))
    assert solve_bytes(uncached) == solve_bytes(cached)


@pytest.mark.parametrize("threads", [2, 3])
def test_solve_is_bit_identical_across_thread_counts(solved, threads):
    problem, single = solved
    assert solve_bytes(gs.solve(problem, config(threads=threads))) == solve_bytes(single)


@pytest.mark.parametrize("mode", MODES)
def test_backward_is_bit_identical_across_thread_counts(mode):
    scene = two_region_scene(40, mode)  # several screen tiles per region
    rng = np.random.default_rng(3)
    upstream = rng.standard_normal(scene.normal_map.normals.shape)
    runs = [gs.backward(scene, upstream, threads=t) for t in (1, 2, 3)]
    for g in runs[1:]:
        assert g.d_normals.tobytes() == runs[0].d_normals.tobytes()
        assert g.d_env.tobytes() == runs[0].d_env.tobytes()
        assert g.d_materials.tobytes() == runs[0].d_materials.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_backward_is_bit_identical_across_thread_counts_with_several_light_blocks(mode):
    scene = two_region_scene(16, mode, (48, 96))  # 4608 texels: a tile lists several light blocks
    upstream = np.random.default_rng(3).standard_normal(scene.normal_map.normals.shape)
    runs = [gs.backward(scene, upstream, threads=t) for t in (1, 2, 3)]
    for g in runs[1:]:
        for name in ("d_normals", "d_env", "d_materials"):
            assert getattr(g, name).tobytes() == getattr(runs[0], name).tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_solve_is_bit_identical_with_several_light_blocks(mode):
    problem = two_region_problem(mode, 16, (48, 96))  # every chunk lists several light blocks

    def short(**kw):
        return gs.OptimizerConfig(max_cycles=1, inner_iters_per_group=2, **kw)

    single = gs.solve(problem, short())
    assert {t.group for t in single.trace} == {"normal", "light", "material"}
    for kw in ({"threads": 2}, {"threads": 3}, {"cache_budget_bytes": 0}):
        assert solve_bytes(gs.solve(problem, short(**kw))) == solve_bytes(single), kw


# (side, env): one-tile chunks only; several-tile chunks only; 6 of 12 chunks of each kind
FUSED_SCENES = {"one_tile": (16, (16, 32)), "several_tiles": (16, (48, 96)), "mixed": (20, (28, 56))}
FUSED_GROUPS = [  # (groups, cached); a transfer cache serves the light group only
    pytest.param(("normal",), False, id="normal"),
    pytest.param(("light",), False, id="light"),
    pytest.param(("light",), True, id="light-transfer"),
    pytest.param(("material",), False, id="material"),
    pytest.param(_shading.GROUPS, False, id="all"),
]


def _bytes_or_none(grads):
    return [None if g is None else np.asarray(g).tobytes() for g in grads]


@pytest.mark.parametrize("groups, cached", FUSED_GROUPS)
@pytest.mark.parametrize("kind", FUSED_SCENES)
@pytest.mark.parametrize("mode", MODES)
def test_objective_pass_equals_forward_then_backward(mode, kind, groups, cached):
    """The objective's one pass gives the value and gradients of forward + backward(2 r), bit for bit."""
    side, env_shape = FUSED_SCENES[kind]
    problem = two_region_problem(mode, side, env_shape)
    obj = _Objective.of(problem, problem.scene(), 1)
    sh = obj.shading
    # a state off the priors in normals and light, and off the target's materials
    normals = two_region_scene(side, mode, env_shape).normal_map.normals[problem.normal_map.mask]
    env, materials = 1.1 * obj.env_prior, problem.materials
    listed = [_shading._listed(sh, normals[ci], {}).size for _, ci in sh.chunks]
    several = sum(n > _shading.LIGHT_BLOCK for n in listed)
    assert several == {"one_tile": 0, "several_tiles": len(listed), "mixed": len(listed) // 2}[kind]
    transfer = _shading.build_transfer(sh, normals, materials) if cached else None

    value, grads = obj(normals, materials, env, set(groups), transfer=transfer)

    image = _shading.forward(sh, normals, materials, env)
    r = image - obj.target
    n_diff, env_diff = normals - obj.n_prior, env - obj.env_prior
    want_value = float(np.sum(r * r)) + obj.a * float(np.sum(n_diff * n_diff))
    want_value += obj.b * float(np.sum(env_diff * env_diff))
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    dn, denv, dms = _shading.backward(sh, normals, materials, env, 2.0 * r, groups, transfer=transfer)
    fused = _shading.backward(sh, normals, materials, env, None, groups, transfer=transfer, target=obj.target)
    assert fused[0].tobytes() == image.tobytes()
    assert _bytes_or_none(fused[1:]) == _bytes_or_none((dn, denv, dms))
    if dn is not None:
        dn += 2.0 * obj.a * n_diff
    if denv is not None:
        denv += 2.0 * obj.b * env_diff
    if dms is not None:
        dms = [dm.reshape(-1) * ((m.hi - m.lo) / (2.0 * NORM_LIMIT)) for m, dm in zip(materials, dms)]
    assert _bytes_or_none(grads[:2]) == _bytes_or_none((dn, denv))
    assert (grads[2] is None) == (dms is None)
    assert grads[2] is None or _bytes_or_none(grads[2]) == _bytes_or_none(dms)


@pytest.mark.parametrize("mode", MODES)
def test_residual_backward_lists_each_chunks_lights_once(monkeypatch, mode):
    """A chunk whose image comes first (several tiles) shades it and its adjoints from one light list."""
    problem = two_region_problem(mode, 16, (48, 96))
    obj = _Objective.of(problem, problem.scene(), 1)
    sh, normals = obj.shading, obj.n_prior
    assert all(_shading._listed(sh, normals[ci], {}).size > _shading.LIGHT_BLOCK for _, ci in sh.chunks)
    calls = []
    real = _shading._listed

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(_shading, "_listed", counting)
    _shading.backward(sh, normals, problem.materials, obj.env_prior, None, _shading.GROUPS, target=obj.target)
    assert len(calls) == len(sh.chunks)


@pytest.mark.parametrize("cpus", [4, 64, None])
def test_worker_count_is_clamped(monkeypatch, cpus):
    """min(threads, chunks, cpu count) workers: a huge ``threads`` never asks for a huge pool."""
    sizes = []

    class RecordingExecutor:  # records the pool size and runs the chunks in this thread
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(_shading, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(_shading.os, "cpu_count", lambda: cpus)
    scene = two_region_scene(SIDE, "orthographic")
    chunks = len(prepare_problem(scene).chunks)
    assert 4 < chunks < 64
    base = gs.render(scene, threads=1).pixels
    assert sizes == []
    assert gs.render(scene, threads=10**6).pixels.tobytes() == base.tobytes()
    assert sizes == ([] if cpus is None else [min(cpus, chunks)])  # an unknown cpu count runs serially
