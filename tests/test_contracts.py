"""Bit-identity contracts: caches, worker counts and fused passes never change an output bit.

The solver shades the light group through a transfer cache when it fits
``invert.TRANSFER_BUDGET_BYTES``; a zero budget takes the uncached path.
Worker threads only trade whole pixel chunks (screen tiles). Each solver evaluation takes its value and
gradient from one residual-mode backward pass. Either way every output must
come out bit-for-bit the same.
"""

import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import CRITERION_4_CONFIG, criterion_4_problem, sampled_upstream
from test_render import hot_scene
import gradshade as gs
from gradshade import _shading, invert
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


def test_solve_is_bit_identical_without_caches(solved, monkeypatch):
    problem, cached = solved
    assert cached.final_objective < cached.initial_objective
    assert {t.group for t in cached.trace} == {"normal", "light", "material"}
    monkeypatch.setattr(invert, "TRANSFER_BUDGET_BYTES", 0)
    uncached = gs.solve(problem, config())
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


@pytest.mark.parametrize("env_shape", [ENV_SHAPE, (48, 96)], ids=["few-lights", "several-light-blocks"])
@pytest.mark.parametrize("mode", MODES)
def test_sparse_backward_is_bit_identical_across_thread_counts(mode, env_shape):
    scene = two_region_scene(40, mode, env_shape)
    upstream = sampled_upstream(scene, seed=3)
    runs = [gs.backward(scene, upstream, threads=t) for t in (1, 2, 3)]
    for g in runs[1:]:
        for name in ("d_normals", "d_env", "d_materials"):
            assert getattr(g, name).tobytes() == getattr(runs[0], name).tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_restrict_joins_thinned_chunks_of_one_region_up_to_a_tile(mode):
    """Every chunk of a 10% cut lies in one region and holds at most PIXEL_TILE**2 pixels, in stream order,
    and joining leaves fewer chunks than thinning alone."""
    problem = prepare_problem(two_region_scene(40, mode))
    region_of = np.empty(problem.pixel_count, dtype=np.int64)
    for region, ci in problem.chunks:
        region_of[ci] = region
    pixels = np.random.default_rng(2).random(problem.pixel_count) < 0.1
    cut = _shading.restrict(problem, pixels)
    assert all(0 < ci.size <= _shading.PIXEL_TILE**2 and (region_of[ci] == region).all() for region, ci in cut.chunks)
    stream = np.concatenate([ci for _, ci in problem.chunks])
    assert np.concatenate([ci for _, ci in cut.chunks]).tolist() == stream[pixels[stream]].tolist()
    assert len(cut.chunks) < sum(bool(pixels[ci].any()) for _, ci in problem.chunks)


@pytest.mark.parametrize("mode", MODES)
def test_restrict_keeps_a_chunk_that_lost_no_pixels(mode):
    """Only chunks that lost pixels are joined: every pixel set gives the problem's own chunks, and a fully kept
    chunk amid a 10% cut stays as it is."""
    problem = prepare_problem(two_region_scene(40, mode))
    whole = _shading.restrict(problem, np.ones(problem.pixel_count, dtype=bool))
    assert [(r, ci.tolist()) for r, ci in whole.chunks] == [(r, ci.tolist()) for r, ci in problem.chunks]
    pixels = np.random.default_rng(2).random(problem.pixel_count) < 0.1
    middle = problem.chunks[len(problem.chunks) // 2][1]
    pixels[middle] = True
    assert any(ci.tolist() == middle.tolist() for _, ci in _shading.restrict(problem, pixels).chunks)


@pytest.mark.parametrize("mode", MODES)
def test_solve_is_bit_identical_with_several_light_blocks(mode, monkeypatch):
    problem = two_region_problem(mode, 16, (48, 96))  # every chunk lists several light blocks

    def short(threads=1):
        return gs.OptimizerConfig(max_cycles=1, inner_iters_per_group=2, threads=threads)

    single = gs.solve(problem, short())
    assert {t.group for t in single.trace} == {"normal", "light", "material"}
    for threads in (2, 3):
        assert solve_bytes(gs.solve(problem, short(threads))) == solve_bytes(single), threads
    monkeypatch.setattr(invert, "TRANSFER_BUDGET_BYTES", 0)
    assert solve_bytes(gs.solve(problem, short())) == solve_bytes(single)


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
    """One residual pass gives forward's image and backward(2 r)'s adjoints of every group bit for bit, and the Grams of its groups."""
    side, env_shape = FUSED_SCENES[kind]
    problem = two_region_problem(mode, side, env_shape)
    obj = _Objective.of(problem, 1)
    sh = obj.shading
    # a state off the priors in normals and light, and off the target's materials
    normals = two_region_scene(side, mode, env_shape).normal_map.normals[problem.normal_map.mask]
    env, materials = 1.1 * obj.env_prior, problem.materials
    listed = [_shading._listed(sh, normals[ci]).size for _, ci in sh.chunks]
    several = sum(n > _shading.LIGHT_BLOCK for n in listed)
    assert several == {"one_tile": 0, "several_tiles": len(listed), "mixed": len(listed) // 2}[kind]
    transfer = _shading.build_transfer(sh, normals, materials) if cached else None

    image = _shading.forward(sh, normals, materials, env)
    r = image - obj.target
    n_diff, env_diff = normals - obj.n_prior, env - obj.env_prior
    want_value = float(np.sum(r * r)) + obj.a * float(np.sum(n_diff * n_diff))
    want_value += obj.b * float(np.sum(env_diff * env_diff))
    grads = _shading.backward(sh, normals, materials, env, 2.0 * r, groups)  # uncached reference
    fused_image, fused, (gn, gm) = _shading.backward(
        sh, normals, materials, env, None, groups, transfer=transfer, target=obj.target
    )
    assert fused_image.tobytes() == image.tobytes()
    assert np.float64(obj.value(fused_image, normals, env)).tobytes() == np.float64(want_value).tobytes()
    assert _bytes_or_none(fused) == _bytes_or_none(grads)
    assert [gn is None, gm is None] == [grads[0] is None, grads[2] is None]
    if len(groups) == 1:  # the objective's pass for one group
        got_image, out = obj(normals, materials, env, groups[0], transfer=transfer)
        assert got_image.tobytes() == image.tobytes()
        if groups == ("light",):
            assert out.tobytes() == (grads[1] + 2.0 * obj.b * env_diff).tobytes()
        else:
            gram = gn if groups == ("normal",) else gm.reshape(-1, 36, 36)
            grad = grads[0] if groups == ("normal",) else grads[2].reshape(-1, 36)
            assert _bytes_or_none(out) == _bytes_or_none((grad, gram))


@pytest.mark.parametrize("mode", MODES)
def test_residual_backward_lists_each_chunks_lights_once(monkeypatch, mode):
    """A chunk whose image comes first (several tiles) shades it and its adjoints from one light list."""
    problem = two_region_problem(mode, 16, (48, 96))
    obj = _Objective.of(problem, 1)
    sh, normals = obj.shading, obj.n_prior
    assert all(_shading._listed(sh, normals[ci]).size > _shading.LIGHT_BLOCK for _, ci in sh.chunks)
    calls = []
    real = _shading._listed

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(_shading, "_listed", counting)
    _shading.backward(sh, normals, problem.materials, obj.env_prior, None, _shading.GROUPS, target=obj.target)
    assert len(calls) == len(sh.chunks)


ONE_TILE_ENV, SEVERAL_TILES_ENV = (16, 32), (48, 96)  # every chunk of the 16² problem lists one tile; several
# id: (pass, groups, env, sweeps of a one-tile chunk, sweeps of a several-tile chunk); a sweep is one _shaded block per tile and channel
SWEEP_CASES = {
    "normal": ("residual", {"normal"}, SEVERAL_TILES_ENV, 1, 1),
    "material": ("residual", {"material"}, SEVERAL_TILES_ENV, 1, 1),
    "both": ("residual", {"normal", "material"}, SEVERAL_TILES_ENV, 1, 1),
    "light-one-tile": ("residual", {"light"}, ONE_TILE_ENV, 1, 2),
    "light-several-tiles": ("residual", {"light"}, SEVERAL_TILES_ENV, 1, 2),  # the image comes first
    "light-transfer-one-tile": ("transfer", {"light"}, ONE_TILE_ENV, 0, 0),
    "light-transfer-several-tiles": ("transfer", {"light"}, SEVERAL_TILES_ENV, 0, 0),
    "upstream-one-tile": ("upstream", _shading.GROUPS, ONE_TILE_ENV, 1, 1),
    "upstream-several-tiles": ("upstream", _shading.GROUPS, SEVERAL_TILES_ENV, 1, 1),
    "forward-one-tile": ("forward", (), ONE_TILE_ENV, 1, 1),
    "forward-several-tiles": ("forward", (), SEVERAL_TILES_ENV, 1, 1),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
@pytest.mark.parametrize("mode", MODES)
def test_residual_backward_shades_each_tile_once(monkeypatch, mode, case):
    """Lobe sweeps per pass: the normal and material adjoints take u only after the sum over lights, so each tile
    runs its lobes once; the residual light adjoint needs u per light, so a several-tile chunk reduces its image
    first; a transfer cache runs none."""
    kind, groups, env_shape, one, several = SWEEP_CASES[case]
    problem = two_region_problem(mode, 16, env_shape)
    obj = _Objective.of(problem, 1)
    sh, normals, materials, env = obj.shading, obj.n_prior, problem.materials, obj.env_prior
    tiles = [-(-_shading._listed(sh, normals[ci]).size // _shading.LIGHT_BLOCK) for _, ci in sh.chunks]
    assert {t > 1 for t in tiles} == {env_shape == SEVERAL_TILES_ENV}
    transfer = _shading.build_transfer(sh, normals, materials) if kind == "transfer" else None
    calls = []
    real = _shading._shaded

    def counting(*args, **kw):
        for block in real(*args, **kw):
            calls.append(None)
            yield block

    monkeypatch.setattr(_shading, "_shaded", counting)
    if kind == "forward":
        _shading.forward(sh, normals, materials, env)
    elif kind == "upstream":
        _shading.backward(sh, normals, materials, env, obj.target, groups)
    else:
        _shading.backward(sh, normals, materials, env, None, groups, transfer=transfer, target=obj.target)
    assert len(calls) == 3 * sum(t * (several if t > 1 else one) for t in tiles)  # one block per channel


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of each pool the engine makes in the test, which starts with none; they are shut down after it."""
    sizes, pools = [], []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            sizes.append(max_workers)
            pools.append(self)

    monkeypatch.setattr(_shading, "ThreadPoolExecutor", RecordingExecutor)
    _shading._pool.cache_clear()
    yield sizes
    _shading._pool.cache_clear()
    for pool in pools:
        pool.shutdown()


@pytest.mark.parametrize("cpus", [4, 64, None])
def test_worker_count_is_clamped(monkeypatch, pool_sizes, cpus):
    """Pools of min(threads, cpu count) workers and at most min(threads, chunks, cpu count) threads per call.

    A huge ``threads`` asks for no huge pool; 0 or fewer runs serially.
    """
    shading_threads = []
    real = _shading._shaded

    def recording(*args, **kw):
        shading_threads.append(threading.get_ident())
        return real(*args, **kw)

    def render(threads):
        shading_threads.clear()
        return gs.render(scene, threads=threads).pixels.tobytes()

    monkeypatch.setattr(_shading, "_shaded", recording)
    monkeypatch.setattr(_shading.os, "cpu_count", lambda: cpus)
    scene = two_region_scene(SIDE, "orthographic")
    chunks = len(prepare_problem(scene).chunks)
    assert 4 < chunks < 64
    base = render(1)
    assert pool_sizes == [] and set(shading_threads) == {threading.get_ident()}
    for threads in (10**6, 3, 3):
        assert render(threads) == base
        assert len(set(shading_threads)) <= min(threads, chunks, cpus or 1)
    assert pool_sizes == ([] if cpus is None else [cpus, 3])  # one kept pool per cap; an unknown cpu count runs serially

    pool_sizes.clear()
    upstream = np.random.default_rng(3).standard_normal(scene.normal_map.normals.shape)
    problem = two_region_problem("orthographic")

    def outputs(threads):
        grads = gs.backward(scene, upstream, threads=threads)
        return (
            gs.render(scene, threads=threads).pixels.tobytes(),
            [grads.d_normals.tobytes(), grads.d_env.tobytes(), grads.d_materials.tobytes()],
            solve_bytes(gs.solve(problem, gs.OptimizerConfig(max_cycles=1, inner_iters_per_group=2, threads=threads))),
        )

    single = outputs(1)
    for threads in (0, -2):
        assert outputs(threads) == single, threads
    assert pool_sizes == []


def test_a_solve_makes_at_most_one_pool(monkeypatch, pool_sizes):
    """The criterion-4 solve at 2 threads shares one pool across its hundreds of engine calls, bit for bit as 1 thread."""
    monkeypatch.setattr(_shading.os, "cpu_count", lambda: 2)
    problem = criterion_4_problem()
    single = gs.solve(problem, gs.OptimizerConfig(**CRITERION_4_CONFIG, threads=1))
    assert pool_sizes == []
    assert solve_bytes(gs.solve(problem, gs.OptimizerConfig(**CRITERION_4_CONFIG, threads=2))) == solve_bytes(single)
    assert pool_sizes == [2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")  # Python 3.12 on fork
def test_a_forked_child_renders_on_a_pool_of_its_own(monkeypatch):
    """A child has none of its parent's pool threads: its 2-thread render must not wait on them."""
    monkeypatch.setattr(_shading.os, "cpu_count", lambda: 2)
    scene = two_region_scene(SIDE, "orthographic")
    parent = gs.render(scene, threads=2).pixels.tobytes()  # the parent's pool exists from here
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(gs.render(scene, threads=2).pixels.tobytes()))
    child.start()
    try:
        assert receive.poll(20), "the forked child's 2-thread render did not finish within 20 s"
        assert receive.recv() == parent
        child.join(20)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
        child.join()


def test_concurrent_callers_share_one_pool(monkeypatch, pool_sizes):
    """Eight callers rendering at once through one 2-thread pool each get the serial bytes (a thread's store serves one
    chunk at a time), and their first calls make one pool between them however slow a pool is to make."""
    monkeypatch.setattr(_shading.os, "cpu_count", lambda: 2)
    recording = _shading.ThreadPoolExecutor  # pool_sizes' recording class

    def slow_pool(max_workers):
        time.sleep(0.02)
        return recording(max_workers)

    monkeypatch.setattr(_shading, "ThreadPoolExecutor", slow_pool)
    scenes = 2 * [two_region_scene(side, mode) for side in (SIDE, SIDE + 5) for mode in MODES]  # chunk shapes differ
    expected = [gs.render(scene, threads=1).pixels.tobytes() for scene in scenes]
    got = [None] * len(scenes)
    start = threading.Barrier(len(scenes))

    def run(i):
        start.wait(30)
        got[i] = gs.render(scenes[i], threads=2).pixels.tobytes()

    callers = [threading.Thread(target=run, args=(i,)) for i in range(len(scenes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == expected
    assert pool_sizes == [2]


def test_a_pool_that_saw_an_overflow_serves_the_next_call(monkeypatch):
    """A chunk's ShadingOverflowError leaves the shared pool and its threads' scratch fit for the next render."""
    monkeypatch.setattr(_shading.os, "cpu_count", lambda: 2)
    hot = hot_scene(24)
    assert len(prepare_problem(hot).chunks) > 2
    with pytest.raises(gs.ShadingOverflowError):
        gs.render(hot, threads=2)
    scene = two_region_scene(SIDE, "orthographic")
    assert gs.render(scene, threads=2).pixels.tobytes() == gs.render(scene, threads=1).pixels.tobytes()
