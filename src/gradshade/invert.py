"""Inverse rendering: projected L-BFGS, per-block Gauss-Newton, and the alternating solver.

The solver minimizes

    E(n, L, m) = sum_fg || render(n, L, m) - I* ||^2
               + a sum_fg || n - n' ||^2  +  b sum || L - L' ||^2

by cycling through the free parameter groups (normals, light, material), each
getting a short run while the other two stay frozen. A solve starts from the
problem's initial state with each free material's raw parameters clipped into
its [lo, hi] bounds; its initial objective is E there, read from the first
run's first pass. Every state a group run evaluates is feasible (unit normals,
non-negative radiance, raw material parameters inside their bounds) and runs
accept only on the objective of that state, so the objective trace, starting
from the initial objective, never rises. Each evaluation is one shading pass,
the engine's residual-mode backward.

The light group gets a projected L-BFGS run, whose memory carries over from
one cycle to the next. A run whose line search finds no step at its first
iterate is a recorded stop: it leaves the light as it was and clears the memory.

The normal and material groups are block-separable least squares: I(p) depends
on n_p alone, and channel k of region r on that region's 36 channel-k control
points alone. Each block, a pixel or a (region, channel), takes its own damped
Gauss-Newton (Levenberg-Marquardt) step from its 2 J^T r and J^T J, summed by
the residual pass: a 2x2 solve on the tangent plane with a I from the prior,
retracted to the sphere, or a 36x36 solve in coordinates that map [lo, hi] to
[-NORM_LIMIT, NORM_LIMIT], clipped to the box. A trial pass shades every pixel
of the blocks whose predicted decrease is above rel_tol max(1, |E|) / blocks,
and only those. A block keeps its step iff its own term of E fell; E is the
sum of these terms, so it never rises.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import _shading
from .brdf import DsbrdfMaterial
from .core import EnvironmentMap, NormalMap, RadianceImage, SegmentationMask, Camera
from .render import RenderScene, prepare_problem, render


ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
BACKTRACK_FACTOR = 0.5  # step shrink per rejected line-search trial
MAX_BACKTRACKS = 25  # rejected trials per line search before it fails
MEMORY_PAIRS = 8  # curvature pairs an L-BFGS memory keeps
GRAD_TOL = 1e-12  # a run stops once its gradient max-norm is below this
# The light group shades through a transfer cache, f * cmax per shaded (pixel, light) pair and
# channel, when its dense size F * I * 24 bytes, known before it is built, is at most this;
# otherwise uncached, with bit-identical results.
TRANSFER_BUDGET_BYTES = 256 * 2**20
NORM_LIMIT = 0.95  # a material block steps in coordinates that map [lo, hi] to [-NORM_LIMIT, NORM_LIMIT]
DAMPING_INIT = 0.1  # a Gauss-Newton block's damping lambda before its first step
DAMPING_DOWN = 0.3  # lambda factor after a block's step is kept
DAMPING_UP = 10.0  # lambda factor after a block's step is refused
DAMPING_MIN = 1e-12  # lambda stays above this, so that DAMPING_EPS keeps a zero column of H solvable
DAMPING_EPS = 1e-6  # share of max diag H that the damping adds to every diagonal entry


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of :func:`solve` and :func:`lbfgs_minimize`.

    ``inner_iters_per_group`` caps each run: its L-BFGS iterations, or its
    Gauss-Newton trial passes. ``rel_tol`` (relative decrease of a step, of
    the predicted decreases of all blocks, and of a cycle in ``solve``) must be
    finite and positive. ``threads`` caps the shading workers; outputs do not
    depend on it.
    """

    inner_iters_per_group: int = 20
    max_cycles: int = 50
    rel_tol: float = 1e-6
    threads: int = 1

    def __post_init__(self):
        if min(self.inner_iters_per_group, self.max_cycles) < 1:
            raise ValueError("iteration counts must be positive")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")


@dataclass(frozen=True)
class InverseProblem:
    """Eq.-of-interest bundle: observed image, initial state, regularizers.

    The initial normals and environment double as the priors n' and L'. When
    ``"material"`` is free, :func:`solve` starts from each material clipped
    into its [lo, hi] bounds, and ``SolveResult.initial_objective`` is E at
    that start.
    """

    target: RadianceImage
    normal_map: NormalMap
    env: EnvironmentMap
    materials: tuple
    camera: Camera
    segmentation: SegmentationMask | None = None
    a: float = 1.0
    b: float = 10.0
    free_groups: frozenset = frozenset({"normal", "light", "material"})

    def __post_init__(self):
        object.__setattr__(self, "materials", tuple(self.materials))
        object.__setattr__(self, "free_groups", frozenset(self.free_groups))
        if not (0.0 <= self.a < math.inf and 0.0 <= self.b < math.inf):
            raise ValueError("regularizer weights must be non-negative and finite")
        bad = self.free_groups.difference(_shading.GROUPS)
        if bad or not self.free_groups:
            raise ValueError(f"free groups must be a non-empty subset of {_shading.GROUPS}")
        if (self.target.height, self.target.width) != (self.normal_map.height, self.normal_map.width):
            raise ValueError("target image size must match the normal map")
        # Borrow the scene validation for dimension / region checks.
        self.scene()

    def scene(self) -> RenderScene:
        return RenderScene(self.normal_map, self.camera, self.env, self.materials, self.segmentation)


@dataclass(frozen=True)
class _Objective:
    """E(n, L, m) and the shading passes it is built from, over the foreground stream of one inverse problem."""

    shading: _shading.ShadingProblem
    target: np.ndarray  # (F, 3) observed foreground radiance
    n_prior: np.ndarray  # (F, 3) n'
    env_prior: np.ndarray  # (I, 3) L'
    a: float
    b: float
    threads: int

    @classmethod
    def of(cls, problem: InverseProblem, threads: int) -> "_Objective":
        mask = problem.normal_map.mask
        return cls(
            prepare_problem(problem.scene()),
            problem.target.pixels[mask],
            problem.normal_map.normals[mask],
            problem.env.radiance.reshape(-1, 3),
            problem.a,
            problem.b,
            threads,
        )

    def value(self, image, normals, env) -> float:
        """E at a state whose foreground image is ``image``."""
        r = image - self.target
        n_diff = normals - self.n_prior
        env_diff = env - self.env_prior
        return float(np.sum(r * r)) + self.a * float(np.sum(n_diff * n_diff)) + self.b * float(np.sum(env_diff * env_diff))

    def __call__(self, normals, materials, env, group, *, transfer=None, pixels=None):
        """One residual pass of ``group``: the foreground image and the group's output.

        The output is the light gradient of E, shaded through ``transfer`` when
        given, or (2 J^T r, J^T J) per Gauss-Newton block of the data term's
        Jacobian J: (F, 3), (F, 3, 3) per pixel, or (3R, 36), (3R, 36, 36) per
        (region, channel). Over the (F,) bool ``pixels`` alone when given: the
        image and a pixel's blocks are 0 elsewhere, a region's sum its pixels.
        """
        shading = self.shading if pixels is None else _shading.restrict(self.shading, pixels)
        image, (dn, denv, dm), (gn, gm) = _shading.backward(
            shading, normals, materials, env, None, {group}, threads=self.threads, transfer=transfer, target=self.target,
        )
        if group == "light":
            return image, denv + 2.0 * self.b * (env - self.env_prior)
        return image, (dn, gn) if group == "normal" else (dm.reshape(-1, 36), gm.reshape(-1, 36, 36))


@dataclass
class LbfgsResult:
    x: np.ndarray
    value: float
    iterations: int
    stop_reason: str  # "gradient", "rel_tol", "line_search" or "iteration_cap"
    trace: list = field(default_factory=list)  # (value, grad_inf_norm) per accepted step
    evaluations: int = 0  # calls of ``fun``, x0 included (in ``solve``, shading passes that give value and gradient)


def _two_loop(g, pairs):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        beta = rho * float(y @ q)
        q += (a - beta) * s
    return q


def lbfgs_minimize(
    fun,
    x0,
    config: OptimizerConfig = OptimizerConfig(),
    *,
    project=None,
    memory: list | None = None,
) -> LbfgsResult:
    """Two-loop-recursion L-BFGS with Armijo backtracking.

    ``fun(x) -> (value, gradient array)``; the gradient it returns is the one
    that enters the stopping tests and curvature pairs. Optional ``project``
    maps trial points back to the feasible set before evaluation (the Armijo
    test, with constant ``ARMIJO_C``, then uses the actual displacement).
    Each rejected trial shrinks the step by ``BACKTRACK_FACTOR``, at most
    ``MAX_BACKTRACKS`` times; a run takes at most
    ``config.inner_iters_per_group`` iterations. When backtracking finds no
    acceptable step the run stops with ``stop_reason`` "line_search" and
    returns the last accepted point: x0, with 0 iterations, if it fails at
    the first iterate.

    ``memory`` is a list of ``(s, y, rho)`` curvature pairs to start from; the
    run extends it in place, keeps at most ``MEMORY_PAIRS`` of them and
    clears it when its direction is not a descent direction or its line search
    fails at the first iterate, so a later run on the same problem can pass it
    on. With empty memory the first trial step is min(1, 1/||d||) along d (as
    in L-BFGS-B), otherwise the full step.
    """
    x = np.array(x0, dtype=np.float64)
    if project is not None:
        x = project(x)

    f, g = fun(x)
    ginf = float(np.abs(g).max(initial=0.0))
    pairs = [] if memory is None else memory
    del pairs[:-MEMORY_PAIRS]
    trace: list = []
    result = LbfgsResult(x=x, value=f, iterations=0, stop_reason="iteration_cap", trace=trace, evaluations=1)

    for it in range(1, config.inner_iters_per_group + 1):
        if ginf < GRAD_TOL:
            result.stop_reason = "gradient"
            break

        d = -_two_loop(g, pairs)
        if float(g @ d) >= 0.0:
            pairs.clear()
            d = -g

        alpha = 1.0 if pairs else min(1.0, 1.0 / float(np.linalg.norm(d)))
        for _ in range(MAX_BACKTRACKS + 1):
            x_t = x + alpha * d
            if project is not None:
                x_t = project(x_t)
            f_t, g_t = fun(x_t)
            result.evaluations += 1
            step = x_t - x
            if f_t < f and f_t <= f + ARMIJO_C * float(g @ step):
                break
            alpha *= BACKTRACK_FACTOR
        else:
            if it == 1:  # nothing moved: the next run starts cold rather than from the same curvature
                pairs.clear()
            result.stop_reason = "line_search"
            break

        s = x_t - x
        y = g_t - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > MEMORY_PAIRS:
                pairs.pop(0)

        f_prev, x, f, g = f, x_t, f_t, g_t
        ginf = float(np.abs(g).max(initial=0.0))
        result.x, result.value, result.iterations = x, f, it
        trace.append((f, ginf))
        if f_prev - f <= config.rel_tol * max(1.0, abs(f_prev)):
            result.stop_reason = "rel_tol"
            break
    return result


@dataclass(frozen=True)
class TraceEntry:
    cycle: int
    group: str
    iteration: int
    objective: float
    grad_norm: float


@dataclass(frozen=True)
class RunRecord:
    """Counts of one group run of :func:`solve`; ``iterations`` counts the evaluations that moved something."""

    cycle: int
    group: str
    iterations: int
    evaluations: int  # shading passes, x0 included
    shaded_pixels: int  # pixel rows of those passes: F for a light pass, the moving blocks' for a Gauss-Newton trial
    stop_reason: str


@dataclass(frozen=True)
class SolveResult:
    normal_map: NormalMap
    materials: tuple
    env: EnvironmentMap
    initial_objective: float
    final_objective: float
    trace: tuple
    cycles: int
    runs: tuple  # one RunRecord per group run, in order


def _tangent_bases(n):
    """(F, 3, 2) orthonormal bases of the tangent planes of unit normals ``n``."""
    helper = np.where(np.abs(n[:, :1]) < 0.9, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    t1 = helper - np.einsum("pc,pc->p", helper, n)[:, None] * n
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    return np.stack([t1, np.cross(n, t1)], axis=2)


def _normal_blocks(obj):
    """The normal group's Gauss-Newton helpers (see ``_gauss_newton``): a block per pixel, stepped on its tangent plane."""
    a, prior = obj.a, obj.n_prior

    def terms(n, r):
        d = n - prior
        return np.einsum("pk,pk->p", r, r) + a * np.einsum("pc,pc->p", d, d)

    def model(n, r, grad, gram):
        basis = _tangent_bases(n)
        g = np.einsum("pci,pc->pi", basis, 0.5 * grad + a * (n - prior))
        h = basis.transpose(0, 2, 1) @ gram @ basis + a * np.eye(2)
        return terms(n, r), h, g, 2.0 * float(np.abs(basis @ g[:, :, None]).max(initial=0.0))

    def move(n, steps):  # a tangent step only lengthens n, so the retraction never divides by 0
        moved = n + (_tangent_bases(n) @ steps[:, :, None])[:, :, 0]
        return moved / np.linalg.norm(moved, axis=1, keepdims=True)

    return (lambda n: n), (lambda n: n), lambda on: np.repeat(on[:, None], 3, axis=1), terms, model, move


def _material_blocks(obj, materials):
    """The material group's Gauss-Newton helpers: a block per (region, channel), stepped in normalized coordinates."""
    region_of = np.empty(obj.shading.pixel_count, dtype=np.int64)
    for region, ci in obj.shading.chunks:
        region_of[ci] = region
    lo = np.concatenate([m.lo for m in materials]).reshape(-1, 36)
    hi = np.concatenate([m.hi for m in materials]).reshape(-1, 36)
    scale = (hi - lo) / (2.0 * NORM_LIMIT)  # d raw / d normalized

    def terms(x, r):
        return np.stack([np.bincount(region_of, r[:, k] * r[:, k], len(materials)) for k in range(3)], axis=1).ravel()

    def model(x, r, grad, gram):
        g = 0.5 * scale * grad
        h = scale[:, :, None] * gram * scale[:, None, :]
        held = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))  # on the box, and descent would leave it
        g[held] = 0.0
        h *= ~held[:, :, None] & ~held[:, None, :]
        return terms(x, r), h, g, 2.0 * float(np.abs(g).max(initial=0.0))

    return (
        lambda ms: np.concatenate([m.raw for m in ms]).reshape(-1, 36),
        lambda x: [m.with_raw(row) for m, row in zip(materials, x.reshape(len(materials), -1))],
        lambda on: on.reshape(-1, 3)[region_of], terms, model, lambda x, steps: np.clip(x + scale * steps, lo, hi),
    )


def _damped_steps(h, g, damping):
    """Per block, d solving (H + lambda (diag H + DAMPING_EPS max diag H)) d = -g; d = 0 where H = 0, where g = 0 too."""
    diag = np.diagonal(h, axis1=1, axis2=2)
    top = diag.max(axis=1)
    lhs = h.copy()
    i = np.arange(h.shape[1])
    lhs[:, i, i] += damping[:, None] * (diag + DAMPING_EPS * top[:, None])
    lhs[top <= 0.0] = np.eye(h.shape[1])
    return np.linalg.solve(lhs, np.where(top[:, None] > 0.0, -g, 0.0)[:, :, None])[:, :, 0]


def _gauss_newton(obj, state, group, damping, config):
    """A Gauss-Newton run of the normal or material group: (LbfgsResult whose x is its state, shaded pixel rows, E at x0).

    ``damping`` holds each block's lambda and is updated in place. x has a row per block; the group's helpers
    are pack (state -> x), unpack (x -> state), cells (blocks -> the (F, 3) image cells they own), terms
    ((x, r) -> each block's term of E), model ((x, r, 2 J^T r, J^T J per block) -> (terms, H, g, gradient
    max-norm), a term along a step d being modelled as term + 2 g.d + d.H.d) and move ((x, steps) -> feasible
    trial x). A trial pass shades every pixel of a moving block, so a kept block's (2 J^T r, J^T J) is whole.
    """
    group_blocks = _normal_blocks(obj) if group == "normal" else _material_blocks(obj, state["material"])
    pack, unpack, cells_of, terms_of, model, move = group_blocks

    def shade(x, pixels=None):
        at = {**state, group: unpack(x)}
        return (at, *obj(at["normal"], at["material"], at["light"], group, pixels=pixels))

    x = pack(state[group])
    at, image, blocks = shade(x)
    f = obj.value(image, at["normal"], at["light"])
    terms, h, g, gnorm = model(x, image - obj.target, *blocks)
    result = LbfgsResult(x=at[group], value=f, iterations=0, stop_reason="iteration_cap", evaluations=1)
    start, shaded = f, obj.shading.pixel_count
    for _ in range(config.inner_iters_per_group):
        if gnorm < GRAD_TOL:  # also a run with no blocks, such as the normals of an empty foreground
            result.stop_reason = "gradient"
            break
        steps = _damped_steps(h, g, damping)
        predicted = -2.0 * np.einsum("bi,bi->b", g, steps) - np.einsum("bi,bij,bj->b", steps, h, steps)
        active = predicted > config.rel_tol * max(1.0, abs(f)) / damping.size
        if not active.any():
            result.stop_reason = "rel_tol"
            break
        pixels = cells_of(active).any(axis=1)
        trial = np.where(active[:, None], move(x, steps), x)
        _, image_t, blocks_t = shade(trial, pixels)
        result.evaluations += 1
        shaded += int(pixels.sum())
        kept = active & (terms_of(trial, image_t - obj.target) < terms)
        cells = cells_of(kept)
        x_new, image_new = np.where(kept[:, None], trial, x), np.where(cells, image_t, image)
        at_new = {**state, group: unpack(x_new)}
        f_new = obj.value(image_new, at_new["normal"], at_new["light"])
        if f_new < f:  # no kept block, or (by rounding) kept terms that fell by a few ulp, leave f as it was
            x, image, f, at = x_new, image_new, f_new, at_new
            blocks = [np.where(kept.reshape((-1,) + (1,) * (b.ndim - 1)), b_t, b) for b_t, b in zip(blocks_t, blocks)]
            terms, h, g, gnorm = model(x, image - obj.target, *blocks)
            result.x, result.value, result.iterations = at[group], f, result.iterations + 1
            result.trace.append((f, gnorm))
        else:
            kept[:] = False
        damping[:] = np.maximum(damping * np.where(kept, DAMPING_DOWN, np.where(active, DAMPING_UP, 1.0)), DAMPING_MIN)
    return result, shaded, start


def _light_run(obj, state, memory, config):
    """A projected L-BFGS run of the light group, through a transfer cache that fits the budget: (result, pixel rows, E at x0)."""
    sh = obj.shading
    fits = sh.pixel_count * sh.light_count * 24 <= TRANSFER_BUDGET_BYTES
    transfer = _shading.build_transfer(sh, state["normal"], state["material"], threads=obj.threads) if fits else None
    values = []  # E at each evaluation, x0 first

    def fun(x):
        env = x.reshape(-1, 3)
        image, grad = obj(state["normal"], state["material"], env, "light", transfer=transfer)
        values.append(obj.value(image, state["normal"], env))
        return values[-1], grad.ravel()

    res = lbfgs_minimize(fun, state["light"].ravel(), config, project=lambda x: np.maximum(x, 0.0), memory=memory)
    res.x = res.x.reshape(-1, 3)
    return res, res.evaluations * sh.pixel_count, values[0]


def solve(problem: InverseProblem, config: OptimizerConfig = OptimizerConfig()) -> SolveResult:
    """Alternating minimization over the free groups of ``problem``.

    Per cycle each free group, in the fixed order normal, light, material
    (``_shading.GROUPS``), gets one run (see the module docstring). The light
    group keeps its curvature pairs, and each Gauss-Newton block its damping
    lambda, from one cycle to the next. Stops when a full cycle improves the
    objective by less than rel_tol (relative) or after max_cycles. The trace
    carries one entry per accepted step and ``runs`` one record per group run.
    """
    mask = problem.normal_map.mask
    obj = _Objective.of(problem, config.threads)
    materials = list(problem.materials)
    if "material" in problem.free_groups:  # the start is feasible, and every material step stays in the box
        materials = [m.with_raw(np.clip(m.raw, m.lo, m.hi)) for m in materials]
    state = {"normal": obj.n_prior.copy(), "light": obj.env_prior.copy(), "material": materials}

    current = None  # E at the state reached, first read from the first run's x0 pass
    trace: list = []
    runs: list = []
    order = [grp for grp in _shading.GROUPS if grp in problem.free_groups]
    memory: list = []
    blocks = (("normal", obj.shading.pixel_count), ("material", 3 * len(problem.materials)))
    dampings = {group: np.full(count, DAMPING_INIT) for group, count in blocks}
    cycles_run = 0

    for cycle in range(config.max_cycles):
        cycles_run = cycle + 1
        cycle_start = current

        for group in order:
            if group == "light":
                res, shaded, start = _light_run(obj, state, memory, config)
            else:
                res, shaded, start = _gauss_newton(obj, state, group, dampings[group], config)
            if current is None:
                initial = cycle_start = current = start
            trace.extend(TraceEntry(cycle, group, it, val, gnorm) for it, (val, gnorm) in enumerate(res.trace, 1))
            runs.append(RunRecord(cycle, group, res.iterations, res.evaluations, shaded, res.stop_reason))
            if res.iterations == 0:
                continue
            state[group] = res.x
            current = res.value

        if cycle_start - current <= config.rel_tol * max(1.0, abs(cycle_start)):
            break

    normals_img = np.zeros_like(problem.normal_map.normals)
    normals_img[mask] = state["normal"]
    return SolveResult(
        normal_map=NormalMap(normals_img, mask),
        materials=tuple(state["material"]),
        env=EnvironmentMap(state["light"].reshape(problem.env.radiance.shape)),
        initial_objective=initial,
        final_objective=current,
        trace=tuple(trace),
        cycles=cycles_run,
        runs=tuple(runs),
    )


def edit_material(scene: RenderScene, materials, *, threads: int = 1) -> RadianceImage:
    """Re-render ``scene`` with its materials swapped for ``materials``.

    Accepts a single material for unsegmented scenes or a per-region sequence
    matching the segmentation's region count; ``RenderScene`` rejects any other.
    """
    if isinstance(materials, DsbrdfMaterial):
        materials = (materials,)
    return render(dataclasses.replace(scene, materials=materials), threads=threads)
