"""Inverse rendering: losses, projected L-BFGS, and the alternating solver.

The solver minimizes

    E(n, L, m) = sum_fg || render(n, L, m) - I* ||^2
               + a sum_fg || n - n' ||^2  +  b sum || L - L' ||^2

by cycling through the free parameter groups (normals, light, material), each
group getting a short L-BFGS run while the other two stay frozen. Feasibility
is kept by projection — unit normals, non-negative radiance, material
coordinates inside [-0.95, 0.95] — and the line search accepts on the
post-projection objective, which makes the reported objective trace literally
non-increasing. Normal gradients are projected to each normal's tangent plane
before entering the L-BFGS update.

Materials are optimized in their normalized [-0.95, 0.95] coordinates so all
three groups move on comparable scales. Each evaluation of a group run is one
shading pass, the engine's residual-mode backward, which yields the value and
the group's gradient array together. Each group's L-BFGS memory carries over
from one cycle to the next, so only a group's first run starts from the
cautious step min(1, 1/||d||) along the steepest descent direction. A run
whose line search finds no step at its first iterate is a recorded stop, not
an error: it leaves its group where it was and clears that group's memory.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import _shading
from .brdf import NORM_LIMIT, DsbrdfMaterial, denormalize_params, normalize_params
from .core import EnvironmentMap, NormalMap, RadianceImage, SegmentationMask, Camera
from .render import RenderScene, prepare_problem, render


@dataclass(frozen=True)
class LossWeights:
    """Weights of the combined training-style loss."""

    w_normal: float = 1e4
    w_material: float = 1e3
    w_image: float = 1.0

    def __post_init__(self):
        if not all(0.0 < w < math.inf for w in (self.w_normal, self.w_material, self.w_image)):
            raise ValueError("loss weights must be positive and finite")


def loss_normal(pred: NormalMap, gt: NormalMap) -> float:
    """Sum over foreground pixels of ||n - n'||^2 (= 2 - 2 n.n' for unit inputs)."""
    if pred.normals.shape != gt.normals.shape or not np.array_equal(pred.mask, gt.mask):
        raise ValueError("normal maps must share shape and mask")
    diff = pred.normals[pred.mask] - gt.normals[gt.mask]
    return float(np.sum(diff * diff))


def loss_material(pred, gt) -> float:
    """Sum of squared differences over the 108 normalized parameters."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("material parameter vectors must have equal length")
    d = pred - gt
    return float(np.sum(d * d))


def loss_combined(weights: LossWeights, l_normal: float, l_material: float, l_image: float) -> float:
    """w_n * l_normal + w_m * l_material + w_image * l_image."""
    return weights.w_normal * l_normal + weights.w_material * l_material + weights.w_image * l_image


ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
BACKTRACK_FACTOR = 0.5  # step shrink per rejected line-search trial
MAX_BACKTRACKS = 25  # rejected trials per line search before it fails


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of :func:`solve` and :func:`lbfgs_minimize`.

    ``inner_iters_per_group`` caps the iterations of each L-BFGS run, and
    ``solve`` runs the free groups of its problem in the fixed order normal,
    light, material. ``rel_tol`` (relative decrease of a step, and of a cycle
    in ``solve``) and ``grad_tol`` (gradient max-norm) must be finite and
    positive.

    ``cache_budget_bytes`` gates the one cache the solver builds: the transfer
    cache, f * cmax per shaded (pixel, light) pair and channel, that the light
    group shades through. The gate takes its dense size, F * I * 24 bytes, an
    upper bound known before the cache is built. A problem over the budget, or
    a budget of 0, shades the light group uncached, with bit-identical results.
    """

    memory_pairs: int = 8
    inner_iters_per_group: int = 20
    max_cycles: int = 50
    rel_tol: float = 1e-6
    grad_tol: float = 1e-12
    threads: int = 1
    cache_budget_bytes: int = 256 * 2**20

    def __post_init__(self):
        if min(self.memory_pairs, self.inner_iters_per_group, self.max_cycles) < 1:
            raise ValueError("iteration counts must be positive")
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.grad_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class InverseProblem:
    """Eq.-of-interest bundle: observed image, initial state, regularizers.

    The initial normals and environment double as the priors n' and L'.
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
    """E(n, L, m) and its gradients over the foreground stream of one inverse problem."""

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

    def __call__(self, normals, materials, env, groups=frozenset(), *, transfer=None):
        """Value at one state and its (d_normals, d_env, d_materials), from one shading pass.

        With ``groups`` the pass is the engine's residual-mode backward, which
        yields the image and the gradients together, shading the light group
        through ``transfer`` when given; without, a plain forward.
        Material rows are in the normalized coordinates the solver moves in
        (chain rule through the affine range codec); groups not asked for are None.
        """
        dn = denv = dms = None
        if groups:
            img, dn, denv, dms = _shading.backward(
                self.shading, normals, materials, env, None, groups,
                threads=self.threads, transfer=transfer, target=self.target,
            )
        else:
            img = _shading.forward(self.shading, normals, materials, env, threads=self.threads)
        r = img - self.target
        n_diff = normals - self.n_prior
        env_diff = env - self.env_prior
        value = float(np.sum(r * r)) + self.a * float(np.sum(n_diff * n_diff)) + self.b * float(np.sum(env_diff * env_diff))
        if dn is not None:
            dn += 2.0 * self.a * n_diff
        if denv is not None:
            denv += 2.0 * self.b * env_diff
        if dms is not None:
            dms = [dm.reshape(-1) * ((m.hi - m.lo) / (2.0 * NORM_LIMIT)) for m, dm in zip(materials, dms)]
        return value, (dn, denv, dms)


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
    run extends it in place, keeps at most ``config.memory_pairs`` of them and
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
    del pairs[: -config.memory_pairs]
    trace: list = []
    result = LbfgsResult(x=x, value=f, iterations=0, stop_reason="iteration_cap", trace=trace, evaluations=1)

    for it in range(1, config.inner_iters_per_group + 1):
        if ginf < config.grad_tol:
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
            if len(pairs) > config.memory_pairs:
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
    """Counts of one group run of :func:`solve`, as its L-BFGS run reports them.

    A run whose line search failed at its first iterate has 0 iterations and
    stop reason ``"line_search"``.
    """

    cycle: int
    group: str
    iterations: int
    evaluations: int  # shading passes, x0 included; each yields a value and a gradient
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


def _project_normals(x):
    n = x.reshape(-1, 3)
    norms = np.linalg.norm(n, axis=1, keepdims=True)
    safe = np.where(norms < 1e-12, 1.0, norms)
    out = n / safe
    out[norms[:, 0] < 1e-12] = (0.0, 0.0, 1.0)
    return out.ravel()


def _tangent_gradient(x, g):
    n = x.reshape(-1, 3)
    gr = g.reshape(-1, 3)
    out = gr - np.einsum("pc,pc->p", gr, n)[:, None] * n
    return out.ravel()


def _group_layouts(materials):
    """Per group: (gradient slot, pack, unpack, project, gradient transform) of the flat x L-BFGS moves.

    ``pack`` maps the group's solver state to x and ``unpack`` maps x back;
    ``slot`` is the group's place in the objective's (normals, env, materials)
    gradients, and the transform, if any, maps that gradient at x to the one
    the group's run sees. Materials move in normalized coordinates under their
    own bounds, which no run changes.
    """
    def rows(x):
        return np.ascontiguousarray(x.reshape(-1, 3))

    def unpack_materials(x):
        return [denormalize_params(r, m.lo, m.hi, m.name) for m, r in zip(materials, x.reshape(len(materials), -1))]

    return {
        "normal": (0, np.ravel, rows, _project_normals, _tangent_gradient),
        "light": (1, np.ravel, rows, lambda x: np.maximum(x, 0.0), None),
        "material": (
            2, lambda ms: np.concatenate([normalize_params(m) for m in ms]), unpack_materials,
            lambda x: np.clip(x, -NORM_LIMIT, NORM_LIMIT), None,
        ),
    }


def solve(problem: InverseProblem, config: OptimizerConfig = OptimizerConfig()) -> SolveResult:
    """Alternating projected L-BFGS on the free groups of ``problem``.

    Per cycle each free group, in the fixed order normal, light, material
    (``_shading.GROUPS``), gets up to
    config.inner_iters_per_group L-BFGS iterations. Each group keeps its
    curvature pairs from one cycle to the next, so from the second cycle on
    its run starts from the step scale its previous run learned; a run whose
    line search fails at its first iterate leaves the group unchanged and
    clears them. Stops when a full cycle improves the objective by less than
    rel_tol (relative) or after max_cycles. The trace carries one entry per
    accepted step and ``runs`` one record per group run.
    """
    mask = problem.normal_map.mask
    obj = _Objective.of(problem, max(1, config.threads))
    shading = obj.shading
    layouts = _group_layouts(problem.materials)
    state = {"normal": obj.n_prior.copy(), "light": obj.env_prior.copy(), "material": list(problem.materials)}

    initial = current = obj(state["normal"], state["material"], state["light"])[0]
    trace: list = []
    runs: list = []
    order = [grp for grp in _shading.GROUPS if grp in problem.free_groups]
    memories = {group: [] for group in order}
    cycles_run = 0

    for cycle in range(config.max_cycles):
        cycles_run = cycle + 1
        cycle_start = current

        for group in order:
            slot, pack, unpack, project, transform = layouts[group]
            transfer = None
            if group == "light" and shading.pixel_count * shading.light_count * 24 <= config.cache_budget_bytes:
                transfer = _shading.build_transfer(shading, state["normal"], state["material"], threads=obj.threads)

            def fun(x, group=group, slot=slot, unpack=unpack, transform=transform, transfer=transfer):
                trial = {**state, group: unpack(x)}
                val, grads = obj(trial["normal"], trial["material"], trial["light"], {group}, transfer=transfer)
                g = np.ravel(grads[slot])
                return val, (g if transform is None else transform(x, g))

            res = lbfgs_minimize(fun, pack(state[group]), config, project=project, memory=memories[group])
            trace.extend(TraceEntry(cycle, group, it, val, gnorm) for it, (val, gnorm) in enumerate(res.trace, 1))
            runs.append(RunRecord(cycle, group, res.iterations, res.evaluations, res.stop_reason))
            if res.iterations == 0:
                continue
            state[group] = unpack(res.x)
            current = res.value

        if cycle_start - current <= config.rel_tol * max(1.0, abs(cycle_start)):
            break

    normals_img = np.zeros_like(problem.normal_map.normals)
    normals_img[mask] = state["normal"]
    result_env = EnvironmentMap(np.maximum(state["light"], 0.0).reshape(problem.env.radiance.shape))
    return SolveResult(
        normal_map=NormalMap(normals_img, mask),
        materials=tuple(state["material"]),
        env=result_env,
        initial_objective=initial,
        final_objective=current,
        trace=tuple(trace),
        cycles=cycles_run,
        runs=tuple(runs),
    )


def edit_material(scene: RenderScene, materials, *, threads: int = 1) -> RadianceImage:
    """Re-render ``scene`` with its materials swapped for ``materials``.

    Accepts a single material for unsegmented scenes or a per-region sequence
    matching the segmentation's region count.
    """
    if isinstance(materials, DsbrdfMaterial):
        materials = (materials,)
    materials = tuple(materials)
    if len(materials) != scene.region_count:
        raise ValueError(f"expected {scene.region_count} materials, got {len(materials)}")
    return render(dataclasses.replace(scene, materials=materials), threads=threads)
