"""Analytic derivatives of the rendered image and a finite-difference checker.

backward() pulls a per-pixel, per-channel upstream weighting through the
shading sum and returns gradients for any of the three parameter groups:

  light     dL_k(i)   = sum_p u_pk f_k max(0, n.w) w_i        (exactly linear)
  normal    dn_p      = sum_ik u_pk [ f_k L_k 1(n.w>0) w_i omega_i
                        + (sum_s e^{a t} a b base^{b-1}) h L_k max(0,n.w) w_i ]
  material  d(ctrl)   = sum_pik u_pk e^{a t} [t | a t ln(base)] basis_j(th_d)
                          * L_k max(0, n.w) w_i     (per region)

with t = base^b and base = clamp(h.n, EPS_BASE, 1). Kink conventions: the
max(0, .) derivative is 0 at the kink itself, and d(base)/dn is 0 wherever
the clamp is active. All of this is the adjoint of exactly what render()
computes, which is what the finite-difference harness checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _shading
from .brdf import EPS_BASE
from .core import _freeze
from .render import RenderScene, prepare_problem

ALL_GROUPS = frozenset(_shading.GROUPS)

# Default central-difference steps per group; the light group is linear so a
# larger step only suppresses roundoff noise.
FD_STEPS = {"light": 1e-2, "normal": 1e-4, "material": 1e-4}

# A pixel is skipped by fd_check's normal-group sampling when any light sits
# within this margin of the max(0, n.omega) kink or the base clamp boundaries.
KINK_MARGIN = 1e-3


class NonFiniteGradientError(ArithmeticError):
    """A gradient came back NaN or infinite."""


@dataclass(frozen=True)
class SceneGradients:
    """Gradients of a scalar loss for the requested groups; None when frozen.

    d_materials rows are with respect to the raw 108-parameter vectors, one
    row per region.
    """

    d_normals: np.ndarray | None  # (H, W, 3)
    d_env: np.ndarray | None  # (H_L, W_L, 3)
    d_materials: np.ndarray | None  # (R, 108)

    def __post_init__(self):
        for field in ("d_normals", "d_env", "d_materials"):
            arr = getattr(self, field)
            if arr is not None:
                object.__setattr__(self, field, _freeze(np.ascontiguousarray(arr, dtype=np.float64)))


def _check_finite(name, arr, what):
    if np.isfinite(arr).all():
        return
    idx = np.unravel_index(int(np.argmin(np.isfinite(arr))), arr.shape)
    raise NonFiniteGradientError(f"non-finite {name} gradient at {what} index {idx}")


def backward(scene: RenderScene, upstream: np.ndarray, groups=ALL_GROUPS, *, threads: int = 1) -> SceneGradients:
    """Gradients of loss = sum(upstream * render(scene)) for the given groups.

    Only the weighted pixels, those with a nonzero upstream entry, are
    shaded (``_shading.restrict``), so the cost scales with the weighted
    pixels times the lights they see; the others get a zero normal gradient.
    When every foreground pixel is weighted the pass is the full one, bit for
    bit. Raises ShadingOverflowError iff an evaluated pair of a weighted pixel
    overflows. Every lit pair of a weighted pixel is evaluated; where several
    screen tiles' weighted pixels share one joined chunk, each is also
    evaluated against the lights the others see lit, so a sparse upstream can
    raise at a pair unlit for its pixel that the dense pass never evaluates.
    Raises NonFiniteGradientError on the first NaN or infinite entry.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    shape = scene.normal_map.normals.shape
    if upstream.shape != shape:
        raise ValueError(f"upstream must have shape {shape}, got {upstream.shape}")
    if not np.isfinite(upstream).all():
        raise ValueError("upstream contains non-finite values")
    mask = scene.normal_map.mask
    u = upstream[mask]
    problem = _shading.restrict(prepare_problem(scene), (u != 0.0).any(axis=1))  # u = 0 adds exactly 0
    dn, denv, dms = _shading.backward(
        problem, scene.normal_map.normals[mask], scene.materials, scene.env.radiance.reshape(-1, 3),
        u, frozenset(groups), threads=threads,
    )
    d_normals = d_env = d_materials = None
    if dn is not None:
        _check_finite("normal", dn, "foreground-pixel")
        d_normals = np.zeros(mask.shape + (3,))
        d_normals[mask] = dn
    if denv is not None:
        _check_finite("light", denv, "flat texel")
        d_env = denv.reshape(scene.env.radiance.shape)
    if dms is not None:
        d_materials = np.stack([m.reshape(-1) for m in dms])
        _check_finite("material", d_materials, "(region, parameter)")
    return SceneGradients(d_normals, d_env, d_materials)


@dataclass(frozen=True)
class FdTrial:
    coordinate: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass(frozen=True)
class FdReport:
    group: str
    step: float
    trials: tuple
    max_rel_error: float
    worst_coordinate: tuple | None


def _excluded_pixel(problem, normals, fg_index) -> bool:
    """True when some light puts this pixel within KINK_MARGIN of a kink/clamp."""
    n = normals[fg_index]
    ndl = problem.dirs @ n
    if np.abs(ndl).min() < KINK_MARGIN:
        return True
    v = problem.view_rows([fg_index])[0]
    length = np.sqrt(np.maximum(2.0 + 2.0 * (problem.dirs @ v), 0.0))  # |omega + v|
    valid = length >= _shading.DEGENERATE_HALF
    hdn = np.where(valid, (ndl + v @ n) / np.maximum(length, _shading.DEGENERATE_HALF), 0.0)
    lit = ndl > 0.0
    near_clamp = (np.abs(hdn - EPS_BASE) < KINK_MARGIN) | (np.abs(hdn - 1.0) < KINK_MARGIN)
    return bool((lit & near_clamp).any())


def fd_check(scene: RenderScene, which_group: str, step: float | None = None, trials: int = 16, *, seed: int = 0) -> FdReport:
    """Compare backward() against central finite differences of a probe loss.

    The probe is loss = sum(u * render) for a seeded random upstream u; each
    trial perturbs one coordinate of the chosen group by +-delta with
    delta = step * max(1, |x|). Deterministic for a given seed. The relative
    error denominator is floored at 1e-6 * max(1, ||g||_inf) so coordinates
    whose gradient is negligible within the group cannot dominate the report.
    """
    if which_group not in ALL_GROUPS:
        raise ValueError(f"unknown group {which_group!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if step is None:
        step = FD_STEPS[which_group]
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step!r}")
    if not scene.normal_map.mask.any():
        raise ValueError("fd_check needs a foreground pixel; the normal map has none")

    rng = np.random.default_rng(seed)
    mask = scene.normal_map.mask
    upstream = np.zeros((scene.normal_map.height, scene.normal_map.width, 3))
    upstream[mask] = rng.standard_normal((int(mask.sum()), 3))

    analytic = backward(scene, upstream, groups={which_group})
    problem = prepare_problem(scene)
    u_fg = upstream[mask]
    normals, env, materials = scene.normal_map.normals, scene.env.radiance, scene.materials
    fg_normals, env_flat = normals[mask], env.reshape(-1, 3)
    # per group: the array a trial bumps (indexed like its analytic gradient) and
    # the forward arguments of a bumped copy
    values, grad, forward_args = {
        "normal": (normals, analytic.d_normals, lambda n: (n[mask], materials, env_flat)),
        "light": (env, analytic.d_env, lambda radiance: (fg_normals, materials, radiance.reshape(-1, 3))),
        "material": (
            np.stack([m.raw for m in materials]), analytic.d_materials,
            lambda raw: (fg_normals, [m.with_raw(r) for m, r in zip(materials, raw)], env_flat),
        ),
    }[which_group]

    def pick():
        if which_group != "normal":  # one draw per axis, in axis order
            return tuple(int(rng.integers(n)) for n in values.shape)
        for _attempt in range(200):
            p = int(rng.integers(problem.pixel_count))
            if not _excluded_pixel(problem, fg_normals, p):
                px, py = problem.pixel_xy[p]
                return int(py), int(px), int(rng.integers(3))
        raise RuntimeError("could not sample a pixel clear of gradient kinks; scene too degenerate")

    def probe(bumped):
        return float(np.sum(u_fg * _shading.forward(problem, *forward_args(bumped))))

    floor = 1e-6 * max(1.0, float(np.abs(grad).max(initial=0.0)))
    rows = []
    for _ in range(trials):
        coordinate = pick()
        x = float(values[coordinate])
        delta = step * max(1.0, abs(x))
        bumped = values.copy()
        bumped[coordinate] = x + delta
        hi_val = probe(bumped)
        bumped[coordinate] = x - delta
        lo_val = probe(bumped)
        numeric = (hi_val - lo_val) / (2.0 * delta)
        a = float(grad[coordinate])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
        rows.append(FdTrial(coordinate, a, numeric, rel))

    worst = max(rows, key=lambda t: t.rel_error)
    return FdReport(
        group=which_group,
        step=step,
        trials=tuple(rows),
        max_rel_error=worst.rel_error,
        worst_coordinate=worst.coordinate,
    )
