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
    if arr is None or np.isfinite(arr).all():
        return
    idx = np.unravel_index(int(np.argmin(np.isfinite(arr))), arr.shape)
    raise NonFiniteGradientError(f"non-finite {name} gradient at {what} index {idx}")


def backward(scene: RenderScene, upstream: np.ndarray, groups=ALL_GROUPS, *, threads: int = 1) -> SceneGradients:
    """Gradients of loss = sum(upstream * render(scene)) for the given groups."""
    upstream = np.asarray(upstream, dtype=np.float64)
    h, w = scene.normal_map.height, scene.normal_map.width
    if upstream.shape != (h, w, 3):
        raise ValueError(f"upstream must have shape {(h, w, 3)}, got {upstream.shape}")
    if not np.isfinite(upstream).all():
        raise ValueError("upstream contains non-finite values")
    mask = scene.normal_map.mask
    dn, denv, dmats = _shading.backward(
        prepare_problem(scene), scene.normal_map.normals[mask], scene.materials, scene.env.radiance.reshape(-1, 3),
        upstream[mask], frozenset(groups), threads=max(1, threads),
    )

    d_normals = None
    if dn is not None:
        _check_finite("normal", dn, "foreground-pixel")
        d_normals = np.zeros((h, w, 3))
        d_normals[mask] = dn
    d_env = None
    if denv is not None:
        _check_finite("light", denv, "flat texel")
        d_env = denv.reshape(scene.env.height, scene.env.width, 3)
    d_materials = None
    if dmats is not None:
        d_materials = np.stack([m.reshape(-1) for m in dmats])
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
    if step <= 0.0:
        raise ValueError("step must be positive")

    rng = np.random.default_rng(seed)
    mask = scene.normal_map.mask
    upstream = np.zeros((scene.normal_map.height, scene.normal_map.width, 3))
    upstream[mask] = rng.standard_normal((int(mask.sum()), 3))

    analytic = backward(scene, upstream, groups={which_group})
    problem = prepare_problem(scene)
    env_flat = scene.env.radiance.reshape(-1, 3)
    u_fg = upstream[mask]
    base_normals = scene.normal_map.normals[mask]
    base_materials = scene.materials

    def probe(n_arr=base_normals, env=env_flat, mats=base_materials):
        return float(np.sum(u_fg * _shading.forward(problem, n_arr, mats, env)))

    if which_group == "light":
        grad = analytic.d_env
        ginf = float(np.abs(grad).max(initial=0.0))
        floor = 1e-6 * max(1.0, ginf)
        rows = []
        for _ in range(trials):
            hh = int(rng.integers(scene.env.height))
            ww = int(rng.integers(scene.env.width))
            k = int(rng.integers(3))
            x = env_flat[hh * scene.env.width + ww, k]
            delta = step * max(1.0, abs(x))
            bumped = env_flat.copy()
            bumped[hh * scene.env.width + ww, k] = x + delta
            hi_val = probe(env=bumped)
            bumped[hh * scene.env.width + ww, k] = x - delta
            lo_val = probe(env=bumped)
            numeric = (hi_val - lo_val) / (2.0 * delta)
            a = float(grad[hh, ww, k])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            rows.append(FdTrial((hh, ww, k), a, numeric, rel))
    elif which_group == "material":
        grad = analytic.d_materials
        ginf = float(np.abs(grad).max(initial=0.0))
        floor = 1e-6 * max(1.0, ginf)
        rows = []
        for _ in range(trials):
            r = int(rng.integers(len(base_materials)))
            j = int(rng.integers(grad.shape[1]))
            mat = base_materials[r]
            x = float(mat.raw[j])
            delta = step * max(1.0, abs(x))
            raw = mat.raw.copy()
            raw[j] = x + delta
            mats = list(base_materials)
            mats[r] = mat.with_raw(raw)
            hi_val = probe(mats=mats)
            raw = mat.raw.copy()
            raw[j] = x - delta
            mats[r] = mat.with_raw(raw)
            lo_val = probe(mats=mats)
            numeric = (hi_val - lo_val) / (2.0 * delta)
            a = float(grad[r, j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            rows.append(FdTrial((r, j), a, numeric, rel))
    else:
        d_normals_fg = analytic.d_normals[mask]
        ginf = float(np.abs(d_normals_fg).max(initial=0.0))
        floor = 1e-6 * max(1.0, ginf)
        count = problem.pixel_count
        rows = []
        for _ in range(trials):
            p = None
            for _attempt in range(200):
                cand = int(rng.integers(count))
                if not _excluded_pixel(problem, base_normals, cand):
                    p = cand
                    break
            if p is None:
                raise RuntimeError("could not sample a pixel clear of gradient kinks; scene too degenerate")
            c = int(rng.integers(3))
            x = float(base_normals[p, c])
            delta = step * max(1.0, abs(x))
            bumped = base_normals.copy()
            bumped[p, c] = x + delta
            hi_val = probe(n_arr=bumped)
            bumped[p, c] = x - delta
            lo_val = probe(n_arr=bumped)
            numeric = (hi_val - lo_val) / (2.0 * delta)
            a = float(d_normals_fg[p, c])
            px, py = problem.pixel_xy[p]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            rows.append(FdTrial((int(py), int(px), c), a, numeric, rel))

    worst = max(rows, key=lambda t: t.rel_error)
    return FdReport(
        group=which_group,
        step=step,
        trials=tuple(rows),
        max_rel_error=worst.rel_error,
        worst_coordinate=worst.coordinate,
    )
