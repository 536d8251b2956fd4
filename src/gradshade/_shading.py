"""Tiled evaluation of the environment shading sum and its adjoints.

Private engine behind :mod:`gradshade.render` and :mod:`gradshade.grad`.

The image model per foreground pixel p and color channel k is

    I_k(p) = sum_i f_k(p, i) * L_k(i) * max(0, n_p . omega_i) * w_i

over all texels i of an equirectangular light table, with the DSBRDF lobes of
:mod:`gradshade.brdf` evaluated at base = clamp(h . n, EPS_BASE, 1) and the
coefficient splines at theta_d.

A ShadingProblem holds only the scene geometry; normals and materials are
arguments of every call. Work runs over the foreground-pixel stream in
(pixel-chunk x light-block) tiles. One producer, ``_tiles``, yields the pair
geometry of every light block of a chunk that has a lit pair: cmax =
max(0, n . omega), ell = log(base), the spline basis and coefficient curves at
theta_d and, for normal gradients, base, the lit and clamp-gate indicators and
the half vectors. It reads these from a PairCache or computes them from
per-light columns (orthographic) or per-pair half vectors (pinhole), and it is
the only code that branches on those cases. Its consumers are ``forward``
(reduces f * cmax against the environment), ``build_transfer`` (stores
f * cmax), ``build_pair_cache`` (stores ell, cmax and the pinhole basis) and
``backward`` (the three adjoints). With a TransferCache, forward and the light
adjoint are plain reductions over the stored f * cmax.

The traversal order (region, then chunk, then block) and all reduction orders
are fixed, so outputs are bit-identical for any worker count: threads only
trade whole chunks and per-chunk partial sums are combined in chunk order
afterwards.

Pixel powers use expm1(b * log(base)) + 1, which is exact to a few ulp except
for results tiny enough (< ~1e-12) to be negligible in the light sum, and is
uniformly fast where np.power is not.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spline
from .brdf import EPS_BASE, OVERFLOW_LIMIT, ShadingOverflowError

PIXEL_CHUNK = 256
LIGHT_BLOCK = 1024

# |omega_i + omega_p| below this leaves the half vector undefined; the pair
# contributes nothing and nothing propagates through it.
DEGENERATE_HALF = 1e-8

GROUPS = ("normal", "light", "material")


class _ScratchPool:
    """Reusable per-worker buffer stores: one flat array per name."""

    def __init__(self):
        self._q: queue.SimpleQueue = queue.SimpleQueue()

    @contextmanager
    def lease(self):
        try:
            store = self._q.get_nowait()
        except queue.Empty:
            store = {}
        try:
            yield store
        finally:
            self._q.put(store)


_POOL = _ScratchPool()


def _buf(store: dict, name: str, shape: tuple) -> np.ndarray:
    """A contiguous prefix view of the store's array ``name``, grown only when too small."""
    size = math.prod(shape)
    flat = store.get(name)
    if flat is None or flat.size < size:
        flat = store[name] = np.empty(size)
    return flat[:size].reshape(shape)


@dataclass(frozen=True)
class ShadingProblem:
    """Scene geometry over the foreground stream (row-major)."""

    pixel_xy: np.ndarray  # (F, 2) int32, (px, py) for error reports
    chunks: tuple  # ((region, stream-index array), ...) in traversal order
    dirs: np.ndarray  # (I, 3)
    weights: np.ndarray  # (I,)
    view: np.ndarray  # (3,) when ortho else (F, 3)
    ortho: bool
    half_cols: np.ndarray | None = None  # (I, 3), ortho only
    valid_cols: np.ndarray | None = None  # (I,) float mask, None when all valid
    basis_cols: np.ndarray | None = None  # (I, 6), ortho only

    @property
    def pixel_count(self) -> int:
        return self.pixel_xy.shape[0]

    @property
    def light_count(self) -> int:
        return self.dirs.shape[0]


@dataclass
class PairCache:
    """Per-(pixel, light) quantities that are fixed while only the material moves."""

    ell: np.ndarray  # (F, I) log of the clamped h . n base
    cmaxv: np.ndarray  # (F, I) max(0, n . omega) with invalid pairs zeroed
    basis: np.ndarray | None  # (F, I, 6) for pinhole cameras, else None

    @property
    def nbytes(self) -> int:
        n = self.ell.nbytes + self.cmaxv.nbytes
        return n + (self.basis.nbytes if self.basis is not None else 0)


@dataclass
class TransferCache:
    """f * cmax per (pixel, light, channel); the image is linear in the light given this."""

    contrib: np.ndarray  # (F, I, 3)

    @property
    def nbytes(self) -> int:
        return self.contrib.nbytes


def prepare(mask, view, region_count, dirs, weights, region_ids=None) -> ShadingProblem:
    """Flatten a scene's geometry to the foreground stream and precompute light columns.

    ``view`` is a (3,) constant direction (orthographic) or an (H, W, 3)
    per-pixel grid. ``region_ids`` defaults to a single region 0.
    """
    ys, xs = np.nonzero(mask)
    region_of = np.zeros(ys.size, dtype=np.int32) if region_ids is None else region_ids[ys, xs]
    chunks = []
    for r in range(region_count):
        stream = np.nonzero(region_of == r)[0]
        for start in range(0, stream.size, PIXEL_CHUNK):
            chunks.append((r, stream[start : start + PIXEL_CHUNK]))

    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    view = np.asarray(view, dtype=np.float64)
    ortho = view.ndim == 1
    half = valid = basis = None
    if ortho:
        s = dirs + view[None, :]
        norms = np.linalg.norm(s, axis=1)
        bad = norms < DEGENERATE_HALF
        half = s / np.where(bad, 1.0, norms)[:, None]
        valid = None if not bad.any() else (~bad).astype(np.float64)
        basis = spline.basis_matrix(np.arccos(np.clip(np.einsum("id,id->i", dirs, half), 0.0, 1.0)))
    return ShadingProblem(
        pixel_xy=np.stack([xs, ys], axis=1).astype(np.int32),
        chunks=tuple(chunks),
        dirs=dirs,
        weights=np.ascontiguousarray(weights, dtype=np.float64),
        view=view if ortho else np.ascontiguousarray(view[ys, xs], dtype=np.float64),
        ortho=ortho,
        half_cols=half,
        valid_cols=valid,
        basis_cols=basis,
    )


def _blocks(light_count: int):
    return [(b0, min(light_count, b0 + LIGHT_BLOCK)) for b0 in range(0, light_count, LIGHT_BLOCK)]


def _pair_geometry(store, nc, view_c, dirs_t):
    """Per-pair half-vector quantities for a pinhole tile.

    Returns (hdn, valid, half, basis); valid is None when every pair is fine.
    """
    c, b = nc.shape[0], dirs_t.shape[0]
    s = _buf(store, "pg_s", (c, b, 3))
    np.add(view_c[:, None, :], dirs_t[None, :, :], out=s)
    nn = _buf(store, "pg_nn", (c, b))
    np.einsum("cbd,cbd->cb", s, s, out=nn)
    np.sqrt(nn, out=nn)
    bad = nn < DEGENERATE_HALF
    valid = None
    if bad.any():
        valid = (~bad).astype(np.float64)
        nn[bad] = 1.0
    s /= nn[:, :, None]
    hdn = _buf(store, "pg_hdn", (c, b))
    np.einsum("cbd,cd->cb", s, nc, out=hdn)
    wih = _buf(store, "pg_wih", (c, b))
    np.einsum("cbd,bd->cb", s, dirs_t, out=wih)
    np.clip(wih, 0.0, 1.0, out=wih)
    return hdn, valid, s, spline.basis_matrix(np.arccos(wih))


class _Tile(NamedTuple):
    """Pair geometry of one (pixel chunk x light block) tile, each (C, B) unless noted."""

    b0: int
    b1: int
    cmaxv: np.ndarray  # max(0, n . omega), zero where the half vector is undefined
    ell: np.ndarray  # log(base), base = clamp(h . n, EPS_BASE, 1)
    basis: np.ndarray  # spline basis at theta_d: (B, 6) orthographic, (C, B, 6) pinhole
    curves: np.ndarray | None  # coefficient curves: (3, 3, 2, B) or (3, 3, 2, C, B)
    base: np.ndarray | None  # the rest only for normal gradients
    litv: np.ndarray | None  # 1(n . omega > 0) on valid pairs
    gate: np.ndarray | None  # 1(EPS_BASE < h . n < 1), where base moves with n
    half: np.ndarray | None  # unit half vectors: (B, 3) orthographic, (C, B, 3) pinhole


def _tiles(problem, normals, ci, store, *, ctrl=None, pair=None, geometry=False):
    """Yield a _Tile for every light block of chunk ``ci`` that has a lit pair.

    ``ctrl`` is the chunk material's (3, 3, 2, 6) control points, or None when
    no curves are needed; ``geometry`` adds the normal-gradient fields. With a
    ``pair`` cache the normals are not read.
    """
    nc = normals[ci] if pair is None else None
    for b0, b1 in _blocks(problem.light_count):
        base = litv = gate = half = None
        if pair is not None:
            cmaxv = pair.cmaxv[ci, b0:b1]
            if not cmaxv.any():
                continue
            ell = pair.ell[ci, b0:b1]
            basis = problem.basis_cols[b0:b1] if problem.ortho else pair.basis[ci, b0:b1]
        else:
            shape = (ci.shape[0], b1 - b0)
            ndl = _buf(store, "ndl", shape)
            np.matmul(nc, problem.dirs[b0:b1].T, out=ndl)
            if ndl.max() <= 0.0:
                # Every term of the image and of each adjoint carries
                # max(0, n . omega) or its indicator: a dark tile adds nothing.
                continue
            if problem.ortho:
                hdn = _buf(store, "hdn", shape)
                np.matmul(nc, problem.half_cols[b0:b1].T, out=hdn)
                valid = None if problem.valid_cols is None else problem.valid_cols[b0:b1]
                half, basis = problem.half_cols[b0:b1], problem.basis_cols[b0:b1]
            else:
                hdn, valid, half, basis = _pair_geometry(store, nc, problem.view[ci], problem.dirs[b0:b1])
            cmaxv = _buf(store, "cmaxv", shape)
            np.maximum(ndl, 0.0, out=cmaxv)
            base = _buf(store, "base", shape)
            np.clip(hdn, EPS_BASE, 1.0, out=base)
            ell = _buf(store, "ell", shape)
            np.log(base, out=ell)
            if geometry:
                litv = _buf(store, "litv", shape)
                np.multiply(ndl > 0.0, 1.0, out=litv)
                gate = _buf(store, "gate", shape)
                np.multiply((hdn > EPS_BASE) & (hdn < 1.0), 1.0, out=gate)
            if valid is not None:
                cmaxv *= valid
                if geometry:
                    litv *= valid
        curves = None
        if ctrl is not None:
            curves = ctrl @ basis.T if problem.ortho else np.einsum("kstj,cbj->kstcb", ctrl, basis)
        yield _Tile(b0, b1, cmaxv, ell, basis, curves, base, litv, gate, half)


def _raise_overflow(problem, ci, f, k):
    c_idx, l_idx = np.unravel_index(int(np.nanargmax(np.where(np.isfinite(f), np.abs(f), np.inf))), f.shape)
    px, py = problem.pixel_xy[ci[c_idx]]
    raise ShadingOverflowError(
        f"lobe sum for channel {k} overflowed at pixel ({int(px)}, {int(py)}), light texel {int(l_idx)}"
    )


def _shaded(store, problem, ci, tile):
    """Yield (k, f_k * cmax) per channel of one tile; the array is reused across channels.

    f_k = sum_s expm1(a_ks * (expm1(b_ks * ell) + 1)). The overflow check runs
    before the cmax mask, because inf * 0 would hide it as NaN.
    """
    f = _buf(store, "f", tile.ell.shape)
    t = _buf(store, "lobe_t", tile.ell.shape)
    for k in range(3):
        for s in range(3):
            a_row, b_row = tile.curves[k, s, 0], tile.curves[k, s, 1]
            target = f if s == 0 else t
            np.multiply(tile.ell, b_row, out=target)
            np.expm1(target, out=target)
            target += 1.0
            target *= a_row
            np.expm1(target, out=target)
            if s > 0:
                f += t
        top = float(np.max(f))
        if not top <= OVERFLOW_LIMIT:  # catches NaN too
            _raise_overflow(problem, ci, f, k)
        f *= tile.cmaxv
        yield k, f


def _run_tasks(fn, tasks, threads):
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, tasks))


def forward(problem, normals, materials, env_flat, *, threads=1, pair=None, transfer=None) -> np.ndarray:
    """Foreground-stream image, shape (F, 3). ``env_flat`` is (I, 3) radiance.

    ``normals`` is (F, 3) over the foreground stream and ``materials`` holds
    one DsbrdfMaterial per region.
    """
    env_lw = env_flat * problem.weights[:, None]

    def run(task):
        region, ci = task
        out = np.zeros((ci.shape[0], 3))
        if transfer is not None:
            for b0, b1 in _blocks(problem.light_count):
                block = transfer.contrib[ci, b0:b1, :]
                for k in range(3):
                    out[:, k] += np.einsum("cb,b->c", block[:, :, k], env_lw[b0:b1, k])
            return ci, out
        with _POOL.lease() as store:
            for tile in _tiles(problem, normals, ci, store, ctrl=materials[region].control_points, pair=pair):
                for k, f in _shaded(store, problem, ci, tile):
                    out[:, k] += np.einsum("cb,b->c", f, env_lw[tile.b0 : tile.b1, k])
        return ci, out

    image = np.zeros((problem.pixel_count, 3))
    for ci, block in _run_tasks(run, problem.chunks, threads):
        image[ci] = block
    return image


def build_pair_cache(problem, normals, *, threads=1) -> PairCache:
    """Materialize ell, cmax (and the pinhole basis) for every pair.

    The values come from the producer the uncached path uses, so shading
    through the cache is bit-identical to shading without it. Blocks without a
    lit pair keep cmax = 0, which every reader skips.
    """
    shape = (problem.pixel_count, problem.light_count)
    ell, cmaxv = np.zeros(shape), np.zeros(shape)
    basis = None if problem.ortho else np.zeros(shape + (6,))

    def run(task):
        _, ci = task
        with _POOL.lease() as store:
            for tile in _tiles(problem, normals, ci, store):
                ell[ci, tile.b0 : tile.b1] = tile.ell
                cmaxv[ci, tile.b0 : tile.b1] = tile.cmaxv
                if basis is not None:
                    basis[ci, tile.b0 : tile.b1] = tile.basis

    _run_tasks(run, problem.chunks, threads)
    return PairCache(ell=ell, cmaxv=cmaxv, basis=basis)


def build_transfer(problem, normals, materials, *, threads=1) -> TransferCache:
    """Materialize f * cmax for every pair and channel."""
    contrib = np.zeros((problem.pixel_count, problem.light_count, 3))

    def run(task):
        region, ci = task
        with _POOL.lease() as store:
            for tile in _tiles(problem, normals, ci, store, ctrl=materials[region].control_points):
                for k, f in _shaded(store, problem, ci, tile):
                    contrib[ci, tile.b0 : tile.b1, k] = f

    _run_tasks(run, problem.chunks, threads)
    return TransferCache(contrib=contrib)


def _backward_chunk(problem, normals, material, env_lw, lwd, u_c, groups, ci, pair):
    """Adjoints for one chunk.

    Returns (dn_block, denv_partial, dm_partial). dn_block is (C, 3); the
    partials cover the whole light table / material vector and are reduced in
    chunk order by the caller.
    """
    want_n = "normal" in groups
    want_l = "light" in groups
    want_m = "material" in groups
    need_e = want_n or want_m

    dn = np.zeros((ci.shape[0], 3)) if want_n else None
    denv = np.zeros((problem.light_count, 3)) if want_l else None
    dm = np.zeros((3, 3, 2, 6)) if want_m else None

    with _POOL.lease() as store:
        tiles = _tiles(problem, normals, ci, store, ctrl=material.control_points, pair=pair, geometry=want_n)
        for tile in tiles:
            b0, b1, cmaxv, ell, curves_t = tile.b0, tile.b1, tile.cmaxv, tile.ell, tile.curves
            shape = ell.shape
            t = _buf(store, "bw_t", shape)
            x = _buf(store, "bw_x", shape)
            e = _buf(store, "bw_e", shape)
            m = _buf(store, "bw_m", shape)
            f = _buf(store, "bw_f", shape)
            dacc = _buf(store, "bw_d", shape) if want_n else None

            for k in range(3):
                for s in range(3):
                    a_row, b_row = curves_t[k, s, 0], curves_t[k, s, 1]
                    np.multiply(ell, b_row, out=t)
                    np.expm1(t, out=t)
                    t += 1.0  # t = base ** b
                    np.multiply(t, a_row, out=x)
                    np.expm1(x, out=x)  # x = expm1(a * t)
                    if s == 0:
                        f[:] = x
                    else:
                        f += x
                    if need_e:
                        np.add(x, 1.0, out=e)  # e = exp(a * t)
                    if want_n:
                        np.multiply(e, t, out=m)
                        m *= a_row
                        m *= b_row
                        m /= tile.base
                        if s == 0:
                            dacc[:] = m
                        else:
                            dacc += m
                    if want_m:
                        np.multiply(e, t, out=m)
                        m *= cmaxv
                        m *= u_c[:, k : k + 1]
                        _accumulate_material(dm, k, s, m, ell, a_row, env_lw[b0:b1, k], tile.basis)
                if want_l:
                    np.multiply(f, cmaxv, out=m)
                    denv[b0:b1, k] += np.einsum("cb,c->b", m, u_c[:, k]) * problem.weights[b0:b1]
                if want_n:
                    np.multiply(f, tile.litv, out=m)
                    g1 = np.einsum("cb,bd->cd", m, lwd[k][b0:b1])
                    g1 *= u_c[:, k : k + 1]
                    dn += g1
                    np.multiply(dacc, cmaxv, out=m)
                    m *= tile.gate
                    m *= env_lw[b0:b1, k]
                    if problem.ortho:
                        g2 = np.einsum("cb,bd->cd", m, tile.half)
                    else:
                        g2 = np.einsum("cb,cbd->cd", m, tile.half)
                    g2 *= u_c[:, k : k + 1]
                    dn += g2
    return dn, denv, dm


def _accumulate_material(dm, k, s, m, ell, a_row, lw_k, basis_t):
    """Add one tile's contribution to d/d(control points) of channel k, lobe s.

    ``m`` arrives as exp(a t) * t * cmax * u_k per pair and is consumed in
    place; the second coefficient adds the a * ln(base) factor.
    """
    if basis_t.ndim == 2:  # orthographic: basis indexed by light only
        v = np.einsum("cb->b", m) * lw_k
        dm[k, s, 0] += np.einsum("b,bj->j", v, basis_t)
        m *= a_row
        m *= ell
        v = np.einsum("cb->b", m) * lw_k
        dm[k, s, 1] += np.einsum("b,bj->j", v, basis_t)
    else:
        mw = m * lw_k[None, :]
        dm[k, s, 0] += np.einsum("cb,cbj->j", mw, basis_t)
        m *= a_row
        m *= ell
        mw = m * lw_k[None, :]
        dm[k, s, 1] += np.einsum("cb,cbj->j", mw, basis_t)


def backward(problem, normals, materials, env_flat, upstream, groups, *, threads=1, pair=None, transfer=None):
    """Adjoints of the foreground image against a (F, 3) upstream weighting.

    ``normals`` and ``materials`` are as in :func:`forward`. Returns
    (d_normals (F,3) | None, d_env (I,3) | None, d_materials [(3,3,2,6)] |
    None) for the requested parameter groups.
    """
    groups = frozenset(groups)
    unknown = groups.difference(GROUPS)
    if unknown:
        raise ValueError(f"unknown gradient groups: {sorted(unknown)}")
    if transfer is not None and groups != {"light"}:
        raise ValueError("a transfer cache freezes normals and material; only light gradients remain")
    if pair is not None and "normal" in groups:
        raise ValueError("a pair cache freezes the normals; normal gradients need the uncached path")
    env_lw = env_flat * problem.weights[:, None]
    lwd = [env_lw[:, k : k + 1] * problem.dirs for k in range(3)] if "normal" in groups else None

    def run(task):
        region, ci = task
        u_c = upstream[ci]
        if transfer is None:
            return ci, region, _backward_chunk(problem, normals, materials[region], env_lw, lwd, u_c, groups, ci, pair)
        # Light-only fast path: contributions are frozen.
        denv = np.zeros((problem.light_count, 3))
        for b0, b1 in _blocks(problem.light_count):
            block = transfer.contrib[ci, b0:b1, :]
            for k in range(3):
                denv[b0:b1, k] += np.einsum("cb,c->b", block[:, :, k], u_c[:, k]) * problem.weights[b0:b1]
        return ci, region, (None, denv, None)

    results = _run_tasks(run, problem.chunks, threads)

    dn_all = np.zeros((problem.pixel_count, 3)) if "normal" in groups else None
    denv_all = np.zeros((problem.light_count, 3)) if "light" in groups else None
    dm_all = [np.zeros((3, 3, 2, 6)) for _ in materials] if "material" in groups else None
    for ci, region, (dn, denv, dm) in results:
        if dn is not None:
            dn_all[ci] = dn
        if denv is not None:
            denv_all += denv
        if dm is not None:
            dm_all[region] += dm
    return dn_all, denv_all, dm_all
