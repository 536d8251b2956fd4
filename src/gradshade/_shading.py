"""Tiled evaluation of the environment shading sum and its adjoints.

Private engine behind :mod:`gradshade.render`, :mod:`gradshade.grad` and :mod:`gradshade.invert`.

The image model per foreground pixel p and color channel k is

    I_k(p) = sum_i f_k(p, i) * L_k(i) * max(0, n_p . omega_i) * w_i

over all texels i of an equirectangular light table, with the DSBRDF lobes of
:mod:`gradshade.brdf` evaluated at base = clamp(h . n, EPS_BASE, 1) and the
coefficient splines at theta_d.

The half vector h = (omega + v) / |omega + v| is never formed. The model
needs it only through h . n and theta_d, and both follow from dot products:

    |omega + v| = sqrt(2 + 2 omega . v)
    h . n       = (omega . n + v . n) / |omega + v|
    theta_d     = acos(omega . h) = acos(|omega + v| / 2)

The normal adjoint's sum over lights of m * h likewise splits into a matmul
against the light directions plus a multiple of the view. Quantities of the
view alone are (1, B) per light block for an orthographic camera, whose one
view row every pixel shares, and (C, B) for a pinhole camera. They broadcast
against the (C, B) pair arrays, so one code path serves both cameras.
Near omega = -v the first identity loses relative precision, since its
square carries an absolute error of a few ulp of 2. Only normals facing away
from the camera see such a texel lit (n . omega > 0 needs n . v < 0), and
pairs with |omega + v| < DEGENERATE_HALF are dropped.

A ShadingProblem holds only the scene geometry; normals and materials are
arguments of every call. Its chunks are the foreground pixels of one region
in one PIXEL_TILE x PIXEL_TILE screen tile, whose normals lie close together.
Every term of the image and of each adjoint carries max(0, n . omega) or its
indicator, so a pair whose light is dark for its pixel adds exactly 0. One
producer, ``_tiles``, first lists the lights that some pixel of the chunk
sees lit (max_c n_c . omega > 0), then yields the pair geometry of the chunk
against blocks of up to LIGHT_BLOCK listed lights: cmax = max(0, n . omega),
ell = log(base), the spline basis and coefficient curves at theta_d and, for
normal gradients, the lit indicator and the clamp gate. Its consumers
are ``forward`` (reduces f * cmax against the environment),
``build_transfer`` (stores f * cmax) and ``backward`` (the three adjoints).
Pair geometry is recomputed on every call: a per-pair cache of it saved no
solve time. A TransferCache, the one cache, stores f * cmax of the shaded
pairs only, per chunk as (lights, (3, C, B)) blocks; the light adjoint and
the residual-mode image reduce those blocks exactly as freshly shaded ones.

``backward``'s residual mode is the solver's objective pass: given the target
instead of an upstream, it takes u = 2 (I - target) for the image I of the
same pass and returns I too. A one-tile chunk reduces channel k of I right
after that channel's lobes, from the f * cmax the light adjoint also reads,
then runs the reductions that need u_k. A chunk listing more than LIGHT_BLOCK
lights has several tiles: it reduces I through ``_shaded`` first, then runs
the adjoints as for an upstream, both over the one light list it made; the
transfer path does the same in two passes over its blocks. Either way I and
the adjoints equal ``forward`` and ``backward`` against 2 (I - target) bit
for bit.

The traversal order (region, then tile row-major, then light block), the
light lists and all reduction orders are fixed, so outputs are bit-identical
for any worker count and with or without the transfer cache: threads only
trade whole chunks and per-chunk partial sums are combined in chunk order.

Pixel powers t = base ** b are exp(b * log(base)): one pass of numpy's
vectorized exp, a few ulp from the exact power with nothing to cancel, and
uniformly fast where np.power is not. The lobe values exp(a * t) - 1 use
expm1, which keeps small values exact to a few ulp where exp(...) - 1 would
cancel. Every consumer evaluates the lobes through ``_lobes``, so forward,
backward and the transfer cache raise ShadingOverflowError on the same scenes.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spline
from .brdf import EPS_BASE, OVERFLOW_LIMIT, ShadingOverflowError

PIXEL_TILE = 8
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
    chunks: tuple  # ((region, stream-index array), ...), one per region and screen tile
    dirs: np.ndarray  # (I, 3)
    weights: np.ndarray  # (I,)
    view: np.ndarray  # (1, 3) when ortho else (F, 3)
    ortho: bool

    @property
    def pixel_count(self) -> int:
        return self.pixel_xy.shape[0]

    @property
    def light_count(self) -> int:
        return self.dirs.shape[0]

    def view_rows(self, idx) -> np.ndarray:
        """View directions of the stream pixels ``idx``; the one shared row when ortho."""
        return self.view if self.ortho else self.view[idx]


@dataclass
class TransferCache:
    """f * cmax of every shaded pair; the image is linear in the light given this."""

    blocks: tuple  # per chunk, per tile: (lights, (3, C, B) f * cmax), channel-major

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for chunk in self.blocks for _, block in chunk)


def prepare(mask, view, dirs, weights, region_ids=None) -> ShadingProblem:
    """Flatten a scene's geometry to the foreground stream.

    ``view`` is a (3,) constant direction (orthographic) or an (H, W, 3)
    per-pixel grid. ``region_ids`` defaults to a single region 0. Chunks run
    by region, then screen tile (row-major), then stream order in the tile.
    """
    ys, xs = np.nonzero(mask)
    region_of = np.zeros(ys.size, dtype=np.int64) if region_ids is None else region_ids[ys, xs].astype(np.int64)
    tiles_x, tiles_y = -(-mask.shape[1] // PIXEL_TILE), -(-mask.shape[0] // PIXEL_TILE)
    key = (region_of * tiles_y + ys // PIXEL_TILE) * tiles_x + xs // PIXEL_TILE
    order = np.argsort(key, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if order.size else []
    chunks = [(int(region_of[g[0]]), g) for g in groups]

    view = np.asarray(view, dtype=np.float64)
    ortho = view.ndim == 1
    return ShadingProblem(
        pixel_xy=np.stack([xs, ys], axis=1).astype(np.int32),
        chunks=tuple(chunks),
        dirs=np.ascontiguousarray(dirs, dtype=np.float64),
        weights=np.ascontiguousarray(weights, dtype=np.float64),
        view=view[None, :] if ortho else np.ascontiguousarray(view[ys, xs], dtype=np.float64),
        ortho=ortho,
    )


class _Tile(NamedTuple):
    """Pair geometry of one chunk against one block of its listed lights.

    ``lights`` holds B unique, ascending light-table indices. Pair arrays are
    (C, B). View arrays are (V, B), with V = 1 for an orthographic camera and
    V = C for a pinhole one.
    """

    lights: np.ndarray
    cmaxv: np.ndarray  # max(0, n . omega), zero where the half vector is undefined
    ell: np.ndarray  # log(base), base = clamp(h . n, EPS_BASE, 1)
    basis: np.ndarray  # (V, B, 6) spline basis at theta_d
    curves: np.ndarray  # (3, 3, 2, V, B) coefficient curves
    litv: np.ndarray | None  # only for normal gradients: 1(n . omega > 0) on valid pairs
    gate: np.ndarray | None  # cmax * 1(EPS_BASE < h . n < 1) / (|omega + v| * base): base moves with n there


def _listed(problem, nc, store):
    """Ascending indices of the lights that some pixel of a chunk with normals ``nc`` sees lit."""
    listed = []
    for b0 in range(0, problem.light_count, LIGHT_BLOCK):
        ndl = _buf(store, "ndl", (nc.shape[0], min(LIGHT_BLOCK, problem.light_count - b0)))
        np.matmul(nc, problem.dirs[b0 : b0 + LIGHT_BLOCK].T, out=ndl)
        listed.append(b0 + np.flatnonzero(ndl.max(axis=0) > 0.0))
    return np.concatenate(listed)


def _tiles(problem, normals, ci, store, ctrl, *, geometry=False, listed=None):
    """Yield a _Tile per block of up to LIGHT_BLOCK lights that some pixel of chunk ``ci`` sees lit.

    ``ctrl`` is the chunk material's (3, 3, 2, 6) control points; ``geometry``
    adds the normal-gradient fields; ``listed`` is the chunk's ``_listed``
    lights when the caller has them already.
    """
    nc = normals[ci]
    if listed is None:
        listed = _listed(problem, nc, store)
    view_c = problem.view_rows(ci)
    vdn = np.einsum("cd,cd->c", nc, np.broadcast_to(view_c, nc.shape))[:, None]  # v . n
    for start in range(0, listed.size, LIGHT_BLOCK):
        lights = listed[start : start + LIGHT_BLOCK]
        dirs_t = problem.dirs[lights].T
        shape = (ci.shape[0], lights.size)
        ndl = _buf(store, "ndl", shape)
        np.matmul(nc, dirs_t, out=ndl)
        vshape = (view_c.shape[0], lights.size)
        length = _buf(store, "length", vshape)
        np.matmul(view_c, dirs_t, out=length)
        length *= 2.0
        length += 2.0
        np.maximum(length, 0.0, out=length)
        np.sqrt(length, out=length)  # |omega + v|
        valid = length >= DEGENERATE_HALF
        rlen = _buf(store, "rlen", vshape)
        np.maximum(length, DEGENERATE_HALF, out=rlen)
        np.reciprocal(rlen, out=rlen)
        all_valid = bool(valid.all())
        if not all_valid:
            rlen *= valid  # no half vector: h . n = 0 and nothing moves with n
        length *= 0.5
        np.minimum(length, 1.0, out=length)
        basis = spline.basis_matrix(np.arccos(length, out=length))  # theta_d = acos(|omega + v| / 2)
        hdn = _buf(store, "hdn", shape)
        np.add(ndl, vdn, out=hdn)
        hdn *= rlen
        cmaxv = _buf(store, "cmaxv", shape)
        np.maximum(ndl, 0.0, out=cmaxv)
        if not all_valid:
            cmaxv *= valid
        base = _buf(store, "base", shape)
        np.clip(hdn, EPS_BASE, 1.0, out=base)
        ell = _buf(store, "ell", shape)
        np.log(base, out=ell)
        litv = gate = None
        if geometry:
            litv = _buf(store, "litv", shape)
            np.multiply(ndl > 0.0, valid, out=litv)
            gate = _buf(store, "gate", shape)
            np.multiply((hdn > EPS_BASE) & (hdn < 1.0), rlen, out=gate)
            gate *= cmaxv
            gate /= base
        curves = _buf(store, "curves", (18, basis.shape[0] * basis.shape[1]))
        np.matmul(ctrl.reshape(18, 6), basis.reshape(-1, 6).T, out=curves)
        yield _Tile(lights, cmaxv, ell, basis, curves.reshape((3, 3, 2) + vshape), litv, gate)


def _lobes(problem, ci, tile, k, f, t, x_next):
    """Evaluate the three lobes of channel k on a tile into f = sum_s x.

    Yields (a, b, t, x) per lobe, with t = base ** b = exp(b * ell) and
    x = expm1(a * t), in the buffers ``t`` and ``x_next`` (``f`` for the first
    lobe); ``x_next`` may be ``t`` when the caller needs no t. After the last
    lobe it raises ShadingOverflowError if f left the finite range. The check
    sees f before any cmax mask, because inf * 0 would hide it as NaN.

    So a render or gradient raises iff a pair it evaluates overflows. Every
    lit pair is evaluated; a pair whose light no pixel of its chunk sees lit
    is not, and cannot raise.
    """
    for s in range(3):
        a_row, b_row = tile.curves[k, s, 0], tile.curves[k, s, 1]
        x = f if s == 0 else x_next
        np.multiply(tile.ell, b_row, out=t)
        np.exp(t, out=t)
        np.multiply(t, a_row, out=x)
        np.expm1(x, out=x)
        if s > 0:
            f += x
        yield a_row, b_row, t, x
    if not float(np.max(f)) <= OVERFLOW_LIMIT:  # catches NaN too
        c_idx, l_idx = np.unravel_index(int(np.nanargmax(np.where(np.isfinite(f), np.abs(f), np.inf))), f.shape)
        px, py = problem.pixel_xy[ci[c_idx]]
        raise ShadingOverflowError(
            f"lobe sum for channel {k} overflowed at pixel ({int(px)}, {int(py)}), light texel {int(tile.lights[l_idx])}"
        )


def _shaded(problem, normals, materials, transfer, j, store, listed=None):
    """Yield (lights, k, f_k * cmax) per tile and channel of chunk j, from ``transfer`` when given.

    Either way the values are a contiguous (C, B) array, so reductions over them agree bit for bit.
    ``listed`` is as in ``_tiles``.
    """
    if transfer is not None:
        for lights, block in transfer.blocks[j]:
            for k in range(3):
                yield lights, k, block[k]
        return
    region, ci = problem.chunks[j]
    for tile in _tiles(problem, normals, ci, store, materials[region].control_points, listed=listed):
        f = _buf(store, "f", tile.ell.shape)
        t = _buf(store, "lobe_t", tile.ell.shape)
        for k in range(3):
            for _ in _lobes(problem, ci, tile, k, f, t, t):
                pass
            f *= tile.cmaxv
            yield tile.lights, k, f


def _image_rows(shaded, env_lw, count):
    """A chunk's (count, 3) image from its ``_shaded`` blocks: zeros, then each block reduced against L w."""
    out = np.zeros((count, 3))
    for lights, k, fc in shaded:
        out[:, k] += np.einsum("cb,b->c", fc, env_lw[lights, k])
    return out


def _light_values(fc, u_k, weights):
    """One channel's light adjoint from a contiguous (C, B) f * cmax; cached and fresh blocks share it, bit for bit."""
    return np.einsum("cb,c->b", fc, u_k) * weights


def _run_tasks(fn, problem, threads):
    """fn(j) for every chunk j, yielded in chunk order; callers reduce without holding every result.

    At most min(threads, chunks, cpu count) workers run; outputs do not depend on it.
    """
    tasks = range(len(problem.chunks))
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, tasks)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(fn, tasks)


def forward(problem, normals, materials, env_flat, *, threads=1) -> np.ndarray:
    """Foreground-stream image, shape (F, 3). ``env_flat`` is (I, 3) radiance.

    ``normals`` is (F, 3) over the foreground stream and ``materials`` holds
    one DsbrdfMaterial per region.
    """
    env_lw = env_flat * problem.weights[:, None]

    def run(j):
        ci = problem.chunks[j][1]
        with _POOL.lease() as store:
            return ci, _image_rows(_shaded(problem, normals, materials, None, j, store), env_lw, ci.shape[0])

    image = np.zeros((problem.pixel_count, 3))
    for ci, block in _run_tasks(run, problem, threads):
        image[ci] = block
    return image


def build_transfer(problem, normals, materials, *, threads=1) -> TransferCache:
    """Materialize f * cmax for every shaded pair and channel."""

    def run(j):
        blocks = []
        with _POOL.lease() as store:
            for lights, k, fc in _shaded(problem, normals, materials, None, j, store):
                if k == 0:
                    block = np.empty((3,) + fc.shape)
                    blocks.append((lights, block))
                block[k] = fc
        return tuple(blocks)

    return TransferCache(blocks=tuple(_run_tasks(run, problem, threads)))


def _backward_chunk(problem, normals, materials, env_lw, u_c, groups, j, target_c=None):
    """Adjoints for chunk j against its upstream rows ``u_c``, or in residual mode against its own image.

    Returns (image, dn_block, light_partials, dm_partial). dn_block is (C, 3);
    light_partials holds one (lights, (B, 3) values) pair per tile, so it
    covers only the chunk's listed lights, which are unique across its tiles;
    dm_partial covers the material vector. The caller adds both partials in
    chunk order.

    In residual mode (``u_c`` None, ``target_c`` the chunk's target rows; see the
    module docstring) image is the chunk's (C, 3) image, else None. The normal
    rows take u_k only at the end and the material sums run after the lobes,
    from each lobe's own e * t, so u_k may come from that channel's image.

    Factors of a whole tile, channel or (V, B) row are applied once there, not
    once per lobe: a * b is one row, ``tile.gate`` already holds cmax / base,
    cmax * u_k is one array per channel and L_k w goes into the light directions.
    """
    want_n = "normal" in groups
    want_l = "light" in groups
    want_m = "material" in groups
    region, ci = problem.chunks[j]

    dn = np.zeros((ci.shape[0], 3)) if want_n else None
    dlight = [] if want_l else None
    dm = np.zeros((3, 3, 2, 6)) if want_m else None
    view_c = problem.view_rows(ci)

    with _POOL.lease() as store:
        listed = _listed(problem, normals[ci], store)
        image = None if target_c is None else np.zeros((ci.shape[0], 3))
        if target_c is not None and listed.size > LIGHT_BLOCK:  # several tiles: the whole image comes first
            image = _image_rows(_shaded(problem, normals, materials, None, j, store, listed), env_lw, ci.shape[0])
            u_c, target_c = 2.0 * (image - target_c), None
        ctrl = materials[region].control_points
        for tile in _tiles(problem, normals, ci, store, ctrl, geometry=want_n, listed=listed):
            lights, cmaxv = tile.lights, tile.cmaxv
            shape = cmaxv.shape
            f = _buf(store, "bw_f", shape)
            t = _buf(store, "bw_t", shape)
            x = _buf(store, "bw_x", shape)
            ets = [_buf(store, f"bw_e{s}", shape) for s in range(3)] if want_n or want_m else None
            dacc = _buf(store, "bw_d", shape) if want_n else None
            cu = _buf(store, "bw_cu", shape) if want_m else None
            if want_n:
                dirs_l = problem.dirs[lights]
            if want_l:
                values = np.empty((lights.size, 3))
                dlight.append((lights, values))

            for k in range(3):
                lw_k = env_lw[lights, k]
                for s, (a_row, b_row, _, x_s) in enumerate(_lobes(problem, ci, tile, k, f, t, x)):
                    if ets is not None:
                        np.add(x_s, 1.0, out=ets[s])  # e = exp(a * t)
                        ets[s] *= t  # t is free from here on
                    if want_n:
                        np.multiply(ets[s], a_row * b_row, out=dacc if s == 0 else t)
                        if s > 0:
                            dacc += t
                if target_c is not None or want_l:
                    np.multiply(f, cmaxv, out=t)
                if target_c is not None:
                    image[:, k] += np.einsum("cb,b->c", t, lw_k)
                    u_k = 2.0 * (image[:, k] - target_c[:, k])
                else:
                    u_k = u_c[:, k]
                if want_l:
                    values[:, k] = _light_values(t, u_k, problem.weights[lights])
                if want_m:
                    np.multiply(cmaxv, u_k[:, None], out=cu)
                    if tile.basis.shape[0] > 1:  # see _accumulate_material
                        cu *= lw_k
                    for s in range(3):
                        _accumulate_material(dm[k, s], ets[s], cu, t, tile.ell, tile.curves[k, s, 0], lw_k, tile.basis)
                if want_n:
                    lw_dirs = lw_k[:, None] * dirs_l
                    np.multiply(f, tile.litv, out=t)
                    g = t @ lw_dirs
                    # sum_b m h = sum_b (m / |omega + v|) (omega + v); the gate holds the 1 / |omega + v|
                    dacc *= tile.gate
                    g += dacc @ lw_dirs
                    g += (dacc @ lw_k)[:, None] * view_c
                    g *= u_k[:, None]
                    dn += g
    return image, dn, dlight, dm


def _accumulate_material(dm_ks, et, cu, tmp, ell, a_row, lw_k, basis):
    """Add one tile's contribution to d/d(control points) of one lobe of one channel.

    The pair weight is m = e * t * cu, with e = exp(a t) and cu = cmax * u_k,
    times L_k w for a pinhole basis; the second coefficient adds the
    a * ln(base) factor. An orthographic basis is (1, B, 6), shared by every
    pixel, so the pixels are summed first, without forming m, and a and L_k w
    scale the (B,) sums. A pinhole basis is (C, B, 6); m is formed in ``tmp``.
    """
    if basis.shape[0] == 1:
        dm_ks[0] += (np.einsum("cb,cb->b", et, cu) * lw_k) @ basis[0]
        dm_ks[1] += (np.einsum("cb,cb,cb->b", et, cu, ell) * a_row[0] * lw_k) @ basis[0]
        return
    basis = basis.reshape(-1, 6)
    m = np.multiply(et, cu, out=tmp)
    dm_ks[0] += m.reshape(-1) @ basis
    m *= a_row
    m *= ell
    dm_ks[1] += m.reshape(-1) @ basis


def backward(problem, normals, materials, env_flat, upstream, groups, *, threads=1, transfer=None, target=None):
    """Adjoints of the foreground image against a (F, 3) upstream weighting.

    ``normals`` and ``materials`` are as in :func:`forward`. Returns
    (d_normals (F,3) | None, d_env (I,3) | None, d_materials [(3,3,2,6)] |
    None) for the requested parameter groups.

    Residual mode: with ``upstream`` None and a (F, 3) ``target``, the
    upstream is 2 (I - target) for the image I of this same pass, and the
    result is (I, d_normals, d_env, d_materials), each equal bit for bit to
    ``forward`` and to ``backward`` against 2 (forward - target).
    """
    groups = frozenset(groups)
    unknown = groups.difference(GROUPS)
    if unknown:
        raise ValueError(f"unknown gradient groups: {sorted(unknown)}")
    if transfer is not None and groups != {"light"}:
        raise ValueError("a transfer cache freezes normals and material; only light gradients remain")
    env_lw = env_flat * problem.weights[:, None]

    def run(j):
        region, ci = problem.chunks[j]
        u_c, target_c = (upstream[ci], None) if target is None else (None, target[ci])
        if transfer is None:
            return ci, region, _backward_chunk(problem, normals, materials, env_lw, u_c, groups, j, target_c)
        # Light-only fast path: contributions are frozen. Residual mode passes over the blocks twice, image first.
        image = None
        if target_c is not None:
            image = _image_rows(_shaded(problem, normals, materials, transfer, j, None), env_lw, ci.shape[0])
            u_c = 2.0 * (image - target_c)
        dlight = []
        for lights, k, fc in _shaded(problem, normals, materials, transfer, j, None):
            if k == 0:
                values = np.empty((lights.size, 3))
                dlight.append((lights, values))
            values[:, k] = _light_values(fc, u_c[:, k], problem.weights[lights])
        return ci, region, (image, None, dlight, None)

    image_all = None if target is None else np.zeros((problem.pixel_count, 3))
    dn_all = np.zeros((problem.pixel_count, 3)) if "normal" in groups else None
    denv_all = np.zeros((problem.light_count, 3)) if "light" in groups else None
    dm_all = [np.zeros((3, 3, 2, 6)) for _ in materials] if "material" in groups else None
    for ci, region, (image, dn, dlight, dm) in _run_tasks(run, problem, threads):
        if image is not None:
            image_all[ci] = image
        if dn is not None:
            dn_all[ci] = dn
        for lights, values in dlight or ():
            denv_all[lights] += values
        if dm is not None:
            dm_all[region] += dm
    grads = (dn_all, denv_all, dm_all)
    return grads if target is None else (image_all, *grads)
