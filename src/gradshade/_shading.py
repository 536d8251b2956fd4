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
view alone are (1, B) per light block when every pixel shares one view row
(an orthographic camera, or one pixel) and (C, B) otherwise. They broadcast
against the (C, B) pair arrays, so one code path serves both cameras.
Near omega = -v the first identity loses relative precision, since its
square carries an absolute error of a few ulp of 2: at omega = -v exactly it
reads up to about 4.5e-8 rather than 0. Only normals facing away from the
camera see such a texel lit (n . omega > 0 needs n . v < 0), and pairs with
|omega + v| < DEGENERATE_HALF, which lies above that floor, are dropped.

A ShadingProblem holds only the scene geometry; normals and materials are
arguments of every call. Its chunks are the foreground pixels of one region
in one PIXEL_TILE x PIXEL_TILE screen tile, whose normals lie close together.
``restrict`` cuts a problem to some of its pixels, for a sparse upstream or
the solver's active blocks. It joins consecutive chunks of one region that
lost pixels while the joined chunk holds at most PIXEL_TILE**2 pixels, in
stream order, so a sparse cut shades a few full chunks rather than many of a
few pixels each, whose per-chunk numpy calls would cost more than their
pairs. A joined chunk may hold pixels of distant screen tiles of its region.
Every term of the image and of each adjoint carries max(0, n . omega) or its
indicator, so a pair whose light is dark for its pixel adds exactly 0. One
producer, ``_tiles``, first lists the lights that some pixel of the chunk
sees lit (max_c n_c . omega > 0), then yields the pair geometry of the chunk
against blocks of up to LIGHT_BLOCK listed lights: cmax = max(0, n . omega),
ell = log(base), the spline features of theta_d and, for normal gradients,
the clamp gate; it never reads the material. One lobe loop, ``_shaded``, forms
the curves from them, runs the lobes and yields f * cmax per tile and channel,
adding the u-free rows of the normal and material adjoints when asked. Its
consumers are ``forward`` (reduces f * cmax against the environment),
``build_transfer`` (stores it) and ``_backward_chunk``.
Pair geometry is recomputed on every call: a per-pair cache of it saved no
solve time. A TransferCache, the one cache, stores f * cmax of the shaded
pairs only, per chunk as (lights, (3, C, B)) blocks, which
``_backward_chunk`` reduces with the code that reduces fresh ones.

``backward``'s residual mode is the solver's objective pass: given the target
instead of an upstream, it is the upstream pass against u = 2 (I - target) for
the image I of the same pass, and returns I too. The normal and material
adjoints need u only after the sum over lights: they sum u-free rows per pixel
over the chunk's tiles, so their chunks shade once whatever the number of
tiles, and contract the rows with u at the end of each chunk. The rows are the
image's Jacobian rows; a residual pass also returns their Gram matrices J^T J
per Gauss-Newton block of the solver, a pixel's normal or a (region,
channel)'s control points, so no row leaves its chunk. The light adjoint needs
u per light. A one-tile chunk has it right after the channel's block, from the
f * cmax the light adjoint also reads; a chunk listing more than LIGHT_BLOCK
lights has several tiles and, for the light group, sweeps its blocks twice,
the image first, over the one light list it made. A TransferCache serves only
this mode, for the light group alone; its blocks take the same path, so I and
the gradients equal ``forward`` and ``backward`` against 2 (I - target) bit
for bit, cached or not.

The traversal order (region, then tile row-major, then light block), the
light lists and all reduction orders are fixed, so outputs are bit-identical
for any worker count and with or without the transfer cache: threads only
trade whole chunks and per-chunk partial sums are combined in chunk order.
Parallel calls share one pool per worker cap for the life of the process (a
forked child makes its own). Each thread keeps its scratch arrays, by name in
the thread-local ``_SCRATCH``, for its next chunk.

Pixel powers t = base ** b are exp(b * log(base)): one pass of numpy's
vectorized exp, a few ulp from the exact power with nothing to cancel, and
uniformly fast where np.power is not. The lobe values exp(a * t) - 1 use
expm1, which keeps small values exact to a few ulp where exp(...) - 1 would
cancel. Every pass evaluates the lobes in ``_shaded``, so forward, backward
and the transfer cache raise ShadingOverflowError iff a pair they evaluate
overflows, with no floating-point warning before it. Over the same chunks
they evaluate the same pairs, so they raise on the same scenes.
A pass over ``restrict``'s joined chunks evaluates a kept pixel against the
lights that any pixel of its joined chunk sees lit; it can raise at a pair,
unlit for its pixel, that the full problem's chunks never evaluate.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spline
from .brdf import EPS_BASE, OVERFLOW_LIMIT, ShadingOverflowError

PIXEL_TILE = 8
LIGHT_BLOCK = 1024

# |omega_i + omega_p| below this leaves the half vector undefined; the pair
# contributes nothing and nothing propagates through it. It sits above the
# rounding floor of sqrt(2 + 2 omega . v) at omega = -v, about 4.5e-8.
DEGENERATE_HALF = 1e-7

GROUPS = ("normal", "light", "material")


_SCRATCH = threading.local()  # each thread's scratch, one flat array per name, kept for the thread's next chunk


def _buf(name: str, shape: tuple) -> np.ndarray:
    """A contiguous prefix view of this thread's scratch array ``name``, grown only when too small."""
    size = math.prod(shape)
    store = vars(_SCRATCH)  # the calling thread's own namespace
    flat = store.get(name)
    if flat is None or flat.size < size:
        flat = store[name] = np.empty(size)
    return flat[:size].reshape(shape)


@dataclass(frozen=True)
class ShadingProblem:
    """Scene geometry over the foreground stream (row-major)."""

    pixel_xy: np.ndarray  # (F, 2) int32, (px, py) for error reports
    chunks: tuple  # ((region, stream-index array), ...), one per region and screen tile, or joined by ``restrict``
    dirs: np.ndarray  # (I, 3)
    weights: np.ndarray  # (I,)
    view: np.ndarray  # (1, 3), shared by every pixel (orthographic, or one pixel), else (F, 3)

    @property
    def pixel_count(self) -> int:
        return self.pixel_xy.shape[0]

    @property
    def light_count(self) -> int:
        return self.dirs.shape[0]

    def view_rows(self, idx) -> np.ndarray:
        """View directions of the stream pixels ``idx``; the shared row when ``view`` has one."""
        return self.view if self.view.shape[0] == 1 else self.view[idx]


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
    return ShadingProblem(
        pixel_xy=np.stack([xs, ys], axis=1).astype(np.int32),
        chunks=tuple(chunks),
        dirs=np.ascontiguousarray(dirs, dtype=np.float64),
        weights=np.ascontiguousarray(weights, dtype=np.float64),
        view=view[None, :] if view.ndim == 1 else np.ascontiguousarray(view[ys, xs], dtype=np.float64),
    )


def restrict(problem, pixels) -> ShadingProblem:
    """``problem`` cut to the stream pixels where the (F,) bool ``pixels`` is set, in chunk order.

    Each chunk keeps its set pixels and an emptied chunk goes. A chunk that
    lost pixels joins the previous one if that one lost pixels too and lies
    in the same region, while the joined chunk holds at most PIXEL_TILE**2
    pixels; so stream order is kept and a chunk that kept every pixel stays
    as it is. Outputs keep their shapes, 0 at the other pixels. A joined
    chunk lists the lights that any of its pixels sees lit, so a kept pixel
    agrees with the full problem up to rounding and can raise
    ShadingOverflowError at a pair the full problem does not shade.
    """
    chunks, joinable = [], False
    for region, ci in problem.chunks:
        kept = ci[pixels[ci]]
        if not kept.size:
            continue
        thinned = kept.size < ci.size
        if thinned and joinable and chunks[-1][0] == region and chunks[-1][1].size + kept.size <= PIXEL_TILE**2:
            chunks[-1] = (region, np.concatenate([chunks[-1][1], kept]))
        else:
            chunks.append((region, kept))
        joinable = thinned
    return dataclasses.replace(problem, chunks=tuple(chunks))


class _Tile(NamedTuple):
    """Pair geometry of one chunk against one block of its listed lights; nothing of the material.

    ``lights`` holds B unique, ascending light-table indices. Pair arrays are
    (C, B). View arrays are (V, B), with V = 1 when the chunk's pixels share
    one view row and V = C otherwise.
    """

    lights: np.ndarray
    cmaxv: np.ndarray  # max(0, n . omega), zero where the half vector is undefined
    ell: np.ndarray  # log(base), base = clamp(h . n, EPS_BASE, 1)
    feats: np.ndarray  # (6, V, B) truncated-power features of theta_d, spline.features
    gate: np.ndarray | None  # cmax * 1(EPS_BASE < h . n < 1) / (|omega + v| * base): base moves with n there


def _listed(problem, nc):
    """Ascending indices of the lights that some pixel of a chunk with normals ``nc`` sees lit."""
    listed = []
    for b0 in range(0, problem.light_count, LIGHT_BLOCK):
        ndl = _buf("ndl", (nc.shape[0], min(LIGHT_BLOCK, problem.light_count - b0)))
        np.matmul(nc, problem.dirs[b0 : b0 + LIGHT_BLOCK].T, out=ndl)
        listed.append(b0 + np.flatnonzero(ndl.max(axis=0) > 0.0))
    return np.concatenate(listed)


def _tiles(problem, normals, ci, *, geometry=False, listed=None):
    """Yield a _Tile per block of up to LIGHT_BLOCK lights that some pixel of chunk ``ci`` sees lit.

    ``geometry`` adds the normal-gradient gate; ``listed`` is the chunk's
    ``_listed`` lights when the caller has them already.
    """
    nc = normals[ci]
    if listed is None:
        listed = _listed(problem, nc)
    view_c = problem.view_rows(ci)
    vdn = np.einsum("cd,cd->c", nc, np.broadcast_to(view_c, nc.shape))[:, None]  # v . n
    for start in range(0, listed.size, LIGHT_BLOCK):
        lights = listed[start : start + LIGHT_BLOCK]
        dirs_t = problem.dirs[lights].T
        shape = (ci.shape[0], lights.size)
        ndl = _buf("ndl", shape)
        np.matmul(nc, dirs_t, out=ndl)
        vshape = (view_c.shape[0], lights.size)
        length = _buf("length", vshape)
        np.matmul(view_c, dirs_t, out=length)
        length *= 2.0
        length += 2.0
        np.maximum(length, 0.0, out=length)
        np.sqrt(length, out=length)  # |omega + v|
        valid = length >= DEGENERATE_HALF
        rlen = _buf("rlen", vshape)
        np.maximum(length, DEGENERATE_HALF, out=rlen)
        np.reciprocal(rlen, out=rlen)
        all_valid = bool(valid.all())
        if not all_valid:
            rlen *= valid  # no half vector: h . n = 0 and nothing moves with n
        length *= 0.5
        np.minimum(length, 1.0, out=length)
        feats = spline.features(np.arccos(length, out=length), _buf("feats", (6,) + vshape))  # at acos(|omega + v| / 2)
        hdn = _buf("hdn", shape)
        np.add(ndl, vdn, out=hdn)
        hdn *= rlen
        cmaxv = _buf("cmaxv", shape)
        np.maximum(ndl, 0.0, out=cmaxv)
        if not all_valid:
            cmaxv *= valid
        base = _buf("base", shape)
        np.clip(hdn, EPS_BASE, 1.0, out=base)
        ell = _buf("ell", shape)
        np.log(base, out=ell)
        gate = None
        if geometry:
            gate = _buf("gate", shape)
            np.multiply((hdn > EPS_BASE) & (hdn < 1.0), rlen, out=gate)
            gate *= cmaxv
            gate /= base
        yield _Tile(lights, cmaxv, ell, feats, gate)


def _shaded(problem, normals, materials, j, listed=None, env_lw=None, rows_n=None, rows_m=None):
    """Yield (lights, k, f_k * cmax) per tile and channel of chunk j, freshly shaded: the one lobe loop.

    Per tile and channel k it forms the region material's curves (ctrl_k @ FEATURES_TO_BASIS.T) @ features at theta_d,
    then the three lobes into f = sum_s x, with t = base ** b = exp(b * ell) and x = expm1(a * t), and raises
    ShadingOverflowError if f left the finite range: before any cmax mask, since inf * 0 would hide it as NaN.

    The values are a contiguous (C, B) scratch array, valid until the next
    step, as the channels of a TransferCache block are, so reductions over
    either agree bit for bit. ``listed`` is as in ``_tiles``. Given ``env_lw``
    (I, 3) = L w, the u-free rows of the normal and material adjoints are
    added into ``rows_n`` (3, C, 3) and ``rows_m`` (3, C, 3, 2, 6) where given,
    per channel before its values are yielded (see ``_backward_chunk``), ``rows_m`` on the features.

    Factors of a whole tile, channel or (V, B) row are applied once there, not
    once per lobe: a * b is one row, ``gate`` already holds cmax / base,
    and L_k w goes into the light directions and a shared feature row.
    """
    want_n, want_m = rows_n is not None, rows_m is not None
    rows = want_n or want_m
    region, ci = problem.chunks[j]
    coef = materials[region].control_points.reshape(3, 6, 6) @ spline.FEATURES_TO_BASIS.T  # curves on the features
    view_c = problem.view_rows(ci)
    for lights, cmaxv, ell, feats, gate in _tiles(problem, normals, ci, geometry=want_n, listed=listed):
        shape, vshape = cmaxv.shape, feats.shape[1:]
        f = _buf("f", shape)
        t = _buf("lobe_t", shape)
        x = _buf("bw_x", shape) if rows else t  # each later lobe's x, then every lobe's e * t = (x + 1) * t
        dacc = _buf("bw_d", shape) if want_n else None
        for k in range(3):
            curves = _buf("curves", (3, 2) + vshape)
            np.matmul(coef[k], feats.reshape(6, -1), out=curves.reshape(6, -1))
            lw_k = env_lw[lights, k] if rows else None
            if want_m and vshape[0] == 1:
                feats_lw = feats[:, 0] * lw_k
            for s in range(3):
                a_row, b_row = curves[s, 0], curves[s, 1]
                x_s = f if s == 0 else x
                np.multiply(ell, b_row, out=t)
                np.exp(t, out=t)
                np.multiply(t, a_row, out=x_s)
                np.expm1(x_s, out=x_s)
                if s > 0:
                    f += x_s
                if not rows:
                    continue
                et = np.add(x_s, 1.0, out=x)
                et *= t  # e * t with e = exp(a * t); t is free from here on
                if want_n:
                    np.multiply(et, a_row * b_row, out=dacc if s == 0 else t)
                    if s > 0:
                        dacc += t
                if want_m:  # the second coefficient adds a * ln(base)
                    et *= cmaxv
                    rows_ks = rows_m[k, :, s]
                    if vshape[0] == 1:  # one feature row per light, shared by every pixel
                        rows_ks[:, 0] += et @ feats_lw.T
                        et *= ell
                        rows_ks[:, 1] += et @ (a_row * feats_lw).T
                    else:
                        et *= lw_k
                        rows_ks[:, 0] += np.einsum("cb,jcb->cj", et, feats)
                        et *= a_row
                        et *= ell
                        rows_ks[:, 1] += np.einsum("cb,jcb->cj", et, feats)
            if not float(np.max(f)) <= OVERFLOW_LIMIT:  # catches NaN too
                c_idx, l_idx = np.unravel_index(int(np.nanargmax(np.where(np.isfinite(f), np.abs(f), np.inf))), f.shape)
                px, py = problem.pixel_xy[ci[c_idx]]
                raise ShadingOverflowError(
                    f"lobe sum for channel {k} overflowed at pixel ({int(px)}, {int(py)}), "
                    f"light texel {int(lights[l_idx])}"
                )
            if want_n:
                lw_dirs = lw_k[:, None] * problem.dirs[lights]
                np.greater(cmaxv, 0.0, out=t)  # 1 on the lit pairs, the only ones where cmax > 0
                t *= f
                g = t @ lw_dirs
                # sum_b m h = sum_b (m / |omega + v|) (omega + v); the gate holds the 1 / |omega + v|
                dacc *= gate
                g += dacc @ lw_dirs
                g += (dacc @ lw_k)[:, None] * view_c
                rows_n[k] += g
            np.multiply(f, cmaxv, out=t)
            yield lights, k, t


def _image_rows(shaded, env_lw, count):
    """A chunk's (count, 3) image from its (lights, k, f * cmax) blocks: zeros, then each block reduced against L w."""
    out = np.zeros((count, 3))
    for lights, k, fc in shaded:
        out[:, k] += np.einsum("cb,b->c", fc, env_lw[lights, k])
    return out


@functools.cache
def _pool(workers):
    """The process's pool of at most ``workers`` threads, made on first use and kept; call it under _POOL_LOCK."""
    return ThreadPoolExecutor(max_workers=workers)


_POOL_LOCK = threading.Lock()  # held to look up or make a pool, which functools.cache does not lock, and across a fork
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(
        before=_POOL_LOCK.acquire,
        after_in_parent=_POOL_LOCK.release,
        after_in_child=lambda: (_pool.cache_clear(), _POOL_LOCK.release()),
    )


def _run_tasks(fn, problem, threads):
    """fn(j) for every chunk j, yielded in chunk order; callers reduce without holding every result.

    A cap min(threads, cpu count) of 1 or less runs serially in this thread. A larger cap maps the chunks
    onto the process's pool for that cap, whose threads start as chunks need them, so at most
    min(threads, chunks, cpu count) run one call. Each thread that shades keeps its own scratch: a
    process that also shades serially holds one more thread's scratch, and each further cap adds a pool.
    """
    tasks = range(len(problem.chunks))
    workers = min(threads, os.cpu_count() or 1)

    def guarded(j):
        # An overflowing lobe raises ShadingOverflowError in ``_shaded``; until then its inf must not warn
        # in expm1 or as inf * 0 in an adjoint. numpy keeps this per thread: set it in the chunk's thread.
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(j)

    with _POOL_LOCK:
        pool = _pool(workers) if workers > 1 else None
    yield from map(guarded, tasks) if pool is None else pool.map(guarded, tasks)


def forward(problem, normals, materials, env_flat, *, threads=1) -> np.ndarray:
    """Foreground-stream image, shape (F, 3). ``env_flat`` is (I, 3) radiance.

    ``normals`` is (F, 3) over the foreground stream and ``materials`` holds
    one DsbrdfMaterial per region.
    """
    env_lw = env_flat * problem.weights[:, None]

    def run(j):
        ci = problem.chunks[j][1]
        return ci, _image_rows(_shaded(problem, normals, materials, j), env_lw, ci.shape[0])

    image = np.zeros((problem.pixel_count, 3))
    for ci, block in _run_tasks(run, problem, threads):
        image[ci] = block
    return image


def build_transfer(problem, normals, materials, *, threads=1) -> TransferCache:
    """Materialize f * cmax for every shaded pair and channel."""

    def run(j):
        blocks = []
        for lights, k, fc in _shaded(problem, normals, materials, j):
            if k == 0:
                block = np.empty((3,) + fc.shape)
                blocks.append((lights, block))
            block[k] = fc
        return tuple(blocks)

    return TransferCache(blocks=tuple(_run_tasks(run, problem, threads)))


def _backward_chunk(problem, normals, materials, env_lw, u_c, groups, j, target_c=None, cached=None):
    """Adjoints for chunk j against its upstream rows ``u_c``, or in residual mode against its own image.

    Returns (image, dn_block, light_partials, dm_partial, (G_n, G_m)).
    dn_block is (C, 3); light_partials holds one (lights, (B, 3) values) pair
    per tile, so it covers only the chunk's listed lights, which are unique
    across its tiles; dm_partial covers the material vector. The caller adds
    both partials in chunk order. In residual mode (``u_c`` None, ``target_c``
    its target rows; see the module docstring) u = 2 (image - target_c), and
    image (C, 3), G_n (C, 3, 3) and G_m (3, 36, 36) are set; else all None.

    The (lights, k, f * cmax) blocks come freshly shaded from ``_shaded`` or,
    given ``cached``, from the chunk's TransferCache blocks; the same code
    reduces either. The normal and material adjoints sum u-free rows per pixel
    over the tiles, rows_n[k] (C, 3) and rows_m[k] (C, 3, 2, 6), channel k's
    Jacobian rows, and contract them with u once, at the end: dn = sum_k u_k
    rows_n[k] and dm[k] = u_k @ rows_m[k], rows_m first mapped from the features
    to the control points. The rows never leave the chunk; a residual pass
    returns their Grams G_n[c] = sum_k rows_n[k, c]^T rows_n[k, c] and G_m[k] =
    rows_m[k]^T rows_m[k]. Only the light adjoint needs u per light: for it a
    residual chunk with several tiles reduces its image from one sweep first.
    """
    want_l = "light" in groups
    region, ci = problem.chunks[j]
    count = ci.shape[0]
    rows_n = np.zeros((3, count, 3)) if "normal" in groups else None
    rows_m = np.zeros((3, count, 3, 2, 6)) if "material" in groups else None
    dlight = [] if want_l else None

    if cached is None:
        listed = _listed(problem, normals[ci])
        several = listed.size > LIGHT_BLOCK
    else:
        several = len(cached) > 1

    def blocks(*rows):  # (lights, k, f * cmax) per tile and channel, with the rows added into ``rows``
        if cached is not None:
            return ((lights, k, block[k]) for lights, block in cached for k in range(3))
        return _shaded(problem, normals, materials, j, listed, env_lw, *rows)

    image = None if target_c is None else np.zeros((count, 3))
    if target_c is not None and want_l and several:  # the light adjoint's u comes first
        image = _image_rows(blocks(), env_lw, count)
        u_c = 2.0 * (image - target_c)
    reduce_image = u_c is None
    for lights, k, fc in blocks(rows_n, rows_m):
        if reduce_image:
            image[:, k] += np.einsum("cb,b->c", fc, env_lw[lights, k])
        if want_l:  # with one tile, channel k of the image is complete here
            if k == 0:
                values = np.empty((lights.size, 3))
                dlight.append((lights, values))
            u_k = 2.0 * (image[:, k] - target_c[:, k]) if reduce_image else u_c[:, k]
            values[:, k] = np.einsum("cb,c->b", fc, u_k) * problem.weights[lights]
    if reduce_image:
        u_c = 2.0 * (image - target_c)
    flat_m = None if rows_m is None else (rows_m @ spline.FEATURES_TO_BASIS).reshape(3, count, 36)
    dn = None if rows_n is None else sum(u_c[:, k, None] * rows_n[k] for k in range(3))
    dm = None if flat_m is None else np.stack([u_c[:, k] @ flat_m[k] for k in range(3)]).reshape(3, 3, 2, 6)
    gn = None if image is None or rows_n is None else np.einsum("kci,kcj->cij", rows_n, rows_n)
    gm = None if image is None or flat_m is None else flat_m.transpose(0, 2, 1) @ flat_m
    return image, dn, dlight, dm, (gn, gm)


def backward(problem, normals, materials, env_flat, upstream, groups, *, threads=1, transfer=None, target=None):
    """Adjoints of the foreground image against a (F, 3) upstream weighting.

    ``normals`` and ``materials`` are as in :func:`forward`. Returns
    (d_normals (F,3) | None, d_env (I,3) | None, d_materials (R,3,3,2,6) |
    None) for the requested parameter groups, one or more.

    Residual mode: with ``upstream`` None and a (F, 3) ``target``, the
    upstream is 2 (I - target) for the image I of this same pass, and the
    result is (I, gradients, (G_n, G_m)): I and the gradients equal bit for
    bit ``forward`` and ``backward`` against 2 (forward - target). G_n[p]
    (F, 3, 3) is J^T J for J[k] = dI_k(p)/dn_p, and G_m[r, k] (R, 3, 36, 36)
    the sum of J^T J over region r's pixels p for J = dI_k(p)/d(channel k's 36
    control points), None for a group not asked.

    A ``transfer`` cache serves only the residual light pass (a ``target``
    and groups {"light"}): the cache freezes normals and materials.
    """
    groups = frozenset(groups)
    if not groups or groups.difference(GROUPS):
        raise ValueError(f"gradient groups must be a non-empty subset of {GROUPS}, got {sorted(groups)}")
    if transfer is not None and (target is None or groups != {"light"}):
        raise ValueError("a transfer cache serves only the residual light pass: a target and light gradients alone")
    env_lw = env_flat * problem.weights[:, None]

    def run(j):
        region, ci = problem.chunks[j]
        u_c, target_c = (upstream[ci], None) if target is None else (None, target[ci])
        cached = None if transfer is None else transfer.blocks[j]
        return ci, region, _backward_chunk(problem, normals, materials, env_lw, u_c, groups, j, target_c, cached)

    pixels, regions = problem.pixel_count, len(materials)
    image_all = None if target is None else np.zeros((pixels, 3))
    dn_all = np.zeros((pixels, 3)) if "normal" in groups else None
    denv_all = np.zeros((problem.light_count, 3)) if "light" in groups else None
    dm_all = np.zeros((regions, 3, 3, 2, 6)) if "material" in groups else None
    gn_all = None if image_all is None or dn_all is None else np.zeros((pixels, 3, 3))
    gm_all = None if image_all is None or dm_all is None else np.zeros((regions, 3, 36, 36))
    for ci, region, (image, dn, dlight, dm, (gn, gm)) in _run_tasks(run, problem, threads):
        for out, part in ((image_all, image), (dn_all, dn), (gn_all, gn)):  # per pixel
            if part is not None:
                out[ci] = part
        for out, part in ((dm_all, dm), (gm_all, gm)):  # per region, added in chunk order
            if part is not None:
                out[region] += part
        for lights, values in dlight or ():
            denv_all[lights] += values
    grads = (dn_all, denv_all, dm_all)
    return grads if target is None else (image_all, grads, (gn_all, gm_all))
