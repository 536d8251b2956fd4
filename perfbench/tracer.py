"""Spans and counts around the public functions of gradshade's modules.

Tracing is done from outside: ``Tracer.install`` wraps every public function
of the traced modules and rebinds each module attribute that refers to one,
so calls through ``from .x import f`` names are seen too. ``uninstall`` puts
the originals back. Spans stay in memory; ``layer_metrics`` turns them into
the per-layer figures.

A span's parent is the innermost open span on the same thread. Spans opened
on worker threads have no parent, so their time counts as busy time of their
layer and is not taken off anyone's wall time. A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import tracemalloc
from collections import defaultdict

# gradshade modules whose public functions are wrapped, by layer name. core,
# brdf and fixtures only build inputs; their work is too small to time.
LAYERS = {
    "render": "gradshade.render",
    "shading": "gradshade._shading",
    "spline": "gradshade.spline",
    "grad": "gradshade.grad",
    "invert": "gradshade.invert",
    "io": "gradshade.io",
    "metrics": "gradshade.metrics",
    "cli": "gradshade.cli",
}
REBIND_MODULES = ("gradshade", "gradshade.core", "gradshade.brdf", "gradshade.fixtures") + tuple(LAYERS.values())

# Functions whose tracemalloc peak is recorded (they do not nest in one another).
ALLOC_TRACED = {"render.render", "grad.backward"}

MB = 2**20


class Span:
    __slots__ = ("sid", "name", "parent", "thread", "start", "end", "child_s", "info", "error")

    def __init__(self, sid, name, parent, thread):
        self.sid, self.name, self.parent, self.thread = sid, name, parent, thread
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.info = {}
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "parent": self.parent, "thread": self.thread,
            "start": self.start, "end": self.end, "self_s": self.self_s, "info": self.info, "error": self.error,
        }  # fmt: skip


def _pairs(problem) -> int:
    return int(problem.pixel_count) * int(problem.light_count)


def _call_info(name, bound, result) -> dict:
    """Counts taken from one call's arguments and result."""
    if name == "shading.forward":
        return {"pairs": _pairs(bound["problem"])}
    if name == "shading.backward":
        groups = frozenset(bound["groups"])
        return {"pairs": _pairs(bound["problem"]), "groups": "all" if len(groups) == 3 else "+".join(sorted(groups))}
    if name in ("shading.build_pair_cache", "shading.build_transfer"):
        return {"bytes": int(result.nbytes)}
    if name == "spline.basis_matrix":
        return {"rows": int(result.size // 6)}
    if name in ("io.read_normal_png16", "io.read_segmentation_png16"):
        h, w = result.height, result.width
        return {"bytes": h * w * 8}  # 16-bit RGBA scanlines, filter bytes excluded
    if name == "invert.lbfgs_minimize":
        return {"steps": int(result.iterations)}
    if name == "invert.solve":
        return {
            "cycles": int(result.cycles),
            "objective_ratio": float(result.final_objective / result.initial_objective),
        }
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                self._next += 1
                sid = self._next
            parent = stack[-1] if stack else None
            span = Span(sid, name, parent.sid if parent else 0, threading.get_ident())
            stack.append(span)
            if alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if alloc:
                    span.info["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            bound = signature.bind(*args, **kwargs).arguments
            span.info.update(_call_info(name, bound, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced module and rebind their names."""
        wrappers = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname in REBIND_MODULES:
            module = importlib.import_module(modname)
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def dump(self) -> list:
        return [s.as_dict() for s in sorted(self.spans, key=lambda s: s.sid)]


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, u in (("_mb_per_s", "MB/s"), ("_ns_per_pair", "ns"), ("_mb", "MB"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return u
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(spans: list, op_s: float = 0.0, rss_growth_mb: float = 0.0) -> dict:
    """Per-layer figures from finished spans (see the README for each one).

    ``op_s`` is the traced operation's wall time and ``rss_growth_mb`` the
    resident-memory growth over a CLI batch, both measured by the caller.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def total(name, key=None):
        return sum((s.info.get(key, 0) if key else s.duration) for s in by_name[name])

    def count(name):
        return len(by_name[name])

    def layer_self(layer):
        return sum(s.self_s for s in spans if s.name.split(".", 1)[0] == layer)

    def per(numer, denom, scale=1.0):
        return numer * scale / denom if denom else 0.0

    def peak_mb(name):
        return max((s.info.get("peak_alloc", 0) for s in by_name[name]), default=0) / MB

    m = {}
    m["render.prepare_s"] = total("render.prepare_problem")
    m["render.prepare_calls"] = count("render.prepare_problem")
    m["render.self_s"] = layer_self("render")
    m["render.peak_alloc_mb"] = peak_mb("render.render")

    fwd_s, fwd_pairs = total("shading.forward"), total("shading.forward", "pairs")
    m["shading.forward_s"] = fwd_s
    m["shading.forward_calls"] = count("shading.forward")
    m["shading.forward_pairs"] = fwd_pairs
    m["shading.forward_ns_per_pair"] = per(fwd_s, fwd_pairs, 1e9)
    backward = defaultdict(lambda: [0.0, 0])
    for s in by_name["shading.backward"]:
        backward[s.info["groups"]][0] += s.duration
        backward[s.info["groups"]][1] += s.info["pairs"]
    m["shading.backward_all_s"] = backward["all"][0]
    m["shading.backward_all_ns_per_pair"] = per(backward["all"][0], backward["all"][1], 1e9)
    for group in ("normal", "light", "material"):
        m[f"shading.backward_{group}_s"] = backward[group][0]
    m["shading.backward_calls"] = count("shading.backward")
    m["shading.pair_cache_s"] = total("shading.build_pair_cache")
    m["shading.pair_cache_mb"] = max((s.info["bytes"] for s in by_name["shading.build_pair_cache"]), default=0) / MB
    m["shading.transfer_s"] = total("shading.build_transfer")
    m["shading.transfer_mb"] = max((s.info["bytes"] for s in by_name["shading.build_transfer"]), default=0) / MB

    m["spline.basis_s"] = total("spline.basis_matrix")
    m["spline.basis_calls"] = count("spline.basis_matrix")
    m["spline.basis_rows"] = total("spline.basis_matrix", "rows")

    m["grad.backward_self_s"] = sum(s.self_s for s in by_name["grad.backward"])
    m["grad.peak_alloc_mb"] = peak_mb("grad.backward")

    def descendants(span):
        todo, out = [span], []
        while todo:
            for child in children[todo.pop().sid]:
                out.append(child)
                todo.append(child)
        return out

    groups = {g: {"runs": 0, "steps": 0, "forward_calls": 0, "backward_calls": 0, "s": 0.0} for g in ("normal", "light", "material")}
    for run in by_name["invert.lbfgs_minimize"]:
        below = descendants(run)
        kinds = [s.info["groups"] for s in below if s.name == "shading.backward"]
        if not kinds or kinds[0] not in groups:
            continue
        g = groups[kinds[0]]
        g["runs"] += 1
        g["steps"] += run.info.get("steps", 0)
        g["forward_calls"] += sum(1 for s in below if s.name == "shading.forward")
        g["backward_calls"] += len(kinds)
        g["s"] += run.duration
    for name, g in groups.items():
        for key in ("runs", "steps", "forward_calls", "backward_calls"):
            m[f"invert.{name}.{key}"] = g[key]
        m[f"invert.{name}.evals_per_step"] = per(g["forward_calls"], g["steps"])
        m[f"invert.{name}.s"] = g["s"]
    solves = by_name["invert.solve"]
    m["invert.cycles"] = sum(s.info.get("cycles", 0) for s in solves)
    m["invert.objective_ratio"] = solves[-1].info.get("objective_ratio", 0.0) if solves else 0.0
    m["invert.self_s"] = layer_self("invert")

    png_s = total("io.read_normal_png16") + total("io.read_segmentation_png16")
    png_mb = (total("io.read_normal_png16", "bytes") + total("io.read_segmentation_png16", "bytes")) / MB
    m["io.png_read_s"] = png_s
    m["io.png_read_mb"] = png_mb
    m["io.png_read_mb_per_s"] = per(png_mb, png_s)
    m["io.pfm_read_s"] = total("io.read_pfm")
    m["io.pfm_write_s"] = total("io.write_pfm")
    m["io.material_read_s"] = total("io.read_material")
    m["io.preview_write_s"] = total("io.write_preview_png")

    m["metrics.tone_map_s"] = total("metrics.tone_map")
    m["cli.self_s"] = layer_self("cli")
    m["cli.rss_growth_mb"] = rss_growth_mb
    m["traced.op_s"] = op_s
    return m
