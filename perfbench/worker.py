"""One workload round in a fresh process: set up, run the timed operation, check.

Started by run.py; writes its findings as JSON to --out. With --setup-only it
stops after set-up, which gives another sample of the set-up time. Set-up
time runs from --spawned-at, the benchmark's monotonic clock reading just
before it started this process, to the start of the first timed operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dump", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.work_dir)
    started = time.monotonic()
    report = {"setup_s": started - args.spawned_at}
    if not args.setup_only:
        report.update(run_round(workload, state, args))
    Path(args.out).write_text(json.dumps(report), encoding="ascii")
    return 0


def run_round(workload, state, args) -> dict:
    tracing = tracer.Tracer() if args.trace else None
    if tracing is not None:
        tracing.install()
    t0 = time.perf_counter()
    try:
        outputs = workload.run(state)
        error = None
    except Exception:
        outputs, error = None, traceback.format_exc()
    op_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracing is not None:
        tracing.uninstall()

    if error is not None:
        failures = [[f"operation raised:\n{error}"]] * workload.ops
    else:
        try:
            failures = workload.check(state, outputs)
        except Exception:
            failures = [[f"check raised:\n{traceback.format_exc()}"]] * workload.ops
    report = {
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.ops,
        "failed": sum(1 for f in failures if f),
        "failures": [msg for f in failures for msg in f],
    }
    if tracing is not None:
        growth = outputs.get("rss_growth_mb", 0.0) if outputs is not None else 0.0
        report["layers"] = tracer.layer_metrics(tracing.spans, op_s=op_s, rss_growth_mb=growth)
        report["inputs"] = workload.describe(state)
        if args.trace_dump:
            dump = {"spans": tracing.dump(), "layers": report["layers"]}
            Path(args.trace_dump).write_text(json.dumps(dump), encoding="ascii")
    return report


if __name__ == "__main__":
    sys.exit(main())
