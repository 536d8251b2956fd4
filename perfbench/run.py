#!/usr/bin/env python3
"""gradshade benchmark: one workload per invocation, result as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gradshade is imported from ./src.
A run first starts the workload process SETUP_SAMPLES times for set-up
alone, then runs whole rounds, each in a fresh process, until --seconds have
passed (at least one round). With --trace 0 it prints the end-to-end metrics
(medians over the samples); with --trace 1 it runs the rounds traced and
prints the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(args, work_dir: Path, out: Path, deadline: float, extra=()) -> dict:
    """Run one workload process to its end and return its report."""
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work_dir),
        "--trace", str(args.trace), "--out", str(out),
    ]  # fmt: skip
    cmd += list(extra) + ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "workload process ran past the deadline"}
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.exists():
        return {"error": f"workload process exited with {proc.returncode}: {err.decode(errors='replace')[-2000:]}"}
    return json.loads(out.read_text(encoding="ascii"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so spawn() stops its child

    if not (ROOT / "src" / "gradshade" / "__init__.py").is_file():
        print(f"benchmark: no gradshade sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    work_dir = HERE / "_work" / args.workload
    out_dir = HERE / "_out"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    workload.prepare(args.seed, work_dir)
    report_file = work_dir / "report.json"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups, rounds, errors = [], [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            rep = spawn(args, work_dir, report_file, deadline, ["--setup-only"])
            if "error" in rep:
                errors.append(rep["error"])
            else:
                setups.append(rep["setup_s"])
    while not rounds or time.monotonic() - start < args.seconds:
        last = rounds[-1]["wall_s"] if rounds else 0.0
        if rounds and time.monotonic() + 1.5 * last > deadline:
            break
        t0 = time.monotonic()
        extra = ["--trace-dump", str(out_dir / f"trace-{tag}-round{len(rounds)}.json")] if args.trace else []
        rep = spawn(args, work_dir, report_file, deadline, extra)
        rep["wall_s"] = time.monotonic() - t0
        if "error" in rep:
            rep.update(attempted=workload.ops, failed=workload.ops, failures=[rep["error"]])
        rounds.append(rep)
        if "error" in rep:
            break

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    good = [r for r in rounds if "error" not in r]
    if args.trace:
        names = sorted(good[0]["layers"]) if good else []
        metrics = {n: statistics.median(r["layers"][n] for r in good) for n in names}
        units = {n: tracer.unit(n) for n in names}
    else:
        setups += [r["setup_s"] for r in good]
        metrics = {}
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        if good:
            metrics["op_s"] = statistics.median(r["op_s"] for r in good)
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good)
        units = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
    failures = [msg for r in rounds for msg in r.get("failures", [])] + errors
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "threads": workload.threads,
        "blas_threads": BLAS_THREADS, "cpu_count": os.cpu_count(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")}, "setup_samples": setups, "rounds": rounds,
    }  # fmt: skip
    (out_dir / f"result-{tag}.json").write_text(json.dumps(summary, indent=1), encoding="ascii")
    for msg in failures:
        print(f"benchmark: {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors and bool(good),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
