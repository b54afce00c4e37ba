"""Benchmark of the ``amorphic`` library: three closed-loop workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Each repetition is one pass of the workload in a fresh interpreter
(``worker.py``) against ``src/``, one request at a time, with BLAS held to
one thread.  Repetitions run until ``--seconds`` is spent (at least three).
The last line of standard output is one JSON object: with ``--trace 0`` it
holds the end-to-end metrics (medians over repetitions), with ``--trace 1``
the per-layer metrics of traced repetitions and the tracing overhead.  A
wrong answer in any repetition aborts the run with a non-zero status and
no result line.

``wall_s`` and ``setup_s`` are times rescaled to a reference CPU speed:
a shared host changes the CPU's speed by up to a factor of two, for
seconds to minutes at a time, so a probe samples the speed while the
worker sets up and runs its pass (``speed.py``), and each time is scaled
by how much slower than the reference the probe ran.  The times as
measured are printed too.

Workloads (the seed relabels the points of every input, which leaves
every verdict unchanged):

- ``corpus``: ``amorphic --report R corpus DIR`` over the 46 shipped
  schemes, written as files.  Fusion questions dominate and repeat.
- ``scale``: generate, validate, intersection tensor, spectrum, two fusion
  questions, fusing 2- and 3-tuples and amorphicity on H(4,2), H(6,2),
  H(8,2) and a net on 256 points.  The core layer dominates.
- ``oracle``: ``is_amorphic`` with the exhaustive cross-check on six
  amorphic schemes; two of them (d = 8) fail today.

The benchmark's own tests: ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("corpus", "scale", "oracle")

MIN_REPS = 3
MAX_RUN_S = 170.0  # a run must end within 180 s, whatever --seconds says

# The child sees exactly one BLAS/OpenMP thread.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# What one operation is, per workload: the base of failed_frac.
FAILURE_BASE = {
    "corpus": "corpus files",
    "scale": "library calls, 11 per scheme",
    "oracle": "is_amorphic calls",
}


class RunFailed(Exception):
    """A repetition crashed or gave a wrong answer."""


def machine_info(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One repetition; returns the worker's record plus parent-side times."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--work", str(WORK)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    ended = time.monotonic()
    if proc.returncode != 0:
        raise RunFailed(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if rec["library"] != str(ROOT / "src" / "amorphic"):
        raise RunFailed(f"the worker imported {rec['library']}, not this checkout's src/")
    setup = rec["setup_probe"]
    rec["setup_raw_s"] = rec["ready"] - spawned - setup["total_s"]
    rec["setup_s"] = speed.at_reference(rec["setup_raw_s"], setup["mean_s"])
    rec["pass_s"] = rec["done"] - rec["start"] - rec["probe"]["busy_s"]
    rec["wall_s"] = speed.at_reference(rec["pass_s"], rec["probe"]["mean_s"])
    rec["elapsed_s"] = ended - spawned
    if trace:
        rec["spans"] = json.loads((WORK / f"spans-{workload}.json").read_text())["spans"]
    return rec


def repeat(workload: str, seed: int, seconds: float, plan) -> list[dict]:
    """Run repetitions in the order ``plan(i)`` gives (True = traced) until
    ``seconds`` is spent and at least MIN_REPS have run."""
    began = time.monotonic()
    reps: list[dict] = []
    while True:
        elapsed = time.monotonic() - began
        if reps:
            est = statistics.median(r["elapsed_s"] for r in reps)
            if elapsed + est > (seconds if len(reps) >= MIN_REPS else MAX_RUN_S):
                break
        reps.append(run_worker(workload, seed, plan(len(reps)),
                               timeout=max(10.0, MAX_RUN_S - elapsed)))
    return reps


def consistent(reps: list[dict]) -> None:
    """Every repetition must give the same verdicts and counts."""
    first = reps[0]
    for r in reps[1:]:
        for key in ("verdicts", "attempted", "failed"):
            if r[key] != first[key]:
                raise RunFailed(f"repetitions differ in {key}: {first[key]!r} vs {r[key]!r}")


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps if "spans" not in r), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0 for r in reps), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    summary = {"attempted": attempted, "failed": failed,
               "failed_frac": failed / attempted, "reps": len(reps)}
    return metrics, summary


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if "spans" in r]
    plain = [r for r in reps if "spans" not in r]
    metrics = spans.combine([spans.layer_metrics(r["spans"]) for r in traced])
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="amorphic benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "amorphic" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info(args), sort_keys=True), flush=True)
    try:
        if args.trace:
            # Traced and untraced passes alternate; at least two traced
            # passes, whose counts must agree exactly.
            reps = repeat(args.workload, args.seed, args.seconds, lambda i: i % 3 != 1)
        else:
            reps = repeat(args.workload, args.seed, args.seconds, lambda i: False)
        consistent(reps)
        if args.trace:
            metrics = per_layer(reps)
        e2e, summary = end_to_end(reps)
    except (RunFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = e2e

    first = reps[0]
    print("verdicts " + json.dumps(first["verdicts"], sort_keys=True))
    if first["failures"]:
        print("failures " + json.dumps(first["failures"]))
    print(f"{args.workload}: failed_frac {summary['failed']}/{summary['attempted']} "
          f"= {summary['failed_frac']:.4f} (base: {FAILURE_BASE[args.workload]}), "
          f"{summary['reps']} repetitions")
    for key in ("pass_s", "wall_s", "setup_raw_s", "setup_s"):
        print(f"  {key} per repetition: " + " ".join(f"{r[key]:.3f}" for r in reps))
    print(f"  median pass_s {statistics.median(r['pass_s'] for r in reps):.4f} s, "
          f"median setup_raw_s {statistics.median(r['setup_raw_s'] for r in reps):.4f} s "
          f"(as measured)")
    probes = [r["probe"] for r in reps]
    print(f"  speed probe: median {statistics.median(p['mean_s'] for p in probes) * 1e3:.4f} ms "
          f"per sample, reference {speed.REFERENCE_S * 1e3:.4f} ms, "
          f"{statistics.median(p['samples'] for p in probes):.0f} samples per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
