"""Benchmark of oscnav: one closed-loop workload per run.

    python3 perfbench/run.py --workload small-m --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``. A
single process and a single caller run the workload's operations one after
another (a closed loop), in whole cycles, until ``--seconds`` have passed.
Every operation's output is checked. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs one cycle untraced and the
same cycle traced, and prints the per-layer metrics from the traced pass.
Reported times are wall times rescaled to a reference machine speed (see
``speed.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the
environment, the sample count of every metric, the raw wall-time medians
and the failed fraction. BLAS and OpenMP run one thread each.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9

# One executed operation: wall and rescaled seconds; facts is None if it failed.
Record = collections.namedtuple("Record", "kind wall scaled facts")

# End-to-end metrics: name -> (unit, operation kind whose successful
# operations' times it takes the median of). Metrics without a kind are
# computed apart.
END_TO_END = {
    "setup_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "solutions_per_s": ("1/s", None),
    "solve_p50_s": ("s", "solve"),
    "trace_s": ("s", "trace"),
    "smooth_s": ("s", "smooth"),
    "smooth_cost_ratio": ("ratio", None),
    "compress_s": ("s", "compress"),
    "spectrum_s": ("s", "spectrum"),
    "theta_scan_s": ("s", "theta_scan"),
}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(workdir):
    """Import the package in a fresh interpreter, load and check the pool, write inputs."""
    from pool import load_pool
    from workloads import write_inputs

    subprocess.run([sys.executable, "-c", "import oscnav"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    pool = load_pool()
    shutil.rmtree(workdir, ignore_errors=True)
    return pool, write_inputs(pool, workdir)


def execute(op):
    """Run one operation between reference-kernel timings, then check its output."""
    from speed import timed

    outcome, wall, scaled = timed(op.run)
    return Record(op.kind, wall, scaled, op.check(outcome))


def e2e_metrics(records, setups, peak_rss_mb):
    """End-to-end metrics {name: (value, unit)}, their sample counts, and raw medians.

    ``setups`` are (wall, rescaled) pairs. Times are rescaled (see
    ``speed.py``); the raw wall-time medians are returned for the record.
    """
    from workloads import BenchError

    values, samples, raw = {}, {}, {}
    for name, (unit, kind) in END_TO_END.items():
        if kind is None:
            continue
        done = [r for r in records if r.kind == kind and r.facts is not None]
        if not done:
            raise BenchError(f"no successful {kind} operation to measure")
        values[name] = statistics.median(r.scaled for r in done)
        raw[name] = statistics.median(r.wall for r in done)
        samples[name] = len(done)
    solves = [r for r in records if r.kind == "solve"]
    found = sum(r.facts["solutions"] for r in solves if r.facts is not None)
    values["solutions_per_s"] = found / sum(r.scaled for r in solves)
    raw["solutions_per_s"] = found / sum(r.wall for r in solves)
    samples["solutions_per_s"] = len(solves)
    ratios = [r.facts["cost_ratio"] for r in records if r.kind == "smooth" and r.facts]
    values["smooth_cost_ratio"], samples["smooth_cost_ratio"] = statistics.median(ratios), len(ratios)
    values["setup_s"] = statistics.median(scaled for _, scaled in setups)
    raw["setup_s"] = statistics.median(wall for wall, _ in setups)
    samples["setup_s"] = len(setups)
    values["peak_rss_mb"], samples["peak_rss_mb"] = peak_rss_mb, 1
    metrics = {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}
    return metrics, samples, raw


def tally(records):
    """(attempted, failed, per-kind counts); a failed operation has no facts."""
    by_kind = {}
    for r in records:
        entry = by_kind.setdefault(r.kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        entry["failed"] += r.facts is None
    failed = sum(entry["failed"] for entry in by_kind.values())
    return len(records), failed, by_kind


def blas_threads():
    """Threads the bundled OpenBLAS will use, or the configured count if it cannot be asked."""
    import ctypes

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def environment(seed):
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads(),
            "commit": git_commit(), "workload_seed": seed}


def _recorded(tracer, op_id, op):
    def run():
        tracer.current_op, tracer.recording = op_id, True
        try:
            return op.run()
        finally:
            tracer.recording = False

    return dataclasses.replace(op, run=run)


def run(args):
    from spans import Tracer
    from speed import REFERENCE_S, timed
    from workloads import Workload

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            (pool, inputs), wall, scaled = timed(lambda: set_up(workdir))
            setups.append((wall, scaled))
        workload = Workload(args.workload, pool, inputs, args.seed)
        if args.trace:
            ops = workload.cycle()
            plain = [execute(op) for op in ops]
            tracer = Tracer()
            tracer.install()
            try:
                traced = [execute(_recorded(tracer, i, op)) for i, op in enumerate(ops)]
            finally:
                tracer.uninstall()
            records = plain + traced
            overhead = sum(r.scaled for r in traced) / sum(r.scaled for r in plain) - 1.0
            metrics = tracer.layer_metrics(overhead)
            tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
            samples, raw = {"spans": len(tracer.start), "operations": len(ops)}, {}
        else:
            records = []
            start = time.perf_counter()
            while True:
                records += [execute(op) for op in workload.cycle()]
                if time.perf_counter() - start >= args.seconds:
                    break
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, samples, raw = e2e_metrics(records, setups, peak)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, by_kind = tally(records)
    detail = {"workload": args.workload, "environment": environment(args.seed),
              "samples": samples, "failed_frac": failed / attempted,
              "operations": by_kind, "raw_wall": raw,
              "reference_kernel_s": REFERENCE_S}
    print(json.dumps(detail))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "oscnav")):
        print(json.dumps({"error": "no source tree", "detail": f"{SRC}/oscnav is missing"}),
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from workloads import CYCLES, BenchError

    args = parse_args(argv, sorted(CYCLES))
    try:
        return run(args)
    except BenchError as exc:
        print(json.dumps({"error": "wrong output", "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
