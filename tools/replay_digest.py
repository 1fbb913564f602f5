"""Replay digest: one SHA-256 per group of deterministic library runs.

    python3 tools/replay_digest.py

Run it from anywhere; it imports the package from ``src/`` and the pool
loader and task of the benchmark from ``perfbench/``. It reads the
benchmark's protocol pool, ``perfbench/pool/``, and writes nothing, not
even bytecode caches. The groups are:

* ``traces``: ``trace_levelset`` from each M = 3 pool entry at steps 0.05
  and 0.3, both ways;
* ``navigations``: the benchmark's capped ``smooth`` (doubling stall
  tolerance 0.2, schedule (2,)) and ``compress`` runs of every M = 3 and
  M = 48 pool entry (caps 50 and 20 with 1 chunk at M = 3, 100 and 80 with
  2 chunks at M = 48);
* ``solves_m3``: ``solve`` at M = 3, seeds 0-39;
* ``solves_m48``: ``solve`` at M = 48, seeds 0-4, box (0.1, 5);
* ``solves_m12_m13``: ``solve`` at M = 12 and 13, seeds 0-5, whose first
  restarts include critical points under the threshold off beta = 0;
* ``held_navigations``: the runs of ``navigations``, each started from its
  pool entry's held input, the first record of a navigation capped at 0
  iterations, which admission keeps;
* ``scans``: ``scan_levelset`` with 40 seeds from the descent boxes (0, 2),
  (0.1, 5) and (-5, 5).

Each run is hashed as its full output: a curve's status, vertices and
infidelities, a trajectory's status and CSV text, a solve's restarts,
report and trajectory CSV, a scan's cloud CSV and curves, or the type and
message of the error it raised. One line per group, then one for all of
them together, gives the number of runs and the SHA-256; two versions
whose lines agree replay these runs alike.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from oscnav import navigator  # noqa: E402
from oscnav.errors import OscnavError  # noqa: E402
from oscnav.objectives import SecondaryCost  # noqa: E402
from pool import load_pool  # noqa: E402
from workloads import TASK  # noqa: E402


def _text(result) -> str:
    if isinstance(result, navigator.LevelsetCurve):
        return (f"{result.status}\n{result.vertices.tolist()!r}\n"
                f"{result.infidelities.tolist()!r}")
    if isinstance(result, navigator.DescentTrajectory):
        return f"{result.status}\n{navigator.trajectory_to_csv(result)}"
    if isinstance(result, navigator.ScanResult):
        return "\n".join([navigator.cloud_to_csv(result), *map(_text, result.curves)])
    return (f"{result.restarts}\n{result.report!r}\n"
            f"{navigator.trajectory_to_csv(result.trajectory)}")


def _outcome(run) -> bytes:
    try:
        text = _text(run())
    except OscnavError as exc:
        text = f"{type(exc).__name__}: {exc}"
    # NUL ends a run's text, so no two sequences of runs hash alike
    return text.encode() + b"\0"


def groups():
    """(name, [zero-argument run, ...]) for every group, in print order."""
    pool = load_pool()
    m3, m48 = [p for _, p in pool.m3], [p for _, p in pool.m48]
    task = (TASK["omega0"], TASK["omegaT"], TASK["T"])
    traces = [lambda p=p, h=h, s=s: navigator.trace_levelset(
                  p, navigator.TraceConfig(step_size=h, initial_sign=s))
              for p in m3 for h in (0.05, 0.3) for s in (1.0, -1.0)]

    def navigations(hold):
        runs = []
        for entries, smooth_cap, compress_cap, chunks in ((m3, 50, 20, 1),
                                                           (m48, 100, 80, 2)):
            for p in entries:
                smooth = navigator.NavigationConfig(doubling_stall_tolerance=0.2,
                                                    doubling_schedule=(2,),
                                                    max_iterations=smooth_cap)
                compress = navigator.NavigationConfig(max_iterations=compress_cap)
                runs += [
                    lambda p=p, cfg=smooth: navigator.navigate(
                        hold(p), SecondaryCost("smoothness"), cfg),
                    lambda p=p, cfg=compress, k=chunks: navigator.navigate(
                        hold(p), SecondaryCost("compression", k), cfg)]
        return runs

    def held(p):
        return navigator.navigate(p, SecondaryCost("smoothness"),
                                  navigator.NavigationConfig(max_iterations=0)).final_protocol

    def solves(ms, seeds, box=(0.1, 2.0)):
        return [lambda m=m, s=s: navigator.solve(navigator.DescentConfig(seed=s, box=box),
                                                 m, task)
                for m in ms for s in seeds]

    scans = [lambda box=box: navigator.scan_levelset(
                 task, navigator.DescentConfig(box=box), navigator.TraceConfig(), 40)
             for box in ((0.0, 2.0), (0.1, 5.0), (-5.0, 5.0))]
    return [("traces", traces), ("navigations", navigations(lambda p: p)),
            ("solves_m3", solves((3,), range(40))),
            ("solves_m48", solves((48,), range(5), (0.1, 5.0))),
            ("solves_m12_m13", solves((12, 13), range(6))),
            ("held_navigations", navigations(held)), ("scans", scans)]


def main() -> int:
    total, count = hashlib.sha256(), 0
    for name, runs in groups():
        digest = hashlib.sha256()
        for run in runs:
            outcome = _outcome(run)
            digest.update(outcome)
            total.update(outcome)
        count += len(runs)
        print(f"{name} {len(runs)} {digest.hexdigest()}")
    print(f"all {count} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
