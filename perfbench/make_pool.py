"""Regenerate the benchmark's committed pool of solution protocols.

Run from the repository root:

    python3 perfbench/make_pool.py

It writes, under ``perfbench/pool/``:

* ``m3/seed<N>.json``: M = 3 solutions of the README task, default box;
* ``m48/seed<N>.json``: M = 48 solutions of the README task, box (0.1, 5.0);
* ``PROVENANCE.json``: the command, task, seeds and commit, plus, for every
  characterised solver seed at M = 3 (default box) and at M = 192 (box
  (0.1, 5.0)), the failed restarts ``solve`` needed, the iterations of its
  successful descent, and the infidelity and gradient evaluations of the
  whole solve. The workloads draw their solver seeds from these tables by
  restart count and evaluations, so every run holds the same mix of
  trapped, cheap and costly solves.

The workloads then read fixed inputs, so a later change to ``solve`` does not
change what the other operations are run on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL = os.path.join(ROOT, "perfbench", "pool")
TASK = (1.0, 0.25, 1.8)
M3_POOL_SEEDS = range(100, 108)
M3_CHARACTERISED_SEEDS = range(100, 300)
M48_SEEDS = range(0, 5)
M192_CHARACTERISED_SEEDS = range(0, 40)
LARGE_BOX = (0.1, 5.0)


def _commit() -> str:
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _solve(cfg, m):
    """``solve`` at M = m, plus its failed restarts, the iterations of its
    successful descent, and its infidelity and gradient evaluations."""
    from oscnav import navigator

    evaluations = 0
    originals = navigator.infidelity, navigator.gradient

    def counted(fn):
        def call(*args):
            nonlocal evaluations
            evaluations += 1
            return fn(*args)
        return call

    navigator.infidelity, navigator.gradient = map(counted, originals)
    try:
        res = navigator.solve(cfg, m, TASK)
    finally:
        navigator.infidelity, navigator.gradient = originals
    return res, {"restarts": res.restarts, "iterations": res.trajectory.records[-1].iteration,
                 "evaluations": evaluations}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from oscnav import protocol as proto
    from oscnav.navigator import DescentConfig, solve

    os.makedirs(os.path.join(POOL, "m3"), exist_ok=True)
    os.makedirs(os.path.join(POOL, "m48"), exist_ok=True)
    small = {}
    for seed in M3_CHARACTERISED_SEEDS:
        res, small[str(seed)] = _solve(DescentConfig(seed=seed), 3)
        if seed in M3_POOL_SEEDS:
            proto.save(res.protocol, os.path.join(POOL, "m3", f"seed{seed}.json"))
        print(f"m3 seed {seed}: {small[str(seed)]}", flush=True)
    for seed in M48_SEEDS:
        res = solve(DescentConfig(seed=seed, box=LARGE_BOX), 48, TASK)
        proto.save(res.protocol, os.path.join(POOL, "m48", f"seed{seed}.json"))
        print(f"m48 seed {seed}: {res.restarts} failed restarts", flush=True)
    large = {}
    for seed in M192_CHARACTERISED_SEEDS:
        res, large[str(seed)] = _solve(DescentConfig(seed=seed, box=LARGE_BOX), 192)
        print(f"m192 seed {seed}: {large[str(seed)]}", flush=True)
    provenance = {
        "command": "python3 perfbench/make_pool.py",
        "commit": _commit(),
        "task": {"omega0": TASK[0], "omegaT": TASK[1], "T": TASK[2]},
        "m3": {"M": 3, "box": list(DescentConfig().box),
               "seeds": list(M3_POOL_SEEDS)},
        "m48": {"M": 48, "box": list(LARGE_BOX), "seeds": list(M48_SEEDS)},
        "m3_solves_by_seed": small,
        "m192_solves_by_seed": large,
    }
    with open(os.path.join(POOL, "PROVENANCE.json"), "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())
