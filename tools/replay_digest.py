"""Replay digest: one SHA-256 per group of deterministic library runs.

    python3 tools/replay_digest.py

Run it from anywhere; it imports the package from ``src/`` and the pool
loader and task of the benchmark from ``perfbench/``. It reads the
benchmark's protocol pool, ``perfbench/pool/``, and writes nothing inside
the repository, not even bytecode caches: the commands of ``cli`` write
into temporary directories. The groups are:

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
  (0.1, 5) and (-5, 5);
* ``collapses``: ``collapse`` of the final protocol of each ``compress``
  run of ``navigations`` onto its chunk count, reusing that run;
* ``cli``: ``oscnav.cli.main`` in process, each command in a new
  temporary directory as its working directory, with relative paths, so
  that no text names the directory: ``solve`` at M = 3, seeds 0-3;
  ``smooth --double 2``, ``compress --chunks 1``, ``spectrum``, ``verify``
  and ``theta-scan --points 64`` of each M = 3 pool entry; and command
  lines that are usage errors. argparse words its usage errors by Python
  version, so this group's hash holds for one version;
* ``hessians``: ``hessian`` of each M = 3 and M = 48 pool entry, whose
  exact Hess I reads A'' through the backward pass, by way of BLAS
  products that a thread count could reorder;
* ``propagations``: ``propagate`` and ``infidelity`` of each M = 3 and
  M = 48 pool entry and of each M = 48 entry refined x4 (the inputs of the
  benchmark's inspect workload).

Each run is hashed as its full output: a curve's status, vertices and
infidelities, a trajectory's status and CSV text, a solve's restarts,
report and trajectory CSV, a scan's cloud CSV and curves, a collapsed
protocol's JSON, a command's exit code, stdout, stderr and every file in
its directory, a Hessian's beta, grad beta and the bytes of Hess I, a
propagation's f, f' and I in hexadecimal, or the type and message of the
error it raised. Each run also counts its records: a trajectory's
records, a curve's vertices, a solve's restarts plus its trajectory's
records, a scan's curve vertices; a collapse, a command, a Hessian, a
propagation or an error counts 0. One line per group, then one
for all of them together, reads

    <group> <runs> <records> <sha256>

so two versions whose lines agree replay these runs alike, and a change in
the work a run takes shows in its group's record count even before a
hash is compared.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from oscnav import cli, navigator, propagator, protocol, sensitivities  # noqa: E402
from oscnav.errors import OscnavError  # noqa: E402
from oscnav.objectives import SecondaryCost  # noqa: E402
from pool import POOL_DIR, load_pool  # noqa: E402
from workloads import TASK  # noqa: E402


def _text(result) -> str:
    if isinstance(result, str):
        return result
    if isinstance(result, navigator.LevelsetCurve):
        return (f"{result.status}\n{result.vertices.tolist()!r}\n"
                f"{result.infidelities.tolist()!r}")
    if isinstance(result, navigator.DescentTrajectory):
        return f"{result.status}\n{navigator.trajectory_to_csv(result)}"
    if isinstance(result, navigator.ScanResult):
        return "\n".join([navigator.cloud_to_csv(result), *map(_text, result.curves)])
    if isinstance(result, sensitivities.SensitivityBundle):
        return (f"{result.beta!r}\n{result.grad_beta.tolist()!r}\n"
                f"{result.hess_infidelity.tobytes().hex()}")
    return (f"{result.restarts}\n{result.report!r}\n"
            f"{navigator.trajectory_to_csv(result.trajectory)}")


def _propagation(p) -> str:
    """The bits of ``propagate(p)``'s (f, f') and of ``infidelity(p)``."""
    s = propagator.propagate(p)
    return " ".join(v.hex() for v in (s.f.real, s.f.imag, s.fdot.real, s.fdot.imag,
                                       propagator.infidelity(p)))


def _records(result) -> int:
    if isinstance(result, navigator.LevelsetCurve):
        return len(result.vertices)
    if isinstance(result, navigator.DescentTrajectory):
        return len(result.records)
    if isinstance(result, navigator.ScanResult):
        return sum(map(_records, result.curves))
    if isinstance(result, navigator.SolveResult):
        return result.restarts + len(result.trajectory.records)
    return 0


def _outcome(run) -> tuple[bytes, int]:
    """(text, records) of one run."""
    try:
        result = run()
        text, records = _text(result), _records(result)
    except OscnavError as exc:
        text, records = f"{type(exc).__name__}: {exc}", 0
    # NUL ends a run's text, so no two sequences of runs hash alike
    return text.encode() + b"\0", records


# command lines that are usage errors: no command, an unknown one, an
# option before the command, a missing option, option value or positional,
# an extra argument and a value of the wrong type
USAGE_ERRORS = ([], ["frobnicate"], ["--config", "x", "solve"], ["solve"],
                ["solve", "--config"], ["solve", "--config", "c.json", "extra"],
                ["theta-scan", "p.json", "--points", "abc"])


def _command(argv, files):
    """A run of ``cli.main(argv)`` in a new temporary working directory that
    first holds ``files`` ({name: bytes}): its exit code, stdout, stderr and
    every file in the directory afterwards, by name."""
    def run():
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for name, data in files.items():
                    with open(name, "wb") as fh:
                        fh.write(data)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                outputs = []
                for name in sorted(os.listdir()):
                    with open(name, encoding="utf-8", newline="") as fh:
                        outputs += [name, fh.read()]
            finally:
                os.chdir(cwd)
        return "\n".join([f"{argv!r} exit {code}", out.getvalue(), err.getvalue(), *outputs])
    return run


def _commands(m3_names):
    """The runs of the ``cli`` group."""
    runs = [_command(["solve", "--config", "c.json"],
                     {"c.json": json.dumps({"task": TASK, "M": 3,
                                            "descent": {"seed": seed}}).encode()})
            for seed in range(4)]
    for name in m3_names:
        with open(os.path.join(POOL_DIR, "m3", f"{name}.json"), "rb") as fh:
            files = {"p.json": fh.read()}
        runs += [_command(["smooth", "p.json", "--double", "2"], files),
                 _command(["compress", "p.json", "--chunks", "1"], files),
                 _command(["spectrum", "p.json"], files),
                 _command(["verify", "p.json"], files),
                 _command(["theta-scan", "p.json", "--points", "64"], files)]
    return runs + [_command(argv, {}) for argv in USAGE_ERRORS]


def groups():
    """(name, [zero-argument run, ...]) for every group, in print order."""
    pool = load_pool()
    m3, m48 = [p for _, p in pool.m3], [p for _, p in pool.m48]
    task = (TASK["omega0"], TASK["omegaT"], TASK["T"])
    traces = [lambda p=p, h=h, s=s: navigator.trace_levelset(
                  p, navigator.TraceConfig(step_size=h, initial_sign=s))
              for p in m3 for h in (0.05, 0.3) for s in (1.0, -1.0)]

    def navigations(hold):
        """The smooth and compress runs, and each compress run with its chunks."""
        runs, compressions = [], []
        for entries, smooth_cap, compress_cap, chunks in ((m3, 50, 20, 1),
                                                           (m48, 100, 80, 2)):
            for p in entries:
                smooth = navigator.NavigationConfig(doubling_stall_tolerance=0.2,
                                                    doubling_schedule=(2,),
                                                    max_iterations=smooth_cap)
                compress = navigator.NavigationConfig(max_iterations=compress_cap)
                # cached, so that a collapse reuses the run
                compressed = functools.cache(
                    lambda p=p, cfg=compress, k=chunks: navigator.navigate(
                        hold(p), SecondaryCost("compression", k), cfg))
                runs += [
                    lambda p=p, cfg=smooth: navigator.navigate(
                        hold(p), SecondaryCost("smoothness"), cfg),
                    compressed]
                compressions.append((compressed, chunks))
        return runs, compressions

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
    plain, compressions = navigations(lambda p: p)
    collapses = [lambda run=run, k=k: protocol.to_json(
                     protocol.collapse(run().final_protocol, k))
                 for run, k in compressions]
    return [("traces", traces), ("navigations", plain),
            ("solves_m3", solves((3,), range(40))),
            ("solves_m48", solves((48,), range(5), (0.1, 5.0))),
            ("solves_m12_m13", solves((12, 13), range(6))),
            ("held_navigations", navigations(held)[0]), ("scans", scans),
            ("collapses", collapses), ("cli", _commands([name for name, _ in pool.m3])),
            ("hessians", [lambda p=p: sensitivities.hessian(p) for p in m3 + m48]),
            ("propagations", [lambda p=p: _propagation(p)
                              for p in m3 + m48 + [protocol.refine(p, 4) for p in m48]])]


def main() -> int:
    total, count, total_records = hashlib.sha256(), 0, 0
    for name, runs in groups():
        digest, records = hashlib.sha256(), 0
        for run in runs:
            outcome, n = _outcome(run)
            digest.update(outcome)
            total.update(outcome)
            records += n
        count += len(runs)
        total_records += records
        print(f"{name} {len(runs)} {records} {digest.hexdigest()}")
    print(f"all {count} {total_records} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
