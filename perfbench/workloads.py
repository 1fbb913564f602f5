"""Operations of the three workloads, the checks on their outputs, and the plans.

Every operation is either an in-process ``oscnav.cli.main([...])`` command
with its stdout captured, or a public library call. Each returns an outcome
that :func:`Op.check` inspects independently of the program: a wrong output,
an exit code of 1 or 3 on a pool input, or any other exit code outside
{0, 2, 4} raises :class:`BenchError`; exit codes 2 and 4 make the operation
count as failed.

A workload runs in cycles. One cycle is a fixed list of operations whose
inputs the workload seed picks: solver seeds, one from each stratum of the
seeds the pool characterises (by failed restarts, then by iterations) and
without replacement across the run, and pool entries in a seeded order. Every workload runs every kind of operation so
that every end-to-end metric is emitted for it, but most of its time goes to
the kinds its rationale names; the others run on small inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from oscnav import cli, navigator, objectives, propagator
from oscnav import protocol as proto
from oscnav.errors import OscnavError

THRESHOLD = 1e-5          # infidelity below which a protocol is a solution
RANK2_RATIO = 1e-6        # bound on |lambda_3| / lambda_2 of a solution's Hessian
DEFECT_TOL = 1e-9         # bound on the conservation defects printed by verify
FAILED_EXIT_CODES = (2, 4)
TASK = {"omega0": 1.0, "omegaT": 0.25, "T": 1.8}
LARGE_BOX = [0.1, 5.0]
# M = 192 seeds whose descent took more iterations are not drawn. Only 1 of
# the 40 characterised seeds does (3562 iterations, about 11 s); sampling it
# steadily at its natural rate would take 40 solves a run.
LONG_DESCENT = 1000


class BenchError(Exception):
    """An operation produced a wrong output or an unexpected exit code."""


@dataclass(frozen=True)
class Op:
    kind: str                       # solve | trace | smooth | compress | spectrum | theta_scan | verify
    run: Callable[[], object]       # the timed call
    check: Callable[[object], dict]  # facts about a good outcome, None when failed


@dataclass(frozen=True)
class Inputs:
    """Pool entries written to the work directory as strict protocol JSON."""

    workdir: str
    m3: tuple        # ((path, Protocol), ...)
    m48: tuple
    m192: tuple      # the M = 48 entries refined x4


def write_inputs(pool, workdir) -> Inputs:
    def save_all(sub, entries, factor=1):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
        out = []
        for name, p in entries:
            p = proto.refine(p, factor)
            path = os.path.join(workdir, sub, f"{name}.json")
            proto.save(p, path)
            out.append((path, p))
        return tuple(out)

    return Inputs(workdir, save_all("m3", pool.m3), save_all("m48", pool.m48),
                  save_all("m192", pool.m48, 4))


def run_cli(argv):
    """``oscnav.cli.main(argv)`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)


def _succeeded(outcome, what, can_fail=False):
    """False for an exit code that counts as a failed operation."""
    code = outcome[0]
    if can_fail and code in FAILED_EXIT_CODES:
        return False
    if code != 0:
        raise BenchError(f"{what} exited with code {code!r} on a pool input")
    return True


def _read_protocol(path, what):
    try:
        return proto.load(path)
    except (OSError, ValueError, OscnavError) as exc:
        raise BenchError(f"{what} wrote an unreadable protocol: {exc}") from exc


def _load_solution(path, what):
    p = _read_protocol(path, what)
    value = propagator.infidelity(p)
    if not value < THRESHOLD:
        raise BenchError(f"{what} wrote a protocol with I={value:g}")
    return p, value


# --- operations -------------------------------------------------------------

def solve_op(workdir, m, seed, box=None) -> Op:
    """CLI ``solve`` on the README task; ``box`` None keeps the default."""
    descent = {"seed": seed} if box is None else {"seed": seed, "box": box}
    out = os.path.join(workdir, "solve_protocol.json")
    config = _write_json(os.path.join(workdir, f"solve_m{m}_seed{seed}.json"), {
        "task": TASK, "M": m, "descent": descent,
        "output": {"protocol": out,
                   "trajectory": os.path.join(workdir, "solve_trajectory.csv")}})
    what = f"solve M={m} seed={seed}"

    def check(outcome):
        if not _succeeded(outcome, what, can_fail=True):
            return None
        summary = json.loads(outcome[1])
        p, value = _load_solution(out, what)
        if p.m != m:
            raise BenchError(f"{what} wrote M={p.m}")
        if not _close(summary["infidelity"], value):
            raise BenchError(f"{what} printed I={summary['infidelity']!r}, "
                             f"rescored {value!r}")
        return {"solutions": 1}

    return Op("solve", lambda: run_cli(["solve", "--config", config]), check)


def trace_op(path, p, step_size, sign) -> Op:
    """Library ``trace_levelset`` in one direction from an M = 3 solution."""
    cfg = navigator.TraceConfig(step_size=step_size, initial_sign=sign)
    what = f"trace from {os.path.basename(path)} step={step_size} sign={sign}"

    def check(curve):
        if curve.status == "corrector_failed":
            return None
        if not (curve.closed and curve.status == "closed"):
            raise BenchError(f"{what} ended {curve.status!r}, not closed")
        for vertex in curve.vertices:
            value = propagator.infidelity(p.with_omegas(vertex))
            if not value < THRESHOLD:
                raise BenchError(f"{what} has a vertex with I={value:g}")
        return {"vertices": len(curve.vertices)}

    return Op("trace", lambda: navigator.trace_levelset(p, cfg), check)


def _navigate_op(kind, workdir, path, p, navigation, extra_args, cost):
    config = _write_json(os.path.join(workdir, f"{kind}_config.json"),
                         {"navigation": navigation})
    out = os.path.join(workdir, f"{kind}_protocol.json")
    collapsed = os.path.join(workdir, f"{kind}_collapsed.json")
    argv = [kind, path, "--config", config, "--out-protocol", out,
            "--out-trajectory", os.path.join(workdir, f"{kind}_trajectory.csv"),
            *extra_args]
    if kind == "compress":
        argv += ["--out-collapsed", collapsed]
    what = f"{kind} {os.path.basename(path)} M={p.m}"
    initial = cost.value(p.omegas)

    def check(outcome):
        if not _succeeded(outcome, what, can_fail=True):
            return None
        summary = json.loads(outcome[1])
        final, _ = _load_solution(out, what)
        final_cost = cost.value(final.omegas)
        if not final_cost <= initial:
            raise BenchError(f"{what} raised the cost from {initial!r} to {final_cost!r}")
        if not _close(summary["final_cost"], final_cost):
            raise BenchError(f"{what} printed cost {summary['final_cost']!r}, "
                             f"recomputed {final_cost!r}")
        if kind == "compress":
            small = _read_protocol(collapsed, what)
            if small.m != cost.chunks:
                raise BenchError(f"{what} collapsed to M={small.m}")
            if not _close(summary["collapsed_infidelity"], propagator.infidelity(small)):
                raise BenchError(f"{what} printed a collapsed infidelity that "
                                 "does not match a recomputation")
        return {"cost_ratio": final_cost / initial}

    return Op(kind, lambda: run_cli(argv), check)


def smooth_op(workdir, path, p, cap) -> Op:
    """README ``smooth --double 2`` with a doubling stall tolerance of 0.2."""
    nav = {"doubling_stall_tolerance": 0.2, "max_iterations": cap}
    return _navigate_op("smooth", workdir, path, p, nav, ["--double", "2"],
                        objectives.SecondaryCost("smoothness"))


def compress_op(workdir, path, p, chunks, cap) -> Op:
    """README ``compress --chunks`` with an iteration cap."""
    return _navigate_op("compress", workdir, path, p, {"max_iterations": cap},
                        ["--chunks", str(chunks)],
                        objectives.SecondaryCost("compression", chunks))


def spectrum_op(workdir, path, p) -> Op:
    out = os.path.join(workdir, "spectrum.csv")
    what = f"spectrum {os.path.basename(path)} M={p.m}"

    def check(outcome):
        _succeeded(outcome, what)
        with open(out, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if rows[0] != "index,eigenvalue" or len(rows) != p.m + 1:
            raise BenchError(f"{what} wrote {len(rows) - 1} eigenvalues")
        eigs = np.array([float(r.split(",")[1]) for r in rows[1:]])
        if np.any(np.diff(eigs) > 0):
            raise BenchError(f"{what} is not descending")
        ratio = abs(eigs[2]) / eigs[1]
        if not ratio < RANK2_RATIO:
            raise BenchError(f"{what} fails the rank-2 check: |l3|/l2 = {ratio:g}")
        return {}

    return Op("spectrum", lambda: run_cli(["spectrum", path, "--out", out]), check)


def theta_scan_op(workdir, path, p, points) -> Op:
    out = os.path.join(workdir, "theta.csv")
    grid = {repr(float(t)) for t in np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)}
    what = f"theta-scan {os.path.basename(path)} points={points}"

    def check(outcome):
        _succeeded(outcome, what)
        with open(out, encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        if len(rows) != points + 1:
            raise BenchError(f"{what} wrote {len(rows)} rows")
        refined = [float(j) for t, j in rows if t not in grid]
        grid_min = min(float(j) for t, j in rows if t in grid)
        if len(refined) != 1 or not refined[0] <= grid_min:
            raise BenchError(f"{what}: refined minimum {refined} is not one row "
                             f"at or below the grid minimum {grid_min!r}")
        return {}

    return Op("theta_scan", lambda: run_cli(["theta-scan", path, "--points", str(points),
                                             "--out", out]), check)


def verify_op(path, p) -> Op:
    what = f"verify {os.path.basename(path)}"
    value = propagator.infidelity(p)

    def check(outcome):
        _succeeded(outcome, what)
        report = json.loads(outcome[1])
        numbers = report["particle_number"]
        if not (_close(report["infidelity"], value)
                and abs(report["bogoliubov_defect"]) < DEFECT_TOL
                and report["wronskian_defect"] < DEFECT_TOL
                and _close(numbers["0"], value)
                and _close(numbers["1"], 1.0 + 3.0 * value)):
            raise BenchError(f"{what} printed inconsistent diagnostics: {report}")
        return {}

    return Op("verify", lambda: run_cli(["verify", path]), check)


# --- workload plans ---------------------------------------------------------

class Deck:
    """Deals items in seeded random order; an item repeats only after all were dealt."""

    def __init__(self, items, rng: random.Random):
        if not items:
            raise BenchError("cannot draw from an empty set of inputs")
        self._items = list(items)
        self._rng = rng
        self._queue = []

    def deal(self, n):
        out = []
        for _ in range(n):
            if not self._queue:
                self._queue = self._rng.sample(self._items, len(self._items))
            out.append(self._queue.pop())
        return out


def _split(seeds, groups):
    n = len(seeds)
    return [seeds[i * n // groups:(i + 1) * n // groups] for i in range(groups)]


def strata(solves, restarts, bins, max_iterations=None):
    """Seeds that needed ``restarts`` failed restarts, in ``bins`` groups by evaluations.

    With an odd number of groups, three or more, the middle group is the
    median seed alone, so the median of one draw from each group is always
    that seed's solve.
    """
    seeds = [seed for _, seed in sorted(
        (evaluations, seed) for seed, (r, iterations, evaluations) in solves.items()
        if r == restarts and (max_iterations is None or iterations <= max_iterations))]
    if bins < 3 or bins % 2 == 0:
        return _split(seeds, bins)
    mid = len(seeds) // 2
    return _split(seeds[:mid], bins // 2) + [[seeds[mid]]] + _split(seeds[mid + 1:], bins // 2)


class Workload:
    """Deals one cycle of operations at a time from a seeded stream of inputs."""

    def __init__(self, name, pool, inputs: Inputs, seed: int):
        self.name = name
        self.pool = pool
        self.inputs = inputs
        self.rng = random.Random(seed)
        self.m3_entries = Deck(inputs.m3, self.rng)
        self._seed_decks = {}

    def seeds(self, m, restarts, bins, max_iterations=None):
        """One solver seed from each stratum; no seed repeats until its stratum is used up."""
        key = (m, restarts, bins)
        if key not in self._seed_decks:
            solves = self.pool.m3_solves if m == 3 else self.pool.m192_solves
            self._seed_decks[key] = [Deck(group, self.rng) for group in
                                     strata(solves, restarts, bins, max_iterations)]
        return [deck.deal(1)[0] for deck in self._seed_decks[key]]

    def shuffled(self, entries):
        return self.rng.sample(list(entries), len(entries))

    def cycle(self):
        return CYCLES[self.name](self)


def _small_m(w: Workload):
    """Tiny calls: M = 3 solves (8 untrapped, 1 trapped once) and fine traces."""
    d = w.inputs.workdir
    ops = [solve_op(d, 3, s) for s in w.seeds(3, 0, 8) + w.seeds(3, 1, 1)]
    path, p = w.m3_entries.deal(1)[0]
    ops += [trace_op(path, p, 0.05, sign) for sign in (1.0, -1.0)]
    for path, p in w.shuffled(w.inputs.m3):
        ops += [smooth_op(d, path, p, 50), compress_op(d, path, p, 1, 20),
                spectrum_op(d, path, p), verify_op(path, p)]
    ops += [theta_scan_op(d, path, p, 1024) for path, p in w.m3_entries.deal(2)]
    return ops


def _large_m(w: Workload):
    """M = 192 solves, capped M = 48 smoothing and compression of every pool entry."""
    d = w.inputs.workdir
    ops = [solve_op(d, 192, s, LARGE_BOX)
           for s in w.seeds(192, 0, 7, max_iterations=LONG_DESCENT)]
    for path, p in w.shuffled(w.inputs.m48):
        ops += [smooth_op(d, path, p, 100), compress_op(d, path, p, 2, 80),
                spectrum_op(d, path, p), theta_scan_op(d, path, p, 1024), verify_op(path, p)]
    ops += [trace_op(path, p, 0.3, sign) for path, p in w.m3_entries.deal(2)
            for sign in (1.0, -1.0)]
    return ops


def _inspect(w: Workload):
    """Single exact evaluations at M = 192: spectrum, theta-scan, verify."""
    d = w.inputs.workdir
    ops = []
    for _ in range(5):
        for path, p in w.shuffled(w.inputs.m192):
            ops += [spectrum_op(d, path, p), theta_scan_op(d, path, p, 1024),
                    verify_op(path, p)]
    ops += [solve_op(d, 3, s) for s in w.seeds(3, 0, 5)]
    path, p = w.m3_entries.deal(1)[0]
    ops += [trace_op(path, p, 0.3, sign) for sign in (1.0, -1.0)]
    for path, p in w.shuffled(w.inputs.m3):
        ops += [smooth_op(d, path, p, 50), compress_op(d, path, p, 1, 20)]
    return ops


CYCLES = {"small-m": _small_m, "large-m": _large_m, "inspect": _inspect}
