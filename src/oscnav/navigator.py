"""Search for frictionless protocols and navigation of their level sets.

Three layers build on each other:

* ``descend``/``solve``: backtracking gradient descent on the infidelity,
  restarted from random fields until a protocol below the threshold is found.
* ``navigate``: descent of a secondary cost restricted to the optimal level
  set, by projecting the secondary gradient onto the null space of the
  rank-2 optimal curvature and correcting the infidelity whenever a
  predictor step drifts off the set. A doubling schedule can refine the
  protocol in place once the projected gradient stalls, opening fresh
  directions in the enlarged parameter space.
* ``trace_levelset``/``scan_levelset``: for 3-pulse protocols the level set
  is a curve; it is traced by predictor steps along the null direction plus
  infidelity correctors, and solution clouds are grouped into connected
  components by proximity to traced curves.

Every operation is deterministic given its configuration and seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CorrectorFailed, EmptyProtocol, NotASolution,
                     RestartBudgetExhausted)
from .objectives import SecondaryCost
from .propagator import infidelity
from .protocol import Protocol, refine, validate
from .sensitivities import gradient, hessian, optimal_hessian

_ETA_GROW = 2.0  # warm-start factor for the next line search trial


@dataclass(frozen=True)
class DescentConfig:
    """Primary-objective descent and restart settings."""

    max_iterations: int = 20000
    grad_tolerance: float = 1e-9
    infidelity_threshold: float = 1e-5
    initial_step: float = 0.1
    shrink_factor: float = 0.5
    armijo_constant: float = 1e-4
    max_backtracks: int = 60
    box: tuple[float, float] = (0.1, 2.0)
    seed: int = 0
    max_restarts: int = 32

    def __post_init__(self):
        if not self.box[0] < self.box[1]:
            raise ValueError("amplitude box must have lo < hi")
        if self.grad_tolerance <= 0 or self.infidelity_threshold <= 0:
            raise ValueError("tolerances must be > 0")


@dataclass(frozen=True)
class NavigationConfig:
    """Secondary-objective navigation settings.

    The corrector re-descends the primary objective whenever a predictor
    step lifts the infidelity above ``corrector_trigger`` and must push it
    back below ``corrector_target``; a doubling factor from the schedule is
    consumed whenever the projected gradient stalls.

    ``doubling_stall_tolerance`` sets the stall level that consumes the
    schedule; None means use ``stall_tolerance`` for both. A looser doubling
    trigger refines as soon as progress at the current resolution slows,
    leaving the bulk of the secondary descent to the enlarged space.
    """

    infidelity_threshold: float = 1e-5
    corrector_trigger: float = 1e-6
    corrector_target: float = 1e-7
    corrector_budget: int = 500
    null_tolerance: float = 1e-10
    stall_tolerance: float = 1e-8
    doubling_stall_tolerance: float | None = None
    doubling_schedule: tuple[int, ...] = ()
    max_iterations: int = 200000
    initial_step: float = 0.1
    shrink_factor: float = 0.5
    armijo_constant: float = 1e-4
    max_backtracks: int = 60
    grad_tolerance: float = 1e-9
    record_every: int = 1

    def __post_init__(self):
        if not self.corrector_trigger < self.infidelity_threshold:
            raise ValueError("corrector trigger must be below the infidelity threshold")
        if not self.corrector_target <= self.corrector_trigger:
            raise ValueError("corrector target must not exceed the trigger")


@dataclass(frozen=True)
class TraceConfig:
    """Continuation settings for one-dimensional (M = 3) level sets.

    The box only detects runaway curves. For the expansion task, the
    solution curve nearest the descent box (0, 2) spans amplitudes from
    about -2 to +5, inside the default bound. Other components reach much
    further (one spans omega_2 in [-10.2, 10.2]); a trace of such a curve
    leaves the default box and ends ``open`` rather than ``closed``.
    """

    step_size: float = 0.05
    max_steps: int = 5000
    min_steps_before_closure: int = 10
    closure_factor: float = 2.0
    corrector_target: float = 1e-12
    corrector_budget: int = 300
    box: tuple[float, float] = (-4.0, 8.0)
    initial_sign: float = 1.0
    infidelity_threshold: float = 1e-5


@dataclass(frozen=True)
class ScanConfig:
    """Settings for clustering solution clouds into connected components."""

    descent: DescentConfig = field(default_factory=DescentConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    assign_distance: float = 0.15
    max_curves: int = 64


@dataclass(frozen=True)
class TrajectoryRecord:
    iteration: int
    protocol: Protocol
    infidelity: float
    cost: float
    pgrad_norm: float


@dataclass(frozen=True)
class DescentTrajectory:
    """Ordered snapshots along one optimization run."""

    records: tuple[TrajectoryRecord, ...]
    status: str  # "completed" | "budget_exhausted" | "corrector_failed"

    @property
    def final_protocol(self) -> Protocol:
        return self.records[-1].protocol


@dataclass(frozen=True)
class CriticalPointReport:
    classification: str  # "solution" | "trap" | "non-critical"
    infidelity: float
    grad_max_norm: float
    hessian_spectrum: np.ndarray  # eigenvalues of the full Hessian, descending


@dataclass(frozen=True)
class SolveResult:
    protocol: Protocol
    restarts: int
    report: CriticalPointReport
    trajectory: DescentTrajectory


@dataclass(frozen=True)
class LevelsetCurve:
    vertices: np.ndarray          # (n, 3) pulse amplitudes
    infidelities: np.ndarray      # (n,)
    closed: bool
    status: str                   # "closed" | "open" | "corrector_failed"


@dataclass(frozen=True)
class ScanResult:
    points: np.ndarray            # (n, 3)
    infidelities: np.ndarray      # (n,)
    labels: np.ndarray            # (n,) component index per point
    curves: tuple[LevelsetCurve, ...]


def _line_search(value_at, w, direction, slope_sq, val, eta0, cfg):
    """Backtrack until sufficient decrease; returns (w, val, eta) or None."""
    eta = eta0
    for _ in range(cfg.max_backtracks):
        cand = w + eta * direction
        cval = value_at(cand)
        if cval <= val - cfg.armijo_constant * eta * slope_sq:
            return cand, cval, eta
        eta *= cfg.shrink_factor
    return None


def _descend_infidelity(p: Protocol, cfg, *, target=None, budget=None, on_step=None):
    """Core backtracking descent on I. Returns (omegas, I, grad_max, status).

    status: "critical" (gradient below tolerance), "target" (I below the
    requested target), "budget", or "stalled" (no acceptable step).
    """
    w = np.asarray(p.omegas, dtype=float)
    val = infidelity(p)
    eta = cfg.initial_step
    limit = cfg.max_iterations if budget is None else budget
    value_at = lambda ww: infidelity(p.with_omegas(ww))
    status = "budget"
    gmax = math.inf
    for it in range(limit + 1):
        if target is not None and val < target:
            status = "target"
            break
        g = gradient(p.with_omegas(w)).grad_infidelity
        gmax = float(np.max(np.abs(g))) if g.size else 0.0
        if gmax < cfg.grad_tolerance:
            status = "critical"
            break
        if it == limit:
            break
        hit = _line_search(value_at, w, -g, float(g @ g), val, eta, cfg)
        if hit is None:
            status = "stalled"
            break
        w, val, eta_acc = hit
        eta = eta_acc * _ETA_GROW
        if on_step is not None:
            on_step(it, w, val, gmax)
    return w, val, gmax, status


def _classify(i_val, gmax, cfg) -> str:
    if gmax < cfg.grad_tolerance:
        return "solution" if i_val < cfg.infidelity_threshold else "trap"
    return "non-critical"


def descend(p0: Protocol, cfg: DescentConfig):
    """Gradient descent on I from ``p0`` until a critical point or budget.

    Returns (protocol, report, trajectory); infidelity is non-increasing
    along accepted steps.
    """
    validate(p0)
    if p0.m == 0:
        raise EmptyProtocol("descent requires at least one pulse")
    records = [TrajectoryRecord(0, p0, infidelity(p0), float("nan"),
                                float(np.max(np.abs(gradient(p0).grad_infidelity))))]

    def on_step(it, w, val, gmax):
        records.append(TrajectoryRecord(it + 1, p0.with_omegas(w), val,
                                        float("nan"), gmax))

    w, val, gmax, status = _descend_infidelity(p0, cfg, on_step=on_step)
    out = p0.with_omegas(w)
    spectrum = np.linalg.eigvalsh(hessian(out).hess_infidelity)[::-1].copy()
    report = CriticalPointReport(_classify(val, gmax, cfg), val, gmax, spectrum)
    if records[-1].protocol.omegas != out.omegas:
        records.append(TrajectoryRecord(records[-1].iteration + 1, out, val,
                                        float("nan"), gmax))
    traj_status = "completed" if status in ("critical", "stalled") else "budget_exhausted"
    return out, report, DescentTrajectory(tuple(records), traj_status)


def solve(cfg: DescentConfig, m: int, task: tuple[float, float, float]) -> SolveResult:
    """Random-restart search: descend from uniform fields until I < threshold.

    ``task`` is (omega0, omegaT, T); dt = T/m. The restart RNG stream is a
    pure function of cfg.seed, so identical configs replay bit-for-bit.
    """
    if m < 1:
        raise EmptyProtocol("solve requires at least one pulse")
    omega0, omegaT, total_t = task
    base = Protocol(omega0, omegaT, total_t / m, (0.0,) * m)
    validate(base)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.box
    for restart in range(cfg.max_restarts):
        w0 = rng.uniform(lo, hi, m)
        p, report, traj = descend(base.with_omegas(w0), cfg)
        if report.classification == "solution":
            return SolveResult(p, restart, report, traj)
    raise RestartBudgetExhausted(
        f"no solution with I < {cfg.infidelity_threshold:g} in {cfg.max_restarts} restarts")


def null_projector(grad_beta: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Projector onto the level-set tangent space at a frictionless point.

    P = I - Q Q^T with Q an orthonormal basis of span{Re grad_beta,
    Im grad_beta} built by (re-orthogonalized) Gram-Schmidt; degenerate
    spans simply shrink Q. P annihilates both spanning vectors and is an
    orthogonal projector of rank M - rank(Q).
    """
    m = len(grad_beta)
    basis: list[np.ndarray] = []
    for vec in (np.real(grad_beta), np.imag(grad_beta)):
        u = np.array(vec, dtype=float)
        norm0 = np.linalg.norm(u)
        for q in basis:           # twice, to keep orthogonality near rounding
            u -= (q @ u) * q
        for q in basis:
            u -= (q @ u) * q
        norm1 = np.linalg.norm(u)
        if norm0 > 0.0 and norm1 > tol * norm0:
            basis.append(u / norm1)
    p = np.eye(m)
    for q in basis:
        p -= np.outer(q, q)
    return p


def _correct(p: Protocol, cfg: NavigationConfig):
    """Pull a drifted protocol back below the corrector target. None on failure."""
    sub = DescentConfig(max_iterations=cfg.corrector_budget,
                        grad_tolerance=cfg.grad_tolerance,
                        infidelity_threshold=cfg.infidelity_threshold,
                        initial_step=cfg.initial_step,
                        shrink_factor=cfg.shrink_factor,
                        armijo_constant=cfg.armijo_constant,
                        max_backtracks=cfg.max_backtracks)
    w, val, _, status = _descend_infidelity(p, sub, target=cfg.corrector_target,
                                            budget=cfg.corrector_budget)
    if status != "target":
        return None
    return p.with_omegas(w), val


def navigate(solution: Protocol, cost: SecondaryCost,
             cfg: NavigationConfig) -> DescentTrajectory:
    """Descend a secondary cost inside the optimal level set.

    Predictor steps follow the projected secondary gradient with
    backtracking on the (post-correction) cost; the projector is rebuilt
    from a fresh beta gradient after every accepted step. Stalls consume
    the doubling schedule; once the schedule is exhausted a stall ends the
    run. The secondary cost is non-increasing and the infidelity stays
    below the threshold at every record.
    """
    validate(solution)
    i0 = infidelity(solution)
    if not i0 < cfg.infidelity_threshold:
        raise NotASolution(f"navigate requires I < {cfg.infidelity_threshold:g}, got {i0:g}")
    p = solution
    schedule = list(cfg.doubling_schedule)
    records: list[TrajectoryRecord] = []
    status = "budget_exhausted"
    eta = cfg.initial_step
    it = 0
    while it <= cfg.max_iterations:
        bundle = gradient(p)
        cur_i = abs(bundle.beta) ** 2
        cur_c = cost.value(p.omegas)
        pg = null_projector(bundle.grad_beta, cfg.null_tolerance) @ cost.grad(p.omegas)
        pgmax = float(np.max(np.abs(pg)))
        terminal = False
        stall_tol = cfg.stall_tolerance
        if schedule and cfg.doubling_stall_tolerance is not None:
            stall_tol = cfg.doubling_stall_tolerance
        stalled = pgmax < stall_tol
        step = None
        corrector_ok = True
        if not stalled and it < cfg.max_iterations:
            step, corrector_ok = _navigation_step(p, cost, pg, cur_c, eta, cfg)
            stalled = step is None and corrector_ok
        if stalled and not schedule:
            status = "completed"
            terminal = True
        if step is None and not corrector_ok:
            status = "corrector_failed"
            terminal = True
        if it == cfg.max_iterations and not terminal:
            terminal = True
        if terminal or stalled or it % cfg.record_every == 0:
            records.append(TrajectoryRecord(it, p, cur_i, cur_c, pgmax))
        if terminal:
            break
        if stalled:
            p = refine(p, schedule.pop(0))
            eta = cfg.initial_step
            it += 1
            continue
        p, eta_acc = step
        eta = eta_acc * _ETA_GROW
        it += 1
    return DescentTrajectory(tuple(records), status)


def _navigation_step(p, cost, pg, cur_c, eta0, cfg):
    """One predictor(-corrector) step. Returns ((protocol, eta) | None, corrector_ok).

    corrector_ok is False only when the last backtracking trial was rejected
    because the corrector could not restore the infidelity (as opposed to an
    ordinary sufficient-decrease rejection, which signals a stall).
    """
    w = np.asarray(p.omegas, dtype=float)
    slope_sq = float(pg @ pg)
    eta = eta0
    last_was_corrector_failure = False
    for _ in range(cfg.max_backtracks):
        cand = p.with_omegas(w - eta * pg)
        ival = infidelity(cand)
        if ival > cfg.corrector_trigger:
            pulled = _correct(cand, cfg)
            if pulled is None:
                last_was_corrector_failure = True
                eta *= cfg.shrink_factor
                continue
            cand, ival = pulled
        last_was_corrector_failure = False
        cval = cost.value(cand.omegas)
        if (cval <= cur_c - cfg.armijo_constant * eta * slope_sq
                and ival < cfg.infidelity_threshold):
            return (cand, eta), True
        eta *= cfg.shrink_factor
    return None, not last_was_corrector_failure


def _null_direction(omegas_protocol: Protocol) -> np.ndarray:
    """Unit tangent of a 3-pulse level set: null eigenvector of the rank-2 form."""
    gb = gradient(omegas_protocol).grad_beta
    _, vecs = np.linalg.eigh(optimal_hessian(gb))
    return vecs[:, 0]


def trace_levelset(solution: Protocol, cfg: TraceConfig) -> LevelsetCurve:
    """Predictor-corrector continuation of an M = 3 solution curve.

    Steps of ``step_size`` along the current null direction (sign kept
    continuous with the previous tangent), each followed by an infidelity
    corrector. Ends on loop closure - returning within
    ``closure_factor * step_size`` of the start, moving the same way - or
    on leaving the box (reported as an open curve).
    """
    validate(solution)
    if solution.m != 3:
        raise ValueError("level-set tracing is defined for M = 3 protocols")
    if not infidelity(solution) < cfg.infidelity_threshold:
        raise NotASolution("trace_levelset requires a solution protocol")
    nav = NavigationConfig(corrector_target=cfg.corrector_target,
                           corrector_budget=cfg.corrector_budget,
                           infidelity_threshold=cfg.infidelity_threshold,
                           corrector_trigger=cfg.infidelity_threshold / 10.0)
    start = _correct(solution, nav)
    if start is None:
        return LevelsetCurve(np.asarray([solution.omegas]),
                             np.asarray([infidelity(solution)]), False,
                             "corrector_failed")
    p, ival = start
    verts = [np.asarray(p.omegas, dtype=float)]
    ivals = [ival]
    t0 = cfg.initial_sign * _null_direction(p)
    tangent = t0
    lo, hi = cfg.box
    status = "open"
    closed = False
    for step in range(1, cfg.max_steps + 1):
        pred = verts[-1] + cfg.step_size * tangent
        pulled = _correct(p.with_omegas(pred), nav)
        if pulled is None:
            status = "corrector_failed"
            break
        p, ival = pulled
        w = np.asarray(p.omegas, dtype=float)
        if np.any(w < lo) or np.any(w > hi):
            status = "open"
            break
        verts.append(w)
        ivals.append(ival)
        t_new = _null_direction(p)
        if t_new @ tangent < 0.0:
            t_new = -t_new
        tangent = t_new
        if (step >= cfg.min_steps_before_closure
                and np.linalg.norm(w - verts[0]) < cfg.closure_factor * cfg.step_size
                and tangent @ t0 > 0.0):
            closed = True
            status = "closed"
            break
    return LevelsetCurve(np.asarray(verts), np.asarray(ivals), closed, status)


def _polyline_distance(point: np.ndarray, curve: LevelsetCurve) -> float:
    """Euclidean distance from a point to a polyline (closing edge included)."""
    v = curve.vertices
    if len(v) == 1:
        return float(np.linalg.norm(point - v[0]))
    a = v[:-1] if not curve.closed else v
    b = v[1:] if not curve.closed else np.roll(v, -1, axis=0)
    ab = b - a
    denom = np.sum(ab * ab, axis=1)
    denom[denom == 0.0] = 1.0
    t = np.clip(np.sum((point - a) * ab, axis=1) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.min(np.linalg.norm(point - proj, axis=1)))


def scan_levelset(task: tuple[float, float, float], cfg: ScanConfig,
                  n_seeds: int) -> ScanResult:
    """Cloud of M = 3 solutions labeled by connected component.

    Runs one independent solve per seed (seed index offsets the base seed),
    then traces a curve from the first unlabeled point and attaches every
    point within ``assign_distance`` of it, repeating until all points are
    labeled. Output ordering follows seed order, independent of scheduling.
    """
    pts: list[np.ndarray] = []
    ivals: list[float] = []
    for i in range(n_seeds):
        sub = dataclasses.replace(cfg.descent, seed=cfg.descent.seed + i)
        try:
            res = solve(sub, 3, task)
        except RestartBudgetExhausted:
            continue
        pts.append(np.asarray(res.protocol.omegas, dtype=float))
        ivals.append(res.report.infidelity)
    points = np.asarray(pts) if pts else np.zeros((0, 3))
    infs = np.asarray(ivals)
    labels = np.full(len(pts), -1, dtype=int)
    curves: list[LevelsetCurve] = []
    omega0, omegaT, total_t = task
    for idx in range(len(pts)):
        if labels[idx] >= 0:
            continue
        if len(curves) >= cfg.max_curves:
            break
        p = Protocol(omega0, omegaT, total_t / 3.0, tuple(points[idx]))
        curve = trace_levelset(p, cfg.trace)
        label = len(curves)
        curves.append(curve)
        for j in range(idx, len(pts)):
            if labels[j] < 0 and _polyline_distance(points[j], curve) <= cfg.assign_distance:
                labels[j] = label
    return ScanResult(points, infs, labels, tuple(curves))


def _fmt(x) -> str:
    return repr(float(x))


def trajectory_to_csv(traj: DescentTrajectory) -> str:
    """Render a trajectory as CSV, one row per record.

    Records taken before a doubling are refined to the final resolution so
    the table is rectangular; refinement leaves the represented control,
    its infidelity and both secondary costs unchanged.
    """
    if not traj.records:
        return "iter,I,cost,pgrad_norm\n"
    m_final = traj.records[-1].protocol.m
    lines = ["iter,I,cost,pgrad_norm," + ",".join(f"omega_{i+1}" for i in range(m_final))]
    for rec in traj.records:
        p = rec.protocol
        if p.m != m_final:
            p = refine(p, m_final // p.m)
        lines.append(",".join([str(rec.iteration), _fmt(rec.infidelity),
                               _fmt(rec.cost), _fmt(rec.pgrad_norm),
                               *(_fmt(w) for w in p.omegas)]))
    return "\n".join(lines) + "\n"


def cloud_to_csv(result: ScanResult) -> str:
    lines = ["omega1,omega2,omega3,I,component"]
    for point, ival, label in zip(result.points, result.infidelities, result.labels):
        lines.append(",".join([*(_fmt(w) for w in point), _fmt(ival), str(int(label))]))
    return "\n".join(lines) + "\n"


def curves_to_csv(curves) -> str:
    lines = ["curve,vertex,omega1,omega2,omega3,I,closed"]
    for ci, curve in enumerate(curves):
        for vi, (vert, ival) in enumerate(zip(curve.vertices, curve.infidelities)):
            lines.append(",".join([str(ci), str(vi), *(_fmt(w) for w in vert),
                                   _fmt(ival), str(int(curve.closed))]))
    return "\n".join(lines) + "\n"
