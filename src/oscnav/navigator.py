"""Search for frictionless protocols and navigation of their level sets.

Three layers build on each other:

* ``descend``/``solve``: Levenberg-Marquardt on the two residuals
  (Re beta, Im beta), restarted from random fields until a protocol below
  the threshold is found.
* ``navigate``: descent of a secondary cost restricted to the optimal level
  set. Each step moves to the exact minimiser of the quadratic cost along
  its gradient projected onto the null space of the rank-2 optimal
  curvature, then projects back onto beta = 0 with the same
  Levenberg-Marquardt step. A doubling schedule can refine the protocol in
  place once the projected gradient stalls, opening fresh directions in the
  enlarged parameter space.
* ``trace_levelset``/``scan_levelset``: for 3-pulse protocols the level set
  is a curve; it is traced by predictor steps along the null direction plus
  the same projection as corrector, and solution clouds are grouped into
  connected components by proximity to traced curves.

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
from .sensitivities import gradient


@dataclass(frozen=True)
class DescentConfig:
    """Primary-objective descent and restart settings."""

    max_iterations: int = 20000
    grad_tolerance: float = 1e-9
    infidelity_threshold: float = 1e-5
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

    After every predictor step the Levenberg-Marquardt corrector pushes the
    infidelity back below ``corrector_target`` within ``corrector_budget``
    steps. A doubling factor from the schedule is consumed whenever the
    projected gradient stalls.

    ``doubling_stall_tolerance`` sets the stall level that consumes the
    schedule; None means use ``stall_tolerance`` for both. A looser doubling
    trigger refines as soon as progress at the current resolution slows,
    leaving the bulk of the secondary descent to the enlarged space.
    """

    infidelity_threshold: float = 1e-5
    corrector_target: float = 1e-7
    corrector_budget: int = 500
    stall_tolerance: float = 1e-8
    doubling_stall_tolerance: float | None = None
    doubling_schedule: tuple[int, ...] = ()
    max_iterations: int = 200000

    def __post_init__(self):
        if not self.corrector_target < self.infidelity_threshold:
            raise ValueError("corrector target must be below the infidelity threshold")


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


def _project(p: Protocol, target: float, budget: int, grad_tolerance: float = 0.0,
             on_step=None):
    """Levenberg-Marquardt projection onto beta = 0.

    Returns (omegas, I, grad_max, status).

    I = |r|^2 with r = (Re beta, Im beta) and the 2 x M Jacobian
    J = [Re grad beta; Im grad beta]. Each trial is the minimum-norm step
    delta = -J^T (J J^T + lam I)^-1 r with lam = mu |r| tr(J J^T) / 2, and a
    trial is accepted only if it lowers I: mu falls tenfold after an
    accepted step (floor 1e-12) and rises tenfold after a rejected one.
    Damping in proportion to |r| gives Gauss-Newton steps near beta = 0
    and short gradient-like steps at traps, where the rank of J may drop.

    status: "target" (I below ``target``), "critical" (gradient of I below
    ``grad_tolerance``, or exactly zero), "budget", or "stalled" (no trial
    lowers I before the step is lost to rounding).
    """
    w = np.asarray(p.omegas, dtype=float)
    val = infidelity(p)
    mu = 1.0
    status = "budget"
    gmax = math.inf
    for it in range(budget + 1):
        if val < target:
            status = "target"
            break
        bundle = gradient(p.with_omegas(w))
        gmax = float(np.max(np.abs(bundle.grad_infidelity)))
        if gmax < grad_tolerance or gmax == 0.0:
            status = "critical"
            break
        if it == budget:
            break
        jr, ji = np.real(bundle.grad_beta), np.imag(bundle.grad_beta)
        r0, r1 = bundle.beta.real, bundle.beta.imag
        a, b, c = float(jr @ jr), float(jr @ ji), float(ji @ ji)
        scale = math.hypot(r0, r1) * (a + c) / 2.0
        while True:
            lam = mu * scale
            # (a + lam)(c + lam) - b^2, with the rounding of a c - b^2 >= 0
            # kept from turning it negative when J has rank 1
            det = lam * (a + c + lam) + max(a * c - b * b, 0.0)
            y0 = ((c + lam) * r0 - b * r1) / det
            y1 = ((a + lam) * r1 - b * r0) / det
            cand = w - (y0 * jr + y1 * ji)
            if np.array_equal(cand, w):
                return w, val, gmax, "stalled"
            cval = infidelity(p.with_omegas(cand))
            if cval < val:
                mu = max(mu * 0.1, 1e-12)
                break
            mu *= 10.0
        w, val = cand, cval
        if on_step is not None:
            on_step(it, w, val, gmax)
    return w, val, gmax, status


def _classify(status: str, i_val: float, cfg: DescentConfig) -> str:
    """Restart outcome from the stop state of ``_project``.

    A stall above the threshold is a trap too: there the gradient of I
    cannot fall below an absolute tolerance, as rounding sets its floor.
    """
    if i_val < cfg.infidelity_threshold:
        return "solution" if status == "critical" else "non-critical"
    return "trap" if status in ("critical", "stalled") else "non-critical"


def descend(p0: Protocol, cfg: DescentConfig):
    """Levenberg-Marquardt descent on I from ``p0`` to a critical point or budget.

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

    _, val, gmax, status = _project(p0, 0.0, cfg.max_iterations, cfg.grad_tolerance,
                                    on_step)
    report = CriticalPointReport(_classify(status, val, cfg), val, gmax)
    traj_status = "completed" if status in ("critical", "stalled") else "budget_exhausted"
    return records[-1].protocol, report, DescentTrajectory(tuple(records), traj_status)


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


def navigate(solution: Protocol, cost: SecondaryCost,
             cfg: NavigationConfig) -> DescentTrajectory:
    """Descend a secondary cost inside the optimal level set.

    Every iteration is recorded. The projector is rebuilt from a fresh beta
    gradient at every iterate, and each step is one ``_navigation_step``.
    Stalls consume the doubling schedule; once the schedule is exhausted a
    stall ends the run. The secondary cost is non-increasing and the
    infidelity stays below the threshold at every record.

    Compression refuses a doubling schedule: ``refine(p, k)`` multiplies
    C2, which counts pulse pairs, by k^2.
    """
    if cost.kind == "compression" and cfg.doubling_schedule:
        raise ValueError("compression cannot use a doubling schedule: "
                         "refining by k multiplies its cost by k^2")
    validate(solution)
    i0 = infidelity(solution)
    if not i0 < cfg.infidelity_threshold:
        raise NotASolution(f"navigate requires I < {cfg.infidelity_threshold:g}, got {i0:g}")
    p = solution
    schedule = list(cfg.doubling_schedule)
    records: list[TrajectoryRecord] = []
    status = "budget_exhausted"
    for it in range(cfg.max_iterations + 1):
        bundle = gradient(p)
        cur_c = cost.value(p.omegas)
        pg = null_projector(bundle.grad_beta) @ cost.grad(p.omegas)
        pgmax = float(np.max(np.abs(pg)))
        records.append(TrajectoryRecord(it, p, abs(bundle.beta) ** 2, cur_c, pgmax))
        stall_tol = cfg.stall_tolerance
        if schedule and cfg.doubling_stall_tolerance is not None:
            stall_tol = cfg.doubling_stall_tolerance
        stalled = pgmax < stall_tol
        if stalled and not schedule:
            status = "completed"
            break
        if it == cfg.max_iterations:
            break
        try:
            step = None if stalled else _navigation_step(p, cost, pg, cur_c, cfg)
        except CorrectorFailed:
            status = "corrector_failed"
            break
        if step is not None:
            p = step
        elif schedule:
            p = refine(p, schedule.pop(0))
        else:
            status = "completed"
            break
    return DescentTrajectory(tuple(records), status)


def _navigation_step(p, cost, pg, cur_c, cfg):
    """One predictor-corrector step along -pg; None when it stalls.

    The secondary cost is a homogeneous quadratic C(w) = w^T A w, so
    d^T (Hess C) d = 2 C(d), and the predictor step eta = |pg|^2 / (2 C(pg))
    is the exact minimiser of C along -pg. Each trial is projected back onto
    beta = 0 and accepted once it lies below the threshold with a lower
    cost; otherwise eta is halved until the trial no longer moves. Raises
    CorrectorFailed when that last trial's projection missed its target.
    """
    w = np.asarray(p.omegas, dtype=float)
    curvature = 2.0 * cost.value(pg)
    if not curvature > 0.0:  # pg is nonzero only through rounding
        return None
    eta = float(pg @ pg) / curvature
    failed = False
    while True:
        pred = w - eta * pg
        if np.array_equal(pred, w):
            if failed:
                raise CorrectorFailed("no projected trial reached the corrector target")
            return None
        w_c, ival, _, status = _project(p.with_omegas(pred), cfg.corrector_target,
                                        cfg.corrector_budget)
        if ival < cfg.infidelity_threshold and cost.value(w_c) < cur_c:
            return p.with_omegas(w_c)
        failed = status != "target"
        eta *= 0.5


def _null_direction(p: Protocol) -> np.ndarray:
    """Unit tangent of a 3-pulse level set: orthogonal to Re and Im grad beta."""
    gb = gradient(p).grad_beta
    t = np.cross(np.real(gb), np.imag(gb))
    return t / np.linalg.norm(t)


def trace_levelset(solution: Protocol, cfg: TraceConfig) -> LevelsetCurve:
    """Predictor-corrector continuation of an M = 3 solution curve.

    Steps of ``step_size`` along the current null direction (sign kept
    continuous with the previous tangent), each followed by the
    Levenberg-Marquardt projection back onto beta = 0 (the Moore-Penrose
    corrector of Allgower and Georg). Ends on loop closure - returning within
    ``closure_factor * step_size`` of the start, moving the same way - or
    on leaving the box (reported as an open curve).
    """
    validate(solution)
    if solution.m != 3:
        raise ValueError("level-set tracing is defined for M = 3 protocols")
    if not infidelity(solution) < cfg.infidelity_threshold:
        raise NotASolution("trace_levelset requires a solution protocol")
    w, ival, _, status = _project(solution, cfg.corrector_target, cfg.corrector_budget)
    if status != "target":
        return LevelsetCurve(np.asarray([solution.omegas]),
                             np.asarray([infidelity(solution)]), False,
                             "corrector_failed")
    p = solution.with_omegas(w)
    verts = [w]
    ivals = [ival]
    t0 = cfg.initial_sign * _null_direction(p)
    tangent = t0
    lo, hi = cfg.box
    status = "open"
    closed = False
    for step in range(1, cfg.max_steps + 1):
        pred = p.with_omegas(verts[-1] + cfg.step_size * tangent)
        w, ival, _, corrector = _project(pred, cfg.corrector_target, cfg.corrector_budget)
        if corrector != "target":
            status = "corrector_failed"
            break
        p = pred.with_omegas(w)
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
    the table is rectangular. Refinement leaves the represented control and
    its infidelity unchanged, and the smoothness cost C1 too; the
    compression cost C2 would change, which is why compression refuses a
    doubling schedule.
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
