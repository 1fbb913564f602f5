"""Search for frictionless protocols and navigation of their level sets.

Three layers build on each other:

* ``descend``/``solve``: Levenberg-Marquardt on the two residuals
  (Re beta, Im beta), restarted from random fields until a protocol below
  the threshold is found; a step that barely lowers I far from beta = 0
  ends a restart at its trap.
* ``navigate``: descent of a secondary cost restricted to the optimal level
  set. Each step minimises the quadratic model of the cost, with the exact
  Hessian of beta in the Lagrangian, inside a trust region on the level-set
  tangent space, then projects back onto beta = 0 with the same
  Levenberg-Marquardt step. A doubling schedule can refine the protocol in
  place once the projected gradient stalls, opening fresh directions in
  the enlarged parameter space.
* ``trace_levelset``/``scan_levelset``: for 3-pulse protocols the level set
  is a curve; it is traced by secant predictor steps, along the null
  direction corrected by the turn of the last two tangents, plus the same
  projection as corrector, whose chord steps reuse a Jacobian once, about
  one adjoint sweep per vertex, and solution clouds are grouped into
  connected components by proximity to traced curves.

A protocol is a solution, a point of the optimal level set, when its
infidelity I = |beta|^2 is below ``INFIDELITY_THRESHOLD``; solve, navigation
and tracing all read that one constant. A solve result also passes a step
test: its Gauss-Newton step toward beta = 0 is short, which tells a
solution from a critical point of I that lies under the threshold off
beta = 0. Every operation is deterministic given its configuration and
seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import typing
from dataclasses import dataclass

import numpy as np

from .errors import EmptyProtocol, NotASolution, RestartBudgetExhausted
from .objectives import SecondaryCost
from .propagator import forward
from .protocol import Protocol, _check_positive, _is_int, _is_real, refine
from .sensitivities import _assemble, _backward, _generators, _hess_beta_times, gradient

_EPS = float(np.finfo(float).eps)
# stop states of ``_project`` that leave a point on beta = 0
_ON_LEVEL_SET = ("target", "floor")
# a protocol is a solution when I = |beta|^2 is below this
INFIDELITY_THRESHOLD = 1e-5
# descent stops at a critical point, max |grad I| below this
_GRAD_TOLERANCE = 1e-9
# navigation stalls once the max norm of its projected gradient is below this
_STALL_TOLERANCE = 1e-8
# a scanned solution joins a traced curve within this distance of it
_ASSIGN_DISTANCE = 0.15
# navigation projects a trial until I is below this or at its rounding floor
# (about 1e-31 up to M = 96 on the README task): the cost at infidelity I
# differs from the level set's by about |nu| sqrt(I), and a looser target
# lets that difference mask the last steps
_NAV_TARGET = 1e-28
# the tracer's target, below the threshold so that every vertex is a solution
_TRACE_TARGET = 1e-12
# iterates, chord or fresh, per corrector projection; binds only when a
# projection fails
_CORRECTOR_BUDGET = 500
# a descent step that lowers I, still above the threshold, by at most
# _TRAP_GAIN times I, from a point whose Gauss-Newton step |J^+ r| exceeds
# _TRAP_STEP max(1, max|w|), ends the descent at a trap
_TRAP_GAIN = 1e-4
_TRAP_STEP = 1e-3
# a traced curve closes on returning, after this many steps, within
# _CLOSURE_FACTOR step sizes of its start, moving the same way
_MIN_STEPS_BEFORE_CLOSURE = 10
_CLOSURE_FACTOR = 2.0
# the rank of the Jacobian counts its singular values above this times the largest
_RANK_TOL = 1e-10


def _admit(solution: Protocol, caller: str, target: float):
    """(fw, protocol, I, bundle) of ``solution``, the input of ``caller``.

    ``fw`` is its order-1 forward pass, which starts its correction onto
    ``target``; the rest is what ``_project`` returns. NotASolution unless
    I is below ``INFIDELITY_THRESHOLD``, before any backward pass, and the
    projection ends on beta = 0.
    """
    fw = forward(solution)
    i0 = abs(fw.beta) ** 2
    if not i0 < INFIDELITY_THRESHOLD:
        raise NotASolution(f"{caller} requires I < {INFIDELITY_THRESHOLD:g}, got {i0:g}")
    p, ival, bundle, status = _project(solution, target, _CORRECTOR_BUDGET, fw=fw)
    if status not in _ON_LEVEL_SET:
        raise NotASolution(f"{caller} requires an input the corrector holds on beta = 0, "
                           f"its projection ends {status!r} at I = {ival:g}")
    return fw, p, ival, bundle


def _fits(value, tp) -> bool:
    """Whether ``value`` matches a config field's annotated type ``tp``."""
    if tp is float:
        return _is_real(value)
    if tp is int:
        return _is_int(value)
    args = typing.get_args(tp)
    if not isinstance(value, tuple):
        return False
    if args[1:] == (Ellipsis,):
        return all(_fits(v, args[0]) for v in value)
    return len(value) == len(args) and all(map(_fits, value, args))


# field annotations of a config class, parsed once per class
_field_types = functools.cache(typing.get_type_hints)


def _check_fields(cfg) -> None:
    """Raise ValueError naming the first field of config ``cfg`` that does
    not match its annotation: a float field takes an :func:`_is_real`, an
    int field an :func:`_is_int`, a tuple field a tuple of these."""
    for name, tp in _field_types(type(cfg)).items():
        value = getattr(cfg, name)
        if not _fits(value, tp):
            shown = tp.__name__ if tp in (int, float) else tp
            raise ValueError(f"{name} must be of type {shown}, got {value!r}")


@dataclass(frozen=True)
class DescentConfig:
    """Primary-objective descent and restart settings: each field of its
    type (:func:`_check_fields`), budgets and seed >= 0, box lo < hi with
    a finite width, which the uniform restart draws need."""

    max_iterations: int = 20000
    box: tuple[float, float] = (0.1, 2.0)
    seed: int = 0
    max_restarts: int = 32

    def __post_init__(self):
        _check_fields(self)
        lo, hi = self.box
        if not (lo < hi and _is_real(hi - lo)):
            raise ValueError(f"box must have lo < hi and a finite width, got {self.box!r}")
        if self.max_iterations < 0 or self.max_restarts < 0:
            raise ValueError("iteration and restart budgets must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class NavigationConfig:
    """Secondary-objective navigation settings: each field of its type
    (:func:`_check_fields`), budget and tolerance >= 0, doubling factors >= 1.

    A stall consumes a doubling factor from the schedule, or completes the
    run once the schedule is used up. It is a projected gradient below
    ``doubling_stall_tolerance`` while the schedule lasts and below
    ``_STALL_TOLERANCE`` after it, or a stall of ``_navigation_step``: a
    predicted decrease within the rounding of g^T d plus the gap |nu^T r|
    in C to the level set, or trials rejected down to the resolution of the
    pulses. So a run can end ``completed`` with its projected gradient above
    ``_STALL_TOLERANCE``; its ``stop`` tells which. A looser doubling
    trigger refines as soon as progress at the current resolution slows,
    leaving the bulk of the secondary descent to the enlarged space, which
    keeps the trust-region radius (:func:`navigate`).
    """

    doubling_stall_tolerance: float = _STALL_TOLERANCE
    doubling_schedule: tuple[int, ...] = ()
    max_iterations: int = 200000

    def __post_init__(self):
        _check_fields(self)
        if self.max_iterations < 0:
            raise ValueError("iteration budget must be >= 0")
        if not self.doubling_stall_tolerance >= 0:
            raise ValueError("doubling stall tolerance must be >= 0")
        if not all(k >= 1 for k in self.doubling_schedule):
            raise ValueError(f"doubling factors must be integers >= 1, "
                             f"got {self.doubling_schedule!r}")


@dataclass(frozen=True)
class TraceConfig:
    """Continuation settings for one-dimensional (M = 3) level sets: each
    field of its type (:func:`_check_fields`), step size > 0, step budget
    >= 0, box lo < hi, initial sign +1 or -1.

    The box only detects runaway curves. For the expansion task, the
    solution curve nearest the descent box (0, 2) spans amplitudes from
    about -2 to +5, inside the default bound. Other components reach much
    further (one spans omega_2 in [-10.2, 10.2]); a trace of such a curve
    leaves the default box and ends ``open`` rather than ``closed``.
    """

    step_size: float = 0.05
    max_steps: int = 5000
    box: tuple[float, float] = (-4.0, 8.0)
    initial_sign: float = 1.0

    def __post_init__(self):
        _check_fields(self)
        if not self.step_size > 0:
            raise ValueError("step size must be > 0")
        if not self.box[0] < self.box[1]:
            raise ValueError("runaway box must have lo < hi")
        if self.max_steps < 0:
            raise ValueError("step budget must be >= 0")
        if self.initial_sign not in (1.0, -1.0):
            # any other factor scales the first tangent, and 0 stalls the trace
            raise ValueError(f"initial sign must be +1 or -1, got {self.initial_sign!r}")


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
    status: str  # "completed" | "budget_exhausted"; a refused input raises
    # why it ended, library only: the stop state of _project for a descent;
    # "tolerance", "rounding", "resolution" or "budget" for a navigation
    stop: str | None = None

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
    status: str                   # "closed" | "open" | "corrector_failed"

    @property
    def closed(self) -> bool:
        return self.status == "closed"


@dataclass(frozen=True)
class ScanResult:
    points: np.ndarray            # (n, 3)
    infidelities: np.ndarray      # (n,)
    labels: np.ndarray            # (n,) component index per point, every one >= 0
    curves: tuple[LevelsetCurve, ...]


def _project(p: Protocol, target: float, budget: int, on_step=None, fw=None):
    """Levenberg-Marquardt projection onto beta = 0.

    Returns (protocol, I, bundle, status), where ``bundle`` is the
    ``gradient`` result of the last iterate whose gradient was evaluated:
    the returned protocol unless it stopped below ``target``, or None if
    the start already was.

    ``target`` alone sets the mode. A descent (``target`` 0, ``descend``)
    starts at mu = 1, evaluates every iterate's gradient, which its records
    need, and stops at a critical point or a trap (below). A correction
    (``target`` > 0: admission and the corrector of navigation and of the
    tracer) starts near beta = 0, so at mu = 1e-3, near Gauss-Newton, and
    takes chord steps.

    I = |r|^2 with r = (Re beta, Im beta) and the 2 x M Jacobian
    J = [Re grad beta; Im grad beta]. Each trial is the minimum-norm step
    delta = -J^T y, y = (J J^T + lam I)^-1 r, with lam = mu |r| tr(J J^T) / 2,
    and a trial is accepted only if it lowers I. mu follows the gain ratio
    rho = (I - I_trial) / (I - lam^2 |y|^2) of the actual to the predicted
    decrease, the model residual r + J delta being lam y (Nielsen 1999;
    Madsen, Nielsen and Tingleff 2004, section 3.2). An accepted step
    multiplies mu by 0.1 when rho > 0.75 and by 1 - (2 rho - 1)^3, between
    0.875 and 2, otherwise (floor 1e-12). The rejected trials of one step
    multiply it by 2, 4, 8, ..., so a trap is not caught in a cycle of a
    rejected short-damped trial and an accepted longer-damped one, and a
    stall is found after a few rejections. Damping in proportion to |r|
    gives Gauss-Newton steps near beta = 0, where rho is near 1 and mu
    falls tenfold, and short gradient-like steps at traps, where the rank
    of J may drop. One Protocol is built per evaluated point, and the same
    object is evaluated and handed on.

    Chord steps are the simplified Gauss-Newton steps of Shamanskii's
    method, which with one Jacobian per two steps still converges with
    order 3 (Kelley 1995, section 5.4): in a correction, the iterate after a
    step with rho > 0.75 keeps that step's J and Gram entries, with its own
    residual and the current mu, and costs no backward pass. Its one trial
    is accepted only with rho > 0.75; otherwise the next iterate, at the
    same point and mu, takes a fresh Jacobian. A Jacobian serves at most
    one chord trial, the floor/stalled test runs only on a fresh one, and
    every iterate, chord or fresh, takes up one iteration ``it`` of ``budget``.

    A descent also stops at a trap before its gradient vanishes: an
    accepted step to a trial whose I is at least ``INFIDELITY_THRESHOLD``,
    and which lowers I by at most ``_TRAP_GAIN`` times the trial's I, from
    a point whose Gauss-Newton step |J^+ r|, formed from the Gram entries
    of the step, exceeds ``_TRAP_STEP`` max(1, max|w|), makes the next
    iterate the last, ``critical``.

    Each evaluated point, the start and every trial, accepted or not, costs
    one forward pass (``propagator.forward``), which gives I; an accepted
    point's gradient, when evaluated, is the backward pass of that same
    forward pass, so an iterate costs one forward plus at most one backward
    pass and no point's kernel entries or states are computed twice.
    ``fw``, when given, is the start's forward pass, already evaluated by
    the caller. ``on_step(it, protocol, I, grad_max)`` is called for every
    iterate whose gradient is evaluated, the start included.

    A correction works in r and J alone. The max norm of grad I = 2 J^T r,
    which a trial needs nowhere, is formed (and checked finite) only in a
    descent, whose stop test and records read it, or for ``on_step``.

    status: "target" (I below ``target``), "critical" (a descent's gradient
    of I below ``_GRAD_TOLERANCE``, a correction's J exactly zero, or the
    trap test above), "budget", "floor" (no trial lowers I and the Gauss-Newton
    step -J^+ r is below sqrt(eps) max(1, |w|): the point is on beta = 0 to
    working precision, at the rounding floor of I) or "stalled" (no trial
    lowers I at a point whose Gauss-Newton step is longer, a trap or a
    rank-deficient J).
    """
    descent = target == 0.0
    mu = 1.0 if descent else 1e-3
    w = np.asarray(p.omegas, dtype=float)
    if fw is None:
        fw = forward(p)
    val = abs(fw.beta) ** 2
    status = "budget"
    bundle = None
    chord = trapped = False
    for it in range(budget + 1):
        if val < target:
            status = "target"
            break
        if not chord or it == budget:
            bundle = gradient(p, fw)
            jr, ji = bundle.grad_beta.real, bundle.grad_beta.imag
            # ndarray.dot is the ddot of ``@``, with less call overhead
            a, b, c = float(jr.dot(jr)), float(jr.dot(ji)), float(ji.dot(ji))
            if descent or on_step is not None:
                # grad I = 2 J^T r, formed here only: reading it checks it finite
                gmax = float(np.abs(bundle.grad_infidelity).max())
                if on_step is not None:
                    on_step(it, p, val, gmax)
            if (gmax < _GRAD_TOLERANCE if descent else a + c == 0.0) or trapped:
                status = "critical"
                break
            if it == budget:
                break
        # this point's residual; a chord trial pairs it with the last step's J
        r0, r1 = fw.beta.real, fw.beta.imag
        scale = math.hypot(r0, r1) * (a + c) / 2.0
        nu = 2.0
        while True:
            lam = mu * scale
            y0, y1, cand = _damped_step(w, jr, ji, a, b, c, r0, r1, lam)
            # w holds p's pulses; compared as Python floats, the test costs a
            # tenth of (cand == w).all()
            if tuple(cand.tolist()) == p.omegas:
                if chord:
                    chord = False
                    break
                at_floor = (_gauss_newton_sq(a, b, c, r0, r1)
                            <= _EPS * max(1.0, float(np.max(np.abs(w)))) ** 2)
                return p, val, bundle, "floor" if at_floor else "stalled"
            trial = p.with_omegas(cand)
            trial_fw = forward(trial)
            cval = abs(trial_fw.beta) ** 2
            # rho > 0.75 tested without dividing: a predicted decrease
            # rounded to 0 or below counts as rho > 0.75
            gain, predicted = val - cval, val - lam * lam * (y0 * y0 + y1 * y1)
            good = gain > 0.75 * predicted
            if cval < val and (good or not chord):
                mu = max(mu * 0.1 if good else
                         mu * (1.0 - (2.0 * gain / predicted - 1.0) ** 3), 1e-12)
                # a Jacobian serves at most one chord trial
                chord = good and not (chord or descent)
                # a descent step that barely lowers I far above the threshold,
                # from a point whose Gauss-Newton step is long, is at a trap
                trapped = (descent and cval >= INFIDELITY_THRESHOLD
                           and gain <= _TRAP_GAIN * cval
                           and _long_step(w, a, b, c, r0, r1))
                p, w, val, fw = trial, cand, cval, trial_fw
                break
            if chord:
                # a failed chord trial hands the point to a fresh Jacobian
                chord = False
                break
            mu *= nu
            nu *= 2.0
    return p, val, bundle, status


def _damped_step(w, jr, ji, a, b, c, r0, r1, lam):
    """(y0, y1, w - J^T y) with y = (J J^T + lam I)^-1 r, J = [jr; ji] and the
    Gram entries a = jr.jr, b = jr.ji, c = ji.ji."""
    # (a + lam)(c + lam) - b^2, with the rounding of a c - b^2 >= 0 kept
    # from turning it negative when J has rank 1
    det = lam * (a + c + lam) + max(a * c - b * b, 0.0)
    y0 = ((c + lam) * r0 - b * r1) / det
    y1 = ((a + lam) * r1 - b * r0) / det
    return y0, y1, w - (y0 * jr + y1 * ji)


def _gauss_newton_sq(a, b, c, r0, r1) -> float:
    """|J^+ r|^2 = r^T (J J^T)^-1 r from the Gram entries of J; inf when J
    has rank < 2."""
    rank2 = a * c - b * b
    return (c * r0 * r0 - 2.0 * b * r0 * r1 + a * r1 * r1) / rank2 if rank2 > 0.0 else math.inf


def _long_step(w, a, b, c, r0, r1) -> bool:
    """Whether the Gauss-Newton step |J^+ r|, from the Gram entries of J,
    exceeds ``_TRAP_STEP`` max(1, max|w|): the point is not on beta = 0."""
    return (_gauss_newton_sq(a, b, c, r0, r1)
            > (_TRAP_STEP * max(1.0, float(np.max(np.abs(w))))) ** 2)


def _classify(status: str, i_val: float, bundle, w) -> str:
    """Restart outcome from the stop state of ``_project``.

    Below ``INFIDELITY_THRESHOLD`` a critical point, or a point at the
    rounding floor of I, is a solution if it passes the step test: its
    Gauss-Newton step |J^+ r|, from the Gram entries of ``bundle``, the
    gradient at the pulses ``w``, is at most ``_TRAP_STEP`` max(1, max|w|).
    One that fails it is a trap that happens to lie under the threshold: a
    critical point off beta = 0, where grad I = 2 J^T r vanishes with
    r != 0, so J has nearly lost rank and the step is long. At M from 3 to
    24, seeds 0-59 of the README task, genuine solutions have
    |J^+ r| / max(1, max|w|) <= 3.1e-7 and the 38 such traps (all at M = 12
    and 13) >= 2.6e2. A point at the floor passes by construction.

    Above the threshold a critical stop is a trap, whether the gradient
    vanished or the trap test of ``_project`` ended the descent first, and
    so is a stall: there the gradient of I cannot fall below an absolute
    tolerance, as rounding sets its floor.
    """
    if i_val < INFIDELITY_THRESHOLD:
        if status not in ("critical", "floor"):
            return "non-critical"
        jr, ji = bundle.grad_beta.real, bundle.grad_beta.imag
        a, b, c = float(jr.dot(jr)), float(jr.dot(ji)), float(ji.dot(ji))
        long = _long_step(w, a, b, c, bundle.beta.real, bundle.beta.imag)
        return "trap" if long else "solution"
    return "trap" if status in ("critical", "stalled") else "non-critical"


def descend(p0: Protocol, cfg: DescentConfig):
    """Levenberg-Marquardt descent on I from ``p0`` to a critical point or budget.

    Returns (protocol, report, trajectory); infidelity is non-increasing
    along accepted steps. Every iterate's gradient is evaluated and
    recorded, so the trajectory has one record per iterate. A restart that
    reaches a trap ends there once a step barely lowers I far above the
    threshold (the trap test of ``_project``): at M = 3, seeds 0-199 of the
    README task, in 10.3 records and 14.5 forward passes on average, 18.3
    and 22.9 without that test. The report classifies the end point with
    :func:`_classify`: a stop under the threshold is a ``solution`` only
    if its Gauss-Newton step passes the step test, and a ``trap``
    otherwise, from the gradient the descent already evaluated there.
    """
    records = []

    def on_step(it, p, val, gmax):
        records.append(TrajectoryRecord(it, p, val, float("nan"), gmax))

    # a descent, target 0, evaluates the returned point's gradient
    p, val, bundle, status = _project(p0, 0.0, cfg.max_iterations, on_step)
    report = CriticalPointReport(_classify(status, val, bundle, p.omegas), val,
                                 records[-1].pgrad_norm)
    traj_status = "budget_exhausted" if status == "budget" else "completed"
    return p, report, DescentTrajectory(tuple(records), traj_status, status)


def solve(cfg: DescentConfig, m: int, task: tuple[float, float, float]) -> SolveResult:
    """Random-restart search: descend from uniform fields to a solution.

    A restart ends at a solution when its end point is below
    ``INFIDELITY_THRESHOLD`` and passes the step test of :func:`_classify`,
    so a critical point of I just under the threshold but off beta = 0,
    such as restart 0 of seed 2 at M = 12 (I = 9.3e-6), is a trap and the
    search restarts. The result is therefore one the navigation corrector
    holds on beta = 0. ``task`` is (omega0, omegaT, T); dt = T/m. An m that
    is not an int, a T that is not positive, or one whose T/m underflows to
    0, is refused by name. The restart RNG stream is a pure function of
    cfg.seed, so identical configs replay bit-for-bit.
    """
    if not _is_int(m):
        raise ValueError(f"M must be an integer, got {m!r}")
    if m < 1:
        raise EmptyProtocol("solve requires at least one pulse")
    omega0, omegaT, total_t = task
    dt = _check_positive("T", total_t) / m
    # a positive T can still underflow to dt = 0 over M pulses
    _check_positive(f"T/M (T = {total_t!r}, M = {m})", dt)
    base = Protocol(omega0, omegaT, dt, (0.0,) * m)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.box
    for restart in range(cfg.max_restarts):
        w0 = rng.uniform(lo, hi, m)
        p, report, traj = descend(base.with_omegas(w0), cfg)
        if report.classification == "solution":
            return SolveResult(p, restart, report, traj)
    raise RestartBudgetExhausted(
        f"no solution with I < {INFIDELITY_THRESHOLD:g} in {cfg.max_restarts} restarts")


def _level_set_frame(grad_beta: np.ndarray):
    """Normal basis Q, tangent basis Z and pseudo-inverse J^+ of a level set.

    All three come from one SVD J^T = U S V^T of the M x 2 matrix of the
    gradients Re grad_beta and Im grad_beta, the rows of the Jacobian J,
    under one rank rule: k counts the singular values above ``_RANK_TOL``
    times the largest, so a zero J has rank 0 and a second gradient (nearly)
    parallel to the first adds nothing. Q (M x k) and Z (M x (M - k)) are
    the first k and the other columns of U: orthonormal bases of the span
    of the two gradients and of its orthogonal complement, the level-set
    tangent space. J^+ = U_k S_k^-1 V_k^T (M x 2) is the pseudo-inverse of
    J truncated to rank k.
    """
    u, sv, vt = np.linalg.svd(np.array([np.real(grad_beta), np.imag(grad_beta)]).T)
    k = int(np.count_nonzero(sv > _RANK_TOL * sv[0]))
    return u[:, :k], u[:, k:], (u[:, :k] / sv[:k]) @ vt[:k]


def null_projector(grad_beta: np.ndarray) -> np.ndarray:
    """Projector onto the level-set tangent space at a frictionless point.

    P = I - Q Q^T with Q the orthonormal basis of span{Re grad_beta,
    Im grad_beta} from :func:`_level_set_frame`. P annihilates both spanning
    vectors and is an orthogonal projector of rank M - rank(Q). Navigation
    works in the bases Q and Z and never builds P.
    """
    q = _level_set_frame(grad_beta)[0]
    return np.eye(len(grad_beta)) - q @ q.T


def navigate(solution: Protocol, cost: SecondaryCost,
             cfg: NavigationConfig) -> DescentTrajectory:
    """Descend a secondary cost inside the optimal level set.

    Every iteration is recorded. Each iterate, the first included, gets one
    order-2 forward pass and one adjoint sweep for beta, its exact gradient
    and the terms of its Hessian, and one SVD of the Jacobian of beta for
    the bases Q and Z and the pseudo-inverse the step uses
    (:func:`_level_set_frame`). Only an iterate that steps builds the
    generators of the Hessian of beta from those terms, and checks them
    finite: a record that stops or doubles reads only grad beta, Q and the
    projected gradient. The pulses of an iterate are one array, and an
    accepted step hands its trial's array and cost to the next record.
    Each step is one trust-region step along the level set,
    ``_navigation_step``. The radius starts at the Cauchy
    point of the cost along the projected gradient pg and carries over
    between steps, and across a doubling by k scaled by sqrt(k):
    ``refine(d, k)`` has norm sqrt(k) |d|, so it spans the same controls,
    while a restart at the Cauchy point of the stalled pg that triggers a
    doubling would take many radius-bound steps to grow back (Gratton,
    Sartenaer and Toint, SIAM J. Optim. 19, 414 (2008)). The first finer
    step takes the refined point's Cauchy radius where that is larger, as
    after a coarse level that took no step. Stalls, a projected gradient
    below the tolerance or a step stalled by its predicted decrease, at
    most eps sum|g||d| plus the gap |nu^T r|, or by its radius, consume the
    doubling schedule, then end the run; so a run can end ``completed``
    with its projected gradient above ``_STALL_TOLERANCE``. The
    trajectory's ``stop`` names the last: "tolerance", "rounding" or
    "resolution", or "budget" for a run that used up its budget.

    The input is admitted by :func:`_admit`, the tracer's rule: its
    projection, started on its order-1 forward pass and free when I is
    below ``_NAV_TARGET``, must end below that target or at the rounding
    floor of I; NotASolution otherwise, before any step. The run starts
    from that projection, the held input, whose record takes its own
    order-2 forward pass even when admission kept the input. A step accepts
    only a trial whose projection ends the same way, or stalls, so a run
    ends ``completed`` or ``budget_exhausted``, with a non-increasing
    secondary cost and every record on beta = 0. A doubling keeps the
    represented control, and so beta up to rounding.

    Compression refuses a doubling schedule: ``refine(p, k)`` multiplies
    C2, which counts pulse pairs, by k^2.
    """
    if cost.kind == "compression" and cfg.doubling_schedule:
        raise ValueError("compression cannot use a doubling schedule: "
                         "refining by k multiplies its cost by k^2")
    p = _admit(solution, "navigate", _NAV_TARGET)[1]
    schedule = list(cfg.doubling_schedule)
    records: list[TrajectoryRecord] = []
    stop = "budget"
    # radius is None at the first record and after a doubling, which
    # scales the last one into ``carried``
    radius, carried = None, 0.0
    # the pulses of p as one array, and their cost
    w = np.asarray(p.omegas, dtype=float)
    cur_c = cost.value(w)
    for it in range(cfg.max_iterations + 1):
        fw = forward(p, 2)
        bundle, terms = _backward(p, fw, second_order=True)
        g = cost.grad(w)
        q, z, jac_pinv = _level_set_frame(bundle.grad_beta)
        pg = g - q @ (q.T @ g)
        pgmax = float(np.abs(pg).max())
        records.append(TrajectoryRecord(it, p, abs(bundle.beta) ** 2, cur_c, pgmax))
        stalled = pgmax < (cfg.doubling_stall_tolerance if schedule else _STALL_TOLERANCE)
        if stalled and not schedule:
            stop = "tolerance"
            break
        if it == cfg.max_iterations:
            break
        if radius is None:
            curvature = 2.0 * cost.value(pg)
            cauchy = float(pg @ pg) ** 1.5 / curvature if curvature > 0.0 else 0.0
            radius = max(carried, cauchy)
        step = None if stalled else _navigation_step(
            p, w, cost, bundle, fw, terms, g, z, jac_pinv, cur_c, radius)
        if isinstance(step, tuple):
            p, w, cur_c, radius = step
        elif schedule:
            k = schedule.pop(0)
            p = refine(p, k)
            w = np.asarray(p.omegas, dtype=float)
            cur_c = cost.value(w)
            radius, carried = None, radius * math.sqrt(k)
        else:
            stop = step
            break
    status = "budget_exhausted" if stop == "budget" else "completed"
    return DescentTrajectory(tuple(records), status, stop)


def _navigation_step(p, w, cost, bundle, fw, terms, g, z, jac_pinv, cur_c, radius):
    """Trust-region tangent step; (protocol, its pulses, its cost, next
    radius), or the reason of a stall: "rounding" or "resolution" (below).

    ``w`` holds the pulses of ``p`` as an array, ``cur_c`` their cost and
    ``g`` its gradient. ``fw`` and ``terms`` are the order-2 forward pass of
    ``p`` and the terms of :func:`_backward`, from which the step builds
    the generators of Hess beta once, raising NonFiniteEntry when they are
    not finite. Norms are sqrt(x . x), the bits of ``np.linalg.norm`` on a
    real vector.

    The point holds on beta = 0, as ``navigate`` starts from the held input
    and accepts only held trials, so the step for min C subject to
    r = (Re beta, Im beta) = 0 (Nocedal and Wright, ch. 18) is d = Z u, u
    minimising the model g^T d + d^T H d / 2 within ``radius``. Z and the
    pseudo-inverse J^+ of the Jacobian J = [Re grad beta; Im grad beta]
    come from the one SVD of :func:`_level_set_frame`, under its rank rule.
    H is the Hessian of the Lagrangian, Hess C + nu_0 Re Hess beta
    + nu_1 Im Hess beta, with the least-squares multipliers nu = -(J^+)^T g
    of this iterate: Re((nu_0 - i nu_1) Hess beta), one real assembly from
    the generators of Hess beta, with Hess C added in place from
    the cost's pulse pairs. The second-order correction of a trial takes
    d^T Hess beta d from the O(M) product of the same generators, so Hess
    beta itself is never built.

    The tangent model has the reduced gradient Z^T g and Hessian Z^T H Z,
    formed once per step, and one Cholesky factorisation tests whether the
    latter is positive definite. If it is, its Newton step, one linear
    solve per step, is the trust-region step, with shift 0, of every trial
    whose radius holds it (More and Sorensen 1983). An indefinite model,
    or a Newton step outside the radius, eigendecomposes Z^T H Z once per
    step; that decomposition serves this trial and every later one of the
    step through :func:`_trust_region_step`, which needs no linear solve.

    Each trial is projected onto beta = 0 and accepted once its projection
    ends below the corrector target or at the rounding floor of I, below
    the threshold, with a lower cost; the ratio of actual to predicted
    decrease then sets the next radius. Any other trial, one whose
    projection ends off beta = 0 included, is rejected and shrinks the
    radius to a quarter of its tangent step. The cost change of a trial is
    g^T s + C(s) for its displacement s, exact for a homogeneous quadratic
    and free of the rounding of C(w). The step stalls once the radius is
    at the resolution eps max(1, max|w|) of w, which no step can move
    (Nocedal and Wright, ch. 4), or once a trial's predicted decrease is at
    most eps sum|g||d| + |nu_0 Re beta + nu_1 Im beta|: the rounding of
    g^T d plus the first-order gap in C between the point and the level
    set under it, which a smaller decrease cannot outrun.
    """
    gens = _generators(fw, terms)
    nu0, nu1 = (-(g @ jac_pinv)).tolist()
    hess = cost.add_hessian(_assemble(gens, complex(nu0, -nu1)))
    reduced, grad = z.T @ hess @ z, z.T @ g
    try:
        np.linalg.cholesky(reduced)
        newton = -np.linalg.solve(reduced, grad)
    except np.linalg.LinAlgError:
        newton = None
    eig = None  # the eigendecomposition of ``reduced``, once a trial needs it
    # the first-order gap in C between w and the level set under it
    gap = abs(nu0 * bundle.beta.real + nu1 * bundle.beta.imag)
    # a radius at the rounding of w cannot move w
    floor = _EPS * max(1.0, float(np.abs(w).max()))
    reach = None if newton is None else math.sqrt(newton @ newton)
    while radius > floor:
        u = newton if newton is not None and reach <= radius else None
        if u is None:
            if eig is None:
                eig = np.linalg.eigh(reduced)
            u = _trust_region_step(*eig, grad, radius)
        d = z @ u
        predicted = -(g @ d + 0.5 * (d @ hess @ d))
        if not predicted > _EPS * float(np.abs(g) @ np.abs(d)) + gap:
            return "rounding"
        # second-order correction: cancel the curvature term of r(w + d)
        curv = 0.5 * (d @ _hess_beta_times(gens, d))
        trial = w + d - jac_pinv @ [curv.real, curv.imag]
        p_c, ival, _, status = _project(p.with_omegas(trial), _NAV_TARGET,
                                        _CORRECTOR_BUDGET)
        w_c = np.asarray(p_c.omegas, dtype=float)
        s = w_c - w
        decrease = -(g @ s + cost.value(s))
        length = math.sqrt(d @ d)
        if status in _ON_LEVEL_SET and ival < INFIDELITY_THRESHOLD and decrease > 0.0:
            c_c = cost.value(w_c)
            if c_c <= cur_c:
                ratio = decrease / predicted
                if ratio < 0.25:
                    radius = 0.25 * length
                elif ratio > 0.75 and length > 0.99 * radius:
                    radius *= 2.0
                return p_c, w_c, c_c, radius
        radius = 0.25 * length
    return "resolution"


def _trust_region_step(evals, evecs, grad, radius):
    """Minimiser of grad^T u + u^T h u / 2 with |u| <= radius.

    h = V diag(evals) V^T as ``np.linalg.eigh`` returns it, so
    u(lam) = -(h + lam I)^-1 grad = -V (V^T grad) / (evals + lam). The shift
    is its floor (0 for a positive definite h, else just past -evals[0])
    when that step is inside the radius; otherwise Newton's method on
    1/|u(lam)| = 1/radius, the More-Sorensen iteration of Nocedal and
    Wright (Algorithm 4.3), finds it to within 10 % of the radius; a step
    still longer by rounding is scaled back onto the radius. For an
    indefinite h a floor step inside the radius is the hard case (Nocedal
    and Wright, section 4.3): it is extended along the lowest eigenvector v
    onto the radius, u + tau v, with tau of the sign of u^T v so that the
    model does not rise. Navigation calls this only in a step whose model
    is indefinite or whose Newton step has left the radius, never an empty
    one, and only with a radius above eps, where neither the squares of
    the step's entries underflow nor the shift overflows.
    """
    floor = 0.0
    indefinite = evals[0] <= 0.0
    if indefinite:  # shift past the lowest eigenvalue
        floor = float(-evals[0] + 1e-12 * (np.abs(evals).max() - evals[0]))
    gt = evecs.T @ grad
    lam = floor
    for _ in range(20):
        shifted = evals + lam
        coef = gt / shifted
        norm = math.sqrt(coef @ coef)
        if norm <= radius and (lam == floor or norm >= 0.9 * radius):
            break
        uq = float(coef @ (coef / shifted))
        lam = max(lam + (norm * norm / uq) * (norm - radius) / radius, floor)
    u = -(evecs @ coef)
    if indefinite and lam == floor and norm < radius:
        # the root of |u + tau v| = radius with the sign of u^T v = -coef[0];
        # along v the model changes by -lam tau u^T v + evals[0] tau^2 / 2 <= 0
        uv, gap = -float(coef[0]), (radius - norm) * (radius + norm)
        u = u + math.copysign(gap / (abs(uv) + math.sqrt(uv * uv + gap)), uv) * evecs[:, 0]
        norm = math.sqrt(u @ u)
    return u if norm <= radius else u * (radius / norm)


def _null_direction(grad_beta: np.ndarray):
    """Unit tangent of a 3-pulse level set, orthogonal to Re and Im grad_beta.

    A 3-tuple of floats, or None where Re and Im grad_beta are parallel (the
    Jacobian has rank < 2) and the level set has no tangent.
    """
    # the cross product written out: np.cross costs ten times more on 3-vectors
    (a0, a1, a2), (b0, b1, b2) = grad_beta.real.tolist(), grad_beta.imag.tolist()
    t0, t1, t2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    norm = math.hypot(t0, t1, t2)
    if not 0.0 < norm < math.inf:
        return None
    return t0 / norm, t1 / norm, t2 / norm


def _dot(a, b) -> float:
    """Dot product of two 3-tuples."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def trace_levelset(solution: Protocol, cfg: TraceConfig) -> LevelsetCurve:
    """Predictor-corrector continuation of an M = 3 solution curve.

    Each step leaves the last vertex v_k for the secant predictor point
    v_k + h (1.5 t_k - 0.5 t_{k-1}), h = ``step_size``: the Euler step along
    the tangent t_k plus the curvature term (t_k - t_{k-1}) / h of the last
    two tangents, which cuts the predictor's error from O(h^2) to O(h^3).
    The first step, with one tangent known, is Euler. Every tangent is the
    null direction of the Jacobian, its sign kept continuous with the
    previous one. The predictor point is projected back onto beta = 0 by
    the Levenberg-Marquardt projection (the Moore-Penrose corrector of
    Allgower and Georg, ch. 6). A predictor point lies near beta = 0, and
    its projection, a correction onto ``_TRACE_TARGET``, starts near
    Gauss-Newton (mu = 1e-3), as navigation's trials do. At step 0.05 it
    reaches the target in one step or none; at step 0.3 most projections
    need a second step, which is a chord step on the first step's
    Jacobian, so a vertex costs about 1.09 sweeps there, not 1.85. Every
    tangent, the first included, comes from the Jacobian of
    the last iterate its projection evaluated, within two Gauss-Newton
    steps of the vertex; the next projection absorbs its error. The tracer
    runs each predictor point's forward pass and hands it to the
    projection. A projection that evaluated no gradient, its start already
    below the target, returns that point, and its tangent is the backward
    pass of the same forward pass; so a vertex costs about one adjoint
    sweep either way, and no point is propagated twice. The vertex
    geometry runs on 3-tuples of floats; the vertices become an array
    once, on return.

    Ends on loop closure - returning, after ``_MIN_STEPS_BEFORE_CLOSURE``
    steps, within ``_CLOSURE_FACTOR * step_size`` of the start, moving the
    same way - or on leaving the box (reported as an open curve). A
    predictor point's projection that fails, or a vertex whose Jacobian has
    rank < 2, so that no tangent exists, ends the curve
    ``corrector_failed`` at the last vertex on beta = 0.

    The input is admitted by :func:`_admit`, as navigation's is: its one
    forward pass gives I and starts its projection onto ``_TRACE_TARGET``.
    An input the corrector cannot hold on beta = 0 raises NotASolution and
    gets no curve; the first vertex is the projected start.
    """
    if solution.m != 3:
        raise ValueError("level-set tracing is defined for M = 3 protocols")
    fw, p, ival, bundle = _admit(solution, "trace_levelset", _TRACE_TARGET)
    v0 = v = p.omegas
    verts, ivals = [v], [ival]
    # no bundle: the start was below the target, and p is the start
    tangent = _null_direction((gradient(p, fw) if bundle is None else bundle).grad_beta)
    if tangent is None:
        return LevelsetCurve(np.asarray(verts), np.asarray(ivals), "corrector_failed")
    # the first step, with one tangent known, is Euler
    t0 = tangent = direction = tuple(cfg.initial_sign * x for x in tangent)
    h, (lo, hi) = cfg.step_size, cfg.box
    status = "open"
    for step in range(1, cfg.max_steps + 1):
        pred = p.with_omegas((v[0] + h * direction[0], v[1] + h * direction[1],
                              v[2] + h * direction[2]))
        fw = forward(pred)
        p, ival, bundle, corrector = _project(pred, _TRACE_TARGET, _CORRECTOR_BUDGET, fw=fw)
        if corrector not in _ON_LEVEL_SET:
            status = "corrector_failed"
            break
        v = p.omegas
        # written out, as the rest of the vertex geometry: min() and max()
        # of a 3-tuple cost more than these six comparisons
        if not (lo <= v[0] <= hi and lo <= v[1] <= hi and lo <= v[2] <= hi):
            break
        verts.append(v)
        ivals.append(ival)
        # no bundle: the predictor point was below the target, and fw is its pass
        t = _null_direction((gradient(p, fw) if bundle is None else bundle).grad_beta)
        if t is None:
            status = "corrector_failed"
            break
        if _dot(t, tangent) < 0.0:
            t = (-t[0], -t[1], -t[2])
        direction = (1.5 * t[0] - 0.5 * tangent[0], 1.5 * t[1] - 0.5 * tangent[1],
                     1.5 * t[2] - 0.5 * tangent[2])
        tangent = t
        if (step >= _MIN_STEPS_BEFORE_CLOSURE
                and math.dist(v, v0) < _CLOSURE_FACTOR * h and _dot(tangent, t0) > 0.0):
            status = "closed"
            break
    return LevelsetCurve(np.asarray(verts), np.asarray(ivals), status)


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


def scan_levelset(task: tuple[float, float, float], descent: DescentConfig,
                  trace: TraceConfig, n_seeds: int) -> ScanResult:
    """Cloud of M = 3 solutions labeled by connected component.

    Runs one independent solve per seed (seed index offsets
    ``descent.seed``), then traces a curve from the first unlabeled point,
    which takes the curve's label, and attaches every later unlabeled point
    within ``_ASSIGN_DISTANCE`` of it, repeating until every point is
    labeled. So each curve labels at least its own start, and a scan traces
    at most one curve per point. Output ordering follows seed order,
    independent of scheduling. Every point and every traced vertex is a
    solution by the same ``INFIDELITY_THRESHOLD``.
    """
    if not (_is_int(n_seeds) and n_seeds >= 0):
        raise ValueError(f"the number of seeds must be an integer >= 0, got {n_seeds!r}")
    results: list[SolveResult] = []
    for i in range(n_seeds):
        sub = dataclasses.replace(descent, seed=descent.seed + i)
        with contextlib.suppress(RestartBudgetExhausted):
            results.append(solve(sub, 3, task))
    points = np.array([r.protocol.omegas for r in results]) if results else np.zeros((0, 3))
    infs = np.array([r.report.infidelity for r in results])
    labels = np.full(len(results), -1, dtype=int)  # -1: not yet labeled
    curves: list[LevelsetCurve] = []
    for idx, res in enumerate(results):
        if labels[idx] >= 0:
            continue
        curve = trace_levelset(res.protocol, trace)
        label = labels[idx] = len(curves)
        curves.append(curve)
        for j in range(idx + 1, len(results)):
            if labels[j] < 0 and _polyline_distance(points[j], curve) <= _ASSIGN_DISTANCE:
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
    doubling schedule. Each record's own pulses are rendered once: a row
    refined by k repeats each rendered pulse k times, the text of
    ``refine(p, k)``.
    """
    m_final = traj.records[-1].protocol.m
    lines = ["iter,I,cost,pgrad_norm," + ",".join(f"omega_{i+1}" for i in range(m_final))]
    for rec in traj.records:
        omegas = rec.protocol.omegas
        cells = list(map(repr, omegas))
        if len(omegas) != m_final:
            k = m_final // len(omegas)
            cells = [c for c in cells for _ in range(k)]
        lines.append(",".join([str(rec.iteration), _fmt(rec.infidelity),
                               _fmt(rec.cost), _fmt(rec.pgrad_norm), *cells]))
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
