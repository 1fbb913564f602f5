"""Exact mode evolution for piecewise-constant frequency steps.

The driven oscillator is fully captured by the complex mode function f(t)
solving f'' + omega(t)^2 f = 0 with f(0) = 1/sqrt(2*omega0) and
f'(0) = -i*sqrt(omega0/2) (units with m = hbar = 1). For a constant-frequency
step the solution is closed-form, so a whole protocol is evolved exactly by
concatenating per-step 2x2 matrices acting on (f, f').

One step kernel, ``_step_entries``, gives the entries of a step's matrix A
and the x, sinc x and q its derivatives in omega are formed from, from one
cos and one sin; below one threshold of |omega*dt| the ratios that would
cancel come from Taylor series instead. The forward pass, :func:`forward`,
is the package's only loop over the pulses; ``propagate``, ``infidelity``
and the backward pass of ``sensitivities`` read what it records.

The final-basis mixing coefficients are linear in the boundary values:

    beta  = -i/sqrt(2*omegaT) * (f'(T) + i*omegaT*f(T)) = c . (f, f')
    alpha = +i/sqrt(2*omegaT) * (f'(T) - i*omegaT*f(T)) = conj(c) . (f, f')

with |alpha|^2 - |beta|^2 = 1 guaranteed by the Wronskian condition
f*conj(f') - f'*conj(f) = i. The primary objective everywhere in this
package is the infidelity |beta|^2 (zero iff the evolution is frictionless).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NegativeOccupation, NonFiniteEntry
from .protocol import Protocol, _check_positive

# Below this |omega*dt| the two ratios that cancel, sin(x)/x and
# (x cos x - sin x)/x^3, come from their Taylor series in x^2 through x^6;
# the first omitted term is below 3e-22 relative to the leading one.
SERIES_THRESHOLD = 1e-2


@dataclass(frozen=True)
class ModeState:
    """The pair (f, f') at a fixed time."""

    f: complex
    fdot: complex


@dataclass(frozen=True)
class BogoliubovPair:
    alpha: complex
    beta: complex


def _step_entries(omega: float, dt: float):
    """Entries of the step matrix A(omega), and what its omega-derivatives need.

    Returns (a00, a01, a10) of A, x, sinc x and q as one flat tuple; A has
    equal diagonal entries. With x = omega*dt, sinc x = sin(x)/x and
    q = (cos x - sinc x)/omega^2 = dt^2 sinc'(x)/x,

        A   = [[cos x, dt sinc x], [-omega sin x, cos x]]
        A'  = [[-dt sin x, x q], [-sin x - x cos x, -dt sin x]]
        A'' = [[-dt^2 cos x, -dt (dt^2 sinc x + 2 q)],
               [dt (x sin x - 2 cos x), -dt^2 cos x]]

    with sin x = x sinc x. The backward pass of ``sensitivities`` forms A'
    and A'' from cos x, x, sinc x and q by these expressions, and only
    where it reads them. All of them come from one cos and one sin, or
    from the series of sinc x and q below SERIES_THRESHOLD. Where omega^2
    underflows to 0 above it, dt^2 and so q overflow: q is then +-inf, for
    the backward pass to refuse, and a finite omega*dt raises nothing.

    Every entry of A and A'' is manifestly even in omega and every entry of
    A' odd (cos, sinc and q are even and x odd; omega enters otherwise only
    as omega^2), which makes the flip-sign invariance of the dynamics exact
    in floating point.
    """
    x = omega * dt
    c = math.cos(x)
    w2 = omega * omega
    if abs(x) < SERIES_THRESHOLD:
        x2 = x * x
        snc = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
        q = dt * dt * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0 + x2 * x2 * x2 / 45360.0)
    else:
        snc = math.sin(x) / x
        q = (c - snc) / w2 if w2 else (c - snc) * math.inf
    return c, dt * snc, -w2 * dt * snc, x, snc, q


@functools.lru_cache(maxsize=64)
def _ground(omega0: float) -> tuple[complex, complex]:
    """The unchecked pair (f, f') = (1/sqrt(2*w0), -i*sqrt(w0/2)), w0 > 0.

    Memoised, since every forward pass asks for it and a run uses a handful
    of boundary frequencies. Callers pass a frequency already checked
    positive and finite: a Protocol's, or one :func:`initial_state` has
    checked. An int and a float of equal value share an entry; both give
    the same pair.
    """
    return complex(1.0 / math.sqrt(2.0 * omega0), 0.0), complex(0.0, -math.sqrt(omega0 / 2.0))


def initial_state(omega0: float) -> ModeState:
    """Ground-trap initial conditions f = 1/sqrt(2*w0), f' = -i*sqrt(w0/2)."""
    _check_positive("omega0", omega0)
    return ModeState(*_ground(omega0))


@functools.lru_cache(maxsize=64)
def _beta_row(omegaT: float) -> tuple[complex, complex]:
    """The row c = (omegaT, -i)/sqrt(2*omegaT) of beta; alpha's is conj(c).

    Memoised like :func:`_ground`, since every forward and backward pass
    asks for it, on an omegaT already checked positive and finite: a
    Protocol's, or one :func:`bogoliubov` has checked.
    """
    r = 1.0 / math.sqrt(2.0 * omegaT)
    return complex(omegaT * r), complex(0.0, -r)


class Forward(NamedTuple):
    """One forward pass: kernel entries, entering states, final state, beta.

    ``steps`` holds each pulse's ``_step_entries`` and ``fs``/``fds`` the
    state (f, f') entering each step; I = |beta|^2.
    """

    steps: list
    fs: list
    fds: list
    f: complex
    fd: complex
    beta: complex


def forward(p: Protocol) -> Forward:
    """The forward pass, with one ``_step_entries(w, dt)`` per pulse.

    Each record holds A, and the x, sinc x and q that serve both the
    gradient and the Hessian of ``sensitivities``.

    M = 0 leaves the initial state (sudden quench). A Protocol's omega0 is
    valid by construction, so the initial state is taken unchecked. Only
    this pass refuses an overflowing pulse, by name: the first whose
    omega*dt overflows (``math.cos`` refuses it), or else, once beta has
    overflowed, the first whose omega^2 does. Any other overflowing beta
    or I = |beta|^2 raises NonFiniteEntry unnamed.
    """
    dt = p.dt
    f, fd = _ground(p.omega0)
    steps, fs, fds = [], [], []
    # one try around the loop: a pulse costs no exception handling
    try:
        for w in p.omegas:
            e = _step_entries(w, dt)
            steps.append(e)
            fs.append(f)
            fds.append(fd)
            f, fd = e[0] * f + e[1] * fd, e[2] * f + e[0] * fd
    except ValueError:
        i = len(steps)
        raise NonFiniteEntry(f"omegas[{i}] * dt overflows: {p.omegas[i]!r} * {dt!r}") from None
    cf, cd = _beta_row(p.omegaT)
    beta = cf * f + cd * fd
    # |beta| <= |Re| + |Im| < 1e154 keeps |beta|^2 below the float maximum
    if not abs(beta.real) + abs(beta.imag) < 1e154:
        for i, w in enumerate(p.omegas):
            if not math.isfinite(w * w):
                raise NonFiniteEntry(f"omegas[{i}] ** 2 overflows: {w!r} ** 2")
        raise NonFiniteEntry(f"propagation of {p.m} pulses overflows: |beta|^2 is not finite")
    # built by tuple.__new__: the NamedTuple's own __new__ is a Python-level
    # call around it, paid once per forward pass
    return tuple.__new__(Forward, (steps, fs, fds, f, fd, beta))


def propagate(p: Protocol) -> ModeState:
    """The final mode pair (f, f') of ``p``, from its forward pass."""
    fw = forward(p)
    return ModeState(fw.f, fw.fd)


def bogoliubov(s: ModeState, omegaT: float) -> BogoliubovPair:
    """Mixing coefficients of the final-trap basis for a propagated state."""
    _check_positive("omegaT", omegaT)
    cf, cd = _beta_row(omegaT)
    return BogoliubovPair(alpha=cf * s.f + cd.conjugate() * s.fdot,
                          beta=cf * s.f + cd * s.fdot)


def infidelity(p: Protocol) -> float:
    """Primary objective |beta|^2 >= 0, from the forward pass."""
    return abs(forward(p).beta) ** 2


def particle_number(n0: float, beta: complex) -> float:
    """Mean final occupation N(T) = N(0)*(1 + 2|beta|^2) + |beta|^2."""
    if not n0 >= 0:
        raise NegativeOccupation(f"initial occupation must be >= 0, got {n0!r}")
    b2 = abs(beta) ** 2
    return n0 * (1.0 + 2.0 * b2) + b2


def wronskian_defect(s: ModeState) -> float:
    """|f*conj(f') - f'*conj(f) - i|; zero for any physical state."""
    return abs(s.f * s.fdot.conjugate() - s.fdot * s.f.conjugate() - 1j)
