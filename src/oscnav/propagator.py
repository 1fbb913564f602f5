"""Exact mode evolution for piecewise-constant frequency steps.

The driven oscillator is fully captured by the complex mode function f(t)
solving f'' + omega(t)^2 f = 0 with f(0) = 1/sqrt(2*omega0) and
f'(0) = -i*sqrt(omega0/2) (units with m = hbar = 1). For a constant-frequency
step the solution is closed-form, so a whole protocol is evolved exactly by
concatenating per-step 2x2 matrices acting on (f, f').

One step kernel, ``_step_entries``, gives the entries of a step's matrix A
and, on request, of its first two derivatives in omega, A' and A'', from one
cos and one sin; below one threshold of |omega*dt| the ratios that would
cancel come from Taylor series instead. Propagation and the derivative
sweeps of ``sensitivities`` call it once per pulse.

The final-basis mixing coefficients follow from the boundary values alone:

    beta  = -i/sqrt(2*omegaT) * (f'(T) + i*omegaT*f(T))
    alpha = +i/sqrt(2*omegaT) * (f'(T) - i*omegaT*f(T))

with |alpha|^2 - |beta|^2 = 1 guaranteed by the Wronskian condition
f*conj(f') - f'*conj(f) = i. The primary objective everywhere in this
package is the infidelity |beta|^2 (zero iff the evolution is frictionless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeOccupation, NonPositiveFrequency
from .protocol import Protocol

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


def _step_entries(omega: float, dt: float, order: int = 0):
    """Entries of the step matrix A(omega) and of its omega-derivatives.

    Returns (a00, a01, a10), then (d00, d01, d10) of A' when ``order`` >= 1
    and (h00, h01, h10) of A'' when ``order`` is 2, as one flat tuple; each
    matrix has equal diagonal entries. With x = omega*dt and
    sinc x = sin(x)/x,

        A   = [[cos x, dt sinc x], [-omega sin x, cos x]]
        A'  = [[-dt sin x, x q], [-sin x - x cos x, -dt sin x]]
        A'' = [[-dt^2 cos x, -dt (dt^2 sinc x + 2 q)],
               [dt (x sin x - 2 cos x), -dt^2 cos x]]

    where q = (cos x - sinc x)/omega^2 = dt^2 sinc'(x)/x. All of them come
    from one cos and one sin, or from the series of sinc x and q below
    SERIES_THRESHOLD.

    Every entry of A and A'' is manifestly even in omega and every entry of
    A' odd (cos and sinc are even; omega enters otherwise only as omega^2
    or through x), which makes the flip-sign invariance of the dynamics
    exact in floating point.
    """
    x = omega * dt
    c = math.cos(x)
    if abs(x) < SERIES_THRESHOLD:
        x2 = x * x
        snc = 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
        q = dt * dt * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0 + x2 * x2 * x2 / 45360.0)
    else:
        snc = math.sin(x) / x
        if order:
            q = (c - snc) / (omega * omega)
    entries = (c, dt * snc, -(omega * omega) * dt * snc)
    if order:
        s = x * snc
        entries += (-dt * s, x * q, -s - x * c)
        if order == 2:
            # sinc'' = -sinc - 2 sinc'/x, the spherical Bessel equation of j0
            entries += (-dt * dt * c, -dt * (dt * dt * snc + 2.0 * q),
                        dt * (x * s - 2.0 * c))
    return entries


def step_matrix(omega: float, dt: float) -> np.ndarray:
    """Exact one-step transfer matrix acting on the column (f, f').

    A(omega) = [[cos(omega*dt), sin(omega*dt)/omega],
                [-omega*sin(omega*dt), cos(omega*dt)]], det = 1,
    with the omega -> 0 free-particle limit [[1, dt], [0, 1]] exact.
    """
    a00, a01, a10 = _step_entries(omega, dt)
    return np.array([[a00, a01], [a10, a00]])


def initial_state(omega0: float) -> ModeState:
    """Ground-trap initial conditions f = 1/sqrt(2*w0), f' = -i*sqrt(w0/2)."""
    if not (omega0 > 0 and math.isfinite(omega0)):
        raise NonPositiveFrequency(f"omega0 must be > 0, got {omega0!r}")
    return ModeState(complex(1.0 / math.sqrt(2.0 * omega0), 0.0),
                     complex(0.0, -math.sqrt(omega0 / 2.0)))


def propagate(p: Protocol) -> ModeState:
    """Evolve the mode pair through all steps of ``p`` exactly.

    M = 0 returns the initial state (sudden quench).
    """
    s = initial_state(p.omega0)
    f, fd = s.f, s.fdot
    for w in p.omegas:
        a00, a01, a10 = _step_entries(w, p.dt)
        f, fd = a00 * f + a01 * fd, a10 * f + a00 * fd
    return ModeState(f, fd)


def bogoliubov(s: ModeState, omegaT: float) -> BogoliubovPair:
    """Mixing coefficients of the final-trap basis for a propagated state."""
    if not (omegaT > 0 and math.isfinite(omegaT)):
        raise NonPositiveFrequency(f"omegaT must be > 0, got {omegaT!r}")
    pref = 1j / math.sqrt(2.0 * omegaT)
    return BogoliubovPair(alpha=pref * (s.fdot - 1j * omegaT * s.f),
                          beta=-pref * (s.fdot + 1j * omegaT * s.f))


def infidelity(p: Protocol) -> float:
    """Primary objective |beta|^2 >= 0."""
    b = bogoliubov(propagate(p), p.omegaT).beta
    return abs(b) ** 2


def particle_number(n0: float, beta: complex) -> float:
    """Mean final occupation N(T) = N(0)*(1 + 2|beta|^2) + |beta|^2."""
    if not n0 >= 0:
        raise NegativeOccupation(f"initial occupation must be >= 0, got {n0!r}")
    b2 = abs(beta) ** 2
    return n0 * (1.0 + 2.0 * b2) + b2


def wronskian_defect(s: ModeState) -> float:
    """|f*conj(f') - f'*conj(f) - i|; zero for any physical state."""
    return abs(s.f * s.fdot.conjugate() - s.fdot * s.f.conjugate() - 1j)
