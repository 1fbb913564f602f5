"""Secondary cost functionals and the phase-resolved symplectic objective.

Two secondary costs act on the pulse sequence alone:

* smoothness: sum of squared jumps between consecutive pulses;
* compression: for a split into L equal chunks, sum of squared pairwise
  differences inside each chunk (zero iff every chunk is constant).

Independently, the evolution can be scored against a one-parameter family of
symplectic targets W(theta) = cos(theta) A + sin(theta) B through the
squared Frobenius distance J(theta) of the final quadrature transfer matrix
S(T) to W(theta). J is a trigonometric polynomial of degree 2, so
``theta_scan`` evaluates its grid in one array expression and takes the
exact minimum from the roots of a quartic. This surface is exposed for
diagnostics; the primary objective elsewhere stays the phase-free |beta|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (IndivisibleChunking, NonFiniteEntry, NonPositiveFrequency,
                     NonSymplectic)
from .propagator import ModeState, bogoliubov, propagate
from .protocol import Protocol

_DET_TOL = 1e-8


def c1(omegas) -> float:
    """Smoothness cost: sum of squared consecutive jumps (0 for M < 2).

    Zero jumps are dropped before the sum, so ``c1(refine(p, k).omegas)``
    sums the same terms in the same order and equals ``c1(p.omegas)``
    bit for bit.
    """
    w = np.asarray(omegas, dtype=float)
    if w.size < 2:
        return 0.0
    d = np.diff(w)
    d = d[d != 0.0]
    return float(d @ d)


def c1_grad(omegas) -> np.ndarray:
    w = np.asarray(omegas, dtype=float)
    g = np.zeros_like(w)
    if w.size < 2:
        return g
    d = np.diff(w)
    g[1:] += 2.0 * d
    g[:-1] -= 2.0 * d
    return g


def _chunked(omegas, chunks: int) -> np.ndarray:
    w = np.asarray(omegas, dtype=float)
    if chunks < 1 or w.size % chunks != 0:
        raise IndivisibleChunking(f"M={w.size} is not divisible by L={chunks}")
    return w.reshape(chunks, w.size // chunks)


def c2(omegas, chunks: int) -> float:
    """Compression cost: squared pairwise spread inside each of L chunks.

    Computed from explicit pairwise differences (a sum of squares), so the
    result is non-negative and exactly zero on chunk-constant sequences;
    the algebraically equal form K*sum(w^2) - (sum w)^2 cancels badly there.
    """
    blocks = _chunked(omegas, chunks)
    diffs = blocks[:, :, None] - blocks[:, None, :]
    return 0.5 * float(np.sum(diffs * diffs))


def c2_grad(omegas, chunks: int) -> np.ndarray:
    """Per pulse: 2*(K*w_p - chunk sum), via pairwise differences."""
    blocks = _chunked(omegas, chunks)
    diffs = blocks[:, :, None] - blocks[:, None, :]
    return 2.0 * np.sum(diffs, axis=2).reshape(-1)


@dataclass(frozen=True)
class SecondaryCost:
    """Selects which auxiliary objective a navigation run descends.

    kind is "smoothness" or "compression"; ``chunks`` is required (and only
    meaningful) for compression.
    """

    kind: str
    chunks: int | None = None

    def __post_init__(self):
        if self.kind not in ("smoothness", "compression"):
            raise ValueError(f"unknown secondary cost kind {self.kind!r}")
        if self.kind == "compression" and (self.chunks is None or self.chunks < 1):
            raise ValueError("compression cost requires a positive chunk count")

    def value(self, omegas) -> float:
        if self.kind == "smoothness":
            return c1(omegas)
        return c2(omegas, self.chunks)

    def grad(self, omegas) -> np.ndarray:
        if self.kind == "smoothness":
            return c1_grad(omegas)
        return c2_grad(omegas, self.chunks)


def _cost_hessian(cost: SecondaryCost, m: int) -> np.ndarray:
    """The constant Hessian of a secondary cost on M pulses.

    Both costs are homogeneous quadratics. Smoothness is 2 D^T D for the
    (M - 1) x M difference matrix D: twice the Laplacian of the path graph,
    tridiagonal. Compression is 2 (K I - 1 1^T) on each chunk of K pulses.
    Every entry is a small integer, so the matrix equals, entry for entry,
    the one built from the gradients of the unit vectors.
    """
    if cost.kind == "smoothness":
        degree = np.zeros(m)
        degree[1:] += 1.0
        degree[:-1] += 1.0
        return 2.0 * (np.diag(degree) - np.eye(m, k=1) - np.eye(m, k=-1))
    if m % cost.chunks != 0:
        raise IndivisibleChunking(f"M={m} is not divisible by L={cost.chunks}")
    k = m // cost.chunks
    return np.kron(np.eye(cost.chunks), 2.0 * (k * np.eye(k) - 1.0))


def symplectic_final(s: ModeState, omega0: float) -> np.ndarray:
    """Quadrature transfer matrix S built from the mode pair; det S = 1.

    S = sqrt(omega0/2) * [[f + f*, i(f - f*)/omega0],
                          [f' + f'*, i(f' - f'*)/omega0]],
    built in real arithmetic: f + f* = 2 Re f and i(f - f*) = -2 Im f.
    A finite state whose entries overflow gives an inf or NaN det and is
    rejected.
    """
    if not omega0 > 0:
        raise NonPositiveFrequency(f"omega0 must be > 0, got {omega0!r}")
    f, fd = s.f, s.fdot
    if not np.isfinite([f, fd]).all():
        raise NonFiniteEntry("mode state is not finite")
    pref = math.sqrt(omega0 / 2.0)
    # Python floats: an overflow gives inf or NaN without a numpy warning
    s00, s01 = pref * (f.real + f.real), pref * (-(f.imag + f.imag) / omega0)
    s10, s11 = pref * (fd.real + fd.real), pref * (-(fd.imag + fd.imag) / omega0)
    det = s00 * s11 - s01 * s10
    if not abs(det - 1.0) <= _DET_TOL:  # NaN fails too
        raise NonSymplectic(f"det deviates from 1 by {det - 1.0:g}; invalid mode state")
    return np.array([[s00, s01], [s10, s11]])


def _target_basis(omega0: float, omegaT: float):
    """(A, B) with W(theta) = cos(theta) A + sin(theta) B."""
    if not (omega0 > 0 and omegaT > 0):
        raise NonPositiveFrequency("omega0 and omegaT must be > 0")
    k = math.sqrt(omega0 / omegaT)
    return (k * np.array([[1.0, 0.0], [0.0, omegaT / omega0]]),
            k * np.array([[0.0, -1.0 / omega0], [omegaT, 0.0]]))


def target_matrix(theta: float, omega0: float, omegaT: float) -> np.ndarray:
    """Member W(theta) of the symplectic target family; det W = 1.

    The closed real form sqrt(omega0/omegaT) * [[cos t, -sin t/omega0],
    [omegaT*sin t, (omegaT/omega0)*cos t]] of the complex mode-pair form,
    which the tests cross-check.
    """
    a, b = _target_basis(omega0, omegaT)
    return math.cos(theta) * a + math.sin(theta) * b


def theta_infidelity(p: Protocol, theta: float) -> float:
    """Squared Frobenius distance of S(T) to the target W(theta)."""
    s = symplectic_final(propagate(p), p.omega0)
    diff = s - target_matrix(theta, p.omega0, p.omegaT)
    return float(np.sum(diff * diff))


def theta_scan(p: Protocol, points: int = 1024):
    """The theta landscape on a uniform grid, and its exact global minimum.

    J(theta) = |S - W(theta)|^2 = a + b cos(theta) + c sin(theta) + d cos(2 theta)
    with b = -2<S, A>, c = -2<S, B> and d = (|A|^2 - |B|^2)/2
    = (omega0/(2 omegaT))(1 - omegaT^2)(1 - 1/omega0^2). Its critical points
    are the angles of the roots of 2i z^2 J' = -2d z^4 + (-b + ic) z^3
    + (b + ic) z + 2d, z = e^{i theta}; the lowest of them is the minimum.
    With d = 0 this is a cubic, and its extra root z = 0 only adds theta = 0;
    b = c = d = 0 would need det S < 0. J is evaluated in the difference
    form: the expanded one cancels near a solution, where it leaves an error
    of order eps |S|^2 instead of resolving J ~ 0.

    Returns (thetas, values, theta_min, value_min), theta_min in [0, 2 pi].
    """
    if points < 4:
        raise ValueError("need at least 4 grid points")
    s = symplectic_final(propagate(p), p.omega0)
    basis_a, basis_b = _target_basis(p.omega0, p.omegaT)
    b, c = -2.0 * float(np.sum(s * basis_a)), -2.0 * float(np.sum(s * basis_b))
    if not (math.isfinite(b) and math.isfinite(c)):
        raise NonFiniteEntry("theta landscape is not finite")
    d = (p.omega0 / (2.0 * p.omegaT)) * (1.0 - p.omegaT ** 2) * (1.0 - p.omega0 ** -2)
    roots = np.roots([-2.0 * d, complex(-b, c), 0.0, complex(b, c), 2.0 * d])
    thetas = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    angles = np.concatenate([thetas, np.angle(roots) % (2.0 * math.pi)])
    diff = s - (np.cos(angles)[:, None, None] * basis_a
                + np.sin(angles)[:, None, None] * basis_b)
    values = np.sum(diff * diff, axis=(-2, -1))
    k = points + int(np.argmin(values[points:]))
    return thetas, values[:points], float(angles[k]), float(values[k])
