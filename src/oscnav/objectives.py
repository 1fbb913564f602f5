"""Secondary cost functionals and the phase-resolved symplectic objective.

Two secondary costs act on the pulse sequence alone. Each is a sum of
squared differences (w_b - w_a)^2 over a list of pulse pairs (a, b), so
its value, gradient and constant Hessian all come from that list:

* smoothness C1: the consecutive pairs (p, p + 1);
* compression C2: for a split into L equal chunks, every pair inside each
  chunk (zero iff every chunk is constant).

Independently, the evolution can be scored against a one-parameter family of
symplectic targets W(theta) = cos(theta) A + sin(theta) B through the
squared Frobenius distance J(theta) of the final quadrature transfer matrix
S(T) to W(theta). J is a trigonometric polynomial of degree 2, so
``theta_scan`` evaluates its grid in one array expression and takes the
exact minimum from the roots of a quartic. This surface is exposed for
diagnostics; the primary objective elsewhere stays the phase-free |beta|^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (IndivisibleChunking, NonFiniteEntry, NonPositiveFrequency,
                     NonSymplectic)
from .propagator import ModeState, bogoliubov, propagate
from .protocol import Protocol

_DET_TOL = 1e-8


@functools.lru_cache(maxsize=16)
def _pairs(m: int, chunks: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (a, b), a < b, of the pulse pairs of a cost.

    ``chunks`` None gives the M - 1 consecutive pairs (p, p + 1) of
    smoothness; otherwise every pair inside each of ``chunks`` equal
    chunks, chunk by chunk. Cached per (m, chunks): the arrays are rebuilt
    only when the pulse count changes.
    """
    if chunks is None:
        a = np.arange(max(m - 1, 0))
        b = a + 1
    else:
        if chunks < 1 or m % chunks != 0:
            raise IndivisibleChunking(f"M={m} is not divisible by L={chunks}")
        k = m // chunks
        start = np.arange(0, m, k)[:, None]
        i, j = np.triu_indices(k, 1)
        a, b = (start + i).ravel(), (start + j).ravel()
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


@dataclass(frozen=True)
class SecondaryCost:
    """A secondary cost: C(w) = sum over its pulse pairs (a, b) of (w_b - w_a)^2.

    kind is "smoothness" (consecutive pairs) or "compression" (every pair
    inside each of ``chunks`` equal chunks); ``chunks`` is required (and
    only meaningful) for compression. An M that the chunks do not divide
    raises IndivisibleChunking.
    """

    kind: str
    chunks: int | None = None

    def __post_init__(self):
        if self.kind not in ("smoothness", "compression"):
            raise ValueError(f"unknown secondary cost kind {self.kind!r}")
        if self.kind == "compression" and (self.chunks is None or self.chunks < 1):
            raise ValueError("compression cost requires a positive chunk count")

    def _pairs_for(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The pulse pairs (a, b) of this cost on M pulses."""
        return _pairs(m, self.chunks if self.kind == "compression" else None)

    def value(self, omegas) -> float:
        """C(w) as one dot product of the nonzero pair differences.

        Dropping the zeros makes ``refine`` leave the smoothness terms, and
        their order, unchanged, so C1 is bit-exact under it; a
        chunk-constant sequence has no nonzero compression term, so its C2
        is exactly 0.
        """
        w = np.asarray(omegas, dtype=float)
        a, b = self._pairs_for(w.size)
        d = w[b] - w[a]
        d = d[d != 0.0]
        return float(d @ d)

    def grad(self, omegas) -> np.ndarray:
        """Each pair adds 2 (w_b - w_a) at pulse b and its negative at a."""
        w = np.asarray(omegas, dtype=float)
        a, b = self._pairs_for(w.size)
        d = w[b] - w[a]
        return 2.0 * (np.bincount(b, d, w.size) - np.bincount(a, d, w.size))

    def add_hessian(self, out: np.ndarray) -> np.ndarray:
        """Add the constant Hessian of C to the square array ``out`` in place.

        It is twice the Laplacian of the pair graph: 2 times the number of
        pairs of a pulse on the diagonal, and -2 at each pair and its mirror.
        """
        m = len(out)
        a, b = self._pairs_for(m)
        out[a, b] -= 2.0
        out[b, a] -= 2.0
        diag = np.arange(m)
        out[diag, diag] += 2.0 * (np.bincount(a, minlength=m) + np.bincount(b, minlength=m))
        return out


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
