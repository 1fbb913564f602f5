"""Secondary cost functionals and the phase-resolved symplectic objective.

Two secondary costs act on the pulse sequence alone:

* smoothness: sum of squared jumps between consecutive pulses;
* compression: for a split into L equal chunks, sum of squared pairwise
  differences inside each chunk (zero iff every chunk is constant).

Independently, the evolution can be scored against a one-parameter family of
symplectic targets W(theta) through the squared Frobenius distance of the
final quadrature transfer matrix S(T) to W(theta). This surface is exposed
for diagnostics; the primary objective elsewhere stays the phase-free
|beta|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleChunking, NonPositiveFrequency, NonSymplectic
from .propagator import ModeState, bogoliubov, propagate
from .protocol import Protocol

_IMAG_RESIDUAL_TOL = 1e-12
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


def _real_part_checked(m: np.ndarray, what: str) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(m))))
    residual = float(np.max(np.abs(np.imag(m))))
    if residual > _IMAG_RESIDUAL_TOL * scale:
        raise NonSymplectic(f"{what} has imaginary residual {residual:g}")
    return np.real(m)


def symplectic_final(s: ModeState, omega0: float) -> np.ndarray:
    """Quadrature transfer matrix S built from the mode pair; det S = 1.

    S = sqrt(omega0/2) * [[f + f*, i(f - f*)/omega0],
                          [f' + f'*, i(f' - f'*)/omega0]].
    """
    if not omega0 > 0:
        raise NonPositiveFrequency(f"omega0 must be > 0, got {omega0!r}")
    f, fd = s.f, s.fdot
    pref = math.sqrt(omega0 / 2.0)
    cplx = pref * np.array([[f + f.conjugate(), 1j * (f - f.conjugate()) / omega0],
                            [fd + fd.conjugate(), 1j * (fd - fd.conjugate()) / omega0]])
    out = _real_part_checked(cplx, "final symplectic matrix")
    det = out[0, 0] * out[1, 1] - out[0, 1] * out[1, 0]
    if abs(det - 1.0) > _DET_TOL:
        raise NonSymplectic(f"det deviates from 1 by {det - 1.0:g}; invalid mode state")
    return out


def target_matrix(theta: float, omega0: float, omegaT: float) -> np.ndarray:
    """Member W(theta) of the symplectic target family; det W = 1.

    The closed real form sqrt(omega0/omegaT) * [[cos t, -sin t/omega0],
    [omegaT*sin t, (omegaT/omega0)*cos t]] of the complex mode-pair form,
    which the tests cross-check.
    """
    if not (omega0 > 0 and omegaT > 0):
        raise NonPositiveFrequency("omega0 and omegaT must be > 0")
    c, s = math.cos(theta), math.sin(theta)
    return math.sqrt(omega0 / omegaT) * np.array(
        [[c, -s / omega0], [omegaT * s, (omegaT / omega0) * c]])


def theta_infidelity(p: Protocol, theta: float) -> float:
    """Squared Frobenius distance of S(T) to the target W(theta)."""
    s = symplectic_final(propagate(p), p.omega0)
    diff = s - target_matrix(theta, p.omega0, p.omegaT)
    return float(np.sum(diff * diff))


def theta_scan(p: Protocol, points: int = 1024):
    """Evaluate the theta landscape on a uniform grid plus its refined minimum.

    The landscape is a low-degree trigonometric polynomial, so the grid only
    brackets the minimum; the best grid point is polished by golden-section
    to the true local minimum (a raw grid value sits O(grid spacing^2) above
    it, far coarser than the landscape tolerances used in verification).

    Returns (thetas, values, theta_min, value_min).
    """
    if points < 4:
        raise ValueError("need at least 4 grid points")
    s = symplectic_final(propagate(p), p.omega0)

    def val(theta: float) -> float:
        diff = s - target_matrix(theta, p.omega0, p.omegaT)
        return float(np.sum(diff * diff))

    thetas = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    values = np.array([val(t) for t in thetas])
    k = int(np.argmin(values))
    h = 2.0 * math.pi / points
    lo, hi = thetas[k] - h, thetas[k] + h
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = val(x1), val(x2)
    for _ in range(200):
        if b - a < 1e-13:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = val(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = val(x2)
    theta_min = 0.5 * (a + b)
    return thetas, values, theta_min, val(theta_min)
