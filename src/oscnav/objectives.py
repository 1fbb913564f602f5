"""Secondary cost functionals and the phase-resolved symplectic objective.

Two secondary costs act on the pulse sequence alone. Each is a sum of
squared differences (w_b - w_a)^2 over a set of pulse pairs (a, b), with a
constant Hessian:

* smoothness C1: the consecutive pairs (p, p + 1);
* compression C2: for a split into L equal chunks of K pulses, every pair
  inside each chunk, summed through the chunk as K sum(e^2) with e the
  deviations from the chunk mean (zero iff every chunk is constant).

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


@dataclass(frozen=True)
class SecondaryCost:
    """A secondary cost: C(w) = sum over its pulse pairs (a, b) of (w_b - w_a)^2.

    kind is "smoothness" (consecutive pairs) or "compression" (every pair
    inside each of ``chunks`` equal chunks); ``chunks``, an integer of at
    least 1, is required for compression and refused for smoothness. An M
    that the chunks do not divide raises IndivisibleChunking. Compression
    never lists its pairs: over a chunk of K pulses with deviations e from
    the chunk mean, its pairs sum to K sum(e^2), so its value and gradient
    take O(M) memory.
    """

    kind: str
    chunks: int | None = None

    def __post_init__(self):
        if self.kind not in ("smoothness", "compression"):
            raise ValueError(f"unknown secondary cost kind {self.kind!r}")
        if self.kind == "smoothness" and self.chunks is not None:
            raise ValueError(f"smoothness takes no chunk count, got {self.chunks!r}")
        # a float or bool count would construct and fail only inside value
        if self.kind == "compression" and (isinstance(self.chunks, bool) or not (
                isinstance(self.chunks, int) and self.chunks >= 1)):
            raise ValueError(f"compression requires a chunk count that is an "
                             f"integer >= 1, got {self.chunks!r}")

    def _chunk_size(self, m: int) -> int:
        """Pulses per compression chunk on M pulses."""
        if m % self.chunks != 0:
            raise IndivisibleChunking(f"M={m} is not divisible by L={self.chunks}")
        return m // self.chunks

    def _chunk_deviations(self, w: np.ndarray) -> np.ndarray:
        """(L, K) deviations of each pulse from the first pulse of its chunk.

        A constant chunk gives exact zeros, so its cost and gradient are
        exactly 0, as in ``protocol.collapse``.
        """
        chunked = w.reshape(self.chunks, self._chunk_size(w.size))
        return chunked - chunked[:, :1]

    def value(self, omegas) -> float:
        """C(w) as one dot product.

        Smoothness drops its zero differences, so ``refine`` leaves its
        terms, and their order, unchanged and C1 is bit-exact under it.
        Compression is K sum(e^2) with e the deviations from each chunk's
        mean, which is exactly 0 on a chunk-constant sequence.
        """
        w = np.asarray(omegas, dtype=float)
        if self.kind == "smoothness":
            d = w[1:] - w[:-1]
            d = d[d != 0.0]
            return float(d @ d)
        d = self._chunk_deviations(w)
        k = d.shape[1]
        e = (d - d.sum(axis=1, keepdims=True) / k).ravel()
        return float(k * (e @ e))

    def grad(self, omegas) -> np.ndarray:
        """Smoothness: each pair adds 2 (w_b - w_a) at pulse b and its negative
        at a; compression: 2 (K w_p - sum of w over the chunk of p)."""
        w = np.asarray(omegas, dtype=float)
        if self.kind == "smoothness":
            d = w[1:] - w[:-1]
            g = np.zeros(w.size)
            g[1:] += d
            g[:-1] -= d
            return 2.0 * g
        d = self._chunk_deviations(w)
        return 2.0 * (d.shape[1] * d - d.sum(axis=1, keepdims=True)).ravel()

    def add_hessian(self, out: np.ndarray) -> np.ndarray:
        """Add the constant Hessian of C to the square array ``out`` in place.

        It is twice the Laplacian of the pair graph. Smoothness: 2 times the
        number of neighbours of a pulse on the diagonal and -2 at each
        consecutive pair; compression: 2K on the diagonal and -2 over each
        K x K chunk block.
        """
        m = len(out)
        diag = np.arange(m)
        if self.kind == "smoothness":
            a = diag[:-1]
            out[a, a + 1] -= 2.0
            out[a + 1, a] -= 2.0
            # one for a left and one for a right neighbour
            out[diag, diag] += 2.0 * (np.minimum(diag, 1) + np.minimum(diag[::-1], 1))
            return out
        k = self._chunk_size(m)
        for start in range(0, m, k):
            out[start:start + k, start:start + k] -= 2.0
        out[diag, diag] += 2.0 * k
        return out


def symplectic_final(s: ModeState, omega0: float) -> np.ndarray:
    """Quadrature transfer matrix S built from the mode pair; det S = 1.

    S = sqrt(omega0/2) * [[f + f*, i(f - f*)/omega0],
                          [f' + f'*, i(f' - f'*)/omega0]],
    built in real arithmetic: f + f* = 2 Re f and i(f - f*) = -2 Im f.
    det S = s00 s11 - s01 s10 must be 1 to within ``_DET_TOL`` relative to
    max(1, |s00 s11| + |s01 s10|): the rounding of the difference grows with
    |S|^2, which strongly driven protocols make large. A finite state whose
    entries overflow gives an inf or NaN det and is rejected.
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
    diag, anti = s00 * s11, s01 * s10
    det = diag - anti
    bound = _DET_TOL * max(1.0, abs(diag) + abs(anti))
    # a non-finite entry makes det inf or NaN, which an infinite bound could pass
    if not (math.isfinite(det) and abs(det - 1.0) <= bound):
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
