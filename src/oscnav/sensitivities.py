"""Exact first and second derivatives of beta and of the infidelity.

beta is linear in the final mode pair, beta = c^T s_M, and s_M is a product
of per-step matrices applied to the initial state, s_M = A_M ... A_1 s_0.
The forward pass of ``propagator.forward`` records the kernel entries of
every A_j and A'_j (and A''_j for the Hessian) and the states s_{j-1}
entering each step. This module is the backward pass that reads that record
(GRAPE-style adjoint; Khaneja et al., J. Magn. Reson. 172, 296 (2005)):

* it carries the costate lambda_j = c^T A_M ... A_{j+1}, seeded by the row
  c of ``propagator._beta_row``, so d beta / d omega_j = lambda_j A'_j
  s_{j-1}: O(M) for the gradient;
* only when the Hessian is asked for, the same loop records mu_j =
  lambda_j A'_j, y_j = A'_j s_{j-1} (the change of s_j with omega_j) and
  the diagonal lambda_j A''_j s_{j-1}. Below the diagonal Hess(beta) is
  then semiseparable, d^2 beta / d omega_j d omega_i = u_j . v_i for
  i < j (Vandebril, Van Barel and Mastronardi, Matrix Computations and
  Semiseparable Matrices, 2008). The generators come from a basis solution
  z of the steps with Wronskian W(z, conj z) = i: u_j applies mu_j to z and
  conj z at state j, and v_i holds the coefficients of y_i in the basis
  (z, conj z). The forward states are such a z, so nothing new is
  propagated and the lower triangle is one rank-2 product: O(M^2), with no
  matrix inverse. Where |z| is large the products u_j . v_i cancel, so
  the basis restarts from a unit solution, |z|^2 = 1, once |z|^2 passes
  100; earlier coefficients are carried into each new block by one 2 x 2
  matrix.

A caller that already holds a point's forward pass, as the
Levenberg-Marquardt projection does for every trial it evaluates, hands it
to :func:`gradient`, which then runs the backward pass alone. Symbolic
expansion of the product is deliberately avoided.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyProtocol, NonFiniteEntry
from .propagator import Forward, _beta_row, forward
from .protocol import Protocol

# A block of the basis solution z of Hess(beta) ends once |z|^2 passes this
# factor times that of _UNIT, which is 1 (see _anchored_basis)
_GROWTH = 1e2
# the unit solution (1, -i)/sqrt(2), with W(z, conj z) = i, that every
# later block starts from
_UNIT = (complex(math.sqrt(0.5)), complex(0.0, -math.sqrt(0.5)))


@dataclass(frozen=True)
class SensitivityBundle:
    """Exact derivatives of beta and of I = |beta|^2 w.r.t. the pulses.

    ``hess_beta``/``hess_infidelity`` are None unless produced by
    :func:`hessian`; :func:`beta_hessian` fills ``hess_beta`` only.
    """

    beta: complex
    grad_beta: np.ndarray
    grad_infidelity: np.ndarray
    hess_beta: np.ndarray | None = None
    hess_infidelity: np.ndarray | None = None


def _backward(p: Protocol, fw: Forward, second_order: bool) -> SensitivityBundle:
    """grad(beta), grad(I) and, if ``second_order``, Hess(beta) from a forward pass.

    ``fw`` is ``forward(p)``, of order 2 when ``second_order``. See the
    module docstring; Hess(I) is left to :func:`hessian`. Raises
    NonFiniteEntry when a derivative comes out NaN or infinite.
    """
    m = p.m
    if m == 0:
        raise EmptyProtocol(("hessian" if second_order else "gradient")
                            + " requires at least one pulse")
    steps, fs, fds, _, _, beta = fw
    lf, ld = _beta_row(p.omegaT)
    grad = [0j] * m
    if second_order:
        mu0, mu1, y0, y1, diag = ([0j] * m for _ in range(5))
        for j in range(m - 1, -1, -1):
            a00, a01, a10, d00, d01, d10, h00, h01, h10 = steps[j]
            f, fd = fs[j], fds[j]
            # mu_j = (lf, ld) A'_j; the gradient is mu_j s_{j-1}
            mu0[j] = m0 = lf * d00 + ld * d10
            mu1[j] = m1 = lf * d01 + ld * d00
            grad[j] = m0 * f + m1 * fd
            y0[j] = d00 * f + d01 * fd
            y1[j] = d10 * f + d00 * fd
            diag[j] = lf * (h00 * f + h01 * fd) + ld * (h10 * f + h00 * fd)
            lf, ld = lf * a00 + ld * a10, lf * a01 + ld * a00
    else:
        for j in range(m - 1, -1, -1):
            a00, a01, a10, d00, d01, d10 = steps[j][:6]
            # (lf, ld) A'_j, applied to s_{j-1}
            grad[j] = (lf * d00 + ld * d10) * fs[j] + (lf * d01 + ld * d00) * fds[j]
            lf, ld = lf * a00 + ld * a10, lf * a01 + ld * a00
    grad_beta = np.array(grad)
    # 2 Re(grad_beta conj(beta)) from one product: doubling is exact, so
    # doubling conj(beta) first gives the bits of doubling the result
    grad_infid = (grad_beta * (2.0 * beta.conjugate())).real
    if not np.isfinite(grad_infid).all():
        raise NonFiniteEntry("gradient of beta is not finite")
    hess_beta = None
    if second_order:
        hess_beta = _hessian_of_beta(fw, np.array([mu0, mu1, y0, y1]), diag)
        if not np.isfinite(hess_beta.view(np.float64)).all():
            raise NonFiniteEntry("Hessian of beta is not finite")
    return SensitivityBundle(beta=beta, grad_beta=grad_beta,
                             grad_infidelity=grad_infid, hess_beta=hess_beta)


def _anchored_basis(fw: Forward):
    """The basis solutions of Hess(beta), block by block: (zj, zn, blocks).

    Column j of ``zj`` is state j of the basis solution z of the block that
    holds state j, and column j of ``zn`` is that solution one step on, at
    state j + 1. ``blocks`` lists [start, stop, t] for each block of pulses:
    t is None for the first, and for a later one the transpose of the
    2 x 2 matrix that takes coefficients in the basis (z, conj z) of the
    previous block to its own. The first block's z is the forward pass
    itself. A block ends at the first state where |z|^2 passes _GROWTH
    times |_UNIT|^2 = 1; the next block's z starts there from _UNIT and is
    propagated through the recorded step entries. The forward pass starts
    at |s_0|^2 = (omega0 + 1/omega0) / 2, which is 1 at omega0 = 1; far
    from 1 the forward states are a poorly conditioned basis from the
    start, and once |s_0|^2 passes the bound the first block is empty. A
    protocol whose states stay within the bound is one block and enters no
    loop here.
    """
    z = np.array([fw.fs + [fw.f], fw.fds + [fw.fd]])
    size = (z * z.conj()).real.sum(axis=0)
    m = len(fw.steps)
    zn = z[:, 1:]
    blocks = [[0, m, None]]
    if size.max() > _GROWTH:
        zn = zn.copy()
        k = int(np.argmax(size > _GROWTH))
        zf, zd = complex(z[0, k]), complex(z[1, k])
        while k < m:
            # the old basis solution at state k is a u + b conj(u), u = _UNIT
            a, b = (zf + 1j * zd) * _UNIT[0], (zf - 1j * zd) * _UNIT[0]
            blocks[-1][1] = k
            blocks.append([k, m, np.array([[a, b], [b.conjugate(), a.conjugate()]])])
            zf, zd = z[:, k] = _UNIT
            for k in range(k + 1, m + 1):
                a00, a01, a10 = fw.steps[k - 1][:3]
                zf, zd = a00 * zf + a01 * zd, a10 * zf + a00 * zd
                zn[:, k - 1] = zf, zd
                if (zf * zf.conjugate() + zd * zd.conjugate()).real > _GROWTH:
                    break
                z[:, k] = zf, zd
            else:
                break
    return z[:, :-1], zn, blocks


def _hessian_of_beta(fw: Forward, terms: np.ndarray, diag) -> np.ndarray:
    """Hess(beta) in generator form from the per-pulse terms of :func:`_backward`.

    ``terms`` holds the rows mu_0, mu_1, y_0, y_1 and ``diag`` the diagonal.
    Below the diagonal, d^2 beta / d omega_j d omega_i = u_j . v_i (i < j)
    with u_j = (mu_j . z_j, mu_j . conj z_j) and
    v_i = (-i W(y_i, conj z_{i+1}), i W(y_i, z_{i+1})), the coefficients of
    y_i in the basis (z, conj z); W(p, q) = p_0 q_1 - p_1 q_0 and z is a
    solution with W(z, conj z) = i. Each block of :func:`_anchored_basis`
    is one product of its rows of u with the columns v of its own pulses
    and of every earlier block, the latter carried into its basis. The
    lower triangle is mirrored, so the result is exactly symmetric.
    """
    m = len(diag)
    mu0, mu1, y0, y1 = terms
    zj, zn, blocks = _anchored_basis(fw)
    u = np.empty((m, 2), dtype=complex)
    u[:, 0] = mu0 * zj[0] + mu1 * zj[1]
    u[:, 1] = mu0 * zj[0].conj() + mu1 * zj[1].conj()
    v = np.empty((m, 2), dtype=complex)
    v[:, 0] = -1j * (y0 * zn[1].conj() - y1 * zn[0].conj())
    v[:, 1] = 1j * (y0 * zn[1] - y1 * zn[0])
    low = np.empty((m, m), dtype=complex)
    for start, stop, t in blocks:
        cols = v[:stop] if t is None else np.concatenate([cols @ t, v[start:stop]])
        np.matmul(u[start:stop], cols.T, out=low[start:stop, :stop])
    r = np.arange(m)
    hess = np.where(r[:, None] > r, low, low.T)
    hess.reshape(-1)[::m + 1] = diag
    return hess


def gradient(p: Protocol, fw: Forward | None = None) -> SensitivityBundle:
    """Exact grad(beta) and grad(I): one forward and one backward pass, O(M).

    ``fw``, when given, is ``forward(p)`` already evaluated, and only the
    backward pass runs; the result is bit for bit that of ``gradient(p)``.
    """
    return _backward(p, forward(p) if fw is None else fw, second_order=False)


def beta_hessian(p: Protocol) -> SensitivityBundle:
    """Exact gradient plus the Hessian of beta alone, O(M^2).

    The second-order sweep of :func:`hessian` without assembling Hess(I):
    ``hess_infidelity`` stays None. Navigation runs this sweep once per
    iterate; at its first it reuses the forward pass that admitted the
    input.
    """
    return _backward(p, forward(p, 2), second_order=True)


def hessian(p: Protocol) -> SensitivityBundle:
    """Exact gradient plus Hessians of beta and of I, O(M^2).

    The gradient fields are bit-identical to those of :func:`gradient`.
    """
    bundle = beta_hessian(p)
    # 2 Re(grad_beta grad_beta^H + hess_beta conj(beta)), in real arithmetic:
    # the real and imaginary views of Hess(beta), scaled, plus one rank-2
    # product of the M x 2 real view [Re, Im] of grad_beta. Entries (i, j)
    # and (j, i) of that product sum the same two products, so Hess(I) is
    # exactly symmetric, as Hess(beta) is.
    beta, hess_beta = bundle.beta, bundle.hess_beta
    g = bundle.grad_beta.view(np.float64).reshape(-1, 2)
    hess_infid = hess_beta.real * (2.0 * beta.real)
    hess_infid += hess_beta.imag * (2.0 * beta.imag)
    hess_infid += (2.0 * g) @ g.T
    if not np.isfinite(hess_infid).all():
        raise NonFiniteEntry("Hessian of the infidelity is not finite")
    return dataclasses.replace(bundle, hess_infidelity=hess_infid)
