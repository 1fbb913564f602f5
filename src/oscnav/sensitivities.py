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
* only when the Hessian is asked for, row j below the diagonal is
  lambda_j A'_j applied to the forward sensitivities d s_{j-1} / d omega_i
  (i < j), each seeded by A'_i s_{i-1} and carried by the step matrices,
  and the diagonal is lambda_j A''_j s_{j-1}: O(M^2), with no matrix
  inverse.

A caller that already holds a point's forward pass, as the
Levenberg-Marquardt projection does for every trial it evaluates, hands it
to :func:`gradient`, which then runs the backward pass alone. Symbolic
expansion of the product is deliberately avoided.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import EmptyProtocol, NonFiniteEntry
from .propagator import Forward, _beta_row, forward
from .protocol import Protocol


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
    costates = [None] * m
    for j in range(m - 1, -1, -1):
        costates[j] = (lf, ld)
        a00, a01, a10, d00, d01, d10 = steps[j][:6]
        # (lf, ld) A'_j, applied to s_{j-1}
        grad[j] = (lf * d00 + ld * d10) * fs[j] + (lf * d01 + ld * d00) * fds[j]
        lf, ld = lf * a00 + ld * a10, lf * a01 + ld * a00
    grad_beta = np.array(grad)
    grad_infid = 2.0 * np.real(grad_beta * np.conj(beta))
    if not np.isfinite(grad_infid).all():
        raise NonFiniteEntry("gradient of beta is not finite")
    hess_beta = None
    if second_order:
        hess_beta = _hessian_of_beta(steps, fs, fds, costates)
        if not np.isfinite(hess_beta).all():
            raise NonFiniteEntry("Hessian of beta is not finite")
    return SensitivityBundle(beta=beta, grad_beta=grad_beta,
                             grad_infidelity=grad_infid, hess_beta=hess_beta)


# kron(A^T, I_2) for A = [[a00, a01], [a10, a00]], as indices into a row
# (a00, a01, a10, ..., 0) of the padded kernel entries
_KRON_AT_I2 = np.array([[0, 9, 2, 9], [9, 0, 9, 2], [1, 9, 0, 9], [9, 1, 9, 0]])


def _hessian_of_beta(steps, fs, fds, costates) -> np.ndarray:
    """Hess(beta) from the kernel entries, states and costates of :func:`_backward`.

    Below the diagonal, row j is mu_j = lambda_j A'_j contracted with the
    forward sensitivities d s_{j-1} / d omega_i (i < j): sensitivity i is
    seeded by A'_i s_{i-1} and carried forward by the step matrices. The
    diagonal is lambda_j A''_j s_{j-1}. The lower triangle is mirrored, so
    the result is exactly symmetric.
    """
    m = len(steps)
    entries = np.zeros((m, 10))  # A, A', A'' entries of _step_entries, then 0
    entries[:, :9] = steps
    d00, d01, d10, h00, h01, h10 = entries[:, 3:9].T
    lf, ld = np.array(costates).T
    f, fd = np.array(fs), np.array(fds)
    mus = np.empty((m, 2), dtype=complex)
    mus[:, 0] = lf * d00 + ld * d10
    mus[:, 1] = lf * d01 + ld * d00
    diag = lf * (h00 * f + h01 * fd) + ld * (h10 * f + h00 * fd)
    # Row i of sens holds d s_{j-1} / d omega_i once i < j. The step matrices
    # are real, so they act on the float view of a row,
    # (Re f, Im f, Re f', Im f'), as kron(A^T, I_2).
    sens = np.empty((m, 2), dtype=complex)
    sens[:, 0] = d00 * f + d01 * fd
    sens[:, 1] = d10 * f + d00 * fd
    sens_re = sens.view(np.float64)
    step_t = entries[:, _KRON_AT_I2]
    hess = np.zeros((m, m), dtype=complex)
    for j in range(1, m):
        np.matmul(sens[:j], mus[j], out=hess[j, :j])
        sens_re[:j] = sens_re[:j] @ step_t[j]
    hess += hess.T  # the upper triangle and the diagonal are still zero
    hess[np.diag_indices(m)] = diag
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
    ``hess_infidelity`` stays None. Navigation calls it once per iterate.
    """
    return _backward(p, forward(p, 2), second_order=True)


def hessian(p: Protocol) -> SensitivityBundle:
    """Exact gradient plus Hessians of beta and of I, O(M^2).

    The gradient fields are bit-identical to those of :func:`gradient`.
    """
    bundle = beta_hessian(p)
    # 2 Re(grad_beta grad_beta^H + hess_beta conj(beta)), in real arithmetic
    beta, gr, gi = bundle.beta, bundle.grad_beta.real, bundle.grad_beta.imag
    hess_infid = gr[:, None] * gr
    hess_infid += gi[:, None] * gi
    hess_infid += bundle.hess_beta.real * beta.real
    hess_infid += bundle.hess_beta.imag * beta.imag
    hess_infid *= 2.0
    if not np.isfinite(hess_infid).all():
        raise NonFiniteEntry("Hessian of the infidelity is not finite")
    return dataclasses.replace(bundle, hess_infidelity=hess_infid)
