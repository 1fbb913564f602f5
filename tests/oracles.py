"""Reference matrices and derivatives the exact engine is checked against.

The derivatives are independent of the adjoint sweep in
``oscnav.sensitivities``: central differences of the propagated state, and
the rank-2 Hessian of I at a frictionless point written from its
definition. ``step_matrix`` assembles one step's 2 x 2 matrix from the
kernel entries, for checks of the kernel itself.
"""

import numpy as np

from oscnav import bogoliubov, infidelity, propagate
from oscnav.propagator import _step_entries


def step_matrix(omega: float, dt: float) -> np.ndarray:
    """Exact one-step transfer matrix acting on the column (f, f').

    A(omega) = [[cos(omega*dt), sin(omega*dt)/omega],
                [-omega*sin(omega*dt), cos(omega*dt)]], det = 1,
    with the omega -> 0 free-particle limit [[1, dt], [0, 1]] exact.
    """
    a00, a01, a10 = _step_entries(omega, dt)
    return np.array([[a00, a01], [a10, a00]])


def optimal_hessian(grad_beta: np.ndarray) -> np.ndarray:
    """Rank-<=2 Hessian of I valid at frictionless points.

    With beta = 0 the curvature collapses to
    2*(Re grad_beta (x) Re grad_beta + Im grad_beta (x) Im grad_beta);
    exactly symmetric by construction.
    """
    re, im = np.real(grad_beta), np.imag(grad_beta)
    return 2.0 * (np.outer(re, re) + np.outer(im, im))


def fd_gradient(p, h: float = 1e-6):
    """Central-difference oracle: (grad I, grad beta), each an M-vector."""
    if h <= 0:
        raise ValueError("finite-difference step must be > 0")
    m = p.m
    gi = np.zeros(m)
    gb = np.zeros(m, dtype=complex)
    base = list(p.omegas)
    for i in range(m):
        for sgn in (+1.0, -1.0):
            pert = base.copy()
            pert[i] += sgn * h
            q = p.with_omegas(pert)
            b = bogoliubov(propagate(q), q.omegaT).beta
            gi[i] += sgn * abs(b) ** 2
            gb[i] += sgn * b
    return gi / (2.0 * h), gb / (2.0 * h)


def fd_hessian(p, h: float = 1e-4) -> np.ndarray:
    """Central second differences of I; symmetric by construction."""
    if h <= 0:
        raise ValueError("finite-difference step must be > 0")
    m = p.m
    out = np.zeros((m, m))
    base = np.asarray(p.omegas, dtype=float)

    def f_at(delta):
        return infidelity(p.with_omegas(base + delta))

    i0 = f_at(np.zeros(m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        out[i, i] = (f_at(ei) - 2.0 * i0 + f_at(-ei)) / (h * h)
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            val = (f_at(ei + ej) - f_at(ei - ej) - f_at(-ei + ej)
                   + f_at(-ei - ej)) / (4.0 * h * h)
            out[i, j] = out[j, i] = val
    return out
