"""Reference matrices and derivatives the exact engine is checked against.

The derivatives are independent of the adjoint sweep in
``oscnav.sensitivities``: central differences of the propagated state, and
the rank-2 Hessian of I at a frictionless point written from its
definition. ``step_matrix`` assembles one step's 2 x 2 matrix from the
kernel entries, for checks of the kernel itself. ``pair_cost`` sums a
secondary cost over its pulse pairs one pair at a time. ``theta_infidelity``
scores one phase of the symplectic target at a time, for checks of
``theta_scan``.
"""

import numpy as np

from oscnav import bogoliubov, infidelity, propagate, symplectic_final, target_matrix
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


def pair_cost(omegas, chunks=None):
    """Value, gradient and Hessian of a secondary cost, pair by pair.

    A double loop over the pulses visits every pair (a, b), a < b, of the
    cost: consecutive for smoothness (``chunks`` None), inside one of
    ``chunks`` equal chunks for compression. Each adds (w_b - w_a)^2 to the
    value, +-2 (w_b - w_a) to the gradient and its 2 x 2 block to the Hessian.
    """
    w = [float(x) for x in omegas]
    m = len(w)
    k = m // chunks if chunks else None
    value, grad, hess = 0.0, np.zeros(m), np.zeros((m, m))
    for a in range(m):
        for b in range(a + 1, m):
            if (b != a + 1) if k is None else (a // k != b // k):
                continue
            d = w[b] - w[a]
            value += d * d
            grad[b] += 2.0 * d
            grad[a] -= 2.0 * d
            hess[a, a] += 2.0
            hess[b, b] += 2.0
            hess[a, b] -= 2.0
            hess[b, a] -= 2.0
    return value, grad, hess


def theta_infidelity(p, theta: float) -> float:
    """Squared Frobenius distance of S(T) to the target W(theta)."""
    s = symplectic_final(propagate(p), p.omega0)
    diff = s - target_matrix(theta, p.omega0, p.omegaT)
    return float(np.sum(diff * diff))
