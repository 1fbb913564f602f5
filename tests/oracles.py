"""Reference matrices and derivatives the exact engine is checked against.

The derivatives are independent of the adjoint sweep in
``oscnav.sensitivities``: central differences of the propagated state, and
the rank-2 Hessian of I at a frictionless point written from its
definition. ``beta_hessian`` builds the complex Hess beta, which the
library never does, from the generators of the adjoint sweep, for checks
of their O(M) product and of their symmetries. ``step_matrix`` assembles one step's 2 x 2 matrix from the
kernel entries, for checks of the kernel itself, and
``step_matrix_derivatives`` writes its first two derivatives in omega from
math.sin and math.cos, for checks of those the backward pass forms. ``pair_cost`` sums a
secondary cost over its pulse pairs one pair at a time. ``theta_infidelity``
scores one phase of the symplectic target at a time, for checks of
``theta_scan``.

``reference_anchored_basis`` splits the basis of Hess beta into blocks
with the per-state |z|^2 test run on every protocol, for checks of the
bound that skips it. ``reference_generators``, ``reference_assemble``,
``reference_hess_beta_times`` and ``reference_add_hessian`` are the
generator helpers and the cost Hessian written out one operation per
entry block, with a numpy call for each: the elementwise operations, in
the order, that the library's fewer calls must reproduce bit for bit.
"""

import math

import numpy as np

from oscnav import bogoliubov, infidelity, propagate, symplectic_final, target_matrix
from oscnav.propagator import _step_entries, forward
from oscnav.objectives import _chunk_size
from oscnav.sensitivities import (_GROWTH, _TILE, _UNIT, _Generators, _anchored_basis,
                                  _assemble, _backward, _generators)


def step_matrix(omega: float, dt: float) -> np.ndarray:
    """Exact one-step transfer matrix acting on the column (f, f').

    A(omega) = [[cos(omega*dt), sin(omega*dt)/omega],
                [-omega*sin(omega*dt), cos(omega*dt)]], det = 1,
    with the omega -> 0 free-particle limit [[1, dt], [0, 1]] exact.
    """
    a00, a01, a10 = _step_entries(omega, dt)[:3]
    return np.array([[a00, a01], [a10, a00]])


def step_matrix_derivatives(omega: float, dt: float):
    """(A', A'') of ``step_matrix`` at omega, each a 2 x 2 array.

    Entry by entry the derivatives of cos x, sin(x)/omega and -omega sin x,
    x = omega*dt: in closed form, but for those of sin(x)/omega below
    |x| = 1/2, where the closed forms cancel. There they are the Taylor
    series sin(x)/omega = sum_k (-1)^k dt^(2k+1) omega^(2k) / (2k+1)!
    differentiated term by term, through k = 12.
    """
    x = omega * dt
    c, s = math.cos(x), math.sin(x)
    if abs(x) >= 0.5:
        d01 = (x * c - s) / omega ** 2
        h01 = -dt * dt * s / omega - 2.0 * dt * c / omega ** 2 + 2.0 * s / omega ** 3
    else:
        terms = [(-1) ** k * dt ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(1, 13)]
        d01 = sum(t * 2 * k * omega ** (2 * k - 1) for k, t in enumerate(terms, 1))
        h01 = sum(t * 2 * k * (2 * k - 1) * omega ** (2 * k - 2) for k, t in enumerate(terms, 1))
    d1 = np.array([[-dt * s, d01], [-s - x * c, -dt * s]])
    d2 = np.array([[-dt * dt * c, h01], [dt * (x * s - 2.0 * c), -dt * dt * c]])
    return d1, d2


def beta_generators(p):
    """The generators of Hess beta, from the forward pass and the terms of
    the adjoint sweep."""
    fw = forward(p)
    return _generators(fw, _backward(p, fw, second_order=True)[1])


def beta_hessian(p) -> np.ndarray:
    """Complex Hess beta from two real assemblies of its generators: Re Hess
    beta with kappa = 1 and Im Hess beta = Re(-i Hess beta)."""
    gens = beta_generators(p)
    return _assemble(gens, 1.0) + 1j * _assemble(gens, -1j)


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


def reference_anchored_basis(fw):
    """(zj, zn, blocks) of ``sensitivities._anchored_basis``, testing |z|^2
    state by state on every protocol: a block ends at the first state
    whose |z|^2 passes _GROWTH."""
    z = np.array([fw.fs + [fw.f], fw.fds + [fw.fd]], complex)
    zc = z.conj()
    size = (z * zc).real.sum(axis=0)
    m = len(fw.steps)
    blocks = [[0, m, None]]
    if size.max() > _GROWTH:
        zn = z[:, 1:].copy()
        k = int(np.argmax(size > _GROWTH))
        zf, zd = complex(z[0, k]), complex(z[1, k])
        while k < m:
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
        zj = z[:, :-1]
        return np.concatenate([zj, zj.conj()]), np.concatenate([zn, zn.conj()]), blocks
    z = np.concatenate([z, zc])
    return z[:, :-1], z[:, 1:], blocks


def reference_generators(fw, terms):
    """(uv, diag) of Hess beta: each of the four generator entries of every
    pulse as its own products and sums of the terms and the basis."""
    mu0, mu1, y0, y1, diag = (np.array(t, complex) for t in terms)
    zj, zn, blocks = _anchored_basis(fw)
    uv = np.empty((len(diag), 2, 2), dtype=complex)
    uv[:, 0, 0] = mu0 * zj[0] + mu1 * zj[1]
    uv[:, 0, 1] = mu0 * zj[0].conj() + mu1 * zj[1].conj()
    uv[:, 1, 0] = -1j * (y0 * zn[1].conj() - y1 * zn[0].conj())
    uv[:, 1, 1] = 1j * (y0 * zn[1] - y1 * zn[0])
    return _Generators(uv, diag, blocks)


def reference_assemble(gens, kappa, extra=None):
    """Re(kappa Hess beta) + E F^T: one real product per block of rows, the
    mirror of each tile by a selection of its lower triangle, and the
    diagonal set last."""
    uv, diag, blocks = gens
    m = len(diag)
    lhs = (kappa * uv[:, 0]).conj().view(np.float64)
    rhs = uv[:, 1].view(np.float64)
    if extra is not None:
        lhs = np.concatenate([lhs, extra[0]], axis=1)
        rhs = np.concatenate([rhs, extra[1]], axis=1)
    out = np.empty((m, m))
    for start, stop, t in blocks:
        if t is None:
            cols = rhs[:stop]
        else:
            carry = np.eye(rhs.shape[1])
            carry[0:4:2, 0:4:2] = carry[1:4:2, 1:4:2] = t.real
            carry[0:4:2, 1:4:2] = t.imag
            carry[1:4:2, 0:4:2] = -t.imag
            cols = np.concatenate([cols @ carry, rhs[start:stop]])
        np.matmul(lhs[start:stop], cols.T, out=out[start:stop, :stop])
    for k in range(0, m, _TILE):
        e = min(k + _TILE, m)
        block = out[k:e, k:e]
        block[...] = np.where(np.tri(e - k, dtype=bool), block, block.T)
        if e < m:
            out[k:e, e:] = out[e:, k:e].T
    d = (kappa * diag).real
    if extra is not None:
        d += (extra[0] * extra[1]).sum(axis=1)
    out.reshape(-1)[::m + 1] = d
    return out


def reference_hess_beta_times(gens, x):
    """Hess beta x from the generators: the products uv * x copied one row
    off into the running sums, and np.cumsum forward and backward."""
    uv, diag, blocks = gens
    m = len(diag)
    run = np.zeros((m + 1, 2, 2), dtype=complex)
    xuv = uv * x[:, None, None]
    run[1:, 0] = xuv[:, 1]
    run[:m - 1, 1] = xuv[1:, 0]
    for start, stop, t in blocks:
        if t is not None:
            run[start, 0] = run[start, 0] @ t
        np.cumsum(run[start:stop + 1, 0], axis=0, out=run[start:stop + 1, 0])
    for start, stop, t in reversed(blocks):
        back = run[max(start - 1, 0):stop, 1][::-1]
        np.cumsum(back, axis=0, out=back)
        if t is not None and start > 0:
            run[start - 1, 1] = t @ run[start - 1, 1]
    return diag * x + (uv * run[:m]).sum(axis=(1, 2))


def reference_add_hessian(cost, out):
    """Hess C added to ``out`` in place, through writable diagonal views:
    smoothness -2 on the two diagonals next to the main one, then 4 inside
    the main one and 2 at each end; compression -2 over each chunk block,
    then 2K on the main diagonal."""
    m = len(out)
    if cost.kind == "smoothness":
        for pairs in (out[:-1, 1:], out[1:, :-1]):
            np.einsum("ii->i", pairs)[...] -= 2.0
        diag = np.einsum("ii->i", out)
        diag[1:-1] += 4.0
        if m > 1:
            diag[::m - 1] += 2.0
        return out
    diag = np.arange(m)
    k = _chunk_size(m, cost.chunks)
    for start in range(0, m, k):
        out[start:start + k, start:start + k] -= 2.0
    out[diag, diag] += 2.0 * k
    return out
