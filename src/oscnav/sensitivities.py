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
  propagated and no matrix is inverted. Where |z| is large the products
  u_j . v_i cancel, so
  the basis restarts from a unit solution, |z|^2 = 1, once |z|^2 passes
  100; earlier coefficients are carried into each new block by one 2 x 2
  matrix.

The backward pass hands back the per-pulse terms mu_j, y_j and the
diagonal, and :func:`_generators` turns them into the generators, checked
finite, only for a caller that reads them: :func:`hessian`, or a
navigation record that takes a step. No matrix is built. A dense
Hessian is one real M x M array, Re(kappa Hess(beta)) plus optional real
rank columns, built by one real product per block (:func:`_assemble`):
Hess(I) = 2 Re(conj(beta) Hess(beta)) + 2 Re(grad beta grad beta^H) takes
kappa = 2 conj(beta) and the columns of the real M x 2 view of grad beta,
and the Lagrangian of navigation takes kappa = nu_0 - i nu_1. Hess(beta)
times a vector is O(M) on the same generators (:func:`_hess_beta_times`),
so the library never builds the complex Hess(beta).

A caller that already holds a point's forward pass, as the
Levenberg-Marquardt projection does for every trial it evaluates, hands it
to :func:`gradient`, which then runs the backward pass alone. Symbolic
expansion of the product is deliberately avoided.

grad(I) = 2 Re(conj(beta) grad beta) is derived from beta and grad(beta)
on first read of ``SensitivityBundle.grad_infidelity``, not by the sweep:
a Gauss-Newton corrector onto beta = 0 works in r = (Re beta, Im beta) and
J = [Re grad beta; Im grad beta] alone, and only a descent reads grad(I).

Every sweep checks grad(beta) finite with one reduction, the complex
conj(grad beta) . grad beta: its real part |grad beta|^2 is finite only if
every entry is. The entries are tested one by one only when it is not, so
a finite grad(beta) whose |grad beta|^2 overflows passes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
# rows per tile of the in-place mirror of an assembled Hessian
_TILE = 64
# the factors -i and i of the two coefficients v_i (see _generators)
_WRONSKIAN_SIGNS = np.array([[-1j], [1j]])
_WRONSKIAN_SIGNS.flags.writeable = False


@functools.lru_cache(maxsize=_TILE)
def _above(n: int) -> np.ndarray:
    """The read-only mask of the entries above the diagonal of an n x n tile."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _grad_infidelity(beta: complex, grad_beta: np.ndarray) -> np.ndarray:
    """grad(I) = 2 Re(conj(beta) grad beta); NonFiniteEntry when it overflows."""
    # one product: doubling is exact, so doubling conj(beta) first gives the
    # bits of doubling the result
    grad_infid = (grad_beta * (2.0 * beta.conjugate())).real
    # checked with one reduction, as grad(beta) is in _backward
    if (not math.isfinite(np.vdot(grad_infid, grad_infid))
            and not np.isfinite(grad_infid).all()):
        raise NonFiniteEntry("gradient of the infidelity is not finite")
    return grad_infid


@dataclass(frozen=True, init=False)
class SensitivityBundle:
    """Exact derivatives of beta and of I = |beta|^2 w.r.t. the pulses.

    :func:`gradient` leaves ``hess_infidelity`` None and :func:`hessian`
    fills it. ``grad_infidelity`` is not a field: it is derived from
    ``beta`` and ``grad_beta`` on first read and kept.
    """

    beta: complex
    grad_beta: np.ndarray
    hess_infidelity: np.ndarray | None = None

    def __init__(self, beta: complex, grad_beta: np.ndarray,
                 hess_infidelity: np.ndarray | None = None):
        # the fields stored directly: the generated __init__ of a frozen
        # dataclass sets each through object.__setattr__, at twice the
        # cost, and a bundle is built once per sweep
        fields = self.__dict__
        fields["beta"] = beta
        fields["grad_beta"] = grad_beta
        fields["hess_infidelity"] = hess_infidelity

    @property
    def grad_infidelity(self) -> np.ndarray:
        """grad(I) = 2 Re(conj(beta) grad beta), formed on first read.

        Raises NonFiniteEntry when it overflows, which a finite grad(beta)
        does not rule out. A plain property caching into ``__dict__``:
        before Python 3.12 ``functools.cached_property`` takes a lock on
        the first read, which is the only read a descent makes.
        """
        cache = self.__dict__
        grad_infid = cache.get("_grad_infidelity")
        if grad_infid is None:
            grad_infid = cache["_grad_infidelity"] = _grad_infidelity(self.beta, self.grad_beta)
        return grad_infid


class _Generators(NamedTuple):
    """Hess(beta) in generator form, as :func:`_generators` builds it.

    Below the diagonal, entry (j, i) is u_j . v_i with uv[j] = (u_j, v_j),
    an (M, 2, 2) complex array, and v_i carried into the basis of the block
    that holds pulse j; ``blocks`` is that of :func:`_anchored_basis` and
    ``diag`` the diagonal.
    """

    uv: np.ndarray
    diag: np.ndarray
    blocks: list


def _backward(p: Protocol, fw: Forward, second_order: bool):
    """grad(beta) and, if ``second_order``, the terms of Hess(beta)'s generators.

    ``fw`` is ``forward(p)``, of order 2 when ``second_order``. Returns
    (bundle, terms), ``terms`` None unless ``second_order``: then the five
    lists mu_0, mu_1, y_0, y_1 and the diagonal, per pulse, from which
    :func:`_generators` builds the generators of Hess(beta) for a caller
    that reads them (see the module docstring). Raises NonFiniteEntry when
    grad(beta) comes out NaN or infinite.
    """
    steps, fs, fds, _, _, beta = fw
    m = len(steps)
    if m == 0:
        raise EmptyProtocol(("hessian" if second_order else "gradient")
                            + " requires at least one pulse")
    lf, ld = _beta_row(p.omegaT)
    grad = [0j] * m
    terms = None
    if second_order:
        terms = mu0, mu1, y0, y1, diag = [[0j] * m for _ in range(5)]
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
    # the dtype given: numpy then skips inferring it from every entry
    grad_beta = np.array(grad, complex)
    # one complex reduction, conj(g) . g: its real part |grad beta|^2 is
    # finite only if every entry is, and then so is its imaginary part. The
    # entries are checked one by one only when it is not, as when it
    # overflows, which np.vdot (unlike ndarray.dot) does without a warning
    if not cmath.isfinite(np.vdot(grad_beta, grad_beta)) and not np.isfinite(grad_beta).all():
        raise NonFiniteEntry("gradient of beta is not finite")
    return SensitivityBundle(beta, grad_beta), terms


def _anchored_basis(fw: Forward):
    """The basis solutions of Hess(beta), block by block: (zj, zn, blocks).

    Column j of ``zj`` is state j of the basis solution z of the block that
    holds state j, and column j of ``zn`` is that solution one step on, at
    state j + 1; rows 0-1 hold z and rows 2-3 conj z. ``blocks`` lists
    [start, stop, t] for each block of pulses: t is None for the first,
    and for a later one the transpose of the
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
    z = np.array([fw.fs + [fw.f], fw.fds + [fw.fd]], complex)
    zc = z.conj()
    m = len(fw.steps)
    blocks = [[0, m, None]]
    # the sum of |z|^2 over all states bounds each state's, so the test per
    # state runs only when that one reduction could pass _GROWTH; the
    # margin covers its other order of summation
    if (not np.vdot(z, z).real <= _GROWTH * (1 - 1e-9)
            and (size := (z * zc).real.sum(axis=0)).max() > _GROWTH):
        zn = z[:, 1:].copy()
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
        zj = z[:, :-1]
        return np.concatenate([zj, zj.conj()]), np.concatenate([zn, zn.conj()]), blocks
    z = np.concatenate([z, zc])
    return z[:, :-1], z[:, 1:], blocks


def _generators(fw: Forward, terms) -> _Generators:
    """The generators of Hess(beta) from the ``terms`` of :func:`_backward`.

    ``terms`` holds the lists mu_0, mu_1, y_0, y_1 and the diagonal. Below
    the diagonal, d^2 beta / d omega_j d omega_i = u_j . v_i (i < j) with
    u_j = (mu_j . z_j, mu_j . conj z_j) and
    v_i = (-i W(y_i, conj z_{i+1}), i W(y_i, z_{i+1})), the coefficients of
    y_i in the basis (z, conj z); W(p, q) = p_0 q_1 - p_1 q_0 and z is the
    solution of :func:`_anchored_basis`, with W(z, conj z) = i, in each
    block. The eight products of a pulse are one array product, of the
    terms with the partners z_j, conj z_j, conj z_{j+1} and z_{j+1} stacked
    alike, and their sums are written into ``uv`` through a transposed
    view. Raises NonFiniteEntry when a generator or the diagonal is not
    finite, checked as grad(beta) is in :func:`_backward`.
    """
    zj, zn, blocks = _anchored_basis(fw)
    terms = np.array(terms, complex)
    m = terms.shape[1]
    # [u or v][entry k][term t][pulse]: u_k sums mu_t times its partner, and
    # v_k is -i or i times the partner of y_0 less that of y_1. The rows of
    # zn reversed are conj z_1, conj z_0, z_1 and z_0 one step on
    partners = np.concatenate([zj, zn[::-1]])
    prod = terms[:4].reshape(2, 1, 2, m) * partners.reshape(2, 2, 2, m)
    uv = np.empty((m, 2, 2), dtype=complex)
    cols = uv.transpose(1, 2, 0)
    np.add(prod[0, :, 0], prod[0, :, 1], out=cols[0])
    np.subtract(prod[1, :, 0], prod[1, :, 1], out=cols[1])
    np.multiply(_WRONSKIAN_SIGNS, cols[1], out=cols[1])
    diag = terms[4]
    if (not (cmath.isfinite(np.vdot(uv, uv)) and cmath.isfinite(np.vdot(diag, diag)))
            and not (np.isfinite(uv).all() and np.isfinite(diag).all())):
        raise NonFiniteEntry("Hessian of beta is not finite")
    return _Generators(uv, diag, blocks)


def _assemble(gens: _Generators, kappa: complex, extra=None) -> np.ndarray:
    """Re(kappa Hess(beta)) + E F^T as one real M x M array, exactly symmetric.

    ``extra``, when given, is a pair (E, F) of real M x r arrays whose
    product E F^T is symmetric. With a = kappa u, entry (j, i) below the
    diagonal is Re(a_j . v_i) = Re a_j . Re v_i - Im a_j . Im v_i: the
    float view of conj(a) times that of v. So each block of rows is one
    real product of [conj a | E] with the rows [v | F] of its own pulses
    and of every earlier block, the latter carried into its basis as in
    Hess(beta): each entry p + iq of t acts on a pair (Re, Im) as the real
    2 x 2 block [[p, q], [-q, p]], and F is left as it is. The lower
    triangle is then copied onto the upper in place, and the diagonal set
    from that of Hess(beta).
    """
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
        # the diagonal block of a tile of rows copies its own transpose, which
        # numpy reads into a temporary; the rest of its rows are the columns
        # below it
        e = min(k + _TILE, m)
        block = out[k:e, k:e]
        np.copyto(block, block.T, where=_above(e - k))
        if e < m:
            out[k:e, e:] = out[e:, k:e].T
    d = (kappa * diag).real
    if extra is not None:
        d += (extra[0] * extra[1]).sum(axis=1)
    out.reshape(-1)[::m + 1] = d
    return out


def _hess_beta_times(gens: _Generators, x: np.ndarray) -> np.ndarray:
    """Hess(beta) x for a real M-vector x, in O(M) from the generators.

    (Hess(beta) x)_j = diag_j x_j + u_j . sum_{i<j} x_i v_i
    + v_j . sum_{i>j} x_i u_i. The first sum is a running sum forward
    through the pulses, the second one backward. Entering a block forward,
    the running sum is carried into its basis by t, as the columns of
    Hess(beta) are (v -> v t); leaving one backward, by t from the left,
    since (v t) . u = v . (t u).
    """
    uv, diag, blocks = gens
    m = len(diag)
    # run[j] = (sum_{i<j} x_i v_i, sum_{i>j} x_i u_i), the partners of
    # (u_j, v_j): each half is filled one row off and summed in place, block
    # by block, and the row a block shares with the next holds the sum
    # carried across
    run = np.zeros((m + 1, 2, 2), dtype=complex)
    xuv = uv * x[:, None, None]
    run[1:, 0] = xuv[:, 1]
    run[:m - 1, 1] = xuv[1:, 0]
    # np.add.accumulate is np.cumsum without its Python wrapper
    for start, stop, t in blocks:
        ahead = run[start:stop + 1, 0]
        if t is not None:
            ahead[0] = ahead[0] @ t
        np.add.accumulate(ahead, axis=0, out=ahead)
    for start, stop, t in reversed(blocks):
        back = run[max(start - 1, 0):stop, 1][::-1]
        np.add.accumulate(back, axis=0, out=back)
        if t is not None and start > 0:
            run[start - 1, 1] = t @ run[start - 1, 1]
    return diag * x + np.add.reduce(uv * run[:m], axis=(1, 2))


def gradient(p: Protocol, fw: Forward | None = None) -> SensitivityBundle:
    """Exact grad(beta): one forward and one backward pass, O(M).

    grad(I) is derived from it on first read of ``grad_infidelity``, so a
    caller that works in r and J alone, as the corrector does, never forms
    it. ``fw``, when given, is ``forward(p)`` already evaluated, and only
    the backward pass runs; the result is bit for bit that of
    ``gradient(p)``. Raises NonFiniteEntry when grad(beta) is not finite:
    one complex reduction, conj(grad beta) . grad beta, tests every entry
    at once, and the entries are tested one by one only when it is not
    finite.
    """
    return _backward(p, forward(p) if fw is None else fw, second_order=False)[0]


def hessian(p: Protocol) -> SensitivityBundle:
    """Exact gradient plus the Hessian of I, O(M^2).

    Hess(I) = 2 Re(conj(beta) Hess(beta)) + 2 Re(grad beta grad beta^H)
    is one real assembly (:func:`_assemble`) with kappa = 2 conj(beta) and
    the rank-2 columns (2G, G) of the real M x 2 view G = [Re, Im] of
    grad(beta): one real M x M array, exactly symmetric, and Hess(beta) is
    never built. The gradient fields are bit-identical to those of
    :func:`gradient`.
    """
    fw = forward(p, 2)
    bundle, terms = _backward(p, fw, second_order=True)
    g = bundle.grad_beta.view(np.float64).reshape(-1, 2)
    hess_infid = _assemble(_generators(fw, terms), 2.0 * bundle.beta.conjugate(), (2.0 * g, g))
    if not np.isfinite(hess_infid).all():
        raise NonFiniteEntry("Hessian of the infidelity is not finite")
    return SensitivityBundle(bundle.beta, bundle.grad_beta, hess_infid)
