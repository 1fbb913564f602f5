import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscnav import (EmptyProtocol, NonFiniteEntry, Protocol, beta_hessian, gradient,
                    hessian, infidelity, refine)
from oscnav import protocol as proto
from oscnav.propagator import (SERIES_THRESHOLD, ModeState, _step_entries,
                               bogoliubov, forward, initial_state, propagate)
from oscnav.sensitivities import _anchored_basis, _backward, _hess_beta_times
from oracles import fd_gradient, fd_hessian, optimal_hessian, step_matrix


EPS = np.finfo(float).eps


def random_protocol(rng, m, dt_range=(0.05, 0.5), omega_range=(0.1, 2.0)):
    return Protocol(1.0, 0.25, float(rng.uniform(*dt_range)),
                    tuple(rng.uniform(*omega_range, m)))


def rel_maxnorm_error(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def step_matrix_d1(omega, dt):
    """A'(omega) as a 2x2 array, from the kernel."""
    _, _, _, d00, d01, d10 = _step_entries(omega, dt, 1)
    return np.array([[d00, d01], [d10, d00]])


def step_matrix_d2(omega, dt):
    """A''(omega) as a 2x2 array, from the kernel."""
    h00, h01, h10 = _step_entries(omega, dt, 2)[6:]
    return np.array([[h00, h01], [h10, h00]])


class TestStepMatrixDerivatives:
    def test_d1_matches_symbolic_zero_at_origin(self):
        # dA/domega of an even matrix function vanishes at omega = 0
        assert np.max(np.abs(step_matrix_d1(0.0, 0.5))) == 0.0

    def test_d1_frozen_entry(self):
        assert step_matrix_d1(0.5, 1.8)[1, 0] == pytest.approx(-1.3427758810710815,
                                                               abs=1e-15)

    def test_d1_odd_in_omega(self):
        for w in (1e-6, 1e-3, 0.5, 2.0):
            a, b = step_matrix_d1(w, 0.7), step_matrix_d1(-w, 0.7)
            assert np.array_equal(a, -b)

    def test_d1_vs_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(1)
        for _ in range(40):
            w, dt = float(rng.uniform(-2, 2)), float(rng.uniform(0.05, 1.8))
            fd = (step_matrix(w + h, dt) - step_matrix(w - h, dt)) / (2 * h)
            assert np.max(np.abs(step_matrix_d1(w, dt) - fd)) < 1e-7

    def test_d2_diagonal_closed_form(self):
        assert step_matrix_d2(0.0, 0.5)[0, 0] == pytest.approx(-0.25, abs=1e-16)
        assert step_matrix_d2(0.8, 1.1)[0, 0] == pytest.approx(
            -1.21 * np.cos(0.88), abs=1e-15)

    def test_d2_even_in_omega(self):
        for w in (1e-6, 1e-3, 0.5, 2.0):
            assert np.array_equal(step_matrix_d2(w, 0.7), step_matrix_d2(-w, 0.7))

    def test_d2_vs_second_differences(self):
        h = 1e-4
        for w, dt in ((0.5, 1.8), (0.0, 0.4), (1.3, 0.2), (-0.7, 0.9)):
            fd = (step_matrix(w + h, dt) - 2 * step_matrix(w, dt)
                  + step_matrix(w - h, dt)) / (h * h)
            scale = np.max(np.abs(fd))
            assert np.max(np.abs(step_matrix_d2(w, dt) - fd)) < 1e-6 * max(scale, 1.0)

    def test_series_branch_continuity(self):
        dt = 1.0
        for builder in (step_matrix_d1, step_matrix_d2):
            below = builder(0.0099, dt)
            above = builder(0.0101, dt)
            assert np.max(np.abs(below - above)) < 5e-3  # smooth across threshold
            mid_lo = builder(0.0099999, dt)
            mid_hi = builder(0.0100001, dt)
            assert np.max(np.abs(mid_lo - mid_hi)) < 1e-6

    def test_orders_share_their_leading_entries(self):
        for w in (0.0, 1e-3, -0.5, 2.0):
            full = _step_entries(w, 0.7, 2)
            assert _step_entries(w, 0.7, 1) == full[:6]
            assert _step_entries(w, 0.7) == full[:3]


class TestKernelCalls:
    @pytest.mark.parametrize("m", [1, 3, 48])
    def test_one_kernel_evaluation_per_pulse(self, m, monkeypatch):
        p = random_protocol(np.random.default_rng(m), m)
        cos, calls = math.cos, []

        def counting_cos(x):
            calls.append(x)
            return cos(x)

        monkeypatch.setattr(math, "cos", counting_cos)
        for evaluate in (infidelity, gradient, beta_hessian, hessian):
            calls.clear()
            evaluate(p)
            assert len(calls) == m, evaluate.__name__


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(100)
        for m in (8, 16, 48):
            for _ in range(4):
                p = random_protocol(rng, m)
                bundle = gradient(p)
                gi_fd, gb_fd = fd_gradient(p, 1e-6)
                assert rel_maxnorm_error(bundle.grad_infidelity, gi_fd) < 1e-6
                assert rel_maxnorm_error(bundle.grad_beta, gb_fd) < 1e-6

    def test_zero_beta_forces_zero_infidelity_gradient(self):
        p = Protocol(1.0, 1.0, 0.3, (1.0,) * 6)
        bundle = gradient(p)
        assert np.max(np.abs(bundle.grad_infidelity)) < 1e-14

    def test_sign_flip_negates_single_component(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.2, 2, 6)
        p = Protocol(1.0, 0.25, 0.3, tuple(w))
        g0 = gradient(p).grad_beta
        k = 2
        w2 = w.copy()
        w2[k] = -w2[k]
        g1 = gradient(p.with_omegas(w2)).grad_beta
        assert abs(g0[k] + g1[k]) < 1e-13
        mask = np.arange(6) != k
        assert np.max(np.abs(g0[mask] - g1[mask])) < 1e-13

    def test_rejects_empty(self):
        with pytest.raises(EmptyProtocol):
            gradient(Protocol(1.0, 0.25, 0.6, ()))


class TestHessian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(200)
        for m in (2, 4, 8):
            for _ in range(4):
                p = random_protocol(rng, m)
                bundle = hessian(p)
                h_fd = fd_hessian(p, 1e-4)
                assert rel_maxnorm_error(bundle.hess_infidelity, h_fd) < 1e-4

    def test_symmetry(self):
        rng = np.random.default_rng(201)
        p = random_protocol(rng, 12)
        hess_infid, hess_beta = hessian(p).hess_infidelity, beta_hessian(p).hess_beta
        assert np.array_equal(hess_infid, hess_infid.T)
        assert np.array_equal(hess_beta, hess_beta.T)

    def test_gradient_consistency(self):
        rng = np.random.default_rng(202)
        p = random_protocol(rng, 10)
        full = hessian(p)
        first = gradient(p)
        assert np.allclose(full.grad_beta, first.grad_beta, rtol=0, atol=1e-15)
        assert np.allclose(full.grad_infidelity, first.grad_infidelity,
                           rtol=0, atol=1e-15)


class TestOptimalHessian:
    def test_zero_gradient_gives_zero_matrix(self):
        assert np.all(optimal_hessian(np.zeros(5, dtype=complex)) == 0.0)

    def test_real_gradient_gives_rank_one(self):
        gb = np.array([0.3, -1.2, 0.7], dtype=complex)
        eigs = np.linalg.eigvalsh(optimal_hessian(gb))
        assert np.sum(np.abs(eigs) > 1e-12 * np.max(np.abs(eigs))) == 1

    def test_rank_at_most_two(self):
        rng = np.random.default_rng(33)
        gb = rng.normal(size=48) + 1j * rng.normal(size=48)
        eigs = np.sort(np.linalg.eigvalsh(optimal_hessian(gb)))[::-1]
        assert eigs[2] / eigs[0] < 1e-12

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(34)
        gb = rng.normal(size=9) + 1j * rng.normal(size=9)
        h = optimal_hessian(gb)
        assert np.array_equal(h, h.T)


class TestFiniteDifferenceOracles:
    def test_fd_gradient_zero_at_resonance(self):
        p = Protocol(1.0, 1.0, 0.3, (1.0,) * 5)
        gi, _ = fd_gradient(p, 1e-6)
        assert np.max(np.abs(gi)) < 1e-10

    def test_fd_hessian_symmetric(self):
        rng = np.random.default_rng(55)
        p = random_protocol(rng, 4)
        h = fd_hessian(p, 1e-4)
        assert np.array_equal(h, h.T)

    def test_rejects_bad_step(self):
        p = Protocol(1.0, 0.25, 0.6, (1.0,))
        with pytest.raises(ValueError):
            fd_gradient(p, 0.0)


class TestQuarticScaling:
    def test_null_direction_quartic_and_gradient_direction_quadratic(self, monkeypatch):
        # polished solution of the expansion task, frozen from a seeded solve
        from oscnav import DescentConfig, navigator, solve
        monkeypatch.setattr(navigator, "_GRAD_TOLERANCE", 1e-12)
        res = solve(DescentConfig(seed=5), 8, (1.0, 0.25, 1.8))
        p = res.protocol
        assert infidelity(p) < 1e-20
        gb = gradient(p).grad_beta
        eigvals, eigvecs = np.linalg.eigh(optimal_hessian(gb))
        null_dir = eigvecs[:, 0]
        base = np.asarray(p.omegas)
        eps = np.array([1e-1, 1e-2, 1e-3])
        vals = np.array([infidelity(p.with_omegas(base + e * null_dir)) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)
        grad_dir = np.real(gb) / np.linalg.norm(np.real(gb))
        vals2 = np.array([infidelity(p.with_omegas(base + e * grad_dir)) for e in eps])
        slope2 = np.polyfit(np.log(eps), np.log(vals2), 1)[0]
        assert slope2 == pytest.approx(2.0, abs=0.2)


# Reference oracle: the forward tableaux the adjoint sweep replaced. The
# gradient carries an M-vector of d s / d omega_j through every step (O(M^2))
# and the Hessian an M x M block (O(M^3)); beta's linear map is applied last.

def _beta_map(df, dfdot, omegaT):
    return -1j / math.sqrt(2.0 * omegaT) * (dfdot + 1j * omegaT * df)


def tableau_gradient(p):
    """(beta, grad beta, grad I) by forward propagation of every d s / d omega_j."""
    m, dt = p.m, p.dt
    s0 = initial_state(p.omega0)
    f, fd = s0.f, s0.fdot
    vf = np.zeros(m, dtype=complex)
    vd = np.zeros(m, dtype=complex)
    for i, w in enumerate(p.omegas):
        a00, a01, a10, d00, d01, d10 = _step_entries(w, dt, 1)
        if i:
            vf[:i], vd[:i] = a00 * vf[:i] + a01 * vd[:i], a10 * vf[:i] + a00 * vd[:i]
        vf[i] = d00 * f + d01 * fd
        vd[i] = d10 * f + d00 * fd
        f, fd = a00 * f + a01 * fd, a10 * f + a00 * fd
    beta = bogoliubov(ModeState(f, fd), p.omegaT).beta
    grad_beta = _beta_map(vf, vd, p.omegaT)
    return beta, grad_beta, 2.0 * np.real(grad_beta * np.conj(beta))


def tableau_hessian(p):
    """(Hess beta, Hess I) by forward propagation of every d^2 s / d omega_j d omega_k."""
    m, dt = p.m, p.dt
    s0 = initial_state(p.omega0)
    f, fd = s0.f, s0.fdot
    vf = np.zeros(m, dtype=complex)
    vd = np.zeros(m, dtype=complex)
    wf = np.zeros((m, m), dtype=complex)
    wd = np.zeros((m, m), dtype=complex)
    for i, w in enumerate(p.omegas):
        a00, a01, a10, d00, d01, d10, h00, h01, h10 = _step_entries(w, dt, 2)
        if i:
            blkf, blkd = wf[:i, :i], wd[:i, :i]
            wf[:i, :i], wd[:i, :i] = a00 * blkf + a01 * blkd, a10 * blkf + a00 * blkd
            mixf = d00 * vf[:i] + d01 * vd[:i]
            mixd = d10 * vf[:i] + d00 * vd[:i]
            wf[:i, i] = wf[i, :i] = mixf
            wd[:i, i] = wd[i, :i] = mixd
        wf[i, i] = h00 * f + h01 * fd
        wd[i, i] = h10 * f + h00 * fd
        if i:
            vf[:i], vd[:i] = a00 * vf[:i] + a01 * vd[:i], a10 * vf[:i] + a00 * vd[:i]
        vf[i] = d00 * f + d01 * fd
        vd[i] = d10 * f + d00 * fd
        f, fd = a00 * f + a01 * fd, a10 * f + a00 * fd
    beta = bogoliubov(ModeState(f, fd), p.omegaT).beta
    grad_beta = _beta_map(vf, vd, p.omegaT)
    hess_beta = _beta_map(wf, wd, p.omegaT)
    hess_beta = 0.5 * (hess_beta + hess_beta.T)
    hess_infid = 2.0 * np.real(np.outer(grad_beta, np.conj(grad_beta))
                               + hess_beta * np.conj(beta))
    return hess_beta, 0.5 * (hess_infid + hess_infid.T)


_DT = 0.3
# Pulses 0.1 % either side of |omega * dt| = 1e-2, the series threshold of
# the step kernel, and of 1e-4, inside its series branch, plus omega = 0 and
# negative pulses.
EDGE_PULSES = (0.0, -1.7, -0.4) + tuple(
    sgn * t * (1.0 + side * 1e-3) / _DT
    for t in (1e-4, SERIES_THRESHOLD)
    for side in (-1.0, 1.0) for sgn in (1.0, -1.0))


def oracle_protocols(m):
    """Two random protocols of m pulses, then protocols that between them hold
    every edge pulse, each at a random position among random pulses."""
    rng = np.random.default_rng(1000 + m)
    out = [random_protocol(rng, m, omega_range=(-2.5, 2.5)) for _ in range(2)]
    for start in range(0, len(EDGE_PULSES), m):
        edges = EDGE_PULSES[start:start + m]
        omegas = rng.uniform(-2.0, 2.0, m)
        omegas[rng.choice(m, size=len(edges), replace=False)] = edges
        out.append(Protocol(1.0, 0.25, _DT, tuple(omegas)))
    return out


def resonant_protocol(total_t, m, eps):
    """omega(t) = 1 + eps cos 2t, sampled at the step midpoints.

    The drive is at twice the trap frequency, a parametric resonance, so
    the mode grows exponentially: max |s| is 66 for (20, 192, 0.5) and
    6.2e8 for (60, 384, 0.9).
    """
    dt = total_t / m
    t = (np.arange(m) + 0.5) * dt
    return Protocol(1.0, 0.25, dt, tuple((1.0 + eps * np.cos(2.0 * t)).tolist()))


RESONANT = [(20.0, 192, 0.5), (60.0, 384, 0.9)]
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool"


def assert_matches_tableau(p):
    full = hessian(p)
    beta, grad_beta, grad_infid = tableau_gradient(p)
    hess_beta, hess_infid = tableau_hessian(p)
    assert full.beta == beta
    for got, want in ((full.grad_beta, grad_beta),
                      (full.grad_infidelity, grad_infid),
                      (beta_hessian(p).hess_beta, hess_beta),
                      (full.hess_infidelity, hess_infid)):
        # relative in the max norm; a gradient at omega = 0 is exactly 0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestAdjointSweepAgainstTableau:
    @pytest.mark.parametrize("m", [1, 2, 3, 48, 192])
    def test_matches_forward_tableau(self, m):
        for p in oracle_protocols(m):
            assert_matches_tableau(p)

    @pytest.mark.parametrize("args", RESONANT, ids=lambda a: "T{}-M{}-eps{}".format(*a))
    def test_resonant_growth_matches_forward_tableau(self, args):
        assert_matches_tableau(resonant_protocol(*args))

    @pytest.mark.parametrize("omega0", [1e-4, 1e4])
    def test_far_initial_trap_matches_forward_tableau(self, omega0):
        # |s_0|^2 = (omega0 + 1/omega0) / 2 = 5e3: the forward states are a
        # poorly conditioned basis from the first pulse on
        rng = np.random.default_rng(5)
        for _ in range(4):
            assert_matches_tableau(Protocol(omega0, 0.25, 0.1125,
                                            tuple(rng.uniform(-2.5, 2.5, 48))))


def blocks_of(p):
    return len(_anchored_basis(forward(p, 2))[2])


class TestReanchoring:
    """Hess(beta) restarts its basis solution only where the mode grows."""

    def test_resonant_protocols_are_reanchored(self):
        for args in RESONANT:
            assert blocks_of(resonant_protocol(*args)) > 1

    def test_pool_protocols_and_their_refinements_are_one_block(self):
        paths = sorted(POOL.glob("m*/*.json"))
        assert len(paths) == 13
        for path in paths:
            p = proto.load(path)
            assert blocks_of(p) == 1 and blocks_of(refine(p, 4)) == 1, path.name


class TestGeneratorProduct:
    """Hess(beta) x from the generators, in O(M), is the dense product."""

    @staticmethod
    def assert_matches_dense(p, x):
        gens = _backward(p, forward(p, 2), second_order=True)[1]
        want = beta_hessian(p).hess_beta @ x
        got = _hess_beta_times(gens, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @given(st.integers(1, 48), st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_product(self, m, seed):
        rng = np.random.default_rng(seed)
        p = random_protocol(rng, m, omega_range=(-2.5, 2.5))
        self.assert_matches_dense(p, rng.normal(size=m))

    @pytest.mark.parametrize("args, blocks", zip(RESONANT, (2, 9)),
                             ids=["T{}-M{}-eps{}".format(*a) for a in RESONANT])
    def test_resonant_growth_matches_dense_product(self, args, blocks):
        p = resonant_protocol(*args)
        assert blocks_of(p) == blocks
        self.assert_matches_dense(p, np.random.default_rng(8).normal(size=p.m))

    @pytest.mark.parametrize("omega0", [1e-4, 1e4])
    def test_empty_first_block_matches_dense_product(self, omega0):
        rng = np.random.default_rng(9)
        p = Protocol(omega0, 0.25, 0.1125, tuple(rng.uniform(-2.5, 2.5, 48)))
        assert _anchored_basis(forward(p, 2))[2][0][:2] == [0, 0]
        self.assert_matches_dense(p, rng.normal(size=48))


class TestHessianMemory:
    def test_peak_of_a_hessian_call_is_under_three_matrices(self):
        # Hess(I) is one real M x M array: no complex Hess(beta), no copy
        p = refine(proto.load(sorted(POOL.glob("m48/*.json"))[0]), 4)
        hessian(p)  # a first call may allocate lasting caches
        tracemalloc.start()
        try:
            hessian(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.m == 192 and peak <= 3 * p.m ** 2 * 8


class TestForwardPass:
    """The backward pass on a held forward pass gives the same bits."""

    @pytest.mark.parametrize("m", [1, 2, 3, 48])
    def test_gradient_from_a_forward_pass(self, m):
        for p in oracle_protocols(m):
            fresh = gradient(p)
            for order in (1, 2):
                fw = forward(p, order)
                assert fw.beta == bogoliubov(propagate(p), p.omegaT).beta
                assert abs(fw.beta) ** 2 == infidelity(p)
                held = gradient(p, fw)
                assert held.beta == fresh.beta
                assert np.array_equal(held.grad_beta, fresh.grad_beta)
                assert np.array_equal(held.grad_infidelity, fresh.grad_infidelity)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 48])
    def test_propagation_reads_the_forward_pass(self, m):
        protocols = oracle_protocols(m) if m else [Protocol(1.0, 0.25, _DT, ()),
                                                   Protocol(2.0, 0.7, 0.1, ())]
        for p in protocols:
            final = propagate(p)
            beta = bogoliubov(final, p.omegaT).beta
            for order in (0, 1, 2):
                fw = forward(p, order)
                assert (fw.f, fw.fd) == (final.f, final.fdot)
                assert fw.beta == beta
                assert infidelity(p) == abs(fw.beta) ** 2

    @pytest.mark.parametrize("m", [1, 2, 3, 48])
    def test_hessians_share_their_bits(self, m):
        for p in oracle_protocols(m):
            first, partial, full = gradient(p), beta_hessian(p), hessian(p)
            assert partial.hess_infidelity is None and full.hess_beta is None
            for bundle in (partial, full):
                assert bundle.beta == first.beta
                assert np.array_equal(bundle.grad_beta, first.grad_beta)
                assert np.array_equal(bundle.grad_infidelity, first.grad_infidelity)

    def test_kernel_runs_only_in_the_forward_pass(self, monkeypatch):
        p = random_protocol(np.random.default_rng(3), 8)
        fw, want = forward(p), gradient(p)
        monkeypatch.setattr(math, "cos", None)  # a kernel call would now fail
        assert np.array_equal(gradient(p, fw).grad_beta, want.grad_beta)


class TestFiniteDifferencesAtSeriesThresholds:
    # Central differences carry a rounding error of about eps * I / h (eps * I / h^2
    # for second differences), which dominates where the derivative is small.
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 48])
    def test_gradient(self, m):
        h = 1e-6
        for p in oracle_protocols(m):
            exact = gradient(p)
            fd_infid, fd_beta = fd_gradient(p, h)
            scale = np.max(np.abs(exact.grad_infidelity))
            floor = 10.0 * EPS * max(infidelity(p), 1.0) / h
            # a gradient at omega = 0 is exactly 0 in both
            assert np.max(np.abs(exact.grad_beta - fd_beta)) <= 1e-6 * np.max(np.abs(fd_beta))
            assert np.max(np.abs(exact.grad_infidelity - fd_infid)) <= 1e-6 * scale + floor

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_hessian(self, m):
        h = 1e-4
        for p in oracle_protocols(m):
            exact = hessian(p).hess_infidelity
            floor = 10.0 * EPS * max(infidelity(p), 1.0) / (h * h)
            assert (np.max(np.abs(exact - fd_hessian(p, h)))
                    <= 1e-6 * np.max(np.abs(exact)) + floor)


class TestNonFinite:
    def test_gradient_and_hessian_raise_on_overflow(self):
        p = Protocol(1.0, 0.25, 0.6, (1e308, 1.0, 1.0))
        with pytest.raises(NonFiniteEntry):
            gradient(p)
        with pytest.raises(NonFiniteEntry), np.errstate(all="ignore"):
            hessian(p)


protocols = st.builds(
    lambda omega0, omegaT, dt, omegas: Protocol(omega0, omegaT, dt, tuple(omegas)),
    st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.01, 1.0),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12))


class TestSweepProperties:
    @given(protocols)
    def test_hessian_and_gradient_share_first_order_bits(self, p):
        first, full = gradient(p), hessian(p)
        assert full.beta == first.beta
        assert np.array_equal(full.grad_beta, first.grad_beta)
        assert np.array_equal(full.grad_infidelity, first.grad_infidelity)

    @given(protocols, st.data())
    def test_sign_flip_negates_only_that_hessian_row_and_column(self, p, data):
        # A and A'' are even in omega_k and A' odd: off the diagonal, only
        # row and column k change, by an exact negation
        k = data.draw(st.integers(0, p.m - 1))
        flipped = list(p.omegas)
        flipped[k] = -flipped[k]
        h0 = beta_hessian(p).hess_beta
        h1 = beta_hessian(p.with_omegas(flipped)).hess_beta
        rest = np.arange(p.m) != k
        assert np.array_equal(h1[k, rest], -h0[k, rest])
        assert np.array_equal(h1[rest, k], -h0[rest, k])
        assert np.array_equal(h1[np.ix_(rest, rest)], h0[np.ix_(rest, rest)])
        assert np.array_equal(np.diag(h1), np.diag(h0))

    @given(protocols, st.data())
    def test_sign_flip_negates_only_that_gradient_entry(self, p, data):
        k = data.draw(st.integers(0, p.m - 1))
        flipped = list(p.omegas)
        flipped[k] = -flipped[k]
        g0 = gradient(p)
        g1 = gradient(p.with_omegas(flipped))
        assert g1.beta == g0.beta
        assert g1.grad_beta[k] == -g0.grad_beta[k]
        mask = np.arange(p.m) != k
        assert np.array_equal(g1.grad_beta[mask], g0.grad_beta[mask])
        assert np.array_equal(g1.grad_infidelity[mask], g0.grad_infidelity[mask])
