import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oscnav
from oscnav import objectives
from oscnav import (IndivisibleChunking, NonFiniteEntry, NonSymplectic, Protocol,
                    SecondaryCost, collapse, infidelity, initial_state, propagate, refine,
                    symplectic_final, target_matrix, theta_scan)
from oscnav.propagator import ModeState
from oracles import pair_cost, reference_add_hessian, theta_infidelity

C1 = SecondaryCost("smoothness")


def c2(chunks):
    return SecondaryCost("compression", chunks)


def fd_grad(func, w, h=1e-7):
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        up, dn = w.copy(), w.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (func(up) - func(dn)) / (2 * h)
    return g


def test_every_exported_name_resolves():
    assert all(hasattr(oscnav, name) for name in oscnav.__all__)


class TestCostHessian:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_equals_the_per_column_construction(self, m):
        # both costs are homogeneous quadratics: Hess C e_i = grad C(e_i)
        costs = [C1] + [c2(chunks) for chunks in (1, 2, 3) if m % chunks == 0]
        for cost in costs:
            want = np.array([cost.grad(e) for e in np.eye(m)])
            assert np.array_equal(cost.add_hessian(np.zeros((m, m))), want), cost

    def test_adds_in_place(self):
        base = np.arange(16.0).reshape(4, 4)
        out = base.copy()
        assert c2(2).add_hessian(out) is out
        assert np.array_equal(out - base, c2(2).add_hessian(np.zeros((4, 4))))

    @pytest.mark.parametrize("m", range(1, 65))
    def test_adds_the_dense_pair_graph_laplacian(self, m):
        # integer-valued entries keep every sum exact, so the oracle's one
        # addition per entry must give the same array
        base = np.random.default_rng(m).integers(-50, 50, (m, m)).astype(float)
        for chunks in [None] + [n for n in range(1, m + 1) if m % n == 0]:
            cost = C1 if chunks is None else c2(chunks)
            want = base + pair_cost(np.zeros(m), chunks)[2]
            assert np.array_equal(cost.add_hessian(base.copy()), want), cost

    @pytest.mark.parametrize("cost", [C1, c2(2)], ids=["smoothness", "compression"])
    def test_adds_in_place_into_any_layout(self, cost):
        base = np.random.default_rng(3).integers(-50, 50, (12, 12)).astype(float)
        want = cost.add_hessian(base.copy())
        wide = np.zeros((24, 24))
        for out in (np.asfortranarray(base), wide[::2, ::2], wide[:12, 12:]):
            out[...] = base
            assert cost.add_hessian(out) is out
            assert np.array_equal(out, want)


LAYOUTS = {
    "C": lambda a: a.copy(),
    "F": np.asfortranarray,
    "strided": lambda a: _placed(a, lambda wide, m: wide[::2, ::2]),
    "offset": lambda a: _placed(a, lambda wide, m: wide[1:m + 1, m:]),
}


def _placed(a, view):
    """``a`` copied into an m x m view of a 2m x 2m array."""
    m = len(a)
    out = view(np.zeros((2 * m, 2 * m)), m)
    out[...] = a
    return out


@given(st.integers(1, 70), st.sampled_from(sorted(LAYOUTS)), st.integers(0, 2 ** 32 - 1))
def test_add_hessian_matches_the_reference(m, layout, seed):
    # non-integer entries, one of them a signed zero, so every addition
    # rounds: the bits must be those of the reference's operations
    base = np.random.default_rng(seed).normal(size=(m, m))
    base[0, -1] = -0.0
    for chunks in [None] + [n for n in range(1, m + 1) if m % n == 0]:
        cost = C1 if chunks is None else c2(chunks)
        out = LAYOUTS[layout](base)
        want = reference_add_hessian(cost, base.copy())
        assert cost.add_hessian(out) is out
        assert np.ascontiguousarray(out).tobytes() == want.tobytes(), cost


class TestCostProperties:
    """Both costs against the pair-by-pair oracle, for every chunk count.

    Bit-exactness of C1 under ``refine`` is checked in test_navigator.
    """

    @given(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False), min_size=1, max_size=40))
    def test_matches_the_pair_oracle(self, omegas):
        m = len(omegas)
        for chunks in [None] + [n for n in range(1, m + 1) if m % n == 0]:
            cost = C1 if chunks is None else c2(chunks)
            value, grad, hess = pair_cost(omegas, chunks)
            assert math.isclose(cost.value(omegas), value, rel_tol=1e-12, abs_tol=1e-300)
            assert np.allclose(cost.grad(omegas), grad, rtol=0.0, atol=1e-11)
            assert np.array_equal(cost.add_hessian(np.zeros((m, m))), hess)
            if chunks is not None:  # chunk-constant pulses are exactly free
                flat = np.repeat(omegas[::m // chunks], m // chunks)
                assert cost.value(flat) == 0.0 and np.all(cost.grad(flat) == 0.0)

    def test_compression_memory_is_linear(self):
        # the pairs of one 2048-pulse chunk would take tens of MB
        w = np.random.default_rng(5).uniform(0.1, 2.0, 2048)
        tracemalloc.start()
        try:
            c2(1).value(w)
            c2(1).grad(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestSmoothnessCost:
    def test_constant_sequence_is_free(self):
        assert C1.value([2.0] * 10) == 0.0
        assert np.all(C1.grad([2.0] * 10) == 0.0)

    def test_arithmetic(self):
        assert C1.value([1.0, 2.0, 4.0]) == pytest.approx(5.0)

    def test_short_sequences(self):
        assert C1.value([]) == 0.0
        assert C1.value([3.0]) == 0.0
        assert C1.grad([]).shape == (0,)
        assert np.array_equal(C1.grad([3.0]), [0.0])

    def test_gradient_matches_fd(self):
        # h = 1e-7 round-off is ~eps*C1/h, so keep the cost at modest scale
        rng = np.random.default_rng(1)
        w = rng.uniform(-0.3, 0.3, 8)
        assert np.max(np.abs(C1.grad(w) - fd_grad(C1.value, w))) < 1e-8
        # the cost is exactly quadratic, so a coarse step has no truncation error
        assert np.max(np.abs(C1.grad(w) - fd_grad(C1.value, w, h=1e-3))) < 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(-2, 2, 9)
        assert C1.value(w + 0.7) == pytest.approx(C1.value(w), rel=1e-12)
        assert abs(np.sum(C1.grad(w))) < 1e-12


class TestCompressionCost:
    def test_arithmetic(self):
        assert c2(2).value([1.0, 3.0, 2.0, 2.0]) == pytest.approx(4.0)

    def test_chunk_constant_is_free(self):
        w = np.repeat([1.0, 2.5, -0.5], 4)
        assert c2(3).value(w) == 0.0
        assert np.all(c2(3).grad(w) == 0.0)
        assert c2(1).value(()) == 0.0
        assert c2(1).grad(()).shape == (0,)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(-0.3, 0.3, 12)
        cost = c2(3)
        assert np.max(np.abs(cost.grad(w) - fd_grad(cost.value, w))) < 1e-8
        assert np.max(np.abs(cost.grad(w) - fd_grad(cost.value, w, h=1e-3))) < 1e-10

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(-2, 2, 8)
        assert c2(2).value(w + 1.3) == pytest.approx(c2(2).value(w), rel=1e-12)
        assert abs(np.sum(c2(2).grad(w))) < 1e-12

    @pytest.mark.parametrize("split", [
        lambda w: collapse(Protocol(1.0, 0.25, 0.1, tuple(w)), 3),
        lambda w: c2(3).value(w),
        lambda w: c2(3).grad(w),
        lambda w: c2(3).add_hessian(np.zeros((len(w), len(w)))),
    ], ids=["collapse", "value", "grad", "add_hessian"])
    def test_rejects_indivisible(self, split):
        # one chunk split, in protocol, refuses M = 8 for all four alike
        with pytest.raises(IndivisibleChunking, match=r"^M=8 is not divisible by L=3$"):
            split([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])

    # eighths, so that every deviation from a chunk mean that is not 0 is at
    # least 1/(8K): the rounding of a mean near 5 cannot swamp it
    @given(st.lists(st.integers(-40, 40).map(lambda n: n / 8), min_size=1, max_size=24),
           st.data())
    def test_is_k_times_the_distance_to_the_refined_collapse(self, omegas, data):
        m = len(omegas)
        chunks = data.draw(st.sampled_from([n for n in range(1, m + 1) if m % n == 0]))
        k = m // chunks
        flat = refine(collapse(Protocol(1.0, 0.25, 0.1, tuple(omegas)), chunks), k).omegas
        e = np.subtract(omegas, flat)
        assert math.isclose(c2(chunks).value(omegas), k * (e @ e), rel_tol=1e-12)
        assert c2(chunks).value(flat) == 0.0

    def test_chunk_constant_survives_refinement(self):
        p = Protocol(1.0, 0.25, 0.1, tuple(np.repeat([0.4, 1.9], 3)))
        assert c2(2).value(p.omegas) == 0.0
        assert c2(2).value(refine(p, 2).omegas) == 0.0


class TestSecondaryCost:
    def test_dispatch(self):
        w = [1.0, 2.0, 4.0, 4.0]
        assert SecondaryCost("smoothness").value(w) == pytest.approx(5.0)
        assert SecondaryCost("compression", 2).value(w) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SecondaryCost("sharpness")
        with pytest.raises(ValueError):
            SecondaryCost("compression")
        # a chunk count that would construct and then fail inside value
        for chunks in (0, 2.0, True, "2"):
            with pytest.raises(ValueError, match="integer >= 1"):
                SecondaryCost("compression", chunks)
        with pytest.raises(ValueError, match="no chunk count"):
            SecondaryCost("smoothness", 3)


class TestSymplecticFinal:
    def test_initial_state_gives_identity(self):
        s = symplectic_final(initial_state(0.7), 0.7)
        assert np.max(np.abs(s - np.eye(2))) < 1e-15

    def test_unit_determinant_after_propagation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(1, 20))
            p = Protocol(1.0, 0.25, float(rng.uniform(0.05, 0.5)),
                         tuple(rng.uniform(-2, 2, m)))
            s = symplectic_final(propagate(p), p.omega0)
            assert abs(np.linalg.det(s) - 1.0) < 1e-10

    def test_resonant_trap_rotation_form(self):
        w0, m, dt = 1.3, 11, 0.21
        p = Protocol(w0, w0, dt, (w0,) * m)
        s = symplectic_final(propagate(p), w0)
        t = m * dt
        expect = np.array([[np.cos(w0 * t), np.sin(w0 * t) / w0],
                           [-w0 * np.sin(w0 * t), np.cos(w0 * t)]])
        assert np.max(np.abs(s - expect)) < 1e-12

    def test_rejects_invalid_state(self):
        with pytest.raises(NonSymplectic):
            symplectic_final(ModeState(1.0 + 0j, 1.0 + 0j), 1.0)

    def test_strongly_driven_protocol_scans(self):
        # omega(t) = 1 + 0.9 cos 2t over T = 40 grows |f| to 6e5: det S
        # rounds to 1 - 1.5e-5, 9e-17 relative to |s00 s11| + |s01 s10|
        t = (np.arange(256) + 0.5) * (40.0 / 256)
        p = Protocol(1.0, 0.25, 40.0 / 256, tuple(1.0 + 0.9 * np.cos(2.0 * t)))
        s = symplectic_final(propagate(p), p.omega0)
        assert abs(s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0] - 1.0) > 1e-8
        _, values, _, value_min = theta_scan(p, 64)
        assert np.isfinite(values).all() and value_min <= values.min()

    def test_rejects_a_large_state_off_by_more_than_rounding(self):
        # det S = 2 b c - 2 a d with both products about 2e12, and d sets det
        # to 1 + 4e6: 1e-6 of their sum, far above its rounding
        a = b = c = 1e6
        d = (2e12 - 1.0 - 4e6) / 2e6
        with pytest.raises(NonSymplectic, match="by 4e\\+06"):
            symplectic_final(ModeState(complex(a, b), complex(c, d)), 1.0)

    def test_rejects_overflowing_finite_state(self):
        # finite entries whose doubled real and imaginary parts overflow:
        # S holds infinities, its det is NaN, and the det check rejects it
        with pytest.raises(NonSymplectic):
            symplectic_final(ModeState(1e308 + 1e308j, 1j), 1.0)

    @pytest.mark.parametrize("state", [ModeState(complex("nan"), 1j),
                                       ModeState(1.0 + 0j, complex(0.0, math.inf))])
    def test_rejects_non_finite_state(self, state):
        with pytest.raises(NonFiniteEntry):
            symplectic_final(state, 1.0)

    def test_overflowing_protocol_is_not_a_nan_landscape(self):
        # omega * dt overflows the step kernel: the mode state is NaN
        p = Protocol(1.0, 0.25, 0.6, (1e308, 1.0, 1.0))
        with pytest.raises(NonFiniteEntry):
            theta_infidelity(p, 0.0)
        with pytest.raises(NonFiniteEntry):
            theta_scan(p, 16)

    def test_squeezed_state_is_not_an_infinite_landscape(self, monkeypatch):
        # theta_scan refuses the J it computes, not only b and c: this finite,
        # physical state (det S = 1, Wronskian i) has finite b and c, but
        # |S|^2 ~ 1e320 makes every J infinite
        monkeypatch.setattr(objectives, "propagate", lambda p: SQUEEZED)
        with pytest.raises(NonFiniteEntry, match="theta landscape"), \
                np.errstate(over="ignore"):
            theta_scan(Protocol(1.0, 0.25, 0.6, (1.0, 1.0, 1.0)), 16)


# f = 1e160/sqrt 2, f' = -1e-160 i/sqrt 2 at omega0 = 1: S = diag(1e160, 1e-160)
SQUEEZED = ModeState(complex(1e160 / math.sqrt(2.0)), complex(0.0, -1e-160 / math.sqrt(2.0)))


class TestTargetMatrix:
    def test_theta_zero_diagonal(self):
        w = target_matrix(0.0, 1.0, 0.25)
        assert np.max(np.abs(w - np.diag([2.0, 0.5]))) < 1e-14

    def test_unit_determinant(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            w = target_matrix(float(rng.uniform(0, 2 * np.pi)),
                              float(rng.uniform(0.2, 3)), float(rng.uniform(0.2, 3)))
            assert abs(np.linalg.det(w) - 1.0) < 1e-12

    def test_matches_complex_form(self):
        # W(theta) from the mode pair: sqrt(w0/(4 wT)) e^{it} [[1 + q, i(1 - q)/w0],
        # [-i wT (1 - q), (wT/w0)(1 + q)]] with q = e^{-2it}, real up to rounding
        rng = np.random.default_rng(11)
        for _ in range(200):
            theta = float(rng.uniform(-10, 10))
            w0, wt = float(rng.uniform(0.05, 5)), float(rng.uniform(0.05, 5))
            ph = np.exp(1j * theta)
            q = np.conj(ph * ph)
            cplx = np.sqrt(w0 / (4 * wt)) * ph * np.array(
                [[1 + q, 1j * (1 - q) / w0], [-1j * wt * (1 - q), (wt / w0) * (1 + q)]])
            got = target_matrix(theta, w0, wt)
            scale = max(1.0, np.max(np.abs(got)))
            assert np.max(np.abs(np.imag(cplx))) < 1e-12 * scale
            assert np.max(np.abs(np.real(cplx) - got)) < 1e-12 * scale

    def test_periodicity(self):
        a = target_matrix(0.8, 1.0, 0.25)
        b = target_matrix(0.8 + 2 * np.pi, 1.0, 0.25)
        assert np.max(np.abs(a - b)) < 1e-13


class TestThetaLandscape:
    def test_resonant_trap_minimum_at_minus_w0T(self):
        w0, m, dt = 1.0, 9, 0.2
        p = Protocol(w0, w0, dt, (w0,) * m)
        theta_star = -w0 * m * dt
        assert theta_infidelity(p, theta_star) < 1e-24
        # convention check: the opposite sign is far from zero
        assert theta_infidelity(p, -theta_star) > 1e-2

    def test_scan_recovers_solution_phase(self):
        w0, m, dt = 1.0, 9, 0.2
        p = Protocol(w0, w0, dt, (w0,) * m)
        thetas, values, theta_min, value_min = theta_scan(p, 1024)
        assert len(thetas) == len(values) == 1024
        assert value_min < 1e-20
        expected = (-w0 * m * dt) % (2 * np.pi)
        assert min(abs(theta_min - expected), abs(theta_min - expected + 2 * np.pi),
                   abs(theta_min - expected - 2 * np.pi)) < 1e-6

    def test_nonsolution_floor(self):
        p = Protocol(1.0, 0.25, 0.6, (1.0, 1.0, 1.0))
        assert infidelity(p) > 1e-2
        _, _, _, value_min = theta_scan(p, 1024)
        assert value_min > 1e-3

    def test_grid_is_uniform_on_circle(self):
        thetas, _, _, _ = theta_scan(Protocol(1.0, 1.0, 0.2, (1.0,) * 4), 64)
        assert thetas[0] == 0.0
        assert np.allclose(np.diff(thetas), 2 * np.pi / 64)

    def test_returned_grid_cannot_change_the_next_scan(self):
        # the grid is built once per size and shared by later scans, so the
        # array a scan returns refuses writes
        p = Protocol(1.0, 1.0, 0.2, (1.0,) * 4)
        thetas = theta_scan(p, 64)[0]
        with pytest.raises(ValueError, match="read-only"):
            thetas[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            thetas *= 2.0
        again = theta_scan(p, 64)[0]
        assert again.tolist() == np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False).tolist()

    def test_float_size_is_refused_after_an_equal_integer_size(self):
        p = Protocol(1.0, 1.0, 0.2, (1.0,) * 4)
        theta_scan(p, 64)
        with pytest.raises(ValueError):
            theta_scan(p, 64.0)


def golden_section_min(p, thetas, values):
    """Oracle: golden section on J over the two grid cells around the best grid point."""
    s = symplectic_final(propagate(p), p.omega0)

    def val(theta):
        diff = s - target_matrix(theta, p.omega0, p.omegaT)
        return float(np.sum(diff * diff))

    k = int(np.argmin(values))
    h = 2.0 * math.pi / len(thetas)
    a, b = thetas[k] - h, thetas[k] + h
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = val(x1), val(x2)
    while b - a >= 1e-13:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = val(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = val(x2)
    return 0.5 * (a + b)


def circle_distance(x, y):
    return abs((x - y + math.pi) % (2.0 * math.pi) - math.pi)


# omega0 = 1 or omegaT = 1 makes the cos(2 theta) term vanish (a cubic, not a quartic)
frequencies = st.one_of(st.just(1.0), st.floats(0.1, 4.0))
landscape_protocols = st.builds(
    lambda omega0, omegaT, dt, omegas: Protocol(omega0, omegaT, dt, tuple(omegas)),
    frequencies, frequencies, st.floats(0.01, 1.0),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12))


class TestClosedFormLandscape:
    @given(landscape_protocols, st.integers(32, 256))
    def test_grid_and_minimum_against_scalar_oracles(self, p, points):
        thetas, values, theta_min, value_min = theta_scan(p, points)
        want = np.array([theta_infidelity(p, t) for t in thetas])
        assert np.all(np.abs(values - want) <= 1e-12 * np.abs(want) + 1e-15)
        assert value_min <= np.min(values)
        assert theta_min not in thetas.tolist()
        # comparing values resolves a minimum only to sqrt(eps J / J''), which
        # exceeds 1e-8 once J is of order one; J'' = 2|W'|^2 + 2<S - W, W>
        s = symplectic_final(propagate(p), p.omega0)
        w = target_matrix(theta_min, p.omega0, p.omegaT)
        w_prime = target_matrix(theta_min + math.pi / 2, p.omega0, p.omegaT)
        curvature = 2.0 * np.sum(w_prime * w_prime) + 2.0 * np.sum((s - w) * w)
        resolution = math.sqrt(np.finfo(float).eps * value_min / curvature)
        assert (circle_distance(theta_min, golden_section_min(p, thetas, values))
                <= max(1e-8, 10.0 * resolution))
