import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oscnav import (NegativeOccupation, NonFiniteEntry, NonPositiveFrequency,
                    Protocol, bogoliubov, gradient, hessian, infidelity,
                    initial_state, particle_number, propagate, refine,
                    theta_scan, wronskian_defect)
from oscnav import propagator
from oscnav.objectives import symplectic_final
from oscnav.propagator import SERIES_THRESHOLD, ModeState
from oracles import step_matrix

TASK = (1.0, 0.25, 1.8)  # omega0, omegaT, T used throughout


def random_protocols(seed, count, m_range=(1, 64), omega_range=(-2.0, 2.0),
                     dt_range=(0.01, 0.5)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        yield Protocol(1.0, 0.25, float(rng.uniform(*dt_range)),
                       tuple(rng.uniform(*omega_range, m)))


class TestInitialState:
    def test_unit_trap(self):
        s = initial_state(1.0)
        assert s.f == pytest.approx(0.7071067811865476)
        assert s.fdot == pytest.approx(-0.7071067811865476j)

    def test_omega0_2(self):
        s = initial_state(2.0)
        assert s.f == pytest.approx(0.5)
        assert s.fdot == pytest.approx(-1.0j)

    def test_wronskian_holds_for_any_frequency(self):
        for w0 in (0.01, 0.3, 1.0, 7.5, 123.0):
            assert wronskian_defect(initial_state(w0)) < 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveFrequency):
            initial_state(0.0)


class TestStepMatrix:
    def test_free_particle_limit(self):
        assert step_matrix(0.0, 0.5).tolist() == [[1.0, 0.5], [0.0, 1.0]]

    def test_frozen_trig_values(self):
        # independently computed at 40 significant digits
        a = step_matrix(0.5, 1.8)
        expect = np.array([[0.6216099682706645, 1.5666538192549668],
                           [-0.39166345481374171, 0.6216099682706645]])
        assert np.max(np.abs(a - expect)) < 1e-15

    def test_even_in_omega(self):
        for w in (0.3, 1.7, 2.5):
            assert np.array_equal(step_matrix(w, 0.7), step_matrix(-w, 0.7))

    def test_unit_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = step_matrix(float(rng.uniform(-5, 5)), float(rng.uniform(0.01, 2)))
            assert abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] - 1.0) < 1e-14

    def test_series_branch_is_continuous(self):
        # entries must agree with sin(x) across the series/direct threshold,
        # and inside the series branch at 1e-4
        dt = 0.37
        for w in (t / dt * side for t in (1e-4, SERIES_THRESHOLD) for side in (0.999, 1.001)):
            a = step_matrix(w, dt)
            x = w * dt
            assert a[0, 1] == pytest.approx(np.sin(x) / w, rel=1e-13)
            assert a[1, 0] == pytest.approx(-w * np.sin(x), rel=1e-13)


class TestStepEntries:
    @given(st.floats(-50.0, 50.0), st.floats(1e-3, 2.0))
    @example(SERIES_THRESHOLD / 0.37 * 0.999, 0.37)
    @example(SERIES_THRESHOLD / 0.37 * 1.001, 0.37)
    @example(0.0, 0.7)
    @example(1e-3, 0.7)
    @example(-0.5, 0.7)
    @example(2.0, 0.7)
    def test_one_record_of_six_entries(self, w, dt):
        # A's entries, then x, sinc x and q, on either side of the series
        # threshold: x = omega dt and a01 = dt sinc x to the bit, x odd and
        # sinc x and q even in omega
        entries = propagator._step_entries(w, dt)
        assert len(entries) == 6
        c, a01, a10, x, snc, q = entries
        assert x == w * dt and a01 == dt * snc
        assert propagator._step_entries(-w, dt) == (c, a01, a10, -x, snc, q)

    @given(st.floats(-50.0, 50.0), st.floats(1e-3, 2.0))
    @example(SERIES_THRESHOLD / 0.37 * 0.999, 0.37)
    @example(SERIES_THRESHOLD / 0.37 * 1.001, 0.37)
    def test_lower_orders_are_prefixes_of_higher_ones(self, w, dt):
        # the record's leading entries are A, which propagation reads; they
        # are formed, to the bit, from the cos x and sinc x of its tail, from
        # which the backward pass forms A' and A''. On either side of the
        # series threshold they are A's closed form.
        c, a01, a10, x, snc, _ = propagator._step_entries(w, dt)
        assert (c, a01, a10) == (math.cos(x), dt * snc, -(w * w) * dt * snc)
        a = step_matrix(w, dt)
        assert a[0, 1] == pytest.approx(dt if w == 0.0 else math.sin(w * dt) / w, rel=1e-13)
        assert a[1, 0] == pytest.approx(-w * math.sin(w * dt), rel=1e-13, abs=1e-300)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(0.0, exclude_min=True, allow_infinity=False))
    @example(1e-170, 2e168)
    @example(1e-200, 1e300)
    def test_a_finite_product_raises_nothing(self, w, dt):
        # omega^2 underflows to 0 at 1e-170 while omega dt = 0.02 is above
        # the series threshold: q, whose dt^2 overflows, is infinite
        assume(math.isfinite(w * dt))
        assert len(propagator._step_entries(w, dt)) == 6


def _bits(pair):
    return [(z.real.hex(), z.imag.hex()) for z in pair]


class TestBoundaryRows:
    """The memoised rows are their closed forms, whatever the cache holds."""

    @staticmethod
    def _closed_forms(w):
        r = 1.0 / math.sqrt(2.0 * w)
        return ((complex(1.0 / math.sqrt(2.0 * w), 0.0), complex(0.0, -math.sqrt(w / 2.0))),
                (complex(w * r), complex(0.0, -r)))

    @given(st.one_of(st.integers(1, 2 ** 53), st.floats(5e-324, 1e308)))
    def test_memoised_rows_are_their_closed_forms(self, w):
        # an int and a float of equal value share a cache entry, in either order
        keys = (w, float(w)) if isinstance(w, int) else (w,)
        for order in (keys, keys[::-1]):
            propagator._ground.cache_clear()
            propagator._beta_row.cache_clear()
            for key in order:
                ground, row = self._closed_forms(key)
                assert _bits(propagator._ground(key)) == _bits(ground)
                assert _bits(propagator._beta_row(key)) == _bits(row)


class TestPropagate:
    def test_m0_returns_initial_state(self):
        s = propagate(Protocol(1.0, 0.25, 0.6, ()))
        assert s == initial_state(1.0)

    def test_constant_resonant_trap_is_stationary(self):
        for m, dt in ((5, 0.37), (48, 1.8 / 48)):
            p = Protocol(1.0, 1.0, dt, (1.0,) * m)
            s = propagate(p)
            t = m * dt
            expect_f = np.exp(-1j * t) / np.sqrt(2)
            assert abs(s.f - expect_f) < 1e-13
            assert abs(s.fdot - (-1j) * expect_f) < 1e-13

    def test_single_step_frozen_values(self):
        # cross-checked against mpmath closed form and a DOP853 integration
        s = propagate(Protocol(1.0, 0.25, 1.8, (0.5,)))
        assert s.f == pytest.approx(0.4395446238173415 - 1.1077915393669908j, abs=1e-15)
        assert s.fdot == pytest.approx(-0.2769478848417477 - 0.4395446238173415j, abs=1e-15)

    def test_against_independent_ode_integration(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = int(rng.integers(2, 9))
            p = Protocol(1.0, 0.25, float(rng.uniform(0.1, 0.5)),
                         tuple(rng.uniform(-2, 2, m)))
            y = [1 / np.sqrt(2), 0.0, 0.0, -1 / np.sqrt(2)]
            for w in p.omegas:
                sol = scipy_integrate.solve_ivp(
                    lambda t, s: [s[2], s[3], -w * w * s[0], -w * w * s[1]],
                    (0.0, p.dt), y, rtol=1e-12, atol=1e-14, method="DOP853")
                y = sol.y[:, -1]
            s = propagate(p)
            assert abs(s.f - complex(y[0], y[1])) < 1e-9
            assert abs(s.fdot - complex(y[2], y[3])) < 1e-9

    def test_flip_sign_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = int(rng.integers(1, 10))
            w = rng.uniform(-2, 2, m)
            p = Protocol(1.0, 0.25, 0.3, tuple(w))
            k = int(rng.integers(0, m))
            w2 = w.copy()
            w2[k] = -w2[k]
            a, b = propagate(p), propagate(p.with_omegas(w2))
            assert abs(a.f - b.f) <= 1e-14
            assert abs(a.fdot - b.fdot) <= 1e-14


# down to |omega| = 1e-7, so |omega * dt| falls below SERIES_THRESHOLD as well
pulses = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                           st.sampled_from((1.0, -1.0)), st.floats(-7.0, 0.7)))


class TestFlipSignEvenness:
    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.01, 1.0),
           st.lists(pulses, min_size=1, max_size=12), st.data())
    def test_negating_one_pulse_is_bit_exact(self, omega0, omegaT, dt, omegas, data):
        k = data.draw(st.integers(0, len(omegas) - 1))
        p = Protocol(omega0, omegaT, dt, tuple(omegas))
        flipped = list(omegas)
        flipped[k] = -flipped[k]
        assert propagate(p) == propagate(p.with_omegas(flipped))


class TestBogoliubov:
    def test_sudden_quench_closed_form(self):
        pair = bogoliubov(initial_state(1.0), 0.25)
        assert pair.beta == pytest.approx(-0.75, abs=1e-15)
        assert pair.alpha == pytest.approx(1.25, abs=1e-15)

    def test_resonant_trap_is_frictionless(self):
        p = Protocol(1.0, 1.0, 0.37, (1.0,) * 7)
        pair = bogoliubov(propagate(p), 1.0)
        assert abs(pair.beta) < 1e-14
        assert abs(pair.alpha) == pytest.approx(1.0, abs=1e-13)
        assert np.angle(pair.alpha) == pytest.approx(
            np.angle(np.exp(-1j * p.duration)), abs=1e-12)

    def test_single_step_frozen_beta(self):
        pair = bogoliubov(propagate(Protocol(1.0, 0.25, 1.8, (0.5,))), 0.25)
        assert pair.beta == pytest.approx(-0.46620747620299835 + 0.0j, abs=1e-14)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(NonPositiveFrequency):
            bogoliubov(initial_state(1.0), -1.0)


class TestInfidelity:
    def test_resonant_is_zero(self):
        assert infidelity(Protocol(1.0, 1.0, 0.2, (1.0,) * 9)) < 1e-28

    def test_sudden_quench_value(self):
        assert infidelity(Protocol(1.0, 0.25, 0.6, ())) == pytest.approx(0.5625, abs=1e-12)

    def test_single_step_value(self):
        assert infidelity(Protocol(1.0, 0.25, 1.8, (0.5,))) == pytest.approx(
            0.21734941086756926, abs=1e-14)


class TestOverflow:
    # the propagation overflows though every pulse is finite: at 40 pulse
    # pairs beta is finite but |beta|^2 exceeds the float range, at 60 the
    # state is NaN, and a pulse of 1e200 makes omega^2 infinite, which the
    # forward pass names once beta has overflowed
    @pytest.mark.parametrize("p, match", [
        (Protocol(1.0, 0.25, 1.0, (1e6, 1e-3) * 40), "overflows"),
        (Protocol(1.0, 0.25, 1.0, (1e6, 1e-3) * 60), "overflows"),
        (Protocol(1.0, 0.25, 0.6, (1e200, 1.0)), re.escape("omegas[0] ** 2 overflows"))],
        ids=["beta-squared", "nan-state", "omega-squared"])
    @pytest.mark.parametrize("run", [infidelity, propagate, gradient, hessian],
                             ids=lambda f: f.__name__)
    def test_is_a_non_finite_entry(self, run, p, match):
        with pytest.raises(NonFiniteEntry, match=match):
            run(p)

    @pytest.mark.parametrize("omegas, name", [((1e308, 1.0), "omegas[0]"),
                                              ((1.0, 1e308, 1.0), "omegas[1]")])
    @pytest.mark.parametrize("run", [infidelity, propagate, gradient, hessian,
                                     lambda p: theta_scan(p, 16)],
                             ids=["infidelity", "propagate", "gradient", "hessian",
                                  "theta_scan"])
    def test_overflowing_step_names_its_pulse(self, run, omegas, name):
        # omega*dt = 1e309 is infinite, which the kernel's math.cos refuses
        with pytest.raises(NonFiniteEntry, match=re.escape(name)):
            run(Protocol(1.0, 0.25, 10.0, omegas))


class TestParticleNumber:
    def test_frictionless_preserves_occupation(self):
        assert particle_number(5.0, 0.0) == 5.0

    def test_vacuum_heating(self):
        assert particle_number(0.0, -0.75) == pytest.approx(0.5625)

    def test_excited_heating(self):
        assert particle_number(1.0, -0.75) == pytest.approx(2.6875)

    def test_rejects_negative_occupation(self):
        with pytest.raises(NegativeOccupation):
            particle_number(-0.1, 0.0)


class TestConservation:
    def test_random_protocol_suite(self):
        # |alpha|^2 - |beta|^2 = 1 and Wronskian preserved over a big sample
        for p in random_protocols(seed=2024, count=300):
            s = propagate(p)
            assert wronskian_defect(s) < 1e-10
            pair = bogoliubov(s, p.omegaT)
            assert abs(abs(pair.alpha) ** 2 - abs(pair.beta) ** 2 - 1.0) < 1e-10

    def test_long_product_wronskian(self):
        rng = np.random.default_rng(5)
        p = Protocol(1.0, 0.25, 0.05, tuple(rng.uniform(-2, 2, 1000)))
        assert wronskian_defect(propagate(p)) < 1e-10

    def test_deliberately_invalid_state(self):
        assert wronskian_defect(ModeState(1.0 + 0j, 1.0 + 0j)) == pytest.approx(1.0)

    def test_refine_invariance(self):
        for p in random_protocols(seed=77, count=50, m_range=(1, 16)):
            a, b = propagate(p), propagate(refine(p, 2))
            assert abs(a.f - b.f) < 1e-12
            assert abs(a.fdot - b.fdot) < 1e-12


@given(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(0.01, 0.5),
       st.lists(st.floats(-5.0, 5.0), max_size=24))
def test_conservation_on_random_protocols(omega0, omegaT, dt, omegas):
    p = Protocol(omega0, omegaT, dt, tuple(omegas))
    s = propagate(p)
    pair = bogoliubov(s, omegaT)
    assert abs(abs(pair.alpha) ** 2 - abs(pair.beta) ** 2 - 1.0) < 1e-9
    assert abs(np.linalg.det(symplectic_final(s, omega0)) - 1.0) < 1e-9
