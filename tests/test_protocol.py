import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from oscnav import (EmptyProtocol, IndivisibleChunking, NavigationConfig, NonFiniteEntry,
                    NonPositiveFrequency, Protocol, SecondaryCost, TraceConfig, bogoliubov,
                    collapse, gradient, hessian, infidelity, initial_state, navigate,
                    propagate, refine, symplectic_final, target_matrix, theta_scan,
                    trace_levelset, validate)
from oscnav import protocol as proto
from oscnav.protocol import from_json, to_json

FIG1 = Protocol(1.0, 0.25, 0.6, (1.0, 1.0, 1.0))


def test_validate_accepts_fig1_task():
    assert validate(FIG1) is FIG1


@pytest.mark.parametrize("field,value", [("omega0", 0.0), ("omegaT", -0.25), ("dt", 0.0)])
def test_validate_rejects_nonpositive(field, value):
    kwargs = {"omega0": 1.0, "omegaT": 0.25, "dt": 0.6, "omegas": (1.0,)}
    kwargs[field] = value
    with pytest.raises(NonPositiveFrequency):
        validate(Protocol(**kwargs))


def test_validate_rejects_nonfinite_pulse():
    with pytest.raises(NonFiniteEntry):
        validate(Protocol(1.0, 0.25, 0.6, (1.0, math.nan)))
    with pytest.raises(NonFiniteEntry):
        validate(Protocol(1.0, 0.25, 0.6, (1.0, math.inf)))


def test_protocol_is_valid_by_construction():
    with pytest.raises(NonPositiveFrequency):
        Protocol(1.0, 0.25, -0.6, (1.0,))
    with pytest.raises(NonFiniteEntry):
        FIG1.with_omegas([1.0, math.nan, 1.0])
    with pytest.raises(NonFiniteEntry):
        Protocol(1.0, 0.25, 0.6, ("1.0",))


def test_with_omegas_converts_pulses_to_floats():
    p = FIG1.with_omegas(np.array([1, 2, 3]))
    assert p.omegas == (1.0, 2.0, 3.0)
    assert all(type(w) is float for w in p.omegas)
    # numpy turns a missing pulse into nan, which validation names
    with pytest.raises(NonFiniteEntry, match=r"omegas\[1\]"):
        FIG1.with_omegas([1.0, None, 1.0])


@pytest.mark.parametrize("field", ["omega0", "omegaT", "dt"])
def test_bool_boundary_frequency_or_step_is_refused(field):
    kwargs = {"omega0": 1.0, "omegaT": 0.25, "dt": 0.6, "omegas": (0.5, 1.2, 0.7)}
    kwargs[field] = True
    with pytest.raises(NonPositiveFrequency, match=field):
        Protocol(**kwargs)


@pytest.mark.parametrize("pulse", [True, False, np.True_])
def test_bool_pulse_is_refused_and_named(pulse):
    with pytest.raises(NonFiniteEntry, match=r"omegas\[2\]"):
        Protocol(1.0, 0.25, 0.6, (0.5, 1.2, pulse))


@pytest.mark.parametrize("pulse", [np.int64(1), np.float32(0.5), 2])
def test_numpy_scalar_pulse_is_accepted_and_the_bad_pulse_named(pulse):
    # the pulse named is the first that fails the check, not the first
    # whose type is not int or float
    with pytest.raises(NonFiniteEntry, match=r"omegas\[1\]"):
        Protocol(1.0, 0.25, 0.6, (pulse, math.nan))
    with pytest.raises(NonFiniteEntry, match=r"omegas\[1\]"):
        FIG1.with_omegas((pulse, math.nan, 1.0))


def test_constructed_protocol_holds_python_floats():
    p = Protocol(1.0, 0.25, 0.6, (np.int64(1), 2.0, np.float32(0.5), 3))
    assert p.omegas == (1.0, 2.0, 0.5, 3.0)
    assert all(type(w) is float for w in p.omegas)
    assert from_json(to_json(p)) == p


def test_boundary_fields_are_stored_as_floats():
    p = Protocol(2, 1, np.int64(1), (3,))
    assert (p.omega0, p.omegaT, p.dt, p.omegas) == (2.0, 1.0, 1.0, (3.0,))
    assert all(type(v) is float for v in (p.omega0, p.omegaT, p.dt))
    assert to_json(p).startswith('{"omega0": 2.0, "omegaT": 1.0, "dt": 1.0')


def test_pulse_too_large_for_a_float_is_named():
    with pytest.raises(NonFiniteEntry, match=r"omegas\[1\]"):
        Protocol(1.0, 0.25, 0.6, (1.0, 10 ** 400))


# every function that takes a boundary frequency alone, with that frequency
# as its one free argument
_BOUNDARY_CALLS = {
    "initial_state": initial_state,
    "bogoliubov": lambda v: bogoliubov(initial_state(1.0), v),
    "symplectic_final": lambda v: symplectic_final(initial_state(1.0), v),
    "target_matrix-omega0": lambda v: target_matrix(0.8, v, 0.25),
    "target_matrix-omegaT": lambda v: target_matrix(0.8, 1.0, v),
}


@pytest.mark.parametrize("call", _BOUNDARY_CALLS.values(), ids=_BOUNDARY_CALLS.keys())
@pytest.mark.parametrize("value", [True, 0.0, -0.25, math.inf, math.nan, "1.0", 10 ** 400],
                         ids=["bool", "zero", "negative", "inf", "nan", "str",
                              "beyond-float-range"])
def test_boundary_frequency_is_checked_as_validate_checks_it(call, value):
    # validate refuses each of these as omega0 or omegaT
    with pytest.raises(NonPositiveFrequency):
        Protocol(value, 0.25, 0.6, (1.0,))
    with pytest.raises(NonPositiveFrequency):
        call(value)


# every kind of pulse sequence with_omegas meets: sequences of floats (nan,
# inf, -0.0 and subnormals included), ints, bools, numpy scalars, None and
# strings, and arrays that take its 1-D float64 path or miss it by dtype or
# shape
_PULSE = st.one_of(st.floats(), st.integers(-10 ** 6, 10 ** 6), st.booleans(),
                   st.floats().map(np.float64), st.floats(width=32).map(np.float32),
                   st.integers(-10 ** 6, 10 ** 6).map(np.int64), st.booleans().map(np.bool_),
                   st.sampled_from([None, "0.5"]))
_PULSES = st.one_of(
    st.lists(_PULSE, max_size=6),
    st.lists(_PULSE, max_size=6).map(tuple),
    st.lists(st.floats(), max_size=6).map(tuple),
    npst.arrays(np.float64, st.integers(0, 6)),
    npst.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3))),
    npst.arrays(np.float32, st.integers(0, 6)),
    npst.arrays(np.int64, st.integers(0, 6)))


def _outcome(make):
    """The fields of ``make()`` as bits and types, or the type and message
    of what it raised."""
    try:
        q = make()
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)
    fields = (q.omega0, q.omegaT, q.dt) + q.omegas
    return np.array(fields).tobytes(), tuple(map(type, fields))


@given(_PULSES)
@example(["0.5", True, 2])
@example(np.zeros((3, 2)))
@example(np.array([1.0, math.nan]))
def test_with_omegas_is_the_validated_constructor(omegas):
    # with_omegas checks only the pulses; the copy it makes, to the bit, or
    # the error it raises, to the message, is the fully validated
    # constructor's. The boundary fields are carried over unchanged
    p = Protocol(2, 0.25, 0.6, (1.0,))
    assert (_outcome(lambda: p.with_omegas(omegas))
            == _outcome(lambda: Protocol(p.omega0, p.omegaT, p.dt, omegas)))


def test_with_omegas_refuses_a_2d_array_as_the_constructor_does():
    p = Protocol(1.0, 0.25, 0.6, (1.0, 2.0, 3.0))
    for make in (p.with_omegas, lambda w: Protocol(1.0, 0.25, 0.6, w)):
        with pytest.raises(NonFiniteEntry,
                           match=r"omegas\[0\] is not a finite real: array\(\[0., 0.\]\)"):
            make(np.zeros((3, 2)))


def test_pulses_from_a_one_shot_iterator_are_all_kept():
    # a generator, an iterator and a map are each read once, before the
    # checks, and give the protocol of the tuple
    pulses = (1.0, 2.0, 3.0)
    want = Protocol(1.0, 0.25, 0.6, pulses)
    for make in (lambda: (w for w in pulses), lambda: iter(pulses),
                 lambda: map(float, pulses)):
        got = Protocol(1.0, 0.25, 0.6, make())
        assert got == want and got.omegas == pulses


def test_nan_in_a_one_shot_iterator_is_named():
    with pytest.raises(NonFiniteEntry, match=r"omegas\[1\] is not a finite real: nan"):
        Protocol(1.0, 0.25, 0.6, (w for w in (1.0, math.nan)))


def test_empty_protocol_is_legal():
    p = Protocol(1.0, 0.25, 0.6, ())
    assert validate(p).duration == 0.0
    # every chunk count divides M = 0, but there is no pulse to merge
    with pytest.raises(EmptyProtocol):
        collapse(p, 1)


def test_refine_identity_and_definition():
    p = Protocol(1.0, 0.25, 0.5, (3.0, 7.0))
    assert refine(p, 1) is p
    r = refine(p, 3)
    assert r.omegas == (3.0, 3.0, 3.0, 7.0, 7.0, 7.0)
    assert r.dt == pytest.approx(0.5 / 3.0, abs=0, rel=1e-16)
    assert r.duration == pytest.approx(p.duration, rel=1e-15)


def test_refine_composes_multiplicatively():
    p = Protocol(1.0, 0.25, 0.6, (0.3, 1.7, 0.9))
    assert refine(refine(p, 2), 3).omegas == refine(p, 6).omegas


def test_collapse_chunk_constant_and_mean():
    p = Protocol(1.0, 0.25, 0.45, (2.0, 2.0, 5.0, 5.0))
    c = collapse(p, 2)
    assert c.omegas == (2.0, 5.0)
    assert c.dt == pytest.approx(0.9)
    c1 = collapse(Protocol(1.0, 0.25, 0.6, (1.0, 3.0)), 1)
    assert c1.omegas == (2.0,)
    assert c1.dt == pytest.approx(1.2)


@pytest.mark.parametrize("chunks", [1, 2, 3, 4, 6, 12])
def test_collapse_sums_each_chunk_left_to_right(chunks):
    # each mean is first + sum(w - first)/K in Python floats, bit for bit;
    # numpy's pairwise row sum would move some of these pulses by an ulp
    w = tuple(np.random.default_rng(7).normal(0.0, 10.0, 96).tolist())
    k = 96 // chunks
    want = tuple(b[0] + sum(x - b[0] for x in b) / k
                 for b in (w[j * k:(j + 1) * k] for j in range(chunks)))
    assert collapse(Protocol(1.0, 0.25, 0.1, w), chunks).omegas == want


def test_collapse_rejects_indivisible():
    with pytest.raises(IndivisibleChunking):
        collapse(FIG1, 2)


@pytest.mark.parametrize("count", [0, 2.0, True, "2"])
def test_refine_and_collapse_refuse_a_count_that_is_not_a_positive_integer(count):
    # a bool is an int: True would refine by 1 or collapse to one pulse
    p = Protocol(1.0, 0.25, 0.5, (3.0, 7.0))
    with pytest.raises(ValueError, match="positive integer"):
        refine(p, count)
    with pytest.raises(ValueError, match="positive integer"):
        collapse(p, count)


def test_refine_preserves_dynamics():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 12))
        p = Protocol(1.0, 0.25, float(rng.uniform(0.05, 0.5)),
                     tuple(rng.uniform(-2, 2, m)))
        for k in (2, 3):
            a, b = propagate(p), propagate(refine(p, k))
            assert abs(a.f - b.f) < 1e-12
            assert abs(a.fdot - b.fdot) < 1e-12


def test_collapse_of_chunk_constant_preserves_dynamics():
    rng = np.random.default_rng(8)
    for _ in range(10):
        vals = rng.uniform(-2, 2, 4)
        p = Protocol(1.0, 0.25, 0.1, tuple(np.repeat(vals, 6)))
        c = collapse(p, 4)
        a, b = propagate(p), propagate(c)
        assert abs(a.f - b.f) < 1e-12
        assert abs(a.fdot - b.fdot) < 1e-12


def test_json_round_trip_preserves_all_digits():
    p = Protocol(1.0 / 3.0, 0.1 + 0.2, 1.8 / 48.0,
                 (math.pi, -1.2345678901234567e-8, 2.0))
    q = from_json(to_json(p))
    assert q == p  # exact field equality, not approximate


def test_json_field_names_exact():
    doc = json.loads(to_json(FIG1))
    assert sorted(doc) == ["dt", "omega0", "omegaT", "omegas"]


@pytest.mark.parametrize("mutate, error", [
    (lambda d: d.pop("dt"), ValueError),
    (lambda d: d.update(extra=1.0), ValueError),
    (lambda d: d.update(omegas="nope"), ValueError),
    # a well-formed document: Protocol refuses the value by name
    (lambda d: d.update(omega0="1.0"), NonPositiveFrequency),
], ids=["missing-field", "unknown-field", "omegas-not-an-array", "omega0-a-string"])
def test_json_strictness(mutate, error):
    doc = json.loads(to_json(FIG1))
    mutate(doc)
    with pytest.raises(error):
        from_json(json.dumps(doc))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
       st.floats(1e-6, 1e3), st.integers(2, 10))
def test_collapse_inverts_refine(omegas, dt, k):
    # the pulses come back bit for bit; dt*k can miss dt by one rounding
    p = Protocol(1.0, 0.25, dt, tuple(omegas))
    back = collapse(refine(p, k), p.m)
    assert back.omegas == p.omegas
    assert abs(back.dt - p.dt) <= math.ulp(p.dt)


@pytest.mark.parametrize("dt,omegas", [(2.0, [1e308, 1.0, 1.0]),   # omega*dt
                                       (0.6, [1.0, 1e200, 1.0])],  # omega^2
                         ids=["omega-dt", "omega-squared"])
@pytest.mark.parametrize("run", [
    infidelity, gradient, hessian, lambda p: theta_scan(p, 16),
    lambda p: navigate(p, SecondaryCost("smoothness"), NavigationConfig()),
    lambda p: trace_levelset(p, TraceConfig())],
    ids=["infidelity", "gradient", "hessian", "theta_scan", "navigate", "trace_levelset"])
def test_from_json_names_an_overflowing_pulse(dt, omegas, run):
    # a finite pulse whose omega*dt or omega^2 overflows is a valid Protocol,
    # so it loads; the first propagation refuses it and names the pulse
    doc = {"omega0": 1.0, "omegaT": 0.25, "dt": dt, "omegas": omegas}
    p = from_json(json.dumps(doc))
    assert p == Protocol(1.0, 0.25, dt, tuple(omegas))
    with pytest.raises(NonFiniteEntry, match=rf"omegas\[{omegas.index(max(omegas))}\]"):
        run(p)


def test_save_over_a_longer_file_leaves_exactly_the_protocol(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("x" * 5000 + "\n")
    proto.save(FIG1, path)
    assert path.read_bytes() == (to_json(FIG1) + "\n").encode()
    assert proto.load(path) == FIG1


def test_write_text_over_a_longer_file_leaves_exactly_the_text(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("iter,I\n" + "0,0.5\n" * 1000)
    proto._write_text(path, "iter,I\n0,0.25\n")
    assert path.read_bytes() == b"iter,I\n0,0.25\n"
    proto._write_text(path, "")
    assert path.read_bytes() == b""


def test_write_text_creates_a_file_with_the_umask_mode(tmp_path):
    path = tmp_path / "new.csv"
    umask = os.umask(0o027)
    try:
        proto._write_text(path, "a\u00e9\n")
    finally:
        os.umask(umask)
    assert path.read_bytes() == "a\u00e9\n".encode("utf-8")
    assert path.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("where", ["missing/dir/out.csv", "."])
def test_write_text_error_names_the_path(tmp_path, where):
    path = str(tmp_path / where)
    with pytest.raises(OSError) as exc:
        proto._write_text(path, "a\n")
    assert exc.value.filename == path


def test_write_error_after_the_open_names_the_path():
    # /dev/full opens, then refuses the write with ENOSPC
    with pytest.raises(OSError) as exc:
        proto._write_text("/dev/full", "a\n")
    assert exc.value.filename == "/dev/full"
