import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscnav import (IndivisibleChunking, NonFiniteEntry, NonPositiveFrequency,
                    Protocol, collapse, propagate, refine, validate)
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


def test_empty_protocol_is_legal():
    p = Protocol(1.0, 0.25, 0.6, ())
    assert validate(p).duration == 0.0


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


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("dt"),
    lambda d: d.update(extra=1.0),
    lambda d: d.update(omegas="nope"),
    lambda d: d.update(omega0="1.0"),
])
def test_json_strictness(mutate):
    doc = json.loads(to_json(FIG1))
    mutate(doc)
    with pytest.raises(ValueError):
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
                                       (0.6, [1.0, 1e200])])       # omega^2
def test_from_json_names_an_overflowing_pulse(dt, omegas):
    doc = {"omega0": 1.0, "omegaT": 0.25, "dt": dt, "omegas": omegas}
    with pytest.raises(NonFiniteEntry, match=rf"omegas\[{omegas.index(max(omegas))}\]"):
        from_json(json.dumps(doc))


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
