"""Piecewise-constant control fields: validation, resolution changes, JSON I/O.

A protocol is the control ``omega(t)``: M equal-length steps of duration
``dt``, each holding a constant trap frequency ``omegas[i]``, together with
the boundary frequencies ``omega0`` (initial trap, fixes the initial mode
state) and ``omegaT`` (final trap, fixes the target basis). M = 0 is legal
and denotes the sudden quench (total duration T = 0).
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyProtocol, IndivisibleChunking, NonFiniteEntry,
                     NonPositiveFrequency)

_JSON_FIELDS = ("omega0", "omegaT", "dt", "omegas")


@dataclass(frozen=True)
class Protocol:
    """Immutable piecewise-constant control field, valid by construction.

    Construction runs :func:`validate`, so no caller re-checks a Protocol,
    and stores every field as Python floats: ``Protocol(2, ...)`` holds 2.0.

    Attributes
    ----------
    omega0 : initial trap frequency, > 0.
    omegaT : final trap frequency defining the target basis, > 0.
    dt : common step duration, > 0.
    omegas : pulse amplitudes; may be negative (dynamics are even in each).
    """

    omega0: float
    omegaT: float
    dt: float
    omegas: tuple[float, ...]

    def __post_init__(self):
        # the pulses made a tuple before validate reads them: a one-shot
        # iterator would be used up by its first pass
        self.__dict__["omegas"] = tuple(self.omegas)
        validate(self)
        # Python floats, as with_omegas makes the pulses, so a numpy scalar
        # does not reach to_json
        self.__dict__.update(omega0=float(self.omega0), omegaT=float(self.omegaT),
                             dt=float(self.dt), omegas=tuple(map(float, self.omegas)))

    @property
    def m(self) -> int:
        return len(self.omegas)

    @property
    def duration(self) -> float:
        """Total duration T = M * dt (derived, never stored)."""
        return self.m * self.dt

    def with_omegas(self, omegas) -> "Protocol":
        """Copy of this protocol with the pulse sequence replaced.

        Only the new pulses are checked: omega0, omegaT and dt are this
        protocol's, valid by construction, so the copy equals the fully
        validated ``Protocol(omega0, omegaT, dt, pulses)`` without running
        :func:`validate`. The pulses become Python floats. A 1-D float64
        array converts in one call and a sequence of Python floats is kept
        as it is: of either, only finiteness is checked, and a non-finite
        pulse is named as the constructor names it. Any other input is
        checked as the constructor checks it, so what the constructor
        refuses, such as a string, a bool or a 2-D array, is refused here
        with the same error.
        """
        if type(omegas) is np.ndarray and omegas.dtype == np.float64 and omegas.ndim == 1:
            pulses = tuple(omegas.tolist())
            if not all(map(math.isfinite, pulses)):
                _check_pulses(omegas)
        else:
            pulses = tuple(omegas)
            if not _check_pulses(pulses):
                pulses = tuple(map(float, pulses))
        # filled in place: update() with a keyword would build a second dict
        new = object.__new__(Protocol)
        fields = new.__dict__
        fields.update(self.__dict__)
        fields["omegas"] = pulses
        return new


def validate(p: Protocol) -> Protocol:
    """Check all invariants, returning ``p`` unchanged if they hold.

    ``Protocol.__post_init__`` calls it, so every Protocol has passed it
    once; it raises NonPositiveFrequency for a boundary frequency or step
    duration that is not a positive :func:`_is_real`, and NonFiniteEntry
    for a pulse that is not one.
    """
    for name in ("omega0", "omegaT", "dt"):
        _check_positive(name, getattr(p, name))
    _check_pulses(p.omegas)
    return p


def _is_real(v) -> bool:
    """The one test of an input number: a finite real that is not a bool, a
    numpy scalar included. An int beyond the float range is not one."""
    try:
        return math.isfinite(v) and not isinstance(v, (bool, np.bool_))
    except (TypeError, OverflowError):
        return False


def _is_int(v) -> bool:
    """The one test of an input count: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_positive(name: str, v) -> float:
    """``v`` as a float; raise NonPositiveFrequency, naming ``name``, unless
    it is a positive :func:`_is_real`. The check of every boundary frequency
    and duration, in a Protocol or passed alone."""
    if not (_is_real(v) and v > 0):
        raise NonPositiveFrequency(f"{name} must be a positive finite real, got {v!r}")
    return float(v)


def _check_pulses(omegas) -> bool:
    """Raise NonFiniteEntry, naming the first offending pulse, unless every
    pulse passes :func:`_is_real`, which on Python floats is ``math.isfinite``.
    Returns whether every pulse is a Python float."""
    floats = set(map(type, omegas)) <= {float}
    if not all(map(math.isfinite if floats else _is_real, omegas)):
        for i, w in enumerate(omegas):
            if not _is_real(w):
                raise NonFiniteEntry(f"omegas[{i}] is not a finite real: {w!r}")
    return floats


def refine(p: Protocol, factor: int) -> Protocol:
    """Split each pulse into ``factor`` identical sub-pulses.

    The represented omega(t) is unchanged pointwise, so all dynamics are
    preserved; only the parameter-space dimension grows (M -> factor * M).
    """
    if not (_is_int(factor) and factor >= 1):
        raise ValueError(f"refinement factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return p
    omegas = tuple(w for w in p.omegas for _ in range(factor))
    return Protocol(p.omega0, p.omegaT, p.dt / factor, omegas)


def _chunk_size(m: int, chunks: int) -> int:
    """K = M/L pulses per chunk, or IndivisibleChunking if L does not divide M."""
    if m % chunks != 0:
        raise IndivisibleChunking(f"M={m} is not divisible by L={chunks}")
    return m // chunks


def _chunk_deviations(w: np.ndarray, chunks: int) -> np.ndarray:
    """(L, K) deviations of each pulse from its chunk's first pulse, exact
    zeros on a constant chunk: the one chunk split, for collapse and C2."""
    chunked = w.reshape(chunks, _chunk_size(w.size, chunks))
    return chunked - chunked[:, :1]


def collapse(p: Protocol, chunks: int) -> Protocol:
    """Merge K = M/chunks consecutive pulses into their arithmetic mean.

    Each mean is first + sum(d)/K, with d the :func:`_chunk_deviations`
    that the compression cost reads, summed left to right. So a constant
    chunk keeps its value bit for bit (``collapse(refine(p, k), p.m)`` has
    the pulses of ``p``), and C2 is K |w - refine(collapse(p, L), K)|^2. The
    step duration becomes dt*K, which can differ from the original dt by
    one rounding, since dt/K*K need not round back to dt.
    """
    if not (_is_int(chunks) and chunks >= 1):
        raise ValueError(f"chunk count must be a positive integer, got {chunks!r}")
    if not p.omegas:
        raise EmptyProtocol("collapse requires at least one pulse")
    d = _chunk_deviations(np.array(p.omegas), chunks)
    k = d.shape[1]
    omegas = tuple(first + sum(row) / k for first, row in zip(p.omegas[::k], d.tolist()))
    return Protocol(p.omega0, p.omegaT, p.dt * k, omegas)


def to_json(p: Protocol) -> str:
    """Serialize to the protocol JSON document (shortest round-trip floats)."""
    doc = {"omega0": p.omega0, "omegaT": p.omegaT, "dt": p.dt,
           "omegas": list(p.omegas)}
    return json.dumps(doc)


def from_json(text: str) -> Protocol:
    """Build a validated Protocol from protocol JSON text (strict schema).
    Only its shape is checked here; ``Protocol`` checks the values, naming a
    bad pulse. A finite pulse that overflows loads: its first propagation names it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("protocol document must be a JSON object")
    missing = [k for k in _JSON_FIELDS if k not in doc]
    if missing:
        raise ValueError(f"protocol document missing required fields: {missing}")
    unknown = [k for k in doc if k not in _JSON_FIELDS]
    if unknown:
        raise ValueError(f"protocol document has unknown fields: {unknown}")
    if not isinstance(doc["omegas"], list):
        raise ValueError("field 'omegas' must be an array")
    return Protocol(doc["omega0"], doc["omegaT"], doc["dt"], tuple(doc["omegas"]))


def load(path) -> Protocol:
    return from_json(_read_text(path))


def save(p: Protocol, path) -> None:
    _write_text(path, to_json(p) + "\n")


def _read_text(path) -> str:
    """The text of ``path`` as ``open(path, encoding="utf-8").read()`` gives
    it, without building a text wrapper: bytes that are not UTF-8 raise
    UnicodeDecodeError, a BOM stays a U+FEFF, and CR and CRLF line ends
    read as LF, which keeps a JSON error's line and column."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place; an OSError names the path.

    No O_TRUNC, since ext4 flushes the data on close after a truncate to 0;
    the old tail is cut after the write, on a regular file only (ftruncate
    fails on /dev/null and on pipes). Not atomic."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    except OSError as exc:
        exc.filename = path
        raise
    finally:
        os.close(fd)
