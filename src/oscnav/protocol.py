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

from .errors import IndivisibleChunking, NonFiniteEntry, NonPositiveFrequency

_JSON_FIELDS = ("omega0", "omegaT", "dt", "omegas")


@dataclass(frozen=True)
class Protocol:
    """Immutable piecewise-constant control field, valid by construction.

    Construction runs :func:`validate`, so no caller re-checks a Protocol.

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
        validate(self)

    @property
    def m(self) -> int:
        return len(self.omegas)

    @property
    def duration(self) -> float:
        """Total duration T = M * dt (derived, never stored)."""
        return self.m * self.dt

    def with_omegas(self, omegas) -> "Protocol":
        """Copy of this protocol with the pulse sequence replaced.

        The pulses are converted to floats by numpy in one call, so a pulse
        that is not a number becomes nan and fails validation as
        NonFiniteEntry.
        """
        return Protocol(self.omega0, self.omegaT, self.dt,
                        tuple(np.asarray(omegas, dtype=float).tolist()))


def validate(p: Protocol) -> Protocol:
    """Check all invariants, returning ``p`` unchanged if they hold.

    ``Protocol.__post_init__`` calls it, so every Protocol has passed it
    once; it raises NonPositiveFrequency for a boundary frequency or step
    duration that is not a positive finite real, and NonFiniteEntry for a
    non-finite pulse.
    """
    for name in ("omega0", "omegaT", "dt"):
        v = getattr(p, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise NonPositiveFrequency(f"{name} must be a positive finite real, got {v!r}")
    try:
        ok = all(map(math.isfinite, p.omegas))
    except TypeError:
        ok = False
    if not ok:
        for i, w in enumerate(p.omegas):
            if not (isinstance(w, (int, float)) and math.isfinite(w)):
                raise NonFiniteEntry(f"omegas[{i}] is not finite: {w!r}")
    return p


def refine(p: Protocol, factor: int) -> Protocol:
    """Split each pulse into ``factor`` identical sub-pulses.

    The represented omega(t) is unchanged pointwise, so all dynamics are
    preserved; only the parameter-space dimension grows (M -> factor * M).
    """
    if isinstance(factor, bool) or not (isinstance(factor, int) and factor >= 1):
        raise ValueError(f"refinement factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return p
    omegas = tuple(w for w in p.omegas for _ in range(factor))
    return Protocol(p.omega0, p.omegaT, p.dt / factor, omegas)


def collapse(p: Protocol, chunks: int) -> Protocol:
    """Merge K = M/chunks consecutive pulses into their arithmetic mean.

    Each mean is taken as first + sum(w - first)/K, so a constant chunk
    collapses to its value bit for bit: ``collapse(refine(p, k), p.m)``
    has the pulses of ``p`` exactly. The step duration becomes dt*K, which
    can differ from the original dt by one rounding, since dt/K*K need not
    round back to dt.
    """
    if isinstance(chunks, bool) or not (isinstance(chunks, int) and chunks >= 1):
        raise ValueError(f"chunk count must be a positive integer, got {chunks!r}")
    if p.m % chunks != 0:
        raise IndivisibleChunking(f"M={p.m} is not divisible by L={chunks}")
    k = p.m // chunks
    blocks = [p.omegas[j * k:(j + 1) * k] for j in range(chunks)]
    omegas = tuple(b[0] + sum(w - b[0] for w in b) / k for b in blocks)
    return Protocol(p.omega0, p.omegaT, p.dt * k, omegas)


def to_json(p: Protocol) -> str:
    """Serialize to the protocol JSON document (shortest round-trip floats)."""
    doc = {"omega0": p.omega0, "omegaT": p.omegaT, "dt": p.dt,
           "omegas": list(p.omegas)}
    return json.dumps(doc)


def from_json_dict(doc) -> Protocol:
    """Build a validated Protocol from a parsed JSON document (strict schema)."""
    if not isinstance(doc, dict):
        raise ValueError("protocol document must be a JSON object")
    missing = [k for k in _JSON_FIELDS if k not in doc]
    if missing:
        raise ValueError(f"protocol document missing required fields: {missing}")
    unknown = [k for k in doc if k not in _JSON_FIELDS]
    if unknown:
        raise ValueError(f"protocol document has unknown fields: {unknown}")
    for k in ("omega0", "omegaT", "dt"):
        if not isinstance(doc[k], (int, float)) or isinstance(doc[k], bool):
            raise ValueError(f"field {k!r} must be a number")
    if not isinstance(doc["omegas"], list) or any(
            not isinstance(w, (int, float)) or isinstance(w, bool) for w in doc["omegas"]):
        raise ValueError("field 'omegas' must be an array of numbers")
    p = Protocol(float(doc["omega0"]), float(doc["omegaT"]), float(doc["dt"]),
                 tuple(float(w) for w in doc["omegas"]))
    for i, w in enumerate(p.omegas):
        # the step kernel needs cos(omega*dt) and omega^2; checked once here,
        # not on every propagation
        if not (math.isfinite(w * p.dt) and math.isfinite(w * w)):
            raise NonFiniteEntry(f"omegas[{i}] = {w!r} overflows: omega*dt = {w * p.dt!r}, "
                                 f"omega^2 = {w * w!r}")
    return p


def from_json(text: str) -> Protocol:
    return from_json_dict(json.loads(text))


def load(path) -> Protocol:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def save(p: Protocol, path) -> None:
    _write_text(path, to_json(p) + "\n")


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
