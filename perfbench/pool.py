"""The committed pool of solution protocols and characterised solver seeds."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from oscnav import propagator
from oscnav import protocol as proto
from oscnav.errors import OscnavError

POOL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool")
MAX_POOL_INFIDELITY = 1e-5


class PoolError(Exception):
    """A pool entry is unreadable or is not a solution."""


@dataclass(frozen=True)
class Pool:
    m3: tuple            # ((name, Protocol), ...) M = 3 solutions
    m48: tuple           # ((name, Protocol), ...) M = 48 solutions, box (0.1, 5.0)
    m3_solves: dict      # solver seed -> (failed restarts, iterations, evaluations), M = 3
    m192_solves: dict    # the same at M = 192, box (0.1, 5.0)


def load_entry(path):
    """Read one strict protocol JSON file and check that it is a solution."""
    try:
        p = proto.load(path)
    except (OSError, ValueError, OscnavError) as exc:
        raise PoolError(f"{path}: {exc}") from exc
    value = propagator.infidelity(p)
    if not value < MAX_POOL_INFIDELITY:
        raise PoolError(f"{path}: infidelity {value:g} is not below {MAX_POOL_INFIDELITY:g}")
    return p


def _entries(directory):
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    if not names:
        raise PoolError(f"{directory} holds no protocols")
    return tuple((n[:-len(".json")], load_entry(os.path.join(directory, n))) for n in names)


def _solves(table):
    return {int(seed): (o["restarts"], o["iterations"], o["evaluations"])
            for seed, o in table.items()}


def load_pool(directory=POOL_DIR) -> Pool:
    """Load every pool entry, rejecting any whose infidelity is >= 1e-5."""
    with open(os.path.join(directory, "PROVENANCE.json"), encoding="utf-8") as fh:
        provenance = json.load(fh)
    return Pool(m3=_entries(os.path.join(directory, "m3")),
                m48=_entries(os.path.join(directory, "m48")),
                m3_solves=_solves(provenance["m3_solves_by_seed"]),
                m192_solves=_solves(provenance["m192_solves_by_seed"]))
