"""Command-line surface: reproducible runs bound to JSON configs and CSV/JSON outputs.

Commands
--------
solve       find a frictionless protocol for the configured task
smooth      level-set descent of the smoothness cost from a solution
compress    level-set descent of the compression cost, plus chunk collapse
spectrum    eigenvalues of the full infidelity Hessian
verify      conservation diagnostics for a protocol
levelset    labeled M = 3 solution cloud and traced curves
theta-scan  the phase-resolved objective on a grid (plus refined minimum)

Exit codes: 0 success, 1 malformed command line, config or input, an input
too large to allocate or an unwritable output, 2 restart budget exhausted,
3 input protocol is not a solution, or one the corrector cannot hold on
beta = 0. Failures print one JSON line to stderr. JSON output is strict: a
NaN or infinity is an exit-1 failure, never printed.
Outputs, overwritten in place, are deterministic in the config and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import protocol as proto
from .errors import NonPositiveFrequency, NotASolution, OscnavError, RestartBudgetExhausted
from .navigator import (DescentConfig, NavigationConfig, TraceConfig, cloud_to_csv,
                        curves_to_csv, navigate, scan_levelset, solve,
                        trajectory_to_csv)
from .objectives import SecondaryCost, _theta_grid, theta_scan
from .propagator import bogoliubov, infidelity, particle_number, propagate, wronskian_defect
from .sensitivities import hessian


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigError (exit 1, one JSON line) instead
    of argparse's exit 2, which here means the restart budget ran out."""

    def error(self, message):
        raise ConfigError(message)


# json.dumps(doc, allow_nan=False) builds a new encoder on every call
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


def _dumps(doc) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError."""
    return _STRICT_JSON.encode(doc)


def _fail(code: int, error: str, detail: str) -> int:
    sys.stderr.write(_dumps({"error": error, "detail": detail}) + "\n")
    return code


def _check_keys(section, allowed, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


@functools.cache
def _default_config(cls):
    """The defaults of config class ``cls``, built once: the classes are frozen."""
    return cls()


def _dataclass_from(cls, section, where):
    """Build config dataclass ``cls`` from a JSON section; ``cls`` checks
    each field, and its ValueError becomes a ConfigError. An empty section
    gives the shared default instance."""
    _check_keys(section, _field_names(cls), where)
    if not section:
        return _default_config(cls)
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {where} section: {exc}") from exc


class RunConfig:
    """Parsed run configuration: positive task fields, dt derived as T/M."""

    def __init__(self, doc):
        _check_keys(doc, ["task", "M", "descent", "navigation", "trace", "output"],
                    "config")
        self.task = None
        if "task" in doc:
            task = doc["task"]
            names = ("omega0", "omegaT", "T")
            _check_keys(task, names, "task")
            try:
                self.task = tuple(proto._check_positive(k, task.get(k)) for k in names)
            except NonPositiveFrequency as exc:
                raise ConfigError(f"bad task section: {exc}") from exc
        self.m = doc.get("M")
        if self.m is not None and not (proto._is_int(self.m) and self.m >= 1):
            raise ConfigError("M must be a positive integer")
        self.descent = _dataclass_from(DescentConfig, doc.get("descent", {}), "descent")
        self.navigation = _dataclass_from(NavigationConfig, doc.get("navigation", {}),
                                          "navigation")
        self.trace = _dataclass_from(TraceConfig, doc.get("trace", {}), "trace")
        out = doc.get("output", {})
        _check_keys(out, ["protocol", "trajectory", "cloud", "curves", "collapsed"],
                    "output")
        if not all(isinstance(path, str) for path in out.values()):
            raise ConfigError(f"output values must be string paths, got {out!r}")
        self.output = out


def _load_config(path) -> RunConfig:
    try:
        doc = json.loads(proto._read_text(path))  # RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig(doc)


def _load_protocol(path):
    """Load a protocol file; a pulse that is not a finite real, 10**400
    included, is reported as NonFiniteEntry naming the pulse, any other
    defect as ConfigError. An overflowing pulse loads: the command's first
    propagation names it."""
    try:
        return proto.load(path)
    except (OSError, ValueError, RecursionError, NonPositiveFrequency) as exc:
        raise ConfigError(f"cannot read protocol {path}: {exc}") from exc


def _emit(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        proto._write_text(path, text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    if cfg.task is None or cfg.m is None:
        raise ConfigError("solve requires 'task' and 'M' in the config")
    result = solve(cfg.descent, cfg.m, cfg.task)
    proto.save(result.protocol, cfg.output.get("protocol", "protocol.json"))
    proto._write_text(cfg.output.get("trajectory", "trajectory.csv"),
                      trajectory_to_csv(result.trajectory))
    print(_dumps({"infidelity": result.report.infidelity,
                  "restarts": result.restarts,
                  "iterations": result.trajectory.records[-1].iteration}))
    return 0


def _cmd_navigate(args) -> int:
    cost = SecondaryCost(args.cost, args.chunks)
    p = _load_protocol(args.protocol)
    cfg = _load_config(args.config) if args.config else None
    nav = cfg.navigation if cfg else NavigationConfig()
    if args.double is not None:
        factors = args.double.split(",")
        try:
            # int() alone would also take '1_0' as 10, ' 2' and non-ASCII digits
            if not all(k.isascii() and k.isdigit() for k in factors):
                raise ValueError
            nav = dataclasses.replace(nav, doubling_schedule=tuple(map(int, factors)))
        except ValueError:
            raise ConfigError(f"--double must be comma-separated integers >= 1, "
                              f"got {args.double!r}")
    traj = navigate(p, cost, nav)
    final = traj.final_protocol
    out = (cfg.output if cfg else {})
    proto._write_text(args.out_trajectory or out.get("trajectory", "trajectory.csv"),
                      trajectory_to_csv(traj))
    proto.save(final, args.out_protocol or out.get("protocol", "protocol.json"))
    extra = {}
    if cost.kind == "compression":
        collapsed = proto.collapse(final, cost.chunks)
        path = args.out_collapsed or out.get("collapsed", "collapsed.json")
        proto.save(collapsed, path)
        extra = {"collapsed_infidelity": infidelity(collapsed)}
    print(_dumps({"status": traj.status,
                  "final_cost": traj.records[-1].cost,
                  "final_infidelity": traj.records[-1].infidelity, **extra}))
    return 0


def _cmd_spectrum(args) -> int:
    p = _load_protocol(args.protocol)
    eigs = np.linalg.eigvalsh(hessian(p).hess_infidelity)[::-1].tolist()
    lines = ["index,eigenvalue"]
    lines += [f"{i},{v!r}" for i, v in enumerate(eigs, 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    p = _load_protocol(args.protocol)
    state = propagate(p)
    pair = bogoliubov(state, p.omegaT)
    b2 = abs(pair.beta) ** 2
    report = {
        "infidelity": b2,
        "bogoliubov_defect": abs(pair.alpha) ** 2 - b2 - 1.0,
        "wronskian_defect": wronskian_defect(state),
        "particle_number": {"0": particle_number(0.0, pair.beta),
                            "1": particle_number(1.0, pair.beta)},
    }
    print(_dumps(report))
    return 0


def _cmd_levelset(args) -> int:
    cfg = _load_config(args.config)
    if cfg.task is None:
        raise ConfigError("levelset requires 'task' in the config")
    result = scan_levelset(cfg.task, cfg.descent, cfg.trace, args.seeds)
    proto._write_text(args.out_cloud or cfg.output.get("cloud", "cloud.csv"),
                      cloud_to_csv(result))
    proto._write_text(args.out_curves or cfg.output.get("curves", "curves.csv"),
                      curves_to_csv(result.curves))
    print(_dumps({"points": len(result.points), "components": len(result.curves)}))
    return 0


@functools.lru_cache(maxsize=1)
def _theta_cells(points: int) -> tuple[str, ...]:
    """The theta column of ``theta-scan --points``, each grid angle rendered
    as ``f"{theta!r},"``, built once per size like the grid itself."""
    return tuple(f"{t!r}," for t in _theta_grid(points).tolist())


def _cmd_theta_scan(args) -> int:
    """Write the grid rows of J and the refined minimum as CSV.

    Each row is the grid angle's memoised cell and the repr of its J; the
    refined row is inserted where it keeps the theta column ascending,
    after any equal grid angle.
    """
    p = _load_protocol(args.protocol)
    thetas, values, theta_min, value_min = theta_scan(p, args.points)
    rows = [t + repr(v) for t, v in zip(_theta_cells(args.points), values.tolist())]
    rows.insert(int(np.searchsorted(thetas, theta_min, side="right")),
                f"{theta_min!r},{value_min!r}")
    _emit("theta,J\n" + "\n".join(rows) + "\n", args.out)
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each command's own parser by name, built
    once: parsing leaves them unchanged."""
    ap = _Parser(prog="oscnav",
                 description="Frictionless-protocol search and level-set "
                             "navigation for a frequency-controlled oscillator.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="random-restart descent to a solution")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=_cmd_solve)

    for name, cost, helptext in (("smooth", "smoothness", "level-set smoothing descent"),
                                 ("compress", "compression", "level-set compression descent")):
        np_ = sub.add_parser(name, help=helptext)
        np_.set_defaults(func=_cmd_navigate, cost=cost, chunks=None)
        np_.add_argument("protocol", help="input protocol JSON (must be a solution)")
        np_.add_argument("--config", default=None)
        np_.add_argument("--double", default=None,
                         help="comma-separated refinement factors applied on stall")
        np_.add_argument("--out-protocol", default=None)
        np_.add_argument("--out-trajectory", default=None)
        if name == "compress":
            np_.add_argument("--chunks", type=int, required=True)
            np_.add_argument("--out-collapsed", default=None)

    sp = sub.add_parser("spectrum", help="full Hessian eigenvalues, descending")
    sp.add_argument("protocol")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("verify", help="conservation diagnostics as JSON")
    sp.add_argument("protocol")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("levelset", help="labeled solution cloud for M = 3")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seeds", type=int, required=True)
    sp.add_argument("--out-cloud", default=None)
    sp.add_argument("--out-curves", default=None)
    sp.set_defaults(func=_cmd_levelset)

    sp = sub.add_parser("theta-scan",
                        help="grid of the phase-resolved objective; the refined "
                             "minimum is included as an extra row")
    sp.add_argument("protocol")
    sp.add_argument("--points", type=int, default=1024)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_theta_scan)
    return ap, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    return _parsers()[0]


def _parse_args(argv):
    """The namespace of ``build_parser().parse_args(argv)``, less its ``command``.

    A command's own parser parses the arguments after the command, with the
    usage errors and help of the full parser, which hands them to it, but
    without the full parser's pass. Anything else, such as no command or an
    unknown one, goes through the full parser for its own error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _parsers()[1].get(argv[0]) if argv else None
    return command.parse_args(argv[1:]) if command else build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        # non-finite results are reported as one JSON error line below, so
        # numpy's floating-point warnings would only add noise to stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except RestartBudgetExhausted as exc:
        return _fail(2, "RestartBudgetExhausted", str(exc))
    except NotASolution as exc:
        return _fail(3, "NotASolution", str(exc))
    except MemoryError as exc:
        # an input too large to allocate, e.g. theta-scan --points 10**12;
        # numpy raises a private subclass, so name the public class
        return _fail(1, "MemoryError", str(exc))
    except (ConfigError, OscnavError, ValueError, TypeError, OverflowError,
            OSError) as exc:
        # ValueError and TypeError: malformed input rejected by the library,
        # e.g. theta-scan --points 2 or compress --chunks 0, or a non-finite
        # value refused as JSON; OverflowError: a size beyond the index
        # range, e.g. M = 10**30; OSError: an output that cannot be written
        return _fail(1, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
