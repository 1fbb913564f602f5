"""Span tracing of oscnav's layers, installed from outside the package.

:class:`Tracer` replaces the traced functions with wrappers in every
``oscnav`` module namespace that binds them (and on the classes that own the
traced methods), so calls between layers are recorded without touching the
package's source. A span records its name, start, end, parent span and the
benchmark operation it belongs to, plus one integer a layer metric needs
(pulse count, vertices, bytes, ...). Spans live in flat in-memory arrays and
are written once, after the traced run, by :meth:`Tracer.save`.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

from oscnav import cli, navigator, objectives, propagator, protocol, sensitivities


def _pulses(args, result):
    return args[0].m


def _solution_found(args, result):
    return int(result[1].classification == "solution")


def _iterations(args, result):
    return result.records[-1].iteration if result.records else 0


def _vertices(args, result):
    return len(result.vertices)


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


def _file_bytes(args, result):
    return os.path.getsize(args[1])


# (span name, owner, attribute, value recorded with the span)
TRACED = (
    ("protocol.validate", protocol, "validate", None),
    ("protocol.with_omegas", protocol.Protocol, "with_omegas", None),
    ("propagator.propagate", propagator, "propagate", _pulses),
    ("propagator.infidelity", propagator, "infidelity", _pulses),
    ("sensitivities.gradient", sensitivities, "gradient", _pulses),
    ("sensitivities.hessian", sensitivities, "hessian", _pulses),
    ("navigator.solve", navigator, "solve", None),
    ("navigator.descend", navigator, "descend", _solution_found),
    ("navigator.navigate", navigator, "navigate", _iterations),
    ("navigator.null_projector", navigator, "null_projector", None),
    ("navigator.trace_levelset", navigator, "trace_levelset", _vertices),
    ("objectives.theta_scan", objectives, "theta_scan", None),
    ("objectives.target_matrix", objectives, "target_matrix", None),
    ("objectives.secondary", objectives.SecondaryCost, "value", None),
    ("objectives.secondary", objectives.SecondaryCost, "grad", None),
    ("cli.main", cli, "main", None),
    ("cli.render", navigator, "trajectory_to_csv", _text_bytes),
    ("cli.render", protocol, "save", _file_bytes),
)

# Per-layer metrics: (name, unit, better). Emitted in this order.
PER_LAYER = (
    ("propagator.propagate.calls", "count", "lower"),
    ("propagator.propagate.self_s", "s", "lower"),
    ("propagator.propagate.steps", "count", "lower"),
    ("propagator.infidelity.calls", "count", "lower"),
    ("propagator.infidelity.self_s", "s", "lower"),
    ("propagator.infidelity.steps", "count", "lower"),
    ("protocol.validate.calls", "count", "lower"),
    ("protocol.validate.self_s", "s", "lower"),
    ("protocol.with_omegas.calls", "count", "lower"),
    ("protocol.with_omegas.self_s", "s", "lower"),
    ("sensitivities.gradient.calls", "count", "lower"),
    ("sensitivities.gradient.self_s", "s", "lower"),
    ("sensitivities.gradient.ns_per_step", "ns", "lower"),
    ("sensitivities.hessian.calls", "count", "lower"),
    ("sensitivities.hessian.self_s", "s", "lower"),
    ("sensitivities.hessian.ns_per_step_sq", "ns", "lower"),
    ("navigator.solve.restarts_per_solution", "ratio", "lower"),
    ("navigator.solve.trap_time_share", "fraction", "lower"),
    ("navigator.descend.calls", "count", "lower"),
    ("navigator.descend.self_s", "s", "lower"),
    ("navigator.line_search.trials_per_step", "ratio", "lower"),
    ("navigator.navigate.iterations", "count", "lower"),
    ("navigator.navigate.gradient_calls_per_iter", "ratio", "lower"),
    ("navigator.navigate.self_s", "s", "lower"),
    ("navigator.null_projector.calls", "count", "lower"),
    ("navigator.null_projector.self_s", "s", "lower"),
    ("navigator.trace_levelset.vertices", "count", "lower"),
    ("navigator.trace_levelset.gradient_calls_per_vertex", "ratio", "lower"),
    ("objectives.theta_scan.calls", "count", "lower"),
    ("objectives.theta_scan.self_s", "s", "lower"),
    ("objectives.target_matrix.calls", "count", "lower"),
    ("objectives.target_matrix.self_s", "s", "lower"),
    ("objectives.secondary.calls", "count", "lower"),
    ("objectives.secondary.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.render.bytes", "bytes", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


class Tracer:
    """Records spans while installed and ``recording`` is true."""

    def __init__(self):
        self.names = sorted({name for name, *_ in TRACED})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self.current_op = -1
        self.recording = False
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, value_of):
        name_id = self._ids[name]
        names, parents, ops = self.name_id, self.parent, self.op_id
        starts, ends, values = self.start, self.end, self.value
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0)
            values.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value_of is not None:
                values[idx] = value_of(args, result)
            return result

        return traced

    def install(self):
        """Patch every binding of the traced functions; undone by :meth:`uninstall`."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "oscnav" or key.startswith("oscnav.")]
        for name, owner, attr, value_of in TRACED:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, value_of)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, bound in list(vars(module).items()):
                    if bound is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write all spans at once as a compressed numpy archive."""
        np.savez_compressed(path, names=np.array(self.names), name_id=self._col(self.name_id),
                            parent=self._col(self.parent), op_id=self._col(self.op_id),
                            start_ns=self._col(self.start), end_ns=self._col(self.end),
                            value=self._col(self.value))

    @staticmethod
    def _col(arr):
        return np.frombuffer(arr, dtype=np.int32 if arr.typecode == "i" else np.int64)

    def layer_metrics(self, overhead_frac):
        """Every per-layer metric as {name: (value, unit)}."""
        name_id = self._col(self.name_id)
        parent = self._col(self.parent)
        value = self._col(self.value).astype(float)
        dur = (self._col(self.end) - self._col(self.start)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child

        def mask(name):
            return name_id == self._ids[name]

        def under(name):
            """Spans with an ancestor called ``name``."""
            target = self._ids[name]
            found = np.zeros(len(parent), dtype=bool)
            cur = parent.copy()
            while True:
                live = cur >= 0
                if not live.any():
                    return found
                found[live] |= name_id[cur[live]] == target
                cur[live] = parent[cur[live]]

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        stats = {}
        for name in self.names:
            sel = mask(name)
            stats[name + ".calls"] = int(sel.sum())
            stats[name + ".self_s"] = float(self_ns[sel].sum()) / 1e9
        for name in ("propagator.propagate", "propagator.infidelity"):
            stats[name + ".steps"] = int(value[mask(name)].sum())

        grad = mask("sensitivities.gradient")
        stats["sensitivities.gradient.ns_per_step"] = ratio(
            self_ns[grad].sum(), value[grad].sum())
        hess = mask("sensitivities.hessian")
        stats["sensitivities.hessian.ns_per_step_sq"] = ratio(
            self_ns[hess].sum(), (value[hess] ** 2).sum())

        in_solve = mask("navigator.descend") & under("navigator.solve")
        found = in_solve & (value == 1)
        trapped = in_solve & (value == 0)
        stats["navigator.solve.restarts_per_solution"] = ratio(trapped.sum(), found.sum())
        stats["navigator.solve.trap_time_share"] = ratio(
            dur[trapped].sum(), dur[mask("navigator.solve")].sum())

        in_descend = under("navigator.descend")
        stats["navigator.line_search.trials_per_step"] = ratio(
            (in_descend & mask("propagator.infidelity")).sum(), (in_descend & grad).sum())

        nav = mask("navigator.navigate")
        stats["navigator.navigate.iterations"] = int(value[nav].sum())
        stats["navigator.navigate.gradient_calls_per_iter"] = ratio(
            (under("navigator.navigate") & grad).sum(), value[nav].sum())

        trace = mask("navigator.trace_levelset")
        stats["navigator.trace_levelset.vertices"] = int(value[trace].sum())
        stats["navigator.trace_levelset.gradient_calls_per_vertex"] = ratio(
            (under("navigator.trace_levelset") & grad).sum(), value[trace].sum())

        stats["cli.render.bytes"] = int(value[mask("cli.render")].sum())
        stats["trace.overhead_frac"] = overhead_frac
        return {name: (stats[name], unit) for name, unit, _ in PER_LAYER}
