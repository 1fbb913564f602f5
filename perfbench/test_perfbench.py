"""Quick tests of the benchmark itself (not of oscnav).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

import oscnav.cli  # noqa: E402
from oscnav import protocol as proto  # noqa: E402
from oscnav.errors import RestartBudgetExhausted  # noqa: E402
import pool  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

def _units(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.fixture(scope="module")
def loaded_pool():
    return pool.load_pool()


@pytest.fixture
def inputs(loaded_pool, tmp_path):
    return workloads.write_inputs(loaded_pool, str(tmp_path))


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    records = [run.Record(kind, 0.5, 0.4, {"solutions": 1, "cost_ratio": 0.25})
               for kind in ("solve", "trace", "smooth", "compress", "spectrum",
                            "theta_scan", "verify")]
    metrics, samples, _ = run.e2e_metrics(records, [(0.1, 0.2), (0.3, 0.2)], 80.0)
    assert {name: unit for name, (_, unit) in metrics.items()} == _units("end_to_end")
    assert set(samples) == set(metrics)
    assert all(value > 0 for value, _ in metrics.values())


def test_every_per_layer_metric_is_emitted_with_its_unit(inputs):
    path, p = inputs.m3[0]
    ops = [workloads.spectrum_op(inputs.workdir, path, p),
           workloads.smooth_op(inputs.workdir, path, p, 3)]
    tracer = spans.Tracer()
    original = oscnav.cli.main
    tracer.install()
    try:
        tracer.recording = True
        outcomes = [op.run() for op in ops]
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert oscnav.cli.main is original
    assert all(op.check(outcome) is not None for op, outcome in zip(ops, outcomes))
    metrics = tracer.layer_metrics(0.1)
    assert {name: unit for name, (_, unit) in metrics.items()} == _units("per_layer")
    assert metrics["cli.main.self_s"][0] > 0
    assert metrics["sensitivities.hessian.calls"][0] == 1
    assert metrics["navigator.navigate.iterations"][0] > 0
    assert metrics["cli.render.bytes"][0] > 0


def test_pool_entry_with_large_infidelity_is_rejected(loaded_pool, tmp_path):
    name, p = loaded_pool.m3[0]
    bad = p.with_omegas([w + 0.3 for w in p.omegas])
    assert oscnav.infidelity(bad) >= pool.MAX_POOL_INFIDELITY
    copy = tmp_path / "pool"
    shutil.copytree(pool.POOL_DIR, copy)
    proto.save(bad, str(copy / "m3" / f"{name}.json"))
    with pytest.raises(pool.PoolError, match="infidelity"):
        pool.load_pool(str(copy))


def test_forced_exit_2_counts_as_failed(inputs, monkeypatch):
    def exhausted(*args, **kwargs):
        raise RestartBudgetExhausted("forced")

    monkeypatch.setattr(oscnav.cli, "solve", exhausted)
    op = workloads.solve_op(inputs.workdir, 3, 100)
    record = run.execute(op)
    assert record.facts is None
    attempted, failed, by_kind = run.tally([record, run.Record("solve", 0.5, 0.4, {"solutions": 1})])
    assert (attempted, failed) == (2, 1)
    assert by_kind["solve"] == {"attempted": 2, "failed": 1}


def test_exit_3_on_a_pool_input_is_a_benchmark_error(inputs, monkeypatch):
    monkeypatch.setattr(oscnav.cli, "main", lambda argv: 3)
    path, p = inputs.m48[0]
    op = workloads.smooth_op(inputs.workdir, path, p, 1)
    with pytest.raises(workloads.BenchError, match="code 3"):
        run.execute(op)
