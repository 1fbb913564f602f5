import builtins
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscnav
from oscnav import DescentConfig, Protocol, infidelity, solve
from oscnav import cli, navigator
from oscnav import protocol as proto
from oscnav.cli import ConfigError, _load_config, main

TASK_DOC = {"task": {"omega0": 1.0, "omegaT": 0.25, "T": 1.8}, "M": 3,
            "descent": {"seed": 1}}


# The CLI runs in a temp dir, where a relative PYTHONPATH no longer resolves;
# put the directory holding the imported oscnav package first, so the
# subprocess runs the same source tree as the in-process fixtures.
PACKAGE_ROOT = str(Path(oscnav.__file__).resolve().parents[1])


def run_cli(*args, cwd):
    path = filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "oscnav.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture(scope="module")
def m8_solution_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sol") / "m8.json"
    res = solve(DescentConfig(seed=5), 8, (1.0, 0.25, 1.8))
    proto.save(res.protocol, path)
    return path


class TestSolveCommand:
    def test_writes_outputs_and_reports(self, tmp_path):
        cfg = dict(TASK_DOC, output={"protocol": "p.json", "trajectory": "t.csv"})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        r = run_cli("solve", "--config", "cfg.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        p = proto.load(tmp_path / "p.json")
        assert infidelity(p) < 1e-5
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "iter,I,cost,pgrad_norm,omega_1,omega_2,omega_3"
        info = json.loads(r.stdout)
        assert info["infidelity"] < 1e-5

    def test_seed_replay_is_byte_identical(self, tmp_path):
        cfg = dict(TASK_DOC, output={"protocol": "p.json", "trajectory": "t.csv"})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        blobs = []
        for _ in range(2):
            r = run_cli("solve", "--config", "cfg.json", cwd=tmp_path)
            assert r.returncode == 0
            blobs.append((tmp_path / "p.json").read_bytes()
                         + (tmp_path / "t.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_malformed_config_exits_1(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        r = run_cli("solve", "--config", "bad.json", cwd=tmp_path)
        assert r.returncode == 1
        err = json.loads(r.stderr)
        assert err["error"] == "ConfigError"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = dict(TASK_DOC, typo_key=5)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        r = run_cli("solve", "--config", "cfg.json", cwd=tmp_path)
        assert r.returncode == 1
        assert "typo_key" in json.loads(r.stderr)["detail"]

    def test_restart_exhaustion_exits_2(self, tmp_path):
        cfg = {"task": {"omega0": 1.0, "omegaT": 0.25, "T": 1.8}, "M": 1,
               "descent": {"seed": 0, "max_restarts": 2}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        r = run_cli("solve", "--config", "cfg.json", cwd=tmp_path)
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "RestartBudgetExhausted"

    def test_budget_stop_under_the_threshold_exits_2(self, tmp_path, capsys):
        # the one restart stops at I = 4.86e-6, under the threshold, when
        # its 3 iterations run out: no solution, so no protocol is written
        out = {"protocol": str(tmp_path / "protocol.json"),
               "trajectory": str(tmp_path / "trajectory.csv")}
        cfg = dict(TASK_DOC, descent={"seed": 4, "max_iterations": 3, "max_restarts": 1},
                   output=out)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(tmp_path / "cfg.json")])
        _, err = capsys.readouterr()
        assert code == 2 and _one_error_line(err)["error"] == "RestartBudgetExhausted"
        assert not (tmp_path / "protocol.json").exists()


class TestNavigateCommands:
    def test_smooth_reduces_cost(self, m8_solution_file, tmp_path):
        r = run_cli("smooth", str(m8_solution_file),
                    "--out-protocol", "out.json", "--out-trajectory", "traj.csv",
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        info = json.loads(r.stdout)
        assert info["status"] == "completed"
        assert info["final_infidelity"] < 1e-5
        out = proto.load(tmp_path / "out.json")
        assert infidelity(out) < 1e-5

    def test_compress_writes_collapsed(self, m8_solution_file, tmp_path):
        r = run_cli("compress", str(m8_solution_file), "--chunks", "2",
                    "--out-protocol", "out.json", "--out-trajectory", "traj.csv",
                    "--out-collapsed", "small.json", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        small = proto.load(tmp_path / "small.json")
        assert small.m == 2

    def test_not_a_solution_exits_3(self, tmp_path):
        proto.save(Protocol(1.0, 0.25, 0.6, (1.0, 1.0, 1.0)), tmp_path / "bad.json")
        r = run_cli("smooth", "bad.json", cwd=tmp_path)
        assert r.returncode == 3
        assert json.loads(r.stderr)["error"] == "NotASolution"

    def test_indivisible_chunks_diagnostic(self, m8_solution_file, tmp_path):
        r = run_cli("compress", str(m8_solution_file), "--chunks", "7", cwd=tmp_path)
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"] == "IndivisibleChunking"

    def test_smooth_takes_what_solve_writes(self, tmp_path, capsys):
        # restart 0 of the seed-2 solve at M = 12 stops at a critical point
        # under the threshold but off beta = 0, which smooth would refuse
        # with exit 3: solve counts it as a trap and restarts
        cfg = dict(TASK_DOC, M=12, descent={"seed": 2},
                   output={"protocol": str(tmp_path / "p.json"),
                           "trajectory": str(tmp_path / "t.csv")})
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(tmp_path / "cfg.json")]) == 0
        assert json.loads(capsys.readouterr().out)["restarts"] >= 1
        code = main(["smooth", str(tmp_path / "p.json"),
                     "--out-protocol", str(tmp_path / "out.json"),
                     "--out-trajectory", str(tmp_path / "traj.csv")])
        assert code == 0, capsys.readouterr().err
        assert infidelity(proto.load(tmp_path / "out.json")) < 1e-5

    def test_input_the_corrector_cannot_hold_exits_3(self, tmp_path, capsys,
                                                       monkeypatch):
        # pool m3/seed100 (I = 2.3e-19) sits above the corrector target, and
        # a budget of 0 cannot project it onto the level set: the input is
        # refused before any output is written
        pool = Path(__file__).parents[1] / "perfbench" / "pool" / "m3" / "seed100.json"
        monkeypatch.setattr(navigator, "_CORRECTOR_BUDGET", 0)
        out_protocol, out_trajectory = tmp_path / "out.json", tmp_path / "traj.csv"
        code = main(["smooth", str(pool), "--out-protocol", str(out_protocol),
                     "--out-trajectory", str(out_trajectory)])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert _one_error_line(err)["error"] == "NotASolution"
        assert not out_protocol.exists() and not out_trajectory.exists()


POOL = Path(__file__).parents[1] / "perfbench" / "pool"


def _theta_csv_oracle(p, points):
    """The theta-scan CSV as written before its grid column was memoised:
    a fresh grid, both columns through ``np.insert``, an f-string per row."""
    _, values, theta_min, value_min = oscnav.theta_scan(p, points)
    thetas = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    k = int(np.searchsorted(thetas, theta_min, side="right"))
    rows = zip(np.insert(thetas, k, theta_min).tolist(),
               np.insert(values, k, value_min).tolist())
    lines = ["theta,J"] + [f"{t!r},{v!r}" for t, v in rows]
    return "\n".join(lines) + "\n"


def _spectrum_csv_oracle(p):
    """The spectrum CSV as written before it rendered from ``tolist``."""
    eigs = np.linalg.eigvalsh(oscnav.hessian(p).hess_infidelity)[::-1]
    lines = ["index,eigenvalue"] + [f"{i + 1},{repr(float(v))}" for i, v in enumerate(eigs)]
    return "\n".join(lines) + "\n"


# pool entries, and constant resonant traps whose minimum lies on the
# grid: theta_min is 3 pi/2 (a grid angle for 4 and 64 points) or 0
RENDERED_PROTOCOLS = {
    "m3-seed100": POOL / "m3" / "seed100.json",
    "m48-seed0": POOL / "m48" / "seed0.json",
    "trap-tie-3pi/2": Protocol(1.0, 1.0, np.pi / 8, (1.0,) * 4),
    "trap-tie-0": Protocol(1.0, 1.0, np.pi / 8, (1.0,) * 16),
}


def _rendered_protocol_path(name, tmp_path):
    entry = RENDERED_PROTOCOLS[name]
    if isinstance(entry, Protocol):
        proto.save(entry, tmp_path / "p.json")
        return tmp_path / "p.json"
    return entry


class TestRenderedBytes:
    """CSV outputs are byte-identical to the row code they replaced."""

    @pytest.mark.parametrize("name", list(RENDERED_PROTOCOLS))
    def test_theta_scan_rows_match_the_unmemoised_rows(self, name, tmp_path, capsys):
        path = _rendered_protocol_path(name, tmp_path)
        p = proto.load(path)
        if name.startswith("trap-tie"):
            thetas, _, theta_min, _ = oscnav.theta_scan(p, 4)
            assert theta_min in thetas.tolist()
        out = tmp_path / "theta.csv"
        # sizes in the order A, B, A: the memo holds one size at a time
        for points in (4, 5, 64, 1024, 64, 5, 4):
            want = _theta_csv_oracle(p, points)
            assert main(["theta-scan", str(path), "--points", str(points)]) == 0
            assert capsys.readouterr().out == want
            assert main(["theta-scan", str(path), "--points", str(points),
                         "--out", str(out)]) == 0
            assert out.read_text() == want

    def test_refused_write_to_the_grid_leaves_the_next_output(self, tmp_path, capsys):
        path = POOL / "m3" / "seed100.json"
        p = proto.load(path)
        thetas = oscnav.theta_scan(p, 64)[0]
        with pytest.raises(ValueError, match="read-only"):
            thetas[:] = 0.0
        assert main(["theta-scan", str(path), "--points", "64"]) == 0
        assert capsys.readouterr().out == _theta_csv_oracle(p, 64)

    @pytest.mark.parametrize("name", ["m3-seed100", "m48-seed0", "trap-tie-0"])
    def test_spectrum_rows_match_the_per_scalar_rows(self, name, tmp_path, capsys):
        path = _rendered_protocol_path(name, tmp_path)
        want = _spectrum_csv_oracle(proto.load(path))
        assert main(["spectrum", str(path)]) == 0
        assert capsys.readouterr().out == want
        assert main(["spectrum", str(path), "--out", str(tmp_path / "s.csv")]) == 0
        assert (tmp_path / "s.csv").read_text() == want


class TestDiagnosticsCommands:
    def test_spectrum_rank_two_at_solution(self, m8_solution_file, tmp_path):
        r = run_cli("spectrum", str(m8_solution_file), "--out", "s.csv", cwd=tmp_path)
        assert r.returncode == 0
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        eigs = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(eigs) == 8
        assert eigs == sorted(eigs, reverse=True)
        assert sum(1 for v in eigs if v > 1e-8 * eigs[0]) == 2

    def test_verify_reports_conservation(self, m8_solution_file, tmp_path):
        r = run_cli("verify", str(m8_solution_file), cwd=tmp_path)
        assert r.returncode == 0
        rep = json.loads(r.stdout)
        assert abs(rep["bogoliubov_defect"]) < 1e-10
        assert rep["wronskian_defect"] < 1e-10
        assert rep["particle_number"]["0"] == pytest.approx(rep["infidelity"])

    def test_theta_scan_solution_has_tiny_minimum(self, m8_solution_file, tmp_path):
        r = run_cli("theta-scan", str(m8_solution_file), "--points", "256",
                    "--out", "theta.csv", cwd=tmp_path)
        assert r.returncode == 0
        lines = (tmp_path / "theta.csv").read_text().splitlines()
        assert lines[0] == "theta,J"
        assert len(lines) == 258  # grid plus the refined minimum row
        best = min(float(line.split(",")[1]) for line in lines[1:])
        assert best < 1e-6

    @pytest.mark.parametrize("omegas", [None, (0.5, 2.0, 1.1)])
    def test_theta_scan_refined_row_is_the_only_off_grid_row(
            self, m8_solution_file, tmp_path, omegas):
        path = m8_solution_file
        if omegas is not None:
            path = tmp_path / "p.json"
            proto.save(Protocol(1.0, 1.0, 0.3, omegas), path)
        assert main(["theta-scan", str(path), "--points", "1024",
                     "--out", str(tmp_path / "theta.csv")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "theta.csv").read_text().splitlines()[1:]]
        assert len(rows) == 1025
        thetas = [float(t) for t, _ in rows]
        assert thetas == sorted(thetas)
        grid = {repr(t) for t in np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False).tolist()}
        refined = [float(j) for t, j in rows if t not in grid]
        assert len(refined) == 1
        assert refined[0] <= min(float(j) for t, j in rows if t in grid)

    def test_theta_scan_of_a_strongly_driven_protocol(self, tmp_path, capsys):
        # omega(t) = 1 + 0.9 cos 2t over T = 40 grows |f| to 6e5: det S then
        # rounds to 1 - 1.5e-5, and theta-scan must accept it as verify does
        t = (np.arange(256) + 0.5) * (40.0 / 256)
        path = tmp_path / "p.json"
        proto.save(Protocol(1.0, 0.25, 40.0 / 256, tuple(1.0 + 0.9 * np.cos(2.0 * t))), path)
        for argv in (["verify", str(path)],
                     ["theta-scan", str(path), "--points", "64",
                      "--out", str(tmp_path / "theta.csv")]):
            assert main(argv) == 0, capsys.readouterr().err

    def test_levelset_scan(self, tmp_path):
        cfg = {"task": {"omega0": 1.0, "omegaT": 0.25, "T": 1.8},
               "descent": {"seed": 100, "box": [0.0, 2.0]},
               "output": {"cloud": "cloud.csv", "curves": "curves.csv"}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        r = run_cli("levelset", "--config", "cfg.json", "--seeds", "8", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        cloud = (tmp_path / "cloud.csv").read_text().splitlines()
        assert cloud[0] == "omega1,omega2,omega3,I,component"
        assert len(cloud) == 9
        curves = (tmp_path / "curves.csv").read_text().splitlines()
        assert curves[0] == "curve,vertex,omega1,omega2,omega3,I,closed"
        info = json.loads(r.stdout)
        assert info["points"] == 8


def _strict_json(line):
    """Parse one JSON line, refusing the NaN/Infinity extensions."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(line, parse_constant=refuse)


def _one_error_line(stderr):
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    return _strict_json(lines[0])


class TestInputContract:
    """Malformed input exits 1 with exactly one strict JSON line on stderr."""

    @pytest.mark.parametrize("config", [
        dict(TASK_DOC, M=True),
        dict(TASK_DOC, descent={"seed": "x"}),
        dict(TASK_DOC, descent={"box": [1]}),
        dict(TASK_DOC, descent={"max_iterations": 10.5}),
        dict(TASK_DOC, trace={"step_size": 10 ** 400}),
        dict(TASK_DOC, navigation={"doubling_schedule": [2, "a"]}),
        dict(TASK_DOC, scan={"max_curves": True}),
        dict(TASK_DOC, task={"omega0": "1.0", "omegaT": 0.25, "T": 1.8}),
        dict(TASK_DOC, descent={"armijo_constant": 1e-4}),  # removed keys
        dict(TASK_DOC, navigation={"grad_tolerance": 1e-9}),
        dict(TASK_DOC, navigation={"initial_step": 0.1}),
        dict(TASK_DOC, descent={"infidelity_threshold": 1e-3}),
        dict(TASK_DOC, navigation={"infidelity_threshold": 1e-3}),
        dict(TASK_DOC, navigation={"doubling_stall_tolerance": None}),
    ])
    def test_badly_typed_config_field(self, config, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = main(["solve", "--config", str(tmp_path / "cfg.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("argv, config, error", [
        (["smooth", "{p}"], dict(TASK_DOC, navigation={"max_iterations": -1}), "ConfigError"),
        (["solve"], dict(TASK_DOC, descent={"max_iterations": -1}), "ConfigError"),
        (["levelset", "--seeds", "1"], dict(TASK_DOC, trace={"max_steps": -1}), "ConfigError"),
        (["levelset", "--seeds", "1"], dict(TASK_DOC, trace={"step_size": 0}), "ConfigError"),
        (["levelset", "--seeds", "1"], dict(TASK_DOC, trace={"box": [8, -4]}), "ConfigError"),
        (["levelset", "--seeds", "2"], dict(TASK_DOC, trace={"initial_sign": 0}),
         "ConfigError"),
        (["levelset", "--seeds", "2"], dict(TASK_DOC, scan={"max_curves": -1}),
         "ConfigError"),
        (["smooth", "{p}"], dict(TASK_DOC, navigation={"infidelity_threshold": -1}),
         "ConfigError"),
        (["smooth", "{p}"], dict(TASK_DOC, navigation={"doubling_schedule": [0]}),
         "ConfigError"),
        (["smooth", "{p}", "--double", "0"], TASK_DOC, "ConfigError"),
        (["levelset", "--seeds", "-1"], TASK_DOC, "ValueError"),
        (["smooth", "{p}", "--double", "2"],
         dict(TASK_DOC, navigation={"doubling_stall_tolerance": -0.2}), "ConfigError"),
    ], ids=["navigation.max_iterations", "descent.max_iterations", "trace.max_steps",
            "trace.step_size", "trace.box", "trace.initial_sign",
            "scan.max_curves", "navigation.infidelity_threshold",
            "navigation.doubling_schedule", "double", "seeds",
            "navigation.doubling_stall_tolerance"])
    def test_out_of_range_setting(self, argv, config, error, tmp_path, capsys):
        path = tmp_path / "p.json"
        proto.save(Protocol(1.0, 1.0, 0.3, (1.0, 1.0, 1.0, 1.0)), path)  # a solution
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = main([a.format(p=path) for a in argv] + ["--config", str(tmp_path / "cfg.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == error

    def test_trace_threshold_is_not_a_config_key(self, tmp_path, capsys):
        # every command reads the one INFIDELITY_THRESHOLD, so no section
        # has a threshold key
        for section in ("descent", "navigation", "trace"):
            (tmp_path / "cfg.json").write_text(
                json.dumps(dict(TASK_DOC, **{section: {"infidelity_threshold": 1e-3}})))
            code = main(["levelset", "--config", str(tmp_path / "cfg.json"), "--seeds", "1"])
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            line = _one_error_line(err)
            assert line["error"] == "ConfigError", section
            assert f"unknown keys in {section}: ['infidelity_threshold']" in line["detail"]

    @pytest.mark.parametrize("section, key, value", [
        ("navigation", "corrector_target", 1e-28), ("navigation", "corrector_budget", 500),
        ("trace", "corrector_target", 1e-12), ("trace", "corrector_budget", 500),
        ("trace", "min_steps_before_closure", 10), ("trace", "closure_factor", 2.0),
        ("descent", "grad_tolerance", 1e-9), ("navigation", "stall_tolerance", 1e-8),
        ("scan", "assign_distance", 0.15),
    ], ids=["navigation.corrector_target", "navigation.corrector_budget",
            "trace.corrector_target", "trace.corrector_budget",
            "trace.min_steps_before_closure", "trace.closure_factor",
            "descent.grad_tolerance", "navigation.stall_tolerance", "scan.assign_distance"])
    def test_projection_internals_are_not_config_keys(self, section, key, value,
                                                      tmp_path, capsys):
        # the corrector's target and budget, the tracer's closure test, the
        # stopping tolerances of descent and navigation and the scan's
        # assignment distance are constants of the navigator, refused even
        # at the values it uses
        path = tmp_path / "p.json"
        proto.save(Protocol(1.0, 1.0, 0.3, (1.0, 1.0, 1.0, 1.0)), path)  # a solution
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TASK_DOC, **{section: {key: value}})))
        argv = ["smooth", str(path)] if section == "navigation" else ["levelset", "--seeds", "1"]
        code = main(argv + ["--config", str(tmp_path / "cfg.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        line = _one_error_line(err)
        assert line["error"] == "ConfigError"
        # `scan` is no section: the config refuses it whole
        where, name = ("config", section) if section == "scan" else (section, key)
        assert f"unknown keys in {where}: [{name!r}]" in line["detail"]

    def test_typed_config_still_loads(self, tmp_path):
        doc = dict(TASK_DOC, descent={"seed": 3, "box": [0, 2.0]},
                   navigation={"doubling_schedule": [2], "doubling_stall_tolerance": 1})
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        cfg = _load_config(tmp_path / "cfg.json")
        assert cfg.m == 3 and cfg.descent.box == (0, 2.0)
        assert cfg.navigation.doubling_schedule == (2,)
        assert cfg.navigation.doubling_stall_tolerance == 1
        # `scan` is no section of the config
        (tmp_path / "cfg.json").write_text(json.dumps(dict(doc, scan={"max_curves": 8})))
        with pytest.raises(ConfigError, match=r"unknown keys in config: \['scan'\]"):
            _load_config(tmp_path / "cfg.json")

    @pytest.mark.parametrize("argv", [
        ["theta-scan", "{p}", "--points", "2"],
        ["compress", "{p}", "--chunks", "0"],
        ["compress", "{p}", "--chunks", "2", "--double", "2"],
    ])
    def test_library_value_error(self, argv, tmp_path, capsys):
        path = tmp_path / "p.json"
        proto.save(Protocol(1.0, 0.25, 0.6, (1.0, 1.0, 1.0, 1.0)), path)
        code = main([a.format(p=path) for a in argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "ValueError"

    @pytest.mark.parametrize("argv", [
        ["solve"],
        ["theta-scan", "p.json", "--points", "abc"],
        ["frobnicate"],
    ])
    def test_usage_error(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "ConfigError"

    def test_index_overflow_is_an_error(self, tmp_path, capsys):
        # M = 10**30 fits no index: solve raises before it allocates anything
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TASK_DOC, M=10 ** 30)))
        code = main(["solve", "--config", str(tmp_path / "cfg.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "OverflowError"

    def test_out_of_memory_is_an_error(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate, raised here: a real attempt could
        # take the host's memory first
        def too_large(p, points):
            raise MemoryError(f"cannot allocate {points} grid points")
        monkeypatch.setattr(cli, "theta_scan", too_large)
        path = tmp_path / "p.json"
        proto.save(M3_SOLUTION, path)
        code = main(["theta-scan", str(path), "--points", str(10 ** 12)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "MemoryError"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_protocol_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"omega0": 1, "omegaT": 0.25, "dt": 0.6, "omegas": [1%s]}'
                        % ("0" * 400))
        code = main(["verify", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("command", ["verify", "spectrum", "theta-scan"])
    def test_non_finite_result_is_an_error_not_nan(self, command, tmp_path):
        proto.save(Protocol(1.0, 0.25, 0.6, (1e308, 1.0, 1.0)), tmp_path / "p.json")
        r = run_cli(command, "p.json", cwd=tmp_path)
        assert r.returncode == 1
        assert r.stdout == ""
        assert _one_error_line(r.stderr)["error"] == "NonFiniteEntry"

    @pytest.mark.parametrize("command", [["verify"], ["smooth"], ["compress", "--chunks", "1"],
                                         ["theta-scan"], ["spectrum"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("repeats", [40, 60])
    def test_overflowing_propagation_is_non_finite_entry(self, command, repeats, tmp_path,
                                                         capsys, monkeypatch):
        # every pulse is finite, but the propagation overflows: at 40 pulse
        # pairs |beta|^2 exceeds the float range, at 60 the state is NaN
        proto.save(Protocol(1.0, 0.25, 1.0, (1e6, 1e-3) * repeats), tmp_path / "p.json")
        monkeypatch.chdir(tmp_path)
        code = main([command[0], "p.json", *command[1:]])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "NonFiniteEntry"
        assert os.listdir(tmp_path) == ["p.json"]

    @pytest.mark.parametrize("command", [["verify"], ["spectrum"], ["smooth"]])
    def test_overflowing_pulse_is_named(self, command, tmp_path, capsys):
        # omega*dt = 2e308 overflows; the kernel's cos() would fail without a name
        path = tmp_path / "w.json"
        path.write_text('{"omega0": 1, "omegaT": 0.25, "dt": 2, "omegas": [1e308, 1, 1]}')
        code = main([*command, str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "omegas[0]" in _one_error_line(err)["detail"]


M3_SOLUTION = Protocol(1.0, 0.25, 0.6, (2.331126716122641, 0.33573037593786065,
                                         1.4600829700766007))


def writing_commands(tmp, protocol_path):
    """argv of every command that writes files, each with all its outputs
    named under ``tmp``; the config also names every output."""
    config = dict(TASK_DOC, descent={"seed": 1, "box": [0.0, 2.0]},
                  output={name: str(tmp / f"cfg-{name}") for name in
                          ("protocol", "trajectory", "cloud", "curves", "collapsed")})
    (tmp / "cfg.json").write_text(json.dumps(config))
    cfg, p = str(tmp / "cfg.json"), str(protocol_path)
    return {
        "solve": ["solve", "--config", cfg],
        "smooth": ["smooth", p, "--out-protocol", str(tmp / "s.json"),
                   "--out-trajectory", str(tmp / "s.csv")],
        "compress": ["compress", p, "--chunks", "1", "--out-protocol", str(tmp / "c.json"),
                     "--out-trajectory", str(tmp / "c.csv"),
                     "--out-collapsed", str(tmp / "small.json")],
        "spectrum": ["spectrum", p, "--out", str(tmp / "spectrum.csv")],
        "levelset": ["levelset", "--config", cfg, "--seeds", "1",
                     "--out-cloud", str(tmp / "cloud.csv"),
                     "--out-curves", str(tmp / "curves.csv")],
        "theta-scan": ["theta-scan", p, "--points", "64", "--out", str(tmp / "theta.csv")],
    }


class TestOutputFiles:
    """Outputs are written in place through one writer; every writing
    command reports a failed write as one JSON error line."""

    @pytest.mark.parametrize("command", ["solve", "smooth", "compress", "spectrum",
                                         "levelset", "theta-scan"])
    def test_no_command_opens_a_file_for_writing(self, command, tmp_path, monkeypatch,
                                                 capsys):
        proto.save(M3_SOLUTION, tmp_path / "p.json")
        argv = writing_commands(tmp_path, tmp_path / "p.json")[command]
        real_open = builtins.open

        def read_only_open(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                raise AssertionError(f"open({file!r}, {mode!r}) in {command}")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", read_only_open)
        assert main(argv) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "smooth", "compress", "spectrum",
                                         "levelset", "theta-scan"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_output_exits_1_naming_the_path(self, command, target, tmp_path,
                                                       capsys):
        proto.save(M3_SOLUTION, tmp_path / "p.json")
        bad = tmp_path / "no" / "such" / "dir.out" if target == "missing" else tmp_path
        argv = writing_commands(tmp_path, tmp_path / "p.json")[command]
        if command == "solve":
            cfg = json.loads((tmp_path / "cfg.json").read_text())
            cfg["output"]["trajectory"] = str(bad)
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        else:  # the last output the command writes
            argv[-1] = str(bad)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        line = _one_error_line(err)
        assert line["error"] == ("FileNotFoundError" if target == "missing"
                                 else "IsADirectoryError")
        assert str(bad) in line["detail"]

    @pytest.mark.parametrize("value", [2, ["a"], None, True, {"path": "p.json"}])
    def test_non_string_output_value_is_a_config_error(self, value, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TASK_DOC,
                                                           output={"trajectory": value})))
        with pytest.raises(ConfigError, match="output"):
            _load_config(tmp_path / "cfg.json")

    def test_non_string_output_fails_before_solving(self, tmp_path, capsys):
        doc = dict(TASK_DOC, output={"protocol": ["a"], "trajectory": str(tmp_path / "t.csv")})
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        code = main(["solve", "--config", str(tmp_path / "cfg.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "ConfigError"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", ["spectrum", "theta-scan"])
    def test_devnull_and_fifo_outputs(self, command, m8_solution_file, tmp_path, capsys):
        argv = [command, str(m8_solution_file)]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        assert main(argv + ["--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert main(argv + ["--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert got == [expected]

    def test_rerun_over_longer_outputs_is_byte_identical(self, m8_solution_file,
                                                         tmp_path):
        def run(directory, solve_m, source):
            directory.mkdir(exist_ok=True)
            doc = dict(TASK_DOC, M=solve_m, output={
                "protocol": str(directory / "p.json"),
                "trajectory": str(directory / "t.csv")})
            (directory / "cfg.json").write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["solve", "--config", str(directory / "cfg.json")]) == 0
                assert main(["compress", str(source or directory / "p.json"),
                             "--chunks", "1", "--out-protocol", str(directory / "p.json"),
                             "--out-trajectory", str(directory / "t.csv"),
                             "--out-collapsed", str(directory / "small.json")]) == 0
            return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}

        stale = tmp_path / "stale"
        first = run(stale, 8, m8_solution_file)  # M = 8 outputs, longer
        rerun, fresh = run(stale, 3, None), run(tmp_path / "fresh", 3, None)
        assert set(fresh) == {"cfg.json", "p.json", "t.csv", "small.json"}
        assert all(len(first[name]) > len(rerun[name]) for name in ("p.json", "t.csv"))
        assert {k: v for k, v in rerun.items() if k != "cfg.json"} == {
            k: v for k, v in fresh.items() if k != "cfg.json"}


def mostly(valid, invalid):
    """``valid`` five times in six."""
    return st.integers(0, 5).flatmap(lambda i: valid if i else invalid)


bad_numbers = st.one_of(st.integers(-3, 0), st.floats(allow_nan=True, allow_infinity=True),
                        st.just(10 ** 400))
numbers = mostly(st.floats(0.1, 3.0), bad_numbers)
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), bad_numbers,
                 st.lists(numbers, max_size=3))
# frictionless inputs, so that smooth and compress also reach their success path
solutions = st.sampled_from([
    {"omega0": 1.0, "omegaT": 1.0, "dt": 0.3, "omegas": [1.0, 1.0, 1.0, 1.0]},
    {"omega0": 1.0, "omegaT": 0.25, "dt": 0.6,
     "omegas": [2.331126716122641, 0.33573037593786065, 1.4600829700766007]}])
protocol_docs = st.one_of(
    solutions, solutions,
    st.fixed_dictionaries({"omega0": numbers, "omegaT": numbers, "dt": numbers,
                           "omegas": st.lists(numbers, max_size=4)}),
    st.dictionaries(st.sampled_from(["omega0", "omegaT", "dt", "omegas", "x"]), junk,
                    max_size=5),
    junk)
config_docs = mostly(
    st.fixed_dictionaries({
        "task": mostly(st.fixed_dictionaries({"omega0": numbers, "omegaT": numbers,
                                              "T": numbers}), junk),
        "M": mostly(st.integers(1, 4), junk),
        "descent": mostly(st.fixed_dictionaries(
            {"max_restarts": st.integers(0, 3), "max_iterations": st.integers(-1, 50)},
            optional={"seed": st.integers(0, 9),
                      "box": mostly(st.tuples(st.floats(-1.0, 0.0), numbers).map(list),
                                    st.lists(numbers, max_size=3))}),
            junk),
        "navigation": mostly(st.fixed_dictionaries(
            {"max_iterations": st.integers(-1, 3)},
            optional={"doubling_schedule": st.lists(st.integers(-1, 3), max_size=2)}),
            junk)}),
    st.dictionaries(st.text(max_size=3), junk, max_size=2))
commands = st.one_of(
    st.just(["solve"]), st.just(["verify"]),
    st.tuples(st.just("smooth"), mostly(st.sampled_from([[], ["--double", "2"]]),
                                        st.just(["--double", "x"]))),
    st.tuples(st.just("compress"), mostly(st.just(["--chunks", "1"]),
                                          st.sampled_from([["--chunks", "0"],
                                                           ["--chunks", "1", "--double", "2"]]))))


class TestCliProperty:
    """Any document: a known exit code, one JSON error line, strict JSON out."""

    @settings(max_examples=150)
    @given(commands, protocol_docs, config_docs)
    def test_exit_codes_and_strict_json(self, command, protocol_doc, config_doc):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "p.json").write_text(json.dumps(protocol_doc))
            config_doc = dict(config_doc, output={
                name: str(tmp / name) for name in ("protocol", "trajectory", "collapsed")})
            (tmp / "c.json").write_text(json.dumps(config_doc))
            if command == ["solve"]:
                argv = ["solve", "--config", str(tmp / "c.json")]
            elif command == ["verify"]:
                argv = ["verify", str(tmp / "p.json")]
            else:
                name, extra = command
                argv = [name, str(tmp / "p.json"), "--config", str(tmp / "c.json"), *extra]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3)
        if code != 0:
            assert set(_one_error_line(err.getvalue())) == {"error", "detail"}
        if out.getvalue():
            _strict_json(out.getvalue())
        else:
            assert code != 0
