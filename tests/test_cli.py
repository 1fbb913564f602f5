import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscnav
from oscnav import DescentConfig, Protocol, infidelity, solve
from oscnav import protocol as proto
from oscnav.cli import _load_config, main

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
        dict(TASK_DOC, descent={"grad_tolerance": 10 ** 400}),
        dict(TASK_DOC, navigation={"doubling_schedule": [2, "a"]}),
        dict(TASK_DOC, scan={"max_curves": True}),
        dict(TASK_DOC, task={"omega0": "1.0", "omegaT": 0.25, "T": 1.8}),
        dict(TASK_DOC, descent={"armijo_constant": 1e-4}),  # removed keys
        dict(TASK_DOC, navigation={"grad_tolerance": 1e-9}),
    ])
    def test_badly_typed_config_field(self, config, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = main(["solve", "--config", str(tmp_path / "cfg.json")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "ConfigError"

    def test_typed_config_still_loads(self, tmp_path):
        doc = dict(TASK_DOC, descent={"seed": 3, "box": [0, 2.0], "grad_tolerance": 1},
                   navigation={"doubling_schedule": [2], "doubling_stall_tolerance": None},
                   scan={"assign_distance": 0.2, "max_curves": 8})
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        cfg = _load_config(tmp_path / "cfg.json")
        assert cfg.m == 3 and cfg.descent.box == (0, 2.0)
        assert cfg.navigation.doubling_schedule == (2,)
        assert cfg.scan.max_curves == 8 and cfg.scan.descent is cfg.descent

    @pytest.mark.parametrize("argv", [
        ["theta-scan", "{p}", "--points", "2"],
        ["compress", "{p}", "--chunks", "0"],
    ])
    def test_library_value_error(self, argv, tmp_path, capsys):
        path = tmp_path / "p.json"
        proto.save(Protocol(1.0, 0.25, 0.6, (1.0, 1.0, 1.0, 1.0)), path)
        code = main([a.format(p=path) for a in argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert _one_error_line(err)["error"] == "ValueError"

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
