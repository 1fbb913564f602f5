"""The README's library sketch runs as written and gives the numbers it
quotes, its CLI example runs as written on its own run config, its key
list of each config section is the config schema's, and its exit codes
are the CLI's."""

import ast
import dataclasses
import pathlib
import re
import shlex

import pytest

import oscnav
from oscnav import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` after ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(re.escape(fence) + r"\n(.*?)```", section, re.S).group(1)


def _sketch() -> str:
    return _block("## Library sketch", "```python")


def test_library_sketch(monkeypatch, capsys):
    runs = []
    real = oscnav.navigate

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(oscnav, "navigate", recording)
    scope = {}
    exec(compile(_sketch(), str(README), "exec"), scope)
    assert float(capsys.readouterr().out) < 1e-20
    smoothing, compression = runs
    for traj in runs:
        assert traj.status == "completed"
        assert len(traj.records) - 1 <= 12
    assert scope["smooth"].m == 96
    assert smoothing.records[-1].cost == pytest.approx(0.0567536, abs=5e-8)
    assert compression.records[-1].cost == pytest.approx(39.81, abs=5e-3)
    assert oscnav.infidelity(scope["small"]) == pytest.approx(0.0797, abs=5e-5)


def test_cli_example(tmp_path, monkeypatch, capsys):
    (tmp_path / "run.json").write_text(_block("A run config provides", "```json"),
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line) for line in _block("## CLI", "```").splitlines()]
    assert [argv[0] for argv in lines] == ["oscnav"] * len(lines)
    assert lines[0][1] == "solve"
    solved = None
    for argv in lines:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        if solved is None:
            solved = (tmp_path / "protocol.json").read_bytes()
    # the later lines read the solve's protocol, and no line overwrites it
    assert (tmp_path / "protocol.json").read_bytes() == solved
    levelset = next(argv for argv in lines if argv[1] == "levelset")
    for option, header in (("--out-cloud", "omega1,omega2,omega3,I,component"),
                           ("--out-curves", "curve,vertex,omega1,omega2,omega3,I,closed")):
        text = (tmp_path / levelset[levelset.index(option) + 1]).read_text(encoding="utf-8")
        assert text.splitlines()[0] == header and len(text.splitlines()) > 1


def test_trace_keys_match_the_schema():
    # a section's keys are the names in backquotes from "accepts" to the
    # period
    text = " ".join(README.read_text(encoding="utf-8").split())
    for section, cls in (("descent", oscnav.DescentConfig),
                         ("navigation", oscnav.NavigationConfig),
                         ("trace", oscnav.TraceConfig)):
        start = text.index("accepts", text.index(f"The `{section}` section"))
        named = re.findall(r"`([a-z_]+)`", text[start:text.index(".", start)])
        keys = [f.name for f in dataclasses.fields(cls)]
        assert sorted(named) == sorted(keys), section


def test_exit_codes_match_the_cli():
    # the codes are the numbers that open a clause of README's "All commands
    # exit" sentence, up to its semicolon, and of the cli docstring's "Exit
    # codes:" lines, up to "Failures"; the CLI's are 0 and the first
    # argument of every _fail call
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    failing = {node.args[0].value for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail"}
    readme = " ".join(README.read_text(encoding="utf-8").split())
    docstring = " ".join(cli.__doc__.split())
    for where, text, first, last in (("README", readme, "All commands exit", ";"),
                                     ("cli", docstring, "Exit codes:", "Failures")):
        start = text.index(first)
        sentence = text[start:text.index(last, start)]
        listed = [int(code) for code in re.findall(r"\b(\d+) [a-z]", sentence)]
        assert sorted(listed) == sorted({0} | failing), where
