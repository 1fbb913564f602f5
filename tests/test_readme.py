"""The README's library sketch runs as written and gives the numbers it quotes."""

import pathlib
import re

import pytest

import oscnav

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
