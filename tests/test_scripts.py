"""Smoke tests of the shipped demo scripts, run in-process with default arguments."""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    module.main()
    return capsys.readouterr().out.splitlines()


def test_demo_sweep_prints_one_row_per_run(monkeypatch, capsys):
    lines = run_script("demo_sweep", monkeypatch, capsys)
    assert lines[0].split()[:2] == ["run", "vis"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["uncorrected", "corrected", "distinguishable"]
    for row in rows:
        assert len(row) == 7
    # The distinguishable control is flat: zero visibility, and no phase.
    assert [float(x) for x in rows[2][1:5]] == [0.0, 0.0, 0.0, 0.0]
    assert float(rows[1][1]) == pytest.approx(0.922, abs=1e-4)


def test_hom_dip_prints_every_delay(monkeypatch, capsys):
    lines = run_script("hom_dip", monkeypatch, capsys)
    assert lines[0].startswith("coherence time")
    rows = lines[2:]
    assert len(rows) == 25
    floors = [row for row in rows if row.endswith("<- dip floor")]
    assert len(floors) == 1
    assert float(floors[0].split()[0]) == 0.0
