"""Smoke runs of the command-line scripts under scripts/."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def test_excitation_span_study_prints_its_table(monkeypatch, capsys):
    _run_script("excitation_span_study", [], monkeypatch)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("classical sample requirement:")
    assert out[1].split()[:2] == ["span", "(s)"]
    spans = [row.split()[0] for row in out[2:]]
    assert spans == ["0.8", "1.0", "1.1", "1.2", "1.4", "1.6"]
    assert all(row.split()[-1] in ("pass", "FAIL") for row in out[2:])


def test_reproduce_network_results_prints_its_table(monkeypatch, capsys):
    _run_script("reproduce_network_results", [], monkeypatch)
    out = capsys.readouterr().out
    for name in ("consensus-a", "consensus-b"):
        assert f"scenario {name}: converged=True" in out
    assert out.count("learned structured gain =") == 2
    assert out.count("suboptimality bound: gap") == 2
