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


def test_model_based_scaling_prints_one_row_per_size(monkeypatch, capsys):
    _run_script("model_based_scaling", ["--sizes", "4", "8"], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "iterations", "wall_s", "peak_mb", "l",
                                "dense_op_mb"]
    assert [line.split()[0] for line in lines[1:]] == ["4", "8"]
