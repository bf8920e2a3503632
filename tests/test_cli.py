import dataclasses
import json

import numpy as np
import pytest

from structlqr.cli import main
from structlqr.experiments import (ExplorationConfig, ScenarioSpec,
                                   SolverConfig, builtin_scenario,
                                   save_scenario)
from structlqr.structure import SparsityMask


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["model-based"])  # missing --scenario
    assert exc.value.code == 1


def test_unknown_scenario_exit_code(capsys):
    assert main(["model-based", "--scenario", "nope"]) == 1


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario x\ndt 0.01\nmatrix B 1 1\nnot-a-number\n")
    assert main(["model-based", "--scenario", str(bad)]) == 1


def test_model_based_converges(capsys):
    assert main(["model-based", "--scenario", "consensus-a"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["method"] == "model-based"


def test_bound_subcommand(capsys):
    assert main(["bound", "--scenario", "consensus-a"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bound"]["within_bound"] is True


def test_simulate_subcommand(tmp_path, capsys):
    assert main(["simulate", "--scenario", "consensus-a", "--horizon", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_nonconvergence_exit_code(capsys):
    assert main(["model-based", "--scenario", "consensus-a",
                 "--max-iter", "2"]) == 4


@pytest.mark.parametrize("flag, value, knob", [
    ("--max-iter", "0", "max_iter"), ("--tol", "nan", "tol")])
def test_bad_solver_override_is_usage_error(capsys, flag, value, knob):
    assert main(["compare", "--scenario", "consensus-a", flag, value]) == 1
    assert f"error: {knob} must be" in capsys.readouterr().err


def test_rank_failure_exit_code(tmp_path, capsys):
    spec = builtin_scenario("consensus-a")
    short = dataclasses.replace(
        spec, exploration=dataclasses.replace(spec.exploration, duration=1.0))
    path = tmp_path / "short.scn"
    save_scenario(short, path)
    assert main(["srl", "--scenario", str(path)]) == 2


def test_divergence_exit_code(tmp_path, capsys):
    spec = ScenarioSpec(
        name="runaway",
        A=np.array([[600.0]]), B=np.array([[1.0]]),
        Q=np.array([[1.0]]), R=np.array([[1.0]]),
        mask=SparsityMask.all_ones(1, 1),
        x0=np.array([1.0]),
        dt=5e-4,
        exploration=ExplorationConfig(seed=1, duration=1.4, window=0.01),
        solver=SolverConfig(),
        initial_gain=np.array([[0.0]]),  # no feedback: the probe run blows up
    )
    path = tmp_path / "runaway.scn"
    save_scenario(spec, path)
    assert main(["srl", "--scenario", str(path)]) == 3


def test_compare_writes_full_report(tmp_path, capsys):
    assert main(["compare", "--scenario", "consensus-a",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == "compare"
    assert report["comparison"]["gain_distance_to_model_based"] <= 1e-3
    assert report["bound"]["within_bound"] is True


@pytest.mark.parametrize("command, key, value", [
    ("srl", "dt", "0"),
    ("model-based", "dt", "-1"),
    ("srl", "exploration window", "0"),
    ("srl", "exploration duration", "inf"),
    ("srl", "exploration freq-min", "0"),
    ("srl", "exploration freq-max", "inf"),
    ("srl", "exploration amplitude", "nan"),
    ("srl", "solver rank-tol", "nan"),
])
def test_bad_time_step_or_span_is_usage_error(tmp_path, capsys, command, key,
                                              value):
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = next(k for k, line in enumerate(lines)
               if line.rsplit(" ", 1)[0] == key)
    lines[idx] = f"{key} {value}"
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--scenario", str(path)]) == 1
    assert (f"error: {key} must be finite and positive, got {float(value)!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["model-based", "--seed", "5"],
    ["bound", "--seed", "5"],
    ["simulate", "--tol", "1e-3"],
    ["simulate", "--max-iter", "3"],
])
def test_option_not_read_by_subcommand_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scenario", "consensus-a"])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
