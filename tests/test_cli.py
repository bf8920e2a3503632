import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import noisy_plant
from structlqr.cli import main
from structlqr.experiments import (ExplorationConfig, ScenarioSpec,
                                   SolverConfig, builtin_scenario,
                                   load_scenario, ring_scenario, save_scenario)
from structlqr.structure import SparsityMask

_COMMANDS = ("compare", "model-based", "simulate")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["model-based"])  # missing --scenario
    assert exc.value.code == 1
    # no subcommand but compare runs the data-driven pipeline, and the
    # bound is a key of model-based's report
    for command in ("srl", "bound"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", "consensus-a"])
        assert exc.value.code == 1
        assert "invalid choice" in capsys.readouterr().err


def test_unknown_scenario_exit_code(capsys):
    assert main(["model-based", "--scenario", "nope"]) == 1


def test_scenario_directory_exit_code(tmp_path, capsys):
    assert main(["model-based", "--scenario", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: '{tmp_path}' is a directory, not a scenario file\n")


def test_empty_scenario_path_exit_code(tmp_path, capsys, monkeypatch):
    # Path("") is the working directory; an empty string names no file
    monkeypatch.chdir(tmp_path)
    assert main(["model-based", "--scenario", ""]) == 1
    assert capsys.readouterr().err == (
        "error: source must be a non-empty path, got ''\n")


def test_scenario_file_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes(b"scenario caf\xe9\n")
    assert main(["model-based", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: '{path}' is not a UTF-8 text file\n")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario x\ndt 0.01\nmatrix B 1 1\nnot-a-number\n")
    assert main(["model-based", "--scenario", str(bad)]) == 1


def test_model_based_converges(capsys):
    assert main(["model-based", "--scenario", "consensus-a"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["method"] == "model-based"


@pytest.mark.parametrize("scenario", ["consensus-a", "consensus-b",
                                      "consensus-b-declared"])
def test_model_based_report_holds_the_bound(capsys, scenario):
    # the suboptimality bound is a key of model-based's report
    assert main(["model-based", "--scenario", scenario]) == 0
    bound = json.loads(capsys.readouterr().out)["bound"]
    assert set(bound) == {"g", "l", "bound", "gap", "within_bound",
                          "epsilon", "gap_over_bound"}
    assert bound["within_bound"] is True
    assert 0.0 <= bound["gap"] <= bound["bound"]
    assert bound["gap_over_bound"] == bound["gap"] / bound["bound"]


def test_help_lists_one_subcommand_per_pipeline(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{compare,model-based,simulate}" in capsys.readouterr().out


def test_simulate_subcommand(tmp_path, capsys):
    assert main(["simulate", "--scenario", "consensus-a", "--horizon", "0.5",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trajectory.csv").exists()
    # what a run prints is its report.json, as for the other subcommands
    text = (tmp_path / "report.json").read_text()
    assert capsys.readouterr().out == text
    assert set(json.loads(text)) == {"scenario", "samples", "final_state"}


def test_nonconvergence_exit_code(capsys):
    assert main(["model-based", "--scenario", "consensus-a",
                 "--max-iter", "2"]) == 4


@pytest.mark.parametrize("flag, value, knob", [
    ("--max-iter", "0", "solver max-iter"), ("--tol", "nan", "solver tol")])
def test_bad_solver_override_is_usage_error(capsys, flag, value, knob):
    # named as the scenario knob the flag sets
    assert main(["compare", "--scenario", "consensus-a", flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {knob} must be")


def _save_tone(tmp_path):
    """consensus-a probed at the single frequency 5, saved to a file."""
    spec = builtin_scenario("consensus-a")
    tone = dataclasses.replace(
        spec, exploration=dataclasses.replace(spec.exploration, freq_min=5.0,
                                              freq_max=5.0))
    path = tmp_path / "tone.scn"
    save_scenario(tone, path)
    return path


def _save_runaway(tmp_path):
    """A one-state plant with a pole at +600 and K0 = 0, saved to a file."""
    spec = ScenarioSpec(
        name="runaway",
        A=np.array([[600.0]]), B=np.array([[1.0]]),
        Q=np.array([[1.0]]), R=np.array([[1.0]]),
        mask=SparsityMask.all_ones(1, 1),
        x0=np.array([1.0]),
        dt=5e-4,
        exploration=ExplorationConfig(seed=1, duration=1.4, window=0.01),
        solver=SolverConfig(),
        initial_gain=np.array([[0.0]]),  # no feedback: the open loop blows up
    )
    path = tmp_path / "runaway.scn"
    save_scenario(spec, path)
    return path


def test_rank_failure_exit_code(tmp_path, capsys):
    # a single probe frequency excites rank 12 of the 21 int_xx columns
    # (the regression gate at K0 counts 13)
    path = _save_tone(tmp_path)
    assert main(["compare", "--scenario", str(path)]) == 2
    assert ("error: data rank 12 below the required count 21"
            in capsys.readouterr().err)


def test_divergence_exit_code(tmp_path, capsys):
    path = _save_runaway(tmp_path)
    assert main(["simulate", "--scenario", str(path)]) == 3
    assert "error: state diverged" in capsys.readouterr().err
    # compare rejects the non-stabilizing K0 before it explores
    assert main(["compare", "--scenario", str(path)]) == 4
    assert "error: initial gain is not stabilizing" in capsys.readouterr().err


def test_learned_gain_that_does_not_stabilize_exits_4(capsys, monkeypatch):
    # 1% state noise in the record (inputs exact) moves the learned gain
    # off the stabilizing set; the error names that gain before any cost,
    # not the cost's Lyapunov solve
    monkeypatch.setattr("structlqr.experiments.hide_state_matrix",
                        noisy_plant)
    assert main(["compare", "--scenario", "consensus-b", "--seed", "5"]) == 4
    assert re.fullmatch(r"error: synthesized gain is not stabilizing "
                        r"\(spectral abscissa 4\.11\d*\)\n",
                        capsys.readouterr().err)


def test_module_entry_point_exits_with_each_code(tmp_path):
    # python -m structlqr.cli hands main's return value to sys.exit
    runs = {0: ["model-based", "--scenario", "consensus-a"],
            1: ["model-based", "--scenario", "nope"],
            2: ["compare", "--scenario", str(_save_tone(tmp_path))],
            3: ["simulate", "--scenario", str(_save_runaway(tmp_path))],
            4: ["model-based", "--scenario", "consensus-a", "--max-iter", "2"]}
    src = Path(__file__).resolve().parent.parent / "src"
    for code, argv in runs.items():
        proc = subprocess.run([sys.executable, "-m", "structlqr.cli", *argv],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == code, (argv, proc.stderr)


def test_scenario_file_with_a_byte_order_mark_runs(tmp_path, capsys):
    # an editor may save UTF-8 with a BOM, which is not part of line 1's key
    path = tmp_path / "bom.scn"
    text = save_scenario(builtin_scenario("consensus-a"), path)
    assert path.read_bytes().startswith(b"scenario ")  # written without one
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert save_scenario(load_scenario(path)) == text
    assert main(["compare", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"] == "consensus-a"


def _one_state_spec(a, q, dt):
    return ScenarioSpec(
        name="fast", A=np.array([[a]]), B=np.array([[1.0]]),
        Q=np.array([[q]]), R=np.array([[1.0]]),
        mask=SparsityMask.all_ones(1, 1), x0=np.array([1.0]), dt=dt,
        exploration=ExplorationConfig(seed=1, duration=1.4, window=0.01),
        solver=SolverConfig(), initial_gain=np.array([[0.0]]))


def _assert_finite_trajectory(out_dir):
    table = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1)
    assert table.size and np.all(np.isfinite(table))


@pytest.mark.parametrize("q", [1e6, 1e7])
def test_fast_closed_loop_cost_exits_0(tmp_path, capsys, q):
    # the synthesized loop's pole sits near -sqrt(q), -1000 and -3162 per
    # s, too fast for the 1 ms cost grid: the quadrature takes a finer step
    path = tmp_path / "fast.scn"
    save_scenario(_one_state_spec(-1.0, q, 5e-4), path)
    assert main(["model-based", "--scenario", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    quad, exact = report["cost_quadrature"], report["cost_analytic"]
    assert abs(quad - exact) <= 1.4e-4 * exact
    # and too fast for 10 RK4 substeps of the written 10 ms trajectory grid
    for command in ("model-based", "compare"):
        out = tmp_path / command
        assert main([command, "--scenario", str(path),
                     "--out", str(out)]) == 0, capsys.readouterr().err
        _assert_finite_trajectory(out)


def test_stiff_open_loop_simulate_exits_0(tmp_path, capsys):
    # an open-loop pole at -3000 per s: 1 ms RK4 substeps would diverge
    # (h |lambda| > 2.78), so simulate takes finer ones
    path = tmp_path / "stiff.scn"
    save_scenario(_one_state_spec(-3000.0, 1.0, 5e-5), path)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path),
                 "--out", str(out)]) == 0, capsys.readouterr().err
    _assert_finite_trajectory(out)


@pytest.mark.parametrize("a, substeps", [(-1e5, 50000), (-1e308, 10**7)])
def test_simulate_beyond_the_step_cap_exits_1(tmp_path, capsys, a, substeps):
    # the substeps a 10 ms record of the pole needs, at most 10^7, are
    # more than simulate's step cap allows over the 5 s horizon
    path = tmp_path / "stiff.scn"
    save_scenario(_one_state_spec(a, 1.0, 5e-5), path)
    assert main(["simulate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: horizon must be at most {1e5 / substeps:g} s at dt 0.01 "
        f"with {substeps} substeps, got 5.0\n")


def test_one_sample_beyond_the_step_cap_exits_1(tmp_path, capsys):
    # a pole at -1e12 per s: one 10 ms sample alone needs 4e9 substeps,
    # which the step cap, counting one sample, would clamp to 10^7
    path = tmp_path / "stiff.scn"
    save_scenario(_one_state_spec(-1e12, 1.0, 5e-5), path)
    assert main(["simulate", "--scenario", str(path),
                 "--horizon", "0.01"]) == 1
    assert capsys.readouterr().err == (
        "error: horizon 0.01 needs more than 10000000 RK4 steps: one dt "
        "0.01 takes 4e+09 substeps\n")


def test_stiff_stable_exploration_runs_at_one_substep(tmp_path, capsys):
    # a pole at -1e5 per s, explored at dt 5e-05 and the default one
    # substep: RK4 at h |lambda| = 5 would blow up on a plant that decays,
    # so simulate takes the 2 substeps that ||A||_inf asks for
    path = tmp_path / "stiff.scn"
    save_scenario(_one_state_spec(-1e5, 1.0, 5e-5), path)
    assert main(["compare", "--scenario", str(path)]) == 0, \
        capsys.readouterr().err
    report = json.loads(capsys.readouterr().out)
    assert report["comparison"]["gain_distance_to_model_based"] < 1e-6


def test_simulate_horizon_off_the_grid_exits_1(capsys):
    assert main(["simulate", "--scenario", "consensus-a",
                 "--horizon", "0.015"]) == 1
    assert capsys.readouterr().err == (
        "error: horizon must be an integer multiple of dt 0.01, got 0.015\n")


@pytest.mark.parametrize("command", ["compare", "model-based"])
def test_non_stabilizing_initial_gain_exits_4(tmp_path, capsys, command):
    spec = builtin_scenario("consensus-a")
    K0 = spec.initial_gain.copy()
    K0[2, 2] = -100.0  # on the mask
    path = tmp_path / "k0.scn"
    save_scenario(dataclasses.replace(spec, initial_gain=K0), path)
    assert main([command, "--scenario", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: initial gain is not stabilizing (spectral abscissa "
        "95.1273)\n")


@pytest.mark.parametrize("command", ["compare", "model-based"])
def test_zero_initial_gain_on_a_ring_exits_4(tmp_path, capsys, command):
    # K0 = 0 leaves the ring's consensus mode at zero, which the solve's
    # eigh rounds to about -1.5e-15: still not stabilizing. The exploration
    # is long enough for the ring's 270 unknowns, so compare reaches the
    # gate.
    spec = ring_scenario(20)
    spec = dataclasses.replace(
        spec, initial_gain=np.zeros((20, 20)),
        exploration=dataclasses.replace(spec.exploration, duration=5.4))
    path = tmp_path / "ring20-k0.scn"
    save_scenario(spec, path)
    assert main([command, "--scenario", str(path)]) == 4
    assert capsys.readouterr().err.startswith(
        "error: initial gain is not stabilizing (spectral abscissa ")


def test_bound_on_a_singular_operator_exits_1(tmp_path, capsys):
    # K0 = 3 I stabilizes A = diag(2, 0), but A - B R^-1 B' = diag(1, -1)
    # has eigenvalues summing to zero, so the bound constant is undefined
    spec = ScenarioSpec(
        name="singular", A=np.diag([2.0, 0.0]), B=np.eye(2), Q=np.eye(2),
        R=np.eye(2), mask=SparsityMask.all_ones(2, 2), x0=np.ones(2),
        dt=5e-4, exploration=ExplorationConfig(), solver=SolverConfig(),
        initial_gain=3.0 * np.eye(2))
    path = tmp_path / "singular.scn"
    save_scenario(spec, path)
    assert main(["model-based", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: two eigenvalues of A - B R^-1 B' sum to zero; ")


@pytest.mark.parametrize("command", _COMMANDS)
def test_scenario_without_initial_gain_exits_1(tmp_path, capsys, command):
    # K0 is a required block, so every subcommand rejects the file at parse
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = lines.index("matrix K0 6 6")
    del lines[idx:idx + 7]
    path = tmp_path / "no-k0.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == "error: missing matrix K0\n"


@pytest.mark.parametrize("command", _COMMANDS)
def test_initial_gain_off_the_mask_exits_1(tmp_path, capsys, command):
    # K0[0, 0] is off consensus-a's mask
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = lines.index("matrix K0 6 6")
    lines[idx + 1] = "-7.5 " + lines[idx + 1].split(maxsplit=1)[1]
    path = tmp_path / "k0.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: line {idx + 1}: matrix K0 must be zero off the mask, got "
        "-7.5 at (0, 0)\n")


@pytest.mark.parametrize("scenario", ["consensus-a", "consensus-b",
                                      "consensus-b-declared"])
@pytest.mark.parametrize("command", ["model-based", "compare"])
def test_compare_writes_full_report(tmp_path, capsys, command, scenario):
    assert main([command, "--scenario", scenario,
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text()
    assert capsys.readouterr().out == text  # one report, in both places
    report = json.loads(text)
    assert set(report) == {
        "scenario", "method", "converged", "iterations", "gain",
        "value_matrix", "cost_quadrature", "cost_analytic",
        "closed_loop_eigenvalues", "structure_violation_max", "bound",
        "comparison", "rank", "exploration_peak_state"}
    assert report["method"] == command
    assert report["bound"]["within_bound"] is True
    if command == "model-based":
        assert report["rank"] is None
        assert report["exploration_peak_state"] is None
    else:
        assert report["rank"]["passed"] is True
        assert report["comparison"]["gain_distance_to_model_based"] <= 1e-3


def test_out_dir_that_is_a_file_exits_1_before_the_run(tmp_path, capsys,
                                                       monkeypatch):
    def no_exploration(*args):
        raise AssertionError("explored before checking out_dir")

    monkeypatch.setattr("structlqr.experiments.collect", no_exploration)
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["compare", "--scenario", "consensus-a",
                 "--out", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: out_dir ")


@pytest.mark.parametrize("command", _COMMANDS)
def test_empty_out_dir_exits_1_before_the_run(tmp_path, capsys, monkeypatch,
                                              command):
    # an unset $DIR in --out "$DIR" must not write into the working directory
    def no_run(*args):
        raise AssertionError("ran before checking out_dir")

    monkeypatch.setattr("structlqr.experiments._baselines", no_run)
    monkeypatch.setattr("structlqr.experiments._trajectory", no_run)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--scenario", "consensus-a", "--out", ""]) == 1
    assert capsys.readouterr().err == (
        "error: out_dir must be a non-empty path, got ''\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", _COMMANDS)
def test_out_dir_under_missing_directories_is_made(tmp_path, capsys,
                                                   command):
    # the check before the run walks up to tmp_path, a directory
    out = tmp_path / "new" / "run"
    assert main([command, "--scenario", "consensus-a",
                 "--out", str(out)]) == 0, capsys.readouterr().err
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command", _COMMANDS)
def test_out_dir_under_a_file_exits_1_before_the_run(tmp_path, capsys,
                                                     monkeypatch, command):
    def no_run(*args):
        raise AssertionError("ran before checking out_dir")

    monkeypatch.setattr("structlqr.experiments._baselines", no_run)
    monkeypatch.setattr("structlqr.experiments._trajectory", no_run)
    path = tmp_path / "taken"
    path.write_text("")
    out = path / "sub" / "run"
    assert main([command, "--scenario", "consensus-a", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: out_dir must be a directory, got '{out}' under the existing "
        f"file '{path}'\n")


@pytest.mark.parametrize("command, key, value", [
    ("compare", "dt", "0"),
    ("model-based", "dt", "-1"),
    ("compare", "exploration window", "0"),
    ("compare", "exploration duration", "inf"),
    ("compare", "exploration freq-min", "0"),
    ("compare", "exploration freq-max", "inf"),
    ("compare", "exploration amplitude", "nan"),
    ("compare", "solver rank-tol", "nan"),
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
    assert (f"error: line {idx + 1}: {key} must be finite and positive, "
            f"got {float(value)!r}\n" in capsys.readouterr().err)


def test_zero_time_step_in_a_saved_builtin_is_a_line_error(tmp_path, capsys):
    # the file the console-script smoke writes, and the exact stderr it greps
    text = save_scenario(builtin_scenario("consensus-a"))
    path = tmp_path / "dt0.scn"
    path.write_text(text.replace("\ndt 5e-05\n", "\ndt 0\n", 1))
    assert main(["model-based", "--scenario", str(path)]) == 1
    assert (capsys.readouterr().err
            == "error: line 2: dt must be finite and positive, got 0.0\n")


@pytest.mark.parametrize("key, value, message", [
    ("exploration window", "0.010003",
     "exploration window must be an integer multiple (>= 2) of dt 5e-05, "
     "got 0.010003"),
    ("exploration window", "5e-05",
     "exploration window must be an integer multiple (>= 2) of dt 5e-05, "
     "got 5e-05"),
    ("exploration duration", "1.4149",
     "exploration duration must be an integer multiple of exploration "
     "window 0.01, got 1.4149"),
])
def test_exploration_timing_off_its_grid_is_usage_error(tmp_path, capsys, key,
                                                        value, message):
    # the grid is checked when the file is read, whatever the subcommand
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = next(k for k, line in enumerate(lines)
               if line.rsplit(" ", 1)[0] == key)
    lines[idx] = f"{key} {value}"
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    for command in _COMMANDS:
        assert main([command, "--scenario", str(path)]) == 1
        assert (capsys.readouterr().err
                == f"error: line {idx + 1}: {message}\n"), command


@pytest.mark.parametrize("argv", [
    ["model-based", "--seed", "5"],
    ["model-based", "--horizon", "1"],
    ["simulate", "--tol", "1e-3"],
    ["simulate", "--max-iter", "3"],
])
def test_option_not_read_by_subcommand_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scenario", "consensus-a"])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, offset, message", [
    ("exploration window 0.01", "exploration windw 0.02", 0,
     "unknown key 'exploration windw'"),
    ("solver tol 0.001", "solver tolerance 5", 0,
     "unknown key 'solver tolerance'"),
    ("matrix K0 6 6", "matrix K 6 6", 0, "unknown matrix 'K'"),
    ("vector x0 6", "vector y0 6", 0, "unknown vector 'y0'"),
    ("dt 5e-05", "dt 5e-05\ndt 0.0001", 1, "dt repeats line 2"),
    ("scenario consensus-a", "scenario consensus-a\nscenario b", 1,
     "scenario repeats line 1"),
    ("solver max-iter 30", "solver max-iter 30\nsolver max-iter 40", 1,
     "solver max-iter repeats line 64"),
    ("matrix R 6 6", "matrix Q 6 6", 0, "matrix Q repeats line 20"),
    ("matrix B 6 6", "matrix B 100000000 100000000", 1,
     "expected 100000000 values in matrix B, got 6"),
])
def test_unknown_repeated_or_oversized_entry_is_line_error(tmp_path, capsys,
                                                           old, new, offset,
                                                           message):
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    lineno = lines.index(old) + 1 + offset
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines).replace(old, new, 1) + "\n")
    tracemalloc.start()
    try:
        assert main(["model-based", "--scenario", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"error: line {lineno}: {message}\n" in capsys.readouterr().err
    assert peak < 1e6  # block arrays follow the file, not the header


@pytest.mark.parametrize("command, key, value, low", [
    ("compare", "exploration seed", "-1", 0),
    ("model-based", "exploration seed", "-1", 0),
    ("model-based", "exploration substeps", "0", 1),
    ("model-based", "exploration sinusoids", "0", 1),
    ("compare", "exploration sinusoids", "-3", 1),
])
def test_count_knob_below_its_bound_is_usage_error(tmp_path, capsys, command,
                                                   key, value, low):
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = next(k for k, line in enumerate(lines)
               if line.rsplit(" ", 1)[0] == key)
    lines[idx] = f"{key} {value}"
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--scenario", str(path)]) == 1
    assert (f"error: line {idx + 1}: {key} must be at least {low}, "
            f"got {value}\n" in capsys.readouterr().err)


def test_sinusoid_count_above_its_bound_is_usage_error(tmp_path, capsys):
    text = save_scenario(builtin_scenario("consensus-a"))
    lineno = text.splitlines().index("exploration sinusoids 100") + 1
    path = tmp_path / "bad.scn"
    path.write_text(text.replace("exploration sinusoids 100",
                                 "exploration sinusoids 100000000"))
    tracemalloc.start()
    try:
        assert main(["compare", "--scenario", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (f"error: line {lineno}: exploration sinusoids must be at most "
            "10000, got 100000000\n" in capsys.readouterr().err)
    assert peak < 1e6  # rejected before any probe array is allocated


@pytest.mark.parametrize("command", ["model-based", "compare"])
def test_huge_x0_is_usage_error(tmp_path, capsys, command):
    text = save_scenario(builtin_scenario("consensus-a"))
    lines = text.splitlines()
    idx = lines.index("vector x0 6") + 1
    lines[idx] = "1e300 " + lines[idx].split(" ", 1)[1]
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main([command, "--scenario", str(path)]) == 1
    assert (f"error: line {idx}: vector x0 entries must be finite and at "
            "most 1e+150 in magnitude, got 1e+300\n"
            in capsys.readouterr().err)


def test_negative_seed_override_is_usage_error(capsys):
    assert main(["compare", "--scenario", "consensus-a", "--seed", "-1"]) == 1
    assert ("error: exploration seed must be at least 0, got -1\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_non_finite_simulate_horizon_is_usage_error(tmp_path, capsys, horizon):
    assert main(["simulate", "--scenario", "consensus-a", "--horizon", horizon,
                 "--out", str(tmp_path / "out")]) == 1
    assert (capsys.readouterr().err
            == f"error: horizon must be finite and positive, got {horizon}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("dt", "0", "must be finite and positive, got 0.0"),
    ("exploration seed", "-1", "must be at least 0, got -1"),
    ("exploration duration", "-1", "must be finite and positive, got -1.0"),
    ("exploration window", "0", "must be finite and positive, got 0.0"),
    ("exploration sinusoids", "0", "must be at least 1, got 0"),
    ("exploration freq-min", "60", "60.0 exceeds exploration freq-max 50.0"),
    ("exploration freq-max", "nan", "must be finite and positive, got nan"),
    ("exploration amplitude", "-2", "must be finite and positive, got -2.0"),
    ("exploration substeps", "0", "must be at least 1, got 0"),
    ("solver tol", "-1.0", "must be finite and positive, got -1.0"),
    ("solver max-iter", "0", "must be at least 1, got 0"),
    ("solver rank-tol", "inf", "must be finite and positive, got inf"),
    # 1/sqrt(2) is below every condition number, so compare would exit 2
    # blaming data
    ("solver rank-tol", "2", "must be below 1, got 2.0"),
])
def test_knob_error_names_its_key_and_line(tmp_path, capsys, key, value,
                                           message):
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = next(k for k, line in enumerate(lines)
               if line.rsplit(" ", 1)[0] == key)
    lines[idx] = f"{key} {value}"
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main(["model-based", "--scenario", str(path)]) == 1
    assert (capsys.readouterr().err
            == f"error: line {idx + 1}: {key} {message}\n")


@pytest.mark.parametrize("key, value", [
    ("matrix A", "-1"), ("matrix Q", "1"), ("matrix R", "1"), ("mask", "1"),
    ("vector x0", "0.5"), ("matrix K0", "10"),
])
def test_block_shape_error_names_its_key_and_line(tmp_path, capsys, key,
                                                  value):
    # each block becomes 1-by-1; all shapes follow from B's, so B is not listed
    vector = key.startswith("vector")
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = lines.index(f"{key} 6" if vector else f"{key} 6 6")
    lines[idx:idx + (2 if vector else 7)] = [
        f"{key} 1" if vector else f"{key} 1 1", value]
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main(["model-based", "--scenario", str(path)]) == 1
    shape = "(6,), got (1,)" if vector else "(6, 6), got (1, 1)"
    assert (capsys.readouterr().err
            == f"error: line {idx + 1}: {key} must have shape {shape}\n")


@pytest.mark.parametrize("key, row, col, value, message", [
    ("matrix R", 0, 1, "0.5", "must be symmetric"),
    ("matrix Q", 0, 0, "-1.0", "must be positive semidefinite"),
    ("matrix A", 2, 3, "nan", "has non-finite entries"),
    ("matrix K0", 0, 0, "nan", "has non-finite entries"),
    ("matrix B", 5, 5, "inf", "has non-finite entries"),
    ("mask", 1, 2, "nan", "has non-finite entries"),
    ("mask", 4, 0, "2", "entries must be exactly 0 or 1"),
])
def test_matrix_entry_error_names_its_key_and_line(tmp_path, capsys, key, row,
                                                   col, value, message):
    lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
    idx = lines.index(f"{key} 6 6")
    entries = lines[idx + 1 + row].split()
    entries[col] = value
    lines[idx + 1 + row] = " ".join(entries)
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main(["model-based", "--scenario", str(path)]) == 1
    assert (capsys.readouterr().err
            == f"error: line {idx + 1}: {key} {message}\n")


def test_huge_simulate_horizon_is_usage_error(tmp_path, capsys):
    tracemalloc.start()
    try:
        assert main(["simulate", "--scenario", "consensus-a", "--horizon",
                     "1e9", "--out", str(tmp_path / "out")]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        "error: horizon must be at most 10000 s at dt 0.01 with 10 "
        "substeps, got 1000000000.0\n")
    assert peak < 1e6  # rejected before any array is sized
    assert not (tmp_path / "out").exists()


def test_huge_exploration_duration_is_usage_error(tmp_path, capsys):
    # only the runs that explore check its length; the others take the file
    text = save_scenario(builtin_scenario("consensus-a"))
    path = tmp_path / "long.scn"
    path.write_text(text.replace("exploration duration 1.4",
                                 "exploration duration 1e9"))
    tracemalloc.start()
    try:
        assert main(["compare", "--scenario", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        "error: exploration duration must be at most 500 s at dt 5e-05 "
        "with 1 substeps, got 1000000000.0\n")
    assert peak < 1e6  # rejected before the probe or any record is sized
    for command in ("model-based", "simulate"):
        assert main([command, "--scenario", str(path)]) == 0, \
            capsys.readouterr().err


def test_stiff_exploration_is_capped_at_the_step_it_takes(tmp_path, capsys):
    # a pole at -1e5 per s raises the one substep to 2, which halves the
    # 500 s the floor allows; the cap names the scenario key, not simulate's
    path = tmp_path / "stiff.scn"
    save_scenario(dataclasses.replace(
        _one_state_spec(-1e5, 1.0, 5e-5), exploration=ExplorationConfig(
            seed=1, duration=400.0, window=0.01)), path)
    assert main(["compare", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: exploration duration must be at most 250 s at dt 5e-05 "
        "with 2 substeps, got 400.0\n")
    # simulate's 10 ms record of the pole takes 50000 substeps, so 1 s
    for argv in (["model-based"], ["simulate", "--horizon", "1"]):
        assert main(argv + ["--scenario", str(path)]) == 0, \
            capsys.readouterr().err


def test_exploration_too_short_for_the_unknowns_is_usage_error(tmp_path,
                                                                capsys):
    # consensus-a has 50 unknowns, so 100 windows of 0.01 s; model-based
    # runs no exploration and takes the file
    text = save_scenario(builtin_scenario("consensus-a"))
    path = tmp_path / "short.scn"
    path.write_text(text.replace("exploration duration 1.4",
                                 "exploration duration 0.5"))
    assert main(["compare", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: exploration duration must be at least 1 s (100 windows "
        "of 0.01 s), got 0.5\n")
    assert main(["model-based", "--scenario", str(path)]) == 0
