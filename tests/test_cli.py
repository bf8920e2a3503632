import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from structlqr.cli import main
from structlqr.experiments import (ExplorationConfig, ScenarioSpec,
                                   SolverConfig, builtin_scenario,
                                   save_scenario)
from structlqr.structure import SparsityMask

_COMMANDS = ("srl", "compare", "model-based", "bound", "simulate")


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


def test_bound_takes_no_out_directory(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--scenario", "consensus-a", "--out", str(out)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


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
    # a single probe frequency excites rank 19 of the 50 unknowns
    spec = builtin_scenario("consensus-a")
    tone = dataclasses.replace(
        spec, exploration=dataclasses.replace(spec.exploration, freq_min=5.0,
                                              freq_max=5.0))
    path = tmp_path / "tone.scn"
    save_scenario(tone, path)
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
        initial_gain=np.array([[0.0]]),  # no feedback: the open loop blows up
    )
    path = tmp_path / "runaway.scn"
    save_scenario(spec, path)
    assert main(["simulate", "--scenario", str(path)]) == 3
    assert "error: state diverged" in capsys.readouterr().err
    # srl rejects the non-stabilizing K0 before it explores
    assert main(["srl", "--scenario", str(path)]) == 4
    assert "error: initial gain is not stabilizing" in capsys.readouterr().err


@pytest.mark.parametrize("q", [1e6, 1e7])
def test_fast_closed_loop_cost_exits_0(tmp_path, capsys, q):
    # the synthesized loop's pole sits near -sqrt(q), -1000 and -3162 per
    # s, too fast for the 1 ms cost grid: the quadrature takes a finer step
    spec = ScenarioSpec(
        name="fast", A=np.array([[-1.0]]), B=np.array([[1.0]]),
        Q=np.array([[q]]), R=np.array([[1.0]]),
        mask=SparsityMask.all_ones(1, 1), x0=np.array([1.0]), dt=5e-4,
        exploration=ExplorationConfig(seed=1, duration=1.4, window=0.01),
        solver=SolverConfig(), initial_gain=np.array([[0.0]]))
    path = tmp_path / "fast.scn"
    save_scenario(spec, path)
    assert main(["model-based", "--scenario", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    quad, exact = report["cost_quadrature"], report["cost_analytic"]
    assert abs(quad - exact) <= 1.4e-4 * exact


def test_simulate_horizon_off_the_grid_exits_1(capsys):
    assert main(["simulate", "--scenario", "consensus-a",
                 "--horizon", "0.015"]) == 1
    assert capsys.readouterr().err == (
        "error: horizon must be an integer multiple of dt 0.01, got 0.015\n")


@pytest.mark.parametrize("command", ["srl", "compare", "model-based",
                                     "bound"])
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
    assert (f"error: line {idx + 1}: {key} must be finite and positive, "
            f"got {float(value)!r}\n" in capsys.readouterr().err)


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
    ["bound", "--seed", "5"],
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
     "unknown exploration key 'windw'"),
    ("solver tol 0.001", "solver tolerance 5", 0,
     "unknown solver key 'tolerance'"),
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
    ("srl", "exploration seed", "-1", 0),
    ("model-based", "exploration seed", "-1", 0),
    ("model-based", "exploration substeps", "0", 1),
    ("model-based", "exploration sinusoids", "0", 1),
    ("srl", "exploration sinusoids", "-3", 1),
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
        assert main(["srl", "--scenario", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (f"error: line {lineno}: exploration sinusoids must be at most "
            "10000, got 100000000\n" in capsys.readouterr().err)
    assert peak < 1e6  # rejected before any probe array is allocated


@pytest.mark.parametrize("command", ["model-based", "srl"])
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


@pytest.mark.parametrize("command", ["srl", "compare"])
def test_negative_seed_override_is_usage_error(capsys, command):
    assert main([command, "--scenario", "consensus-a", "--seed", "-1"]) == 1
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
    shape = "(6,)" if vector else "(6, 6)"
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
    text = save_scenario(builtin_scenario("consensus-a"))
    lineno = text.splitlines().index("exploration duration 1.4") + 1
    path = tmp_path / "long.scn"
    path.write_text(text.replace("exploration duration 1.4",
                                 "exploration duration 1e9"))
    for command in _COMMANDS:
        tracemalloc.start()
        try:
            assert main([command, "--scenario", str(path)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            f"error: line {lineno}: exploration duration must be at most "
            "500 s at dt 5e-05 with 1 substeps, got 1000000000.0\n"), command
        assert peak < 1e6  # rejected before the probe or any record is sized


def test_exploration_too_short_for_the_unknowns_is_usage_error(tmp_path,
                                                                capsys):
    # consensus-a has 50 unknowns, so 100 windows of 0.01 s; model-based
    # runs no exploration and takes the file
    text = save_scenario(builtin_scenario("consensus-a"))
    path = tmp_path / "short.scn"
    path.write_text(text.replace("exploration duration 1.4",
                                 "exploration duration 0.5"))
    for command in ("srl", "compare"):
        assert main([command, "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: exploration duration must be at least 1 s (100 windows "
            "of 0.01 s), got 0.5\n"), command
    assert main(["model-based", "--scenario", str(path)]) == 0
