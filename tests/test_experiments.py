import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import NETWORK_A, X0
from structlqr.experiments import (ScenarioError, ScenarioSpec, SolverConfig,
                                   builtin_scenario, load_scenario,
                                   make_consensus_network, parse_scenario,
                                   ring_scenario, run_model_based,
                                   run_simulate, run_srl, save_scenario,
                                   write_gains_csv, write_trajectory_csv)
from structlqr.structure import SparsityMask


class TestConsensusNetwork:
    def test_fixture_matches_reference_matrix(self):
        sys = builtin_scenario("consensus-a").system()
        assert np.array_equal(sys.A, NETWORK_A)
        assert np.array_equal(np.diag(sys.A),
                              np.array([-5.0, -6.0, -5.0, -2.0, -4.0, -6.0]))
        assert np.array_equal(sys.B, np.eye(6))

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(4)
        couplings = {(0, 1): 1.3, (1, 2): 0.4, (2, 3): 2.2, (0, 3): 0.9}
        sys = make_consensus_network(4, couplings)
        assert np.max(np.abs(sys.A @ np.ones(4))) < 1e-12

    def test_two_agents(self):
        sys = make_consensus_network(2, {(0, 1): 1.0})
        assert np.array_equal(sys.A, np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_ring_scenario(self):
        spec = ring_scenario(5)
        assert np.max(np.abs(spec.A @ np.ones(5))) < 1e-12
        assert np.count_nonzero(spec.A) == 15  # diagonal plus two neighbours
        assert np.array_equal(spec.mask.indicator, spec.A != 0)
        with pytest.raises(ValueError, match="ring size must be at least 3"):
            ring_scenario(2)

    def test_invalid_couplings(self):
        with pytest.raises(ValueError):
            make_consensus_network(3, {(0, 1): -1.0})
        with pytest.raises(ValueError):
            make_consensus_network(3, {(1, 1): 1.0})
        with pytest.raises(ValueError):
            make_consensus_network(3, {(0, 4): 1.0})
        with pytest.raises(ValueError):
            make_consensus_network(3, {(0, 1): 1.0, (1, 0): 2.0})

    @pytest.mark.parametrize("couplings, message", [
        ({(0.5, 1): 1.0}, "agent pair (0.5, 1) must be two integers in [0, 3)"),
        ({(0, 3): 1.0}, "agent pair (0, 3) must be two integers in [0, 3)"),
        ({(0, 1): np.nan},
         "coupling for (0, 1) must be finite and positive, got nan"),
        ({(1, 2): np.inf},
         "coupling for (1, 2) must be finite and positive, got inf")],
        ids=["fractional", "out-of-range", "nan", "inf"])
    def test_bad_coupling_names_its_pair(self, couplings, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_consensus_network(3, couplings)


class TestBuiltinScenarios:
    def test_structure_a(self):
        spec = builtin_scenario("consensus-a")
        assert spec.A[0].tolist() == [-5.0, 2.0, 3.0, 0.0, 0.0, 0.0]
        assert spec.mask.nnz == 29
        assert np.array_equal(spec.x0, X0)
        assert spec.exploration.duration == pytest.approx(1.4)

    def test_structure_b_variants(self):
        operative = builtin_scenario("consensus-b")
        declared = builtin_scenario("consensus-b-declared")
        assert declared.mask.nnz == 23
        # the benchmark tables imply one extra structural zero at (5, 5)
        assert operative.mask.nnz == 22
        diff = declared.mask.indicator - operative.mask.indicator
        assert np.argwhere(diff).tolist() == [[5, 5]]

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            builtin_scenario("consensus-z")


class TestScenarioSerialization:
    @pytest.mark.parametrize("name", ["consensus-a", "consensus-b",
                                      "consensus-b-declared"])
    def test_roundtrip_is_bit_exact(self, name, tmp_path):
        spec = builtin_scenario(name)
        text = save_scenario(spec, tmp_path / "s.scn")
        loaded = parse_scenario((tmp_path / "s.scn").read_text())
        assert save_scenario(loaded) == text
        assert np.array_equal(loaded.A, spec.A)
        assert np.array_equal(loaded.mask.indicator, spec.mask.indicator)
        assert np.array_equal(loaded.initial_gain, spec.initial_gain)
        assert loaded.dt == spec.dt
        assert loaded.exploration == spec.exploration
        assert loaded.solver == spec.solver

    def test_load_by_path_and_name(self, tmp_path):
        spec = builtin_scenario("consensus-a")
        save_scenario(spec, tmp_path / "a.scn")
        assert np.array_equal(load_scenario(tmp_path / "a.scn").A, spec.A)
        assert load_scenario("consensus-a").name == "consensus-a"
        with pytest.raises(ScenarioError):
            load_scenario("no-such-file.scn")

    def test_dimension_error(self):
        spec = builtin_scenario("consensus-a")
        text = save_scenario(spec)
        broken = text.replace("matrix A 6 6", "matrix A 5 6", 1)
        # drop one body row of A to keep the token stream aligned
        lines = broken.splitlines()
        idx = lines.index("matrix A 5 6")
        del lines[idx + 6]
        with pytest.raises(ScenarioError):
            parse_scenario("\n".join(lines))

    def test_parse_error_carries_line_number(self):
        text = "scenario t\ndt 0.01\nmatrix B 2 2\n1 0\n0 oops\n"
        with pytest.raises(ScenarioError, match="line 5"):
            parse_scenario(text)

    @pytest.mark.parametrize("line, message", [
        ("dt", "line 13: dt needs one value"),
        ("exploration seed 1.5", "line 13: bad exploration.seed value '1.5'"),
    ])
    def test_bad_scalar_line_carries_line_number(self, line, message):
        text = ("scenario t\ndt 0.01\nmatrix B 1 1\n1\nmatrix Q 1 1\n1\n"
                "matrix R 1 1\n1\nmask 1 1\n1\nvector x0 1\n1\n" + line + "\n")
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(text)

    @pytest.mark.parametrize("header, bad, message", [
        ("matrix B 6 6", "matrix B 6.7 6", "bad rows value '6.7'"),
        ("matrix B 6 6", "matrix B -1 6", "rows must be at least 1, got -1"),
        ("matrix Q 6 6", "matrix Q 6 0", "cols must be at least 1, got 0"),
        ("mask 6 6", "mask 6.0 6", "bad rows value '6.0'"),
        ("mask 6 6", "mask 6 -2", "cols must be at least 1, got -2"),
        ("vector x0 6", "vector x0 6.5", "bad length value '6.5'"),
        ("vector x0 6", "vector x0 0", "length must be at least 1, got 0"),
    ])
    def test_block_sizes_are_positive_integers(self, header, bad, message):
        lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
        lineno = lines.index(header) + 1
        lines[lineno - 1] = bad
        with pytest.raises(ScenarioError, match=f"^line {lineno}: {message}$"):
            parse_scenario("\n".join(lines))

    def test_solver_knobs_validated(self):
        for knob, value in (("tol", float("nan")), ("max_iter", 0)):
            with pytest.raises(ValueError, match=knob):
                SolverConfig(**{knob: value})
        text = save_scenario(builtin_scenario("consensus-a"))
        lineno = text.splitlines().index("solver max-iter 30") + 1
        with pytest.raises(ScenarioError, match=f"^line {lineno}: solver "
                           "max-iter must be at least 1, got 0$"):
            parse_scenario(text.replace("solver max-iter 30",
                                        "solver max-iter 0"))
        with pytest.raises(ScenarioError, match="freq-min 60.0 exceeds"):
            parse_scenario(text.replace("exploration freq-min 0.5",
                                        "exploration freq-min 60"))

    def test_missing_blocks(self):
        with pytest.raises(ScenarioError, match="mask"):
            parse_scenario("scenario t\ndt 0.01\nmatrix B 1 1\n1\n"
                           "matrix Q 1 1\n1\nmatrix R 1 1\n1\n"
                           "vector x0 1\n1\n")

    def test_mask_entries_checked(self):
        text = ("scenario t\ndt 0.01\nmatrix B 1 1\n1\nmatrix Q 1 1\n1\n"
                "matrix R 1 1\n1\nmask 1 1\n2\nvector x0 1\n1\n")
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_block_cut_short_names_the_last_line(self):
        lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
        idx = lines.index("matrix K0 6 6")
        lines[idx + 4:] = ["", "# a comment", "   ", "#"]
        with pytest.raises(ScenarioError, match=f"^line {len(lines)}: "
                           "unexpected end of file in matrix K0$"):
            parse_scenario("\n".join(lines) + "\n")

    def test_all_zero_mask_names_its_line(self):
        lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
        idx = lines.index("mask 6 6")
        lines[idx + 1:idx + 7] = ["0 0 0 0 0 0"] * 6
        with pytest.raises(ScenarioError, match=f"^line {idx + 1}: mask must "
                           "allow at least one entry"):
            parse_scenario("\n".join(lines))

    @pytest.mark.parametrize("header, message", [
        ("matrix B 6 6", "missing matrix B"),
        ("mask 6 6", "missing mask block"),
        ("vector x0 6", "missing vector x0"),
        ("matrix K0 6 6", "missing matrix K0"),
    ])
    def test_missing_required_block_message(self, header, message):
        lines = save_scenario(builtin_scenario("consensus-a")).splitlines()
        idx = lines.index(header)
        rows = 1 if header.startswith("vector") else 6
        del lines[idx:idx + 1 + rows]
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            parse_scenario("\n".join(lines))

    @pytest.mark.parametrize("field, value, message", [
        ("dt", 0.0, "dt must be finite and positive"),
        ("dt", 0.003, "exploration window must be an integer multiple"),
        ("x0", np.ones(3), "x0 must have shape"),
        ("Q", np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]),
         "Q must be positive semidefinite"),
        ("A", np.full((6, 6), np.nan), "A has non-finite entries"),
        ("exploration", dict(window=0.010025),
         "exploration window must be an integer multiple"),
        ("exploration", dict(seed=-1), "exploration seed must be at least 0"),
        ("solver", dict(tol=0.0), "tol must be finite and positive"),
        ("mask", np.ones((6, 6)), "^mask must be a SparsityMask, got ndarray$"),
        ("initial_gain", None, "^initial_gain is required"),
    ])
    def test_code_built_spec_raises_scenario_error(self, field, value,
                                                    message):
        spec = builtin_scenario("consensus-a")
        with pytest.raises(ScenarioError, match=message):
            if isinstance(value, dict):
                value = replace(getattr(spec, field), **value)
            replace(spec, **{field: value})

    def test_initial_gain_off_the_mask_is_rejected(self):
        # K0[0, 0] and K0[0, 1] are off consensus-a's mask: a code-built
        # spec names the larger, and a file the line of its matrix K0
        spec = builtin_scenario("consensus-a")
        K0 = spec.initial_gain.copy()
        K0[0, 0], K0[0, 1] = 3.0, 3.0
        with pytest.raises(ScenarioError, match=r"^initial_gain must be zero "
                           r"off the mask, got 3\.0 at \(0, 0\)$"):
            replace(spec, initial_gain=K0)
        lines = save_scenario(spec).splitlines()
        idx = lines.index("matrix K0 6 6")
        lines[idx + 1] = "3.0 3.0 " + lines[idx + 1].split(maxsplit=2)[2]
        with pytest.raises(ScenarioError, match=rf"^line {idx + 1}: matrix K0 "
                           r"must be zero off the mask, got 3\.0 at \(0, 0\)$"):
            parse_scenario("\n".join(lines))

    def test_system_requires_state_matrix(self):
        spec = builtin_scenario("consensus-a")
        text = save_scenario(spec)
        lines = text.splitlines()
        idx = lines.index("matrix A 6 6")
        del lines[idx:idx + 7]
        noA = parse_scenario("\n".join(lines))
        with pytest.raises(ScenarioError, match="state matrix"):
            noA.system()


# Floats whose shortest round-trip text is easy to get wrong: a signed
# zero, the smallest subnormal, a binary-inexact decimal, a huge value.
_HARD_FLOATS = np.array([-0.0, 5e-324, 0.1, 1e300])


def _hard_table(rows, cols, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
        -300, 300, size=(rows, cols))
    table.flat[:len(_HARD_FLOATS)] = _HARD_FLOATS
    return table


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestOutputPrecision:
    def test_trajectory_fields_parse_back_exactly(self, tmp_path):
        times = 0.1 * np.arange(5)
        states, inputs = _hard_table(5, 3, 0), _hard_table(5, 2, 1)
        write_trajectory_csv(tmp_path / "t.csv", times, states, inputs)
        head, *rows = (tmp_path / "t.csv").read_text().splitlines()
        assert head == "t,x1,x2,x3,u1,u2"
        back = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert _same_bits(back, np.column_stack([times, states, inputs]))

    def test_gain_fields_parse_back_exactly(self, tmp_path):
        gains = {"b": _hard_table(2, 3, 2), "a": _hard_table(3, 2, 3)}
        write_gains_csv(tmp_path / "g.csv", gains)
        head, *rows = (tmp_path / "g.csv").read_text().splitlines()
        assert head == "matrix,row,col,value"
        back = {name: np.full(M.shape, np.nan) for name, M in gains.items()}
        for row in rows:
            name, i, j, value = row.split(",")
            back[name][int(i) - 1, int(j) - 1] = float(value)
        assert [row.split(",")[0] for row in rows] == ["a"] * 6 + ["b"] * 6
        assert all(_same_bits(back[k], gains[k]) for k in gains)

    def test_scenario_fields_parse_back_exactly(self):
        # an all-ones mask, so every K0 entry may be nonzero
        spec = replace(builtin_scenario("consensus-a"),
                       mask=SparsityMask.all_ones(6, 6))
        hard = dict(A=_hard_table(6, 6, 4), B=_hard_table(6, 6, 5),
                    initial_gain=_hard_table(6, 6, 6),
                    x0=np.concatenate([_HARD_FLOATS[:3], [1e150, -2.5, 7.0]]))
        spec = replace(spec, **hard)
        text = save_scenario(spec)
        loaded = parse_scenario(text)
        assert all(_same_bits(getattr(loaded, k), v) for k, v in hard.items())
        lines = text.splitlines()
        idx = lines.index("matrix A 6 6")
        body = [[float(v) for v in row.split()]
                for row in lines[idx + 1:idx + 7]]
        assert _same_bits(body, hard["A"])
        assert save_scenario(loaded) == text


class TestRunners:
    def test_model_based_run_and_outputs(self, tmp_path):
        spec = builtin_scenario("consensus-a")
        report = run_model_based(spec, out_dir=tmp_path)
        assert report.converged
        assert report.structure_violation_max == 0.0
        assert report.bound["within_bound"]
        assert abs(report.cost_analytic - 12.4705) < 0.05
        assert abs(report.cost_quadrature - 12.4705) < 0.05
        assert report.cost_quadrature == pytest.approx(report.cost_analytic,
                                                       rel=1e-3)
        for name in ("trajectory.csv", "convergence.csv", "gains.csv",
                     "report.json"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t," + ",".join(f"x{i}" for i in range(1, 7)) + \
            "," + ",".join(f"u{i}" for i in range(1, 7))
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["scenario"] == "consensus-a"
        assert loaded["converged"] is True

    def test_srl_run_report(self, tmp_path):
        spec = builtin_scenario("consensus-a")
        report = run_srl(spec, out_dir=tmp_path)
        assert report.converged and report.iterations <= 10
        assert report.rank["passed"]
        assert report.comparison["gain_distance_to_model_based"] <= 1e-3
        assert report.structure_violation_max == 0.0
        assert report.exploration_peak_state is not None
        gains = (tmp_path / "gains.csv").read_text()
        assert "learned," in gains and "model_based," in gains \
            and "unstructured," in gains

    def test_srl_seed_override_changes_probe(self):
        spec = builtin_scenario("consensus-a")
        r1, r2 = (run_srl(replace(spec, exploration=replace(spec.exploration,
                                                            seed=seed)))
                  for seed in (7, 11))
        assert not np.array_equal(r1.K, r2.K)
        assert np.linalg.norm(r1.K - r2.K, "fro") <= 2e-3

    def test_simulate_runner(self, tmp_path):
        spec = builtin_scenario("consensus-a")
        traj = run_simulate(spec, horizon=1.0, out_dir=tmp_path)
        assert len(traj.times) == 101
        assert (tmp_path / "trajectory.csv").exists()


def test_runners_never_import_scipy():
    # scipy is a test-only dependency; importing it would also cost a
    # noticeable share of a short run's start-up time
    code = ("import sys\n"
            "from structlqr.experiments import (builtin_scenario, "
            "run_model_based, run_srl)\n"
            "spec = builtin_scenario('consensus-a')\n"
            "run_model_based(spec)\n"
            "run_srl(spec)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
