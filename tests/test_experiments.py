import json

import numpy as np
import pytest

from helpers import NETWORK_A, X0
from structlqr.experiments import (ScenarioError, ScenarioSpec, SolverConfig,
                                   builtin_scenario, load_scenario,
                                   make_consensus_network, parse_scenario,
                                   run_model_based, run_simulate, run_srl,
                                   save_scenario)


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

    def test_invalid_couplings(self):
        with pytest.raises(ValueError):
            make_consensus_network(3, {(0, 1): -1.0})
        with pytest.raises(ValueError):
            make_consensus_network(3, {(1, 1): 1.0})
        with pytest.raises(ValueError):
            make_consensus_network(3, {(0, 4): 1.0})
        with pytest.raises(ValueError):
            make_consensus_network(3, {(0, 1): 1.0, (1, 0): 2.0})


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

    def test_solver_knobs_validated(self):
        for knob, value in (("tol", float("nan")), ("max_iter", 0)):
            with pytest.raises(ValueError, match=knob):
                SolverConfig(**{knob: value})
        text = save_scenario(builtin_scenario("consensus-a"))
        with pytest.raises(ScenarioError, match="max_iter"):
            parse_scenario(text.replace("solver max-iter 30",
                                        "solver max-iter 0"))

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

    def test_system_requires_state_matrix(self):
        spec = builtin_scenario("consensus-a")
        text = save_scenario(spec)
        lines = text.splitlines()
        idx = lines.index("matrix A 6 6")
        del lines[idx:idx + 7]
        noA = parse_scenario("\n".join(lines))
        with pytest.raises(ScenarioError, match="state matrix"):
            noA.system()


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
        assert report.rank["passed_regression"]
        assert report.comparison["gain_distance_to_model_based"] <= 1e-3
        assert report.structure_violation_max == 0.0
        assert report.exploration_peak_state is not None
        gains = (tmp_path / "gains.csv").read_text()
        assert "learned," in gains and "model_based," in gains \
            and "unstructured," in gains

    def test_srl_seed_override_changes_probe(self):
        spec = builtin_scenario("consensus-a")
        r1 = run_srl(spec, seed=7)
        r2 = run_srl(spec, seed=11)
        assert not np.array_equal(r1.K, r2.K)
        assert np.linalg.norm(r1.K - r2.K, "fro") <= 2e-3

    def test_simulate_runner(self, tmp_path):
        spec = builtin_scenario("consensus-a")
        traj = run_simulate(spec, horizon=1.0, out_dir=tmp_path)
        assert len(traj.times) == 101
        assert (tmp_path / "trajectory.csv").exists()
