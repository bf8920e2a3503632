import numpy as np
import pytest

from helpers import NETWORK_A, X0, ZEROS_A
from structlqr import (CostWeights, ExplorationSignal, InputPolicy, LtiSystem,
                       RankDeficientError, SparsityMask, SrlConfig, check_rank,
                       collect, hide_state_matrix, kleinman_structured,
                       make_exploration, required_samples, solve_iteration,
                       solve_lyapunov, solve_unstructured_lqr, srl_synthesize)
from structlqr.learning import assemble_data
from structlqr.system import Trajectory, simulate


@pytest.fixture
def network():
    return LtiSystem(A=NETWORK_A, B=np.eye(6))


@pytest.fixture
def mask_a():
    return SparsityMask.from_zero_positions(6, 6, ZEROS_A)


def network_config(mask, weights=None, **overrides):
    weights = weights or CostWeights(Q=30.0 * np.eye(6), R=np.eye(6))
    defaults = dict(mask=mask, weights=weights, B=np.eye(6),
                    initial_gain=10.0 * (np.eye(6) * mask.indicator),
                    window=0.01, num_windows=140, dt=5e-5, substeps=1,
                    tol=1e-3, max_iter=30, rank_tol=1e-12)
    defaults.update(overrides)
    return SrlConfig(**defaults)


class TestRequiredSamples:
    def test_structure_a(self, mask_a):
        assert required_samples(6, mask_a) == 100

    def test_structure_b_declared(self):
        zeros = ZEROS_A + ((3, 0), (3, 1), (4, 2), (4, 3), (5, 0), (5, 3))
        mask = SparsityMask.from_zero_positions(6, 6, zeros)
        assert required_samples(6, mask) == 88

    def test_scalar_full_mask(self):
        assert required_samples(1, SparsityMask.all_ones(1, 1)) == 4


class TestExplorationSignal:
    def test_single_sinusoid_value(self):
        sig = ExplorationSignal(frequencies=[[1.0]], amplitudes=[[1.0]],
                                phases=[[np.pi / 2]])
        assert sig(0.0)[0] == pytest.approx(1.0)

    def test_deterministic_regeneration(self):
        a = make_exploration(42, 3)
        b = make_exploration(42, 3)
        assert np.array_equal(a.frequencies, b.frequencies)
        assert np.array_equal(a.phases, b.phases)
        ts = np.linspace(0.0, 1.0, 50)
        assert np.array_equal(a.sample(ts), b.sample(ts))

    def test_different_seeds_differ(self):
        a = make_exploration(1, 2)
        b = make_exploration(2, 2)
        assert not np.array_equal(a.frequencies, b.frequencies)

    def test_peak_budget(self):
        sig = make_exploration(5, 4, num_sinusoids=30, amplitude=2.5)
        ts = np.linspace(0.0, 10.0, 4000)
        samples = sig.sample(ts)
        assert np.all(np.abs(samples) <= sig.peak_bound[None, :] + 1e-12)
        assert np.allclose(sig.peak_bound, 2.5)

    def test_positive_frequency_required(self):
        with pytest.raises(ValueError):
            ExplorationSignal(frequencies=[[0.0]], amplitudes=[[1.0]],
                              phases=[[0.0]])

    def test_sample_matches_pointwise(self):
        sig = make_exploration(9, 2, num_sinusoids=7)
        ts = np.array([0.0, 0.13, 1.7])
        batch = sig.sample(ts)
        for i, t in enumerate(ts):
            assert np.allclose(batch[i], sig(t))


class TestPlantHandle:
    def test_state_matrix_hidden(self, network):
        plant = hide_state_matrix(network)
        assert not hasattr(plant, "A")
        assert plant.n == 6 and plant.m == 6
        assert np.array_equal(plant.B, network.B)

    def test_simulation_matches_direct(self, network):
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback(0.5 * np.eye(6))
        via_plant = plant.simulate(policy, X0, 0.5, dt=0.01)
        direct = simulate(network, policy, X0, 0.5, dt=0.01, substeps=1)
        assert np.array_equal(via_plant.states, direct.states)


class TestCollect:
    def test_constant_state_blocks(self, mask_a):
        sys = LtiSystem(A=np.zeros((6, 6)), B=np.eye(6))
        plant = hide_state_matrix(sys)
        config = network_config(mask_a)
        traj, data = collect(plant, InputPolicy.zero(6), X0, config)
        assert data.num_windows == 140
        assert np.array_equal(data.delta_xx, np.zeros_like(data.delta_xx))
        expected = config.window * np.kron(X0, X0)
        assert np.allclose(data.int_xx, expected[None, :], rtol=1e-12)
        assert np.array_equal(data.int_xu, np.zeros_like(data.int_xu))

    def test_integrals_against_fine_grid(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        B = np.array([[1.0, 0.0], [0.5, 1.0]])
        sys = LtiSystem(A=A, B=B)
        probe = make_exploration(3, 2, num_sinusoids=20, freq_range=(0.5, 5.0),
                                 amplitude=4.0)
        policy = InputPolicy.exploration(probe)
        x0 = np.array([1.0, -0.5])
        coarse = simulate(sys, policy, x0, 2.0, dt=5e-4, substeps=4)
        fine = simulate(sys, policy, x0, 2.0, dt=5e-5, substeps=1)
        d_coarse = assemble_data(coarse, window=0.2)
        d_fine = assemble_data(fine, window=0.2)
        for name in ("int_xx", "int_xu"):
            a = getattr(d_coarse, name)
            b = getattr(d_fine, name)
            assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-6

    def test_window_must_align_with_grid(self, network):
        traj = simulate(network, InputPolicy.zero(6), X0, 0.5, dt=0.01,
                        substeps=1)
        with pytest.raises(ValueError):
            assemble_data(traj, window=0.015)

    def test_window_needs_at_least_two_steps(self, network):
        traj = simulate(network, InputPolicy.zero(6), X0, 0.5, dt=0.01,
                        substeps=1)
        with pytest.raises(ValueError):
            assemble_data(traj, window=0.01)

    def test_config_validation(self, mask_a):
        with pytest.raises(ValueError):
            network_config(mask_a, window=5e-5)  # below 2 dt
        with pytest.raises(ValueError):
            network_config(mask_a, num_windows=50)  # below required samples
        with pytest.raises(ValueError):
            network_config(mask_a, window=0.010123)  # not a multiple of dt
        for knob, value in (("tol", float("nan")), ("tol", 0.0),
                            ("max_iter", 0)):
            with pytest.raises(ValueError, match=knob):
                network_config(mask_a, **{knob: value})


class TestCheckRank:
    def test_zero_excitation_from_origin(self, network, mask_a):
        plant = hide_state_matrix(network)
        config = network_config(mask_a)
        _, data = collect(plant, InputPolicy.zero(6), np.zeros(6), config)
        report = check_rank(data, mask_a)
        assert report.rank == 0
        assert not report.passed

    def test_single_window_insufficient(self, network, mask_a):
        traj = simulate(network, InputPolicy.zero(6), X0, 0.02, dt=0.01,
                        substeps=1)
        data = assemble_data(traj, window=0.02)
        report = check_rank(data, mask_a)
        assert report.rank <= 1
        assert not report.passed

    def test_rich_data_passes_both_counts(self, network, mask_a):
        spec_probe = make_exploration(7, 6, amplitude=100.0)
        plant = hide_state_matrix(network)
        config = network_config(mask_a)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, spec_probe)
        _, data = collect(plant, policy, X0, config)
        report = check_rank(data, mask_a)
        assert report.rank >= 50  # classical count for structure A
        assert report.required == 50
        assert report.required_regression == 57
        assert report.passed_required and report.passed_regression
        assert report.margin >= 0

    def test_default_amplitude_still_passes(self, network, mask_a):
        probe = make_exploration(7, 6)  # unit peak budget
        plant = hide_state_matrix(network)
        config = network_config(mask_a)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        _, data = collect(plant, policy, X0, config)
        assert check_rank(data, mask_a).passed


class TestSolveIteration:
    def test_scalar_value_recovery(self):
        sys = LtiSystem(A=np.array([[-1.0]]), B=np.array([[1.0]]))
        mask = SparsityMask.all_ones(1, 1)
        weights = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
        config = SrlConfig(mask=mask, weights=weights, B=sys.B,
                           initial_gain=np.array([[0.0]]), window=0.05,
                           num_windows=40, dt=1e-3, tol=1e-6, max_iter=20)
        probe = make_exploration(21, 1, num_sinusoids=40, freq_range=(0.5, 20.0),
                                 amplitude=5.0)
        plant = hide_state_matrix(sys)
        _, data = collect(plant, InputPolicy.exploration(probe),
                          np.array([1.0]), config)
        P, M = solve_iteration(data, np.array([[0.0]]), config)
        assert P[0, 0] == pytest.approx(0.5, abs=1e-3)
        assert M[0, 0] == pytest.approx(0.5, abs=1e-3)

    def test_matches_model_based_evaluation(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        B = np.array([[1.0, 0.0], [0.5, 1.0]])
        sys = LtiSystem(A=A, B=B)
        weights = CostWeights(Q=np.eye(2), R=np.diag([1.0, 2.0]))
        mask = SparsityMask.all_ones(2, 2)
        K = np.array([[0.3, 0.0], [0.1, 0.2]])
        config = SrlConfig(mask=mask, weights=weights, B=B, initial_gain=K,
                           window=0.05, num_windows=40, dt=2e-4, tol=1e-6,
                           max_iter=20)
        probe = make_exploration(3, 2, num_sinusoids=20,
                                 freq_range=(0.5, 5.0), amplitude=4.0)
        plant = hide_state_matrix(sys)
        policy = InputPolicy.feedback_with_probe(K, probe)
        _, data = collect(plant, policy, np.array([1.0, -0.5]), config)
        P, M = solve_iteration(data, K, config)
        S = weights.Q + K.T @ weights.R @ K
        P_model = solve_lyapunov(sys.A - sys.B @ K, S)
        assert np.linalg.norm(P - P_model, "fro") < 1e-4
        RinvBtP = np.linalg.solve(weights.R, config.B.T @ P)
        assert np.linalg.norm(M - RinvBtP, "fro") < 1e-4

    def test_zero_state_data_is_rank_deficient(self, network, mask_a):
        plant = hide_state_matrix(network)
        config = network_config(mask_a)
        _, data = collect(plant, InputPolicy.zero(6), np.zeros(6), config)
        with pytest.raises(RankDeficientError):
            solve_iteration(data, config.initial_gain, config)


class TestSrlSynthesize:
    def test_all_ones_mask_recovers_classical_lqr(self, network):
        mask = SparsityMask.all_ones(6, 6)
        config = network_config(mask)
        probe = make_exploration(7, 6, amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        _, data = collect(plant, policy, X0, config)
        learned = srl_synthesize(data, config)
        classical = solve_unstructured_lqr(network, config.weights,
                                           initial_gain=config.initial_gain,
                                           tol=config.tol)
        assert np.linalg.norm(learned.K - classical.K, "fro") <= 1e-3

    def test_iterates_track_model_based_path(self, network, mask_a):
        config = network_config(mask_a)
        probe = make_exploration(7, 6, amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        learned = srl_synthesize(plant, config, x0=X0, policy=policy)
        model = kleinman_structured(network, config.weights, mask_a,
                                    config.initial_gain, tol=config.tol,
                                    max_iter=config.max_iter)
        assert learned.converged
        assert learned.iterations <= 10
        # the data-driven iterates reproduce the model-based ones
        for rec_l, rec_m in zip(learned.history, model.history):
            assert np.linalg.norm(rec_l.P - rec_m.P, "fro") < 1e-3
            assert np.linalg.norm(rec_l.K - rec_m.K, "fro") < 1e-3
        assert learned.history[-1].delta_P < config.tol

    def test_masked_entries_exactly_zero(self, network, mask_a):
        config = network_config(mask_a)
        probe = make_exploration(7, 6, amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        learned = srl_synthesize(plant, config, x0=X0, policy=policy)
        for rec in learned.history:
            off = rec.K * mask_a.complement
            assert np.array_equal(off, np.zeros((6, 6)))

    def test_bit_identical_data_from_same_seed(self, network, mask_a):
        config = network_config(mask_a)
        plant = hide_state_matrix(network)
        blocks = []
        for _ in range(2):
            probe = make_exploration(7, 6, amplitude=100.0)
            policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
            _, data = collect(plant, policy, X0, config)
            blocks.append(data)
        assert np.array_equal(blocks[0].delta_xx, blocks[1].delta_xx)
        assert np.array_equal(blocks[0].int_xx, blocks[1].int_xx)
        assert np.array_equal(blocks[0].int_xu, blocks[1].int_xu)

    def test_seed_robustness(self, network, mask_a):
        config = network_config(mask_a)
        plant = hide_state_matrix(network)
        gains = []
        for seed in (7, 11):
            probe = make_exploration(seed, 6, amplitude=100.0)
            policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
            learned = srl_synthesize(plant, config, x0=X0, policy=policy)
            gains.append(learned.K)
        assert np.linalg.norm(gains[0] - gains[1], "fro") <= 2e-3

    def test_insufficient_span_fails_rank_gate(self, network, mask_a):
        # 1 s of data leaves one regression direction unexcited
        config = network_config(mask_a, num_windows=100)
        probe = make_exploration(7, 6, amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        with pytest.raises(RankDeficientError):
            srl_synthesize(plant, config, x0=X0, policy=policy)

    def test_plant_source_requires_policy_and_x0(self, network, mask_a):
        plant = hide_state_matrix(network)
        with pytest.raises(ValueError):
            srl_synthesize(plant, network_config(mask_a))
        with pytest.raises(TypeError):
            srl_synthesize("nonsense", network_config(mask_a))
