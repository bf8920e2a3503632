import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (NETWORK_A, X0, ZEROS_A, assemble_data_reference,
                     policy_evaluation_regression, solve_iteration_reference)
from structlqr import (ConvergenceError, CostWeights, DataMatrices,
                       ExplorationSignal, InputPolicy, LtiSystem, PlantHandle,
                       RankDeficientError, SparsityMask, SrlConfig, check_rank,
                       collect, hide_state_matrix, kleinman_structured,
                       make_exploration, off_pattern, on_pattern,
                       required_samples, solve_iteration, solve_lyapunov,
                       solve_unstructured_lqr, srl_synthesize)
from structlqr.cli import main
from structlqr.experiments import (builtin_scenario, ring_scenario, run_srl,
                                   save_scenario)
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
        peak = np.abs(sig.amplitudes).sum(1)
        assert np.all(np.abs(samples) <= peak[None, :] + 1e-12)
        assert np.allclose(peak, 2.5)

    @pytest.mark.parametrize("num_inputs, freq_range, message", [
        (0, (0.5, 50.0), "num_inputs must be at least 1, got 0"),
        (2, (0.5, np.inf), r"freq_range must satisfy 0 < lo <= hi < inf, "
         r"got \(0.5, inf\)"),
        (2, (0.0, 5.0), "freq_range must satisfy"),
        (2, (5.0, 0.5), "freq_range must satisfy"),
        (2, (np.nan, 5.0), "freq_range must satisfy"),
    ])
    def test_bad_draw_rejected(self, num_inputs, freq_range, message):
        with pytest.raises(ValueError, match=message):
            make_exploration(0, num_inputs, freq_range=freq_range)

    def test_positive_frequency_required(self):
        with pytest.raises(ValueError):
            ExplorationSignal(frequencies=[[0.0]], amplitudes=[[1.0]],
                              phases=[[0.0]])

    @pytest.mark.parametrize("name", ["frequencies", "amplitudes", "phases"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, name, bad):
        arrays = dict(frequencies=[[1.0, 2.0]], amplitudes=[[1.0, 1.0]],
                      phases=[[0.0, 0.0]])
        arrays[name] = [[1.0, bad]]
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            ExplorationSignal(**arrays)

    def test_sample_matches_pointwise(self):
        sig = make_exploration(9, 2, num_sinusoids=7)
        ts = np.array([0.0, 0.13, 1.7])
        batch = sig.sample(ts)
        for i, t in enumerate(ts):
            assert np.allclose(batch[i], sig(t))


class TestPlantHandle:
    def test_state_matrix_hidden(self, network):
        plant = hide_state_matrix(network)
        assert [f.name for f in dataclasses.fields(plant)] == ["simulate"]
        assert not hasattr(plant, "A") and not hasattr(plant, "B")

    def test_simulation_matches_direct(self, network):
        plant = hide_state_matrix(network)
        policy = InputPolicy(gain=0.5 * np.eye(6))
        via_plant = plant.simulate(policy, X0, 0.5, dt=0.01, substeps=1)
        direct = simulate(network, policy, X0, 0.5, dt=0.01, substeps=1)
        assert np.array_equal(via_plant.states, direct.states)

    def test_collect_runs_through_a_user_built_handle(self, network, mask_a):
        calls = []

        def plant(policy, x0, horizon, dt, substeps):
            calls.append((horizon, dt, substeps))
            return simulate(network, policy, x0, horizon, dt=dt,
                            substeps=substeps)

        config = network_config(mask_a)
        policy = InputPolicy(gain=config.initial_gain)
        _, data = collect(PlantHandle(simulate=plant), policy, X0, config)
        _, direct = collect(hide_state_matrix(network), policy, X0, config)
        assert calls == [(config.num_windows * config.window, config.dt,
                          config.substeps)]
        assert np.array_equal(data.int_xx, direct.int_xx)
        assert np.array_equal(data.int_xu, direct.int_xu)


class TestCollect:
    def test_constant_state_blocks(self, mask_a):
        sys = LtiSystem(A=np.zeros((6, 6)), B=np.eye(6))
        plant = hide_state_matrix(sys)
        config = network_config(mask_a)
        traj, data = collect(plant, InputPolicy(), X0, config)
        assert data.num_windows == 140
        assert np.array_equal(data.delta_xx, np.zeros_like(data.delta_xx))
        expected = config.window * np.outer(X0, X0)
        assert np.allclose(data.int_xx, expected[None], rtol=1e-12)
        assert np.array_equal(data.int_xu, np.zeros_like(data.int_xu))

    def test_integrals_against_fine_grid(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        B = np.array([[1.0, 0.0], [0.5, 1.0]])
        sys = LtiSystem(A=A, B=B)
        probe = make_exploration(3, 2, num_sinusoids=20, freq_range=(0.5, 5.0),
                                 amplitude=4.0)
        policy = InputPolicy(probe=probe)
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
        traj = simulate(network, InputPolicy(), X0, 0.5, dt=0.01,
                        substeps=1)
        with pytest.raises(ValueError):
            assemble_data(traj, window=0.015)

    def test_window_needs_at_least_two_steps(self, network):
        traj = simulate(network, InputPolicy(), X0, 0.5, dt=0.01,
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
                            ("max_iter", 0), ("rank_tol", float("nan"))):
            with pytest.raises(ValueError, match=knob):
                network_config(mask_a, **{knob: value})

    def test_initial_gain_off_the_mask_is_rejected(self, mask_a):
        # (0, 0) and (0, 1) are off mask A; the larger entry is named
        K0 = 10.0 * (np.eye(6) * mask_a.indicator)
        K0[0, 0], K0[0, 1] = 2.0, -3.0
        with pytest.raises(ValueError, match=r"^initial_gain must be zero off "
                           r"the mask, got -3\.0 at \(0, 1\)$"):
            network_config(mask_a, initial_gain=K0)


def _builtin_record(name):
    """The exploration record a data-driven run on a builtin collects."""
    spec = builtin_scenario(name)
    config = spec.srl_config()
    policy = InputPolicy.feedback_with_probe(config.initial_gain, spec.probe())
    traj, _ = collect(hide_state_matrix(spec.system()), policy, spec.x0, config)
    return traj, config.window


def _substep_record():
    sys = LtiSystem(A=np.array([[-1.0, 2.0], [0.0, -3.0]]),
                    B=np.array([[1.0, 0.0], [0.5, 1.0]]))
    probe = make_exploration(3, 2, num_sinusoids=20, freq_range=(0.5, 5.0),
                             amplitude=4.0)
    traj = simulate(sys, InputPolicy(probe=probe), np.array([1.0, -0.5]),
                    2.0, dt=5e-4, substeps=4)
    return traj, 0.2


def _rectangular_record():
    """n = 3 states, m = 2 inputs, so a slip in reshape order shows."""
    sys = LtiSystem(A=np.array([[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0],
                                [0.5, 0.0, -2.0]]),
                    B=np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]]))
    probe = make_exploration(5, 2, num_sinusoids=20, freq_range=(0.5, 5.0),
                             amplitude=4.0)
    K = np.array([[0.3, 0.0, 0.1], [0.1, 0.2, 0.0]])
    traj = simulate(sys, InputPolicy.feedback_with_probe(K, probe),
                    np.array([1.0, -0.5, 0.7]), 2.0, dt=1e-3, substeps=1)
    return traj, 0.05


RECORDS = {"consensus-a": lambda: _builtin_record("consensus-a"),
           "consensus-b": lambda: _builtin_record("consensus-b"),
           "substeps-4": _substep_record,
           "n3-m2": _rectangular_record}


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestAssembleData:
    @pytest.mark.parametrize("case", sorted(RECORDS))
    def test_matches_per_sample_reference(self, case):
        traj, window = RECORDS[case]()
        got = assemble_data(traj, window)
        ref = assemble_data_reference(traj, window)
        assert np.array_equal(got.delta_xx, ref.delta_xx)
        assert _rel(got.int_xx, ref.int_xx) <= 1e-12
        assert _rel(got.int_xu, ref.int_xu) <= 1e-12

    def test_blocks_of_disagreeing_shape_rejected(self):
        data = assemble_data(*_rectangular_record())
        N, n, m = data.num_windows, data.n, data.m
        assert (N, n, m) == (40, 3, 2)
        good = dict(delta_xx=data.delta_xx, int_xx=data.int_xx,
                    int_xu=data.int_xu)
        for name, bad in (("delta_xx", data.delta_xx[:-1]),
                          ("int_xx", data.int_xu),
                          ("int_xu", data.int_xu[:-1]),
                          ("int_xu", data.int_xu.reshape(N, -1))):
            with pytest.raises(ValueError, match="data blocks must be"):
                DataMatrices(**{**good, name: bad})

    @pytest.mark.parametrize("name", ["delta_xx", "int_xx", "int_xu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, name, bad):
        data = assemble_data(*_rectangular_record())
        blocks = dict(delta_xx=data.delta_xx, int_xx=data.int_xx,
                      int_xu=data.int_xu)
        blocks[name] = blocks[name].copy()
        blocks[name][3, 1, 0] = bad
        with pytest.raises(ValueError,
                           match=f"^{name} has non-finite entries$"):
            DataMatrices(**blocks)

    def test_peak_memory_below_the_record(self):
        traj, window = _builtin_record("consensus-a")
        tracemalloc.start()
        try:
            assemble_data(traj, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.states.nbytes + traj.inputs.nbytes


class TestCheckRank:
    def test_zero_excitation_from_origin(self, network, mask_a):
        plant = hide_state_matrix(network)
        config = network_config(mask_a)
        _, data = collect(plant, InputPolicy(), np.zeros(6), config)
        report = check_rank(data, mask_a)
        assert report.rank == 0
        assert not report.passed

    def test_single_window_insufficient(self, network, mask_a):
        traj = simulate(network, InputPolicy(), X0, 0.02, dt=0.01,
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
        assert report.rank >= 50  # n(n+1)/2 + nnz for structure A
        assert report.required == 50
        assert report.passed
        assert report.margin == report.rank - 50 >= 0

    def test_mask_of_another_shape_is_error(self, mask_a):
        # n = 5 states, m = 6 inputs, against a 6-by-6 mask
        rng = np.random.default_rng(0)
        data = DataMatrices(delta_xx=np.zeros((100, 5, 5)),
                            int_xx=rng.standard_normal((100, 5, 5)),
                            int_xu=rng.standard_normal((100, 5, 6)))
        message = (r"^mask shape \(6, 6\) does not match the data's gain "
                   r"shape \(6, 5\)$")
        with pytest.raises(ValueError, match=message):
            check_rank(data, mask_a)
        with pytest.raises(ValueError, match=message):
            srl_synthesize(data, network_config(mask_a))

    def test_default_amplitude_still_passes(self, network, mask_a):
        probe = make_exploration(7, 6)  # unit peak budget
        plant = hide_state_matrix(network)
        config = network_config(mask_a)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        _, data = collect(plant, policy, X0, config)
        assert check_rank(data, mask_a).passed

    @pytest.mark.parametrize("rank_tol", [-1.0, 0.0, float("nan"),
                                          float("inf")])
    def test_rank_tol_not_finite_and_positive_is_error(self, mask_a,
                                                       rank_tol):
        # a cut at or below 0 counts every singular value, so starved data
        # would pass the gate; a nan cut counts none
        with pytest.raises(ValueError,
                           match=r"^rank_tol must be finite and positive"):
            check_rank(_zero_data(), mask_a, rank_tol=rank_tol)


def _zero_data():
    """100 windows of a 6-state, 6-input record that never moved."""
    return DataMatrices(delta_xx=np.zeros((100, 6, 6)),
                        int_xx=np.zeros((100, 6, 6)),
                        int_xu=np.zeros((100, 6, 6)))


_NOT_A_MASK_CALLS = {
    "SrlConfig": lambda mask: SrlConfig(
        mask=mask, weights=CostWeights(Q=np.eye(6), R=np.eye(6)), B=np.eye(6),
        initial_gain=np.zeros((6, 6)), window=0.01, num_windows=140, dt=5e-5),
    "kleinman_structured": lambda mask: kleinman_structured(
        LtiSystem(A=NETWORK_A, B=np.eye(6)),
        CostWeights(Q=np.eye(6), R=np.eye(6)), mask, np.zeros((6, 6))),
    "check_rank": lambda mask: check_rank(_zero_data(), mask),
}


@pytest.mark.parametrize("call", sorted(_NOT_A_MASK_CALLS))
def test_mask_that_is_not_a_sparsity_mask_is_error(call):
    with pytest.raises(ValueError,
                       match="^mask must be a SparsityMask, got ndarray$"):
        _NOT_A_MASK_CALLS[call](np.ones((6, 6)))


_BAD_ARGUMENT_CALLS = {
    "simulate substeps": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), InputPolicy(), X0, 0.1,
        substeps=2.5), "substeps must be an integer, got 2.5"),
    "simulate horizon string": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), InputPolicy(), X0, "1"),
        "horizon must be finite and positive, got '1'"),
    "kleinman_structured max_iter": (lambda: kleinman_structured(
        LtiSystem(A=NETWORK_A, B=np.eye(6)),
        CostWeights(Q=np.eye(6), R=np.eye(6)), SparsityMask.all_ones(6, 6),
        10.0 * np.eye(6), max_iter=2.5),
        "max_iter must be an integer, got 2.5"),
    "make_exploration num_sinusoids": (
        lambda: make_exploration(0, 6, num_sinusoids=2.5),
        "num_sinusoids must be an integer, got 2.5"),
    "make_exploration seed fraction": (lambda: make_exploration(1.5, 6),
                                       "seed must be an integer, got 1.5"),
    "make_exploration seed negative": (lambda: make_exploration(-1, 6),
                                       "seed must be at least 0, got -1"),
    "make_exploration amplitude negative": (
        lambda: make_exploration(0, 6, amplitude=-1.0),
        "amplitude must be finite and positive, got -1.0"),
    "make_exploration amplitude nan": (
        lambda: make_exploration(0, 6, amplitude=float("nan")),
        "amplitude must be finite and positive, got nan"),
    "SrlConfig num_windows": (
        lambda: network_config(SparsityMask.all_ones(6, 6), num_windows=200.5),
        "num_windows must be an integer, got 200.5"),
    "SrlConfig substeps": (
        lambda: network_config(SparsityMask.all_ones(6, 6), substeps=0),
        "substeps must be at least 1, got 0"),
    "SrlConfig rank_tol": (
        lambda: network_config(SparsityMask.all_ones(6, 6), rank_tol=2.0),
        "rank_tol must be below 1, got 2.0"),
    "check_rank rank_tol": (
        lambda: check_rank(_zero_data(), SparsityMask.all_ones(6, 6),
                           rank_tol=1.0),
        "rank_tol must be below 1, got 1.0"),
}


@pytest.mark.parametrize("call", sorted(_BAD_ARGUMENT_CALLS))
def test_bad_count_or_knob_names_its_field(call):
    # each is rejected at the entry point, not by numpy or range deep inside
    run, message = _BAD_ARGUMENT_CALLS[call]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


def _assert_spectrum_matches_full_block(data, mask, rank_tol=1e-12):
    """Oracle: the SVD of the whole [int_xx int_xu] block, repeated
    off-diagonal int_xx columns included."""
    block = np.hstack([b.reshape(data.num_windows, -1)
                       for b in (data.int_xx, data.int_xu)])
    sv_full = np.linalg.svd(block, compute_uv=False)
    report = check_rank(data, mask, rank_tol=rank_tol)
    assert report.rank == int(np.sum(sv_full > rank_tol * sv_full[0]))
    sv = data.singular_values
    distinct = data.n * (data.n + 1) // 2 + data.n * data.m
    assert len(sv) == min(data.num_windows, distinct)
    np.testing.assert_allclose(sv, sv_full[:len(sv)], rtol=0,
                               atol=1e-12 * sv_full[0])


class TestRankSpectrum:
    @pytest.fixture(scope="class")
    def consensus_a(self):
        traj, window = _builtin_record("consensus-a")
        return assemble_data(traj, window)

    def test_matches_full_block_on_exploration_data(self, consensus_a, mask_a):
        _assert_spectrum_matches_full_block(consensus_a, mask_a)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5),
           m=st.integers(1, 4), windows=st.integers(1, 40),
           rank=st.integers(1, 40))
    def test_matches_full_block_on_random_data(self, seed, n, m, windows,
                                               rank):
        # every window mixes the same `rank` symmetric samples, so the
        # block's rank is often below its column count
        rng = np.random.default_rng(seed)
        base_xx = rng.standard_normal((rank, n, n))
        base_xx += base_xx.transpose(0, 2, 1)
        mix = rng.standard_normal((windows, rank))
        int_xx = np.einsum("wr,rij->wij", mix, base_xx)
        int_xu = np.einsum("wr,rij->wij", mix,
                           rng.standard_normal((rank, n, m)))
        data = DataMatrices(delta_xx=np.zeros_like(int_xx), int_xx=int_xx,
                            int_xu=int_xu)
        _assert_spectrum_matches_full_block(data, SparsityMask.all_ones(m, n))

    def test_computed_once_per_data_set(self, consensus_a, mask_a,
                                        monkeypatch):
        svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        run_srl(builtin_scenario("consensus-a"))
        assert len(calls) == 1  # run_srl and srl_synthesize both check_rank

        calls.clear()
        data = dataclasses.replace(consensus_a)  # fresh, nothing cached yet
        report = check_rank(data, mask_a)
        assert check_rank(data, mask_a) == report
        assert len(calls) == 1
        with pytest.raises(ValueError, match="read-only"):
            data.singular_values[0] = 0.0


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
        _, data = collect(plant, InputPolicy(probe=probe),
                          np.array([1.0]), config)
        P = solve_iteration(data, np.array([[0.0]]), config)
        assert P.shape == (1, 1)
        assert P[0, 0] == pytest.approx(0.5, abs=1e-3)

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
        P = solve_iteration(data, K, config)
        S = weights.Q + K.T @ weights.R @ K
        P_model = solve_lyapunov(sys.A - sys.B @ K, S)
        assert np.linalg.norm(P - P_model, "fro") < 1e-4

    def test_masked_update_matches_model_based(self):
        # B and R are not the identity, so the known off-mask map R^-1 B' P
        # is not a plain copy of P's entries
        A = np.array([[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0], [0.5, 0.0, -2.0]])
        B = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.3]])
        weights = CostWeights(Q=np.eye(3),
                              R=np.array([[2.0, 0.3], [0.3, 1.0]]))
        mask = SparsityMask.from_zero_positions(2, 3, [(0, 2), (1, 0)])
        K = np.array([[0.3, 0.1, 0.0], [0.0, 0.2, 0.4]])
        config = SrlConfig(mask=mask, weights=weights, B=B, initial_gain=K,
                           window=0.05, num_windows=40, dt=2e-4, tol=1e-6,
                           max_iter=20)
        probe = make_exploration(3, 2, num_sinusoids=20,
                                 freq_range=(0.5, 5.0), amplitude=4.0)
        policy = InputPolicy.feedback_with_probe(K, probe)
        _, data = collect(hide_state_matrix(LtiSystem(A=A, B=B)), policy,
                          np.array([1.0, -0.5, 0.3]), config)
        P = solve_iteration(data, K, config)
        K_next = srl_synthesize(data, config).history[0].K
        P_model = solve_lyapunov(A - B @ K, weights.Q + K.T @ weights.R @ K)
        K_model = on_pattern(np.linalg.solve(weights.R, B.T @ P_model), mask)
        assert np.linalg.norm(P - P_model, "fro") < 1e-4
        assert np.linalg.norm(K_next - K_model, "fro") < 1e-4
        # the update is the model-based one, applied to the learned P
        assert np.array_equal(
            K_next, on_pattern(np.linalg.solve(weights.R, B.T) @ P, mask))
        assert np.array_equal(K_next * mask.complement, np.zeros((2, 3)))

    def test_data_of_another_shape_is_error(self, mask_a):
        data = assemble_data(*_rectangular_record())  # n = 3, m = 2
        message = (r"^data \(n, m\) = \(3, 2\) does not match B's shape "
                   r"\(6, 6\)$")
        with pytest.raises(ValueError, match=message):
            solve_iteration(data, np.zeros((2, 3)), network_config(mask_a))

    def test_zero_state_data_is_rank_deficient(self, network, mask_a):
        plant = hide_state_matrix(network)
        config = network_config(mask_a)
        _, data = collect(plant, InputPolicy(), np.zeros(6), config)
        with pytest.raises(RankDeficientError):
            solve_iteration(data, config.initial_gain, config)

    @pytest.mark.parametrize("spec", [builtin_scenario("consensus-a"),
                                      builtin_scenario("consensus-b"),
                                      ring_scenario(8)],
                             ids=lambda spec: spec.name)
    def test_matches_window_by_window_oracle(self, spec):
        # the builtins explore with seed 7, the ring with seed 0; the ring's
        # regressor has condition number 1.1e3
        config, data = _spec_data(spec)
        P = solve_iteration(data, config.initial_gain, config)
        ref = solve_iteration_reference(data, config.initial_gain, config)
        assert np.linalg.norm(P - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_ill_conditioned_record_is_rank_deficient(self):
        # consensus-a seen through x1 <- x0 + 1e-4 x1: state 1 copies state
        # 0 up to a relative 1e-4, and the regressor's condition number is
        # about 1e9. An SVD least-squares solve finds full rank there and
        # returns a P; the Gram gate, cond below 1e6, refuses it.
        config, data = _spec_data(builtin_scenario("consensus-a"))
        T = np.eye(6)
        T[1, :2] = 1.0, 1e-4
        copied = DataMatrices(delta_xx=T @ data.delta_xx @ T.T,
                              int_xx=T @ data.int_xx @ T.T,
                              int_xu=T @ data.int_xu)
        config = dataclasses.replace(
            config, mask=SparsityMask.all_ones(6, 6), B=T @ config.B,
            initial_gain=config.initial_gain @ np.linalg.inv(T))
        rows, _, _ = policy_evaluation_regression(copied, config.initial_gain,
                                                  config)
        cond = np.linalg.cond(rows / np.linalg.norm(rows, axis=0))
        assert 1e6 < cond < 1e12
        assert np.linalg.matrix_rank(rows) == 21
        with pytest.raises(RankDeficientError, match=(
                r"^regression matrix rank 20 < 21 unknowns; deficient "
                r"subspace dimension 1; condition number 1\.\d+e\+09$")):
            solve_iteration(copied, config.initial_gain, config)

    def test_fewer_windows_than_unknowns_is_rank_deficient(self):
        # 4 windows against the 6 entries of a 3x3 P
        rng = np.random.default_rng(0)
        xx = rng.standard_normal((2, 4, 3, 3))
        xx += xx.transpose(0, 1, 3, 2)
        data = DataMatrices(delta_xx=xx[0], int_xx=xx[1],
                            int_xu=rng.standard_normal((4, 3, 1)))
        mask = SparsityMask.all_ones(1, 3)
        config = SrlConfig(mask=mask, weights=CostWeights(Q=np.eye(3),
                                                          R=np.eye(1)),
                           B=np.ones((3, 1)), initial_gain=np.zeros((1, 3)),
                           window=0.02, num_windows=required_samples(3, mask),
                           dt=0.01)
        with pytest.raises(RankDeficientError, match=(
                r"^regression matrix rank 4 < 6 unknowns; deficient "
                r"subspace dimension 2; condition number ")):
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
        _, data = collect(plant, policy, X0, config)
        learned = srl_synthesize(data, config)
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

    @pytest.mark.parametrize("synthesize", [kleinman_structured, srl_synthesize])
    def test_budget_exhaustion_carries_partial_result(self, network, mask_a,
                                                      synthesize):
        config = network_config(mask_a, max_iter=1)
        if synthesize is kleinman_structured:
            args = (network, config.weights, mask_a, config.initial_gain)
            kwargs = dict(tol=config.tol, max_iter=config.max_iter)
        else:
            probe = make_exploration(7, 6, amplitude=100.0)
            policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
            _, data = collect(hide_state_matrix(network), policy, X0, config)
            args, kwargs = (data, config), {}
        with pytest.raises(ConvergenceError) as err:
            synthesize(*args, **kwargs)
        result = err.value.result
        assert result.converged is False
        assert result.iterations == 1
        assert np.array_equal(off_pattern(result.K, mask_a), np.zeros((6, 6)))
        RinvBt = np.linalg.solve(config.weights.R, config.B.T)
        assert np.array_equal(result.L, off_pattern(RinvBt @ result.P, mask_a))

    def test_masked_entries_exactly_zero(self, network, mask_a):
        config = network_config(mask_a)
        probe = make_exploration(7, 6, amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        _, data = collect(plant, policy, X0, config)
        learned = srl_synthesize(data, config)
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
            _, data = collect(plant, policy, X0, config)
            learned = srl_synthesize(data, config)
            gains.append(learned.K)
        assert np.linalg.norm(gains[0] - gains[1], "fro") <= 2e-3

    def test_insufficient_span_fails_rank_gate(self, network, mask_a):
        # one probe frequency per channel spans rank 19 of the 50 unknowns
        config = network_config(mask_a)
        probe = make_exploration(7, 6, freq_range=(5.0, 5.0), amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        _, data = collect(plant, policy, X0, config)
        with pytest.raises(RankDeficientError):
            srl_synthesize(data, config)

    @pytest.mark.parametrize("seed", [7, 9, 34])
    @pytest.mark.parametrize("span", [1.0, 1.4])
    def test_gate_fails_or_gain_matches_model_based(self, seed, span):
        # Each run fails the rank gate or lands within 2e-3 of the
        # model-based gain (worst seen 1.5e-3, over seeds 0-3, 7, 9, 34).
        # 1.0 s is 100 windows, the paper's required_samples for
        # consensus-a, and that must be enough at seed 7.
        spec = builtin_scenario("consensus-a")
        spec = dataclasses.replace(spec, exploration=dataclasses.replace(
            spec.exploration, duration=span, seed=seed))
        config = spec.srl_config()
        if span == 1.0:
            assert config.num_windows == required_samples(6, spec.mask)
        policy = InputPolicy.feedback_with_probe(config.initial_gain,
                                                 spec.probe())
        _, data = collect(hide_state_matrix(spec.system()), policy, spec.x0,
                          config)
        try:
            learned = srl_synthesize(data, config)
        except RankDeficientError:
            assert (seed, span) != (7, 1.0)
            return
        model = kleinman_structured(spec.system(), config.weights, spec.mask,
                                    config.initial_gain, tol=config.tol,
                                    max_iter=config.max_iter)
        assert learned.converged
        assert np.linalg.norm(learned.K - model.K, "fro") <= 2e-3

    @pytest.fixture(scope="class")
    def consensus_a_optimum(self):
        spec = builtin_scenario("consensus-a")
        return kleinman_structured(spec.system(), spec.srl_config().weights,
                                   spec.mask, spec.initial_gain, tol=1e-12).K

    @pytest.mark.parametrize("sinusoids, seed",
                             [(1, 4), (1, 5), (1, 10), (1, 15), (2, 8)])
    def test_weak_probe_lands_on_the_optimum(self, sinusoids, seed,
                                             consensus_a_optimum):
        # A joint regression in P and the gain entries, the paper's form,
        # returned errors up to 5.4e-3 on these draws at the scenario's own
        # tol; evaluating P alone gives at most 3.3e-5.
        config, data = _spec_data(_weak_probe_spec(sinusoids, seed))
        learned = srl_synthesize(data, config)
        err = (np.linalg.norm(learned.K - consensus_a_optimum)
               / np.linalg.norm(consensus_a_optimum))
        assert learned.converged
        assert err <= 1e-4

    @pytest.mark.parametrize("seed", [3, 12])
    def test_starved_weak_probe_exits_at_the_rank_gate(self, seed, tmp_path,
                                                       capsys):
        path = tmp_path / "weak.scn"
        save_scenario(_weak_probe_spec(1, seed), path)
        assert main(["srl", "--scenario", str(path)]) == 2
        assert "error: data rank" in capsys.readouterr().err


def _weak_probe_spec(sinusoids, seed):
    """consensus-a with a few probe sinusoids per channel."""
    spec = builtin_scenario("consensus-a")
    return dataclasses.replace(spec, exploration=dataclasses.replace(
        spec.exploration, num_sinusoids=sinusoids, seed=seed))


def _spec_data(spec):
    """The config and window blocks of a data-driven run on spec."""
    config = spec.srl_config()
    policy = InputPolicy.feedback_with_probe(config.initial_gain, spec.probe())
    _, data = collect(hide_state_matrix(spec.system()), policy, spec.x0,
                      config)
    return config, data
