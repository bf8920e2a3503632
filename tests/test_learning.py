import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (NETWORK_A, X0, ZEROS_A, assemble_data_reference,
                     policy_evaluation_regression, solve_iteration_reference)
from structlqr import (ConvergenceError, CostWeights, DataMatrices,
                       ExplorationSignal, InputPolicy, LtiSystem, PlantHandle,
                       RankDeficientError, SparsityMask, SrlConfig, check_rank,
                       collect, evaluate_cost_analytic, hide_state_matrix,
                       kleinman_structured, make_exploration,
                       modified_are_residual, off_pattern, on_pattern,
                       required_samples, solve_iteration, solve_lyapunov,
                       srl_synthesize, suboptimality_bound)
from structlqr.experiments import (ScenarioSpec, SolverConfig,
                                   builtin_scenario, make_consensus_network,
                                   ring_scenario, run_model_based, run_srl)
from structlqr.learning import _SEGMENT_ENTRIES, _gram_rank, assemble_data
from structlqr.system import Trajectory, evaluate_cost, simulate


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
        (2, "ab", "freq_range must satisfy 0 < lo <= hi < inf, got 'ab'"),
        (2, (1.0,), r"freq_range must satisfy 0 < lo <= hi < inf, "
         r"got \(1.0,\)$"),
        (2, (1.0, "x"), r"freq_range must satisfy 0 < lo <= hi < inf, "
         r"got \(1.0, 'x'\)$"),
        (2, (True, 2.0), "freq_range must satisfy"),
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

    def test_learner_path_reads_no_state_matrix(self, monkeypatch):
        # a scenario without matrix A gives the config, probe, collection
        # from a replayed record, rank gate and synthesis, building no
        # plant, and the gain run_srl learns on the full scenario
        full = builtin_scenario("consensus-a")
        want = run_srl(full)["gain"]
        record, _ = _builtin_record("consensus-a")

        def refuse(*args, **kwargs):
            raise AssertionError("the learner path built the plant")

        monkeypatch.setattr(ScenarioSpec, "system", refuse)
        monkeypatch.setattr(LtiSystem, "__post_init__", refuse)
        spec = dataclasses.replace(full, A=None)
        config = spec.srl_config()
        policy = InputPolicy(gain=config.initial_gain, probe=spec.probe())
        replay = PlantHandle(simulate=lambda *args, **kwargs: record)
        _, data = collect(replay, policy, spec.x0, config)
        assert check_rank(data, spec.mask, rank_tol=config.rank_tol).passed
        learned = srl_synthesize(data, config)
        assert learned.K.tobytes() == want.tobytes()


def _off_mask_gain():
    # (0, 0) and (0, 1) are off mask A; the larger entry is named
    K0 = 10.0 * np.eye(6)
    K0[0, 0], K0[0, 1] = 2.0, -3.0
    return K0


# one argument of the set-up both routes share, made bad, and its message
_BAD_SETUPS = {
    "off-mask-K0": (dict(initial_gain=_off_mask_gain()),
                    r"initial_gain must be zero off the mask, got -3\.0 at "
                    r"\(0, 1\)"),
    "mask-shape": (dict(mask=SparsityMask.all_ones(6, 5)),
                   r"mask must have shape \(6, 6\), got \(6, 5\)"),
    "K0-shape": (dict(initial_gain=np.zeros((6, 5))),
                 r"initial_gain must have shape \(6, 6\), got \(6, 5\)"),
    "tol-0": (dict(tol=0.0), r"tol must be finite and positive, got 0\.0"),
    "max_iter-0": (dict(max_iter=0), "max_iter must be at least 1, got 0"),
    "weights-shape": (dict(weights=CostWeights(Q=np.eye(5), R=np.eye(6))),
                      r"Q must have shape \(6, 6\), got \(5, 5\)"),
}

_SETUP_ROUTES = {
    "SrlConfig": lambda arguments: SrlConfig(
        B=np.eye(6), window=0.01, num_windows=140, dt=5e-5, **arguments),
    "kleinman_structured": lambda arguments: kleinman_structured(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), **arguments),
    "ScenarioSpec": lambda arguments: _spec_with(**arguments),
}
# a code-built scenario's SolverConfig refuses a bad tol or max_iter first,
# as solver tol and solver max-iter, so those set-ups take two routes
_SETUP_CASES = [(setup, route) for setup in sorted(_BAD_SETUPS)
                for route in sorted(_SETUP_ROUTES)
                if route != "ScenarioSpec"
                or setup not in ("tol-0", "max_iter-0")]


def _spec_with(mask, weights, initial_gain, tol, max_iter):
    """consensus-a, built in code, with the set-up the other routes take."""
    return dataclasses.replace(
        builtin_scenario("consensus-a"), mask=mask, Q=weights.Q, R=weights.R,
        initial_gain=initial_gain,
        solver=SolverConfig(tol=tol, max_iter=max_iter))


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

    def test_record_at_another_step_is_rejected(self, network, mask_a):
        # twice the step over half the horizon: 70 windows of the right
        # length, but not the record the config sizes
        def plant(policy, x0, horizon, dt, substeps):
            return simulate(network, policy, x0, horizon / 2, dt=2 * dt,
                            substeps=substeps)

        config = network_config(mask_a)
        with pytest.raises(ValueError, match=r"^the plant's record must have "
                           r"the config's step dt 5e-05, got 0\.0001"):
            collect(PlantHandle(simulate=plant),
                    InputPolicy(gain=config.initial_gain), X0, config)

    @pytest.mark.parametrize("span, windows", [(0.5, 70), (2.0, 280)])
    def test_record_of_another_length_is_rejected(self, network, mask_a,
                                                  span, windows):
        # 70 windows is below the 100 the rank gate's unknowns need
        def plant(policy, x0, horizon, dt, substeps):
            return simulate(network, policy, x0, span * horizon, dt=dt,
                            substeps=substeps)

        config = network_config(mask_a)
        with pytest.raises(ValueError, match=(
                r"^the plant's record must hold the config's num_windows "
                rf"140 windows, got {windows}$")):
            collect(PlantHandle(simulate=plant),
                    InputPolicy(gain=config.initial_gain), X0, config)

    @pytest.mark.parametrize("states, inputs", [(5, 5), (6, 5)])
    def test_record_of_another_width_is_rejected(self, network, mask_a,
                                                 states, inputs):
        # a plant that drops channels of its record is named, not the mask
        # that srl_synthesize would otherwise blame
        def plant(policy, x0, horizon, dt, substeps):
            traj = simulate(network, policy, x0, horizon, dt=dt,
                            substeps=substeps)
            return Trajectory(times=traj.times, states=traj.states[:, :states],
                              inputs=traj.inputs[:, :inputs])

        config = network_config(mask_a)
        with pytest.raises(ValueError, match=(
                r"^the plant's record must have the config's \(n, m\) = "
                rf"\(6, 6\) states and inputs, got \({states}, {inputs}\)$")):
            collect(PlantHandle(simulate=plant),
                    InputPolicy(gain=config.initial_gain), X0, config)

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
        # a mask of the wrong width is named by its shape, as any other
        with pytest.raises(ValueError, match=r"^mask must have shape "
                           r"\(6, 6\), got \(6, 5\)$"):
            dataclasses.replace(network_config(mask_a),
                                mask=SparsityMask.all_ones(6, 5))

    @pytest.mark.parametrize("setup, route", _SETUP_CASES)
    def test_initial_gain_off_the_mask_is_rejected(self, mask_a, setup,
                                                   route):
        # both policy iterations and a code-built scenario accept the same
        # problems: each bad set-up raises one message, whichever route is
        # handed it
        arguments = dict(mask=mask_a, weights=CostWeights(
            Q=30.0 * np.eye(6), R=np.eye(6)),
            initial_gain=10.0 * (np.eye(6) * mask_a.indicator), tol=1e-3,
            max_iter=30)
        bad, message = _BAD_SETUPS[setup]
        arguments.update(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            _SETUP_ROUTES[route](arguments)


def _builtin_record(name):
    """The exploration record a data-driven run on a builtin collects."""
    spec = builtin_scenario(name)
    config = spec.srl_config()
    policy = InputPolicy(gain=config.initial_gain, probe=spec.probe())
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


_RECTANGULAR_B = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]])
_RECTANGULAR_K = np.array([[0.3, 0.0, 0.1], [0.1, 0.2, 0.0]])


def _rectangular_record():
    """n = 3 states, m = 2 inputs, so a slip in reshape order shows."""
    sys = LtiSystem(A=np.array([[-1.0, 2.0, 0.0], [0.0, -3.0, 1.0],
                                [0.5, 0.0, -2.0]]), B=_RECTANGULAR_B)
    probe = make_exploration(5, 2, num_sinusoids=20, freq_range=(0.5, 5.0),
                             amplitude=4.0)
    traj = simulate(sys, InputPolicy(gain=_RECTANGULAR_K, probe=probe),
                    np.array([1.0, -0.5, 0.7]), 2.0, dt=1e-3, substeps=1)
    return traj, 0.05


def _rectangular_data():
    """The n3-m2 record's 40 windows and a config that regresses them."""
    traj, window = _rectangular_record()
    config = SrlConfig(mask=SparsityMask.all_ones(2, 3),
                       weights=CostWeights(Q=np.eye(3), R=np.eye(2)),
                       B=_RECTANGULAR_B, initial_gain=_RECTANGULAR_K,
                       window=window, num_windows=40, dt=1e-3)
    return config, assemble_data(traj, window)


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
        policy = InputPolicy(gain=config.initial_gain, probe=spec_probe)
        _, data = collect(plant, policy, X0, config)
        report = check_rank(data, mask_a)
        assert report.rank == report.required == 21  # n(n+1)/2, n = 6
        assert report.passed
        assert report.margin == 0

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
        policy = InputPolicy(gain=config.initial_gain, probe=probe)
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


def _short_trajectory():
    return Trajectory(times=[0.0, 0.01, 0.02], states=np.zeros((3, 1)),
                      inputs=np.zeros((3, 1)))


_BAD_ARGUMENT_CALLS = {
    "simulate substeps": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), InputPolicy(), X0, 0.1,
        substeps=2.5), "substeps must be an integer, got 2.5"),
    "simulate horizon string": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), InputPolicy(), X0, "1"),
        "horizon must be finite and positive, got '1'"),
    "simulate dt bool": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), InputPolicy(), X0, 1.0,
        dt=True), "dt must be finite and positive, got True"),
    "simulate substeps bool": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), InputPolicy(), X0, 0.1,
        substeps=True), "substeps must be an integer, got True"),
    "simulate x0 string": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), InputPolicy(), "a", 0.1),
        "x0 must be an array of real numbers"),
    "simulate sys string": (lambda: simulate("a", InputPolicy(), X0, 0.1),
                            "sys must be a LtiSystem, got str"),
    "simulate policy string": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), "a", X0, 0.1),
        "policy must be an InputPolicy, got str"),
    "evaluate_cost x0 string": (lambda: evaluate_cost(
        LtiSystem(A=NETWORK_A, B=np.eye(6)),
        CostWeights(Q=np.eye(6), R=np.eye(6)), np.zeros((6, 6)), x0="ab"),
        "x0 must be an array of real numbers"),
    "CostWeights Q string": (lambda: CostWeights(Q=[["a"]], R=[[1.0]]),
                             "Q must be an array of real numbers"),
    "Trajectory times string": (lambda: Trajectory(
        times=["a", "b"], states=np.zeros((2, 1)), inputs=np.zeros((2, 1))),
        "times must be an array of real numbers"),
    "ExplorationSignal.sample times string": (
        lambda: make_exploration(0, 1).sample(["a"]),
        "times must be an array of real numbers"),
    "DataMatrices int_xx string": (lambda: DataMatrices(
        delta_xx=np.zeros((1, 1, 1)), int_xx=[[["a"]]],
        int_xu=np.zeros((1, 1, 1))), "int_xx must be an array of real numbers"),
    "off_pattern gain string": (
        lambda: off_pattern([["a"]], SparsityMask.all_ones(1, 1)),
        "gain must be an array of real numbers"),
    "on_pattern gain string": (
        lambda: on_pattern([["a"]], SparsityMask.all_ones(1, 1)),
        "gain must be an array of real numbers"),
    "make_consensus_network size string": (
        lambda: make_consensus_network("3", {(0, 1): 1.0}),
        "num_agents must be an integer, got '3'"),
    "make_consensus_network size float": (
        lambda: make_consensus_network(3.0, {(0, 1): 1.0}),
        "num_agents must be an integer, got 3.0"),
    "SparsityMask.all_ones size fraction": (
        lambda: SparsityMask.all_ones(2.5, 2),
        "num_inputs must be an integer, got 2.5"),
    "SparsityMask.from_zero_positions size fraction": (
        lambda: SparsityMask.from_zero_positions(2.5, 2, []),
        "num_inputs must be an integer, got 2.5"),
    "SparsityMask.from_zero_positions short pair": (
        lambda: SparsityMask.from_zero_positions(2, 2, [(0,)]),
        "zero position (0,) must be two integers in [0, 2) x [0, 2)"),
    "kleinman_structured max_iter": (lambda: kleinman_structured(
        LtiSystem(A=NETWORK_A, B=np.eye(6)),
        CostWeights(Q=np.eye(6), R=np.eye(6)), SparsityMask.all_ones(6, 6),
        10.0 * np.eye(6), max_iter=2.5),
        "max_iter must be an integer, got 2.5"),
    "make_exploration num_sinusoids": (
        lambda: make_exploration(0, 6, num_sinusoids=2.5),
        "num_sinusoids must be an integer, got 2.5"),
    "make_exploration num_sinusoids above the cap": (
        lambda: make_exploration(0, 6, num_sinusoids=10001),
        "num_sinusoids must be at most 10000, got 10001"),
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
    "check_rank data string": (
        lambda: check_rank("d", SparsityMask.all_ones(6, 6)),
        "data must be a DataMatrices, got str"),
    "solve_iteration data string": (
        lambda: solve_iteration("d", np.zeros((6, 6)),
                                network_config(SparsityMask.all_ones(6, 6))),
        "data must be a DataMatrices, got str"),
    "solve_iteration config string": (
        lambda: solve_iteration(_zero_data(), np.zeros((6, 6)), "c"),
        "config must be a SrlConfig, got str"),
    "srl_synthesize data string": (
        lambda: srl_synthesize("d",
                               network_config(SparsityMask.all_ones(6, 6))),
        "data must be a DataMatrices, got str"),
    "srl_synthesize config string": (
        lambda: srl_synthesize(_zero_data(), "c"),
        "config must be a SrlConfig, got str"),
    "required_samples n string": (
        lambda: required_samples("6", SparsityMask.all_ones(6, 6)),
        "n must be an integer, got '6'"),
    "required_samples mask string": (
        lambda: required_samples(6, "m"),
        "mask must be a SparsityMask, got str"),
    "required_samples mask columns": (
        lambda: required_samples(5, SparsityMask.all_ones(6, 6)),
        "mask must have n = 5 columns, got 6"),
    "DataMatrices zero windows": (lambda: DataMatrices(
        delta_xx=np.zeros((0, 6, 6)), int_xx=np.zeros((0, 6, 6)),
        int_xu=np.zeros((0, 6, 6))),
        "windows of delta_xx, int_xx and int_xu must be at least 1, got 0"),
    "off_pattern mask string": (lambda: off_pattern(np.zeros((6, 6)), "m"),
                                "mask must be a SparsityMask, got str"),
    "on_pattern mask string": (lambda: on_pattern(np.zeros((6, 6)), "m"),
                               "mask must be a SparsityMask, got str"),
    "SrlConfig weights string": (
        lambda: network_config(SparsityMask.all_ones(6, 6), weights="w"),
        "weights must be a CostWeights, got str"),
    "on_pattern shape": (
        lambda: on_pattern(np.zeros((2, 2)), SparsityMask.all_ones(6, 6)),
        "gain shape (2, 2) != mask shape (6, 6)"),
    "kleinman_structured mask shape": (lambda: kleinman_structured(
        LtiSystem(A=NETWORK_A, B=np.eye(6)),
        CostWeights(Q=np.eye(6), R=np.eye(6)), SparsityMask.all_ones(5, 6),
        np.zeros((6, 6))), "mask must have shape (6, 6), got (5, 6)"),
    "evaluate_cost gain columns": (lambda: evaluate_cost(
        LtiSystem(A=NETWORK_A, B=np.eye(6)),
        CostWeights(Q=np.eye(6), R=np.eye(6)), np.zeros((6, 5)), X0),
        "gain must have shape (6, 6), got (6, 5)"),
    "simulate feedback gain shape": (lambda: simulate(
        LtiSystem(A=NETWORK_A, B=np.eye(6)),
        InputPolicy(gain=np.zeros((6, 5))), X0, 0.1),
        "feedback gain must be 6x6"),
    "CostWeights Q not square": (
        lambda: CostWeights(Q=np.ones((2, 3)), R=[[1.0]]),
        "Q and R must be square"),
    "Trajectory one sample": (lambda: Trajectory(
        times=[0.0], states=np.zeros((1, 1)), inputs=np.zeros((1, 1))),
        "a trajectory needs at least two samples"),
    "Trajectory times repeat": (lambda: Trajectory(
        times=[0.0, 0.1, 0.1], states=np.zeros((3, 1)),
        inputs=np.zeros((3, 1))), "times must be strictly increasing"),
    "ExplorationSignal shapes differ": (lambda: ExplorationSignal(
        frequencies=[[1.0, 2.0]], amplitudes=[[1.0]], phases=[[0.0, 0.0]]),
        "frequencies, amplitudes, phases must share a shape"),
    "assemble_data record shorter than a window": (lambda: assemble_data(
        Trajectory(times=[0.0, 0.01], states=np.zeros((2, 1)),
                   inputs=np.zeros((2, 1))), 0.02),
        "trajectory too short for a single window"),
    "assemble_data traj string": (lambda: assemble_data("t", 0.02),
                                  "traj must be a Trajectory, got str"),
    "assemble_data window string": (lambda: assemble_data(
        _short_trajectory(), "0.02"),
        "window must be finite and positive, got '0.02'"),
    "assemble_data window bool": (lambda: assemble_data(
        _short_trajectory(), True),
        "window must be finite and positive, got True"),
    "collect plant string": (lambda: collect(
        "p", InputPolicy(), X0, network_config(SparsityMask.all_ones(6, 6))),
        "plant must be a PlantHandle, got str"),
    "collect config string": (lambda: collect(
        hide_state_matrix(LtiSystem(A=NETWORK_A, B=np.eye(6))),
        InputPolicy(), X0, "c"), "config must be a SrlConfig, got str"),
    "collect plant returning no Trajectory": (lambda: collect(
        PlantHandle(simulate=lambda *args, **kwargs: None), InputPolicy(),
        X0, network_config(SparsityMask.all_ones(6, 6))),
        "traj must be a Trajectory, got NoneType"),
    "hide_state_matrix sys string": (lambda: hide_state_matrix("a"),
                                     "sys must be a LtiSystem, got str"),
    "PlantHandle simulate string": (lambda: PlantHandle(simulate="s"),
                                    "simulate must be callable, got str"),
}


def _model_calls(sys, weights):
    """Each public call that takes a plant and cost weights, on the
    6-agent network with K0 = 10 I where those are valid."""
    K, x0 = 10.0 * np.eye(6), X0
    return {
        "kleinman_structured": lambda: kleinman_structured(
            sys, weights, SparsityMask.all_ones(6, 6), K),
        "evaluate_cost": lambda: evaluate_cost(sys, weights, K, x0),
        "evaluate_cost_analytic": lambda: evaluate_cost_analytic(
            sys, weights, K, x0),
        "suboptimality_bound": lambda: suboptimality_bound(
            sys, weights, x0, 1.0, 1.0),
        "modified_are_residual": lambda: modified_are_residual(
            np.eye(6), np.zeros((6, 6)), sys, weights),
    }


# one row per call and wrongly typed argument, each named, not AttributeError
_BAD_ARGUMENT_CALLS.update({
    f"{name} sys string": (call, "sys must be a LtiSystem, got str")
    for name, call in _model_calls(
        "a", CostWeights(Q=np.eye(6), R=np.eye(6))).items()})
_BAD_ARGUMENT_CALLS.update({
    f"{name} weights string": (call, "weights must be a CostWeights, got str")
    for name, call in _model_calls(
        LtiSystem(A=NETWORK_A, B=np.eye(6)), "w").items()})


@pytest.mark.parametrize("call", sorted(_BAD_ARGUMENT_CALLS))
def test_bad_count_or_knob_names_its_field(call):
    # each is rejected at the entry point, not by numpy or range deep inside
    run, message = _BAD_ARGUMENT_CALLS[call]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


def _unit_columns(data):
    """Oracle input: the n(n+1)/2 distinct int_xx columns, each scaled to
    unit norm."""
    columns = np.stack([data.int_xx[:, i, j] for i in range(data.n)
                        for j in range(i, data.n)], axis=1)
    return columns / np.linalg.norm(columns, axis=0)


def _assert_matches_unit_column_svd(report, columns, rank_tol, rtol):
    """The Gram rule counts the singular values of the unit-norm columns
    above sqrt(rank_tol) times their largest; its condition is their
    np.linalg.cond, to rtol, when they pass, and at least 1/sqrt(rank_tol)
    when they fail."""
    columns = columns / np.linalg.norm(columns, axis=0)
    sv_unit = np.linalg.svd(columns, compute_uv=False)
    assert report.rank == int(np.sum(sv_unit > np.sqrt(rank_tol) * sv_unit[0]))
    assert report.required == columns.shape[1]
    if report.passed:
        np.testing.assert_allclose(report.condition, np.linalg.cond(columns),
                                   rtol=rtol)
    else:
        assert report.condition >= 1.0 / np.sqrt(rank_tol)


def _assert_report_matches_unit_column_svd(data, mask, rank_tol=1e-12):
    """check_rank against the oracle on the distinct int_xx columns."""
    report = check_rank(data, mask, rank_tol=rank_tol)
    assert report.required == data.n * (data.n + 1) // 2
    _assert_matches_unit_column_svd(report, _unit_columns(data), rank_tol,
                                    rtol=1e-6)
    return report


class TestRankSpectrum:
    @pytest.fixture(scope="class")
    def consensus_a(self):
        traj, window = _builtin_record("consensus-a")
        return assemble_data(traj, window)

    def test_matches_unit_column_svd_on_exploration_data(self, consensus_a,
                                                        mask_a):
        # and seen through x1 <- 1e-3 x1, which scales each int_xx column by
        # a constant: the unit-norm columns, so the condition, stay the same
        config, scaled = _scaled_state_record()
        report = _assert_report_matches_unit_column_svd(consensus_a, mask_a)
        other = _assert_report_matches_unit_column_svd(scaled, config.mask)
        assert report.condition == pytest.approx(45.9, abs=0.05)
        assert other.condition == pytest.approx(report.condition, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5),
           m=st.integers(1, 4), windows=st.integers(1, 40),
           rank=st.integers(1, 40))
    def test_matches_unit_column_svd_on_random_data(self, seed, n, m,
                                                    windows, rank):
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
        # no singular value within 10x of the cutoff, where rounding of the
        # Gram eigenvalues may tip the count either way
        sv_unit = np.linalg.svd(_unit_columns(data), compute_uv=False)
        cut = 1e-6 * sv_unit[0]  # sqrt(rank_tol) * the largest
        assume(not np.any((sv_unit > 0.1 * cut) & (sv_unit < 10.0 * cut)))
        _assert_report_matches_unit_column_svd(data,
                                               SparsityMask.all_ones(m, n))

    def test_regression_gate_matches_unit_column_svd(self, monkeypatch):
        # near check_rank's gate: one probe sinusoid of amplitude 0.05 reads
        # cond 3.6e5 of the 1e6 it allows there, and 141 at the regression
        # gate, whose report is taken from the one rule's return
        config, data = _spec_data(_near_gate_spec())
        assert 1e5 < check_rank(data, config.mask).condition < 1e6
        reports = []

        def spy(theta, rank_tol):
            result = _gram_rank(theta, rank_tol)
            reports.append(result[2])
            return result

        monkeypatch.setattr("structlqr.learning._gram_rank", spy)
        solve_iteration(data, config.initial_gain, config)
        rows, _, _ = policy_evaluation_regression(data, config.initial_gain,
                                                  config)
        (report,) = reports
        assert report.passed
        _assert_matches_unit_column_svd(report, rows, config.rank_tol,
                                        rtol=1e-10)

    def test_passing_run_takes_no_svd(self, monkeypatch):
        # nor does a model-based one, nor a failing one, at check_rank or at
        # the regression gate; numpy's own svd is spied on too, which cond
        # and norm(., 2) call (numpy.linalg._linalg, or .linalg on 1.x)
        calls = []
        internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        for module, name in ((np.linalg, "svd"), (np.linalg, "cond"),
                             (internal, "svd")):
            def spy(*args, _name=name, _real=getattr(module, name),
                    **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        assert run_model_based(builtin_scenario("consensus-a"))["converged"]
        report = run_srl(builtin_scenario("consensus-a"))
        # run_srl and srl_synthesize both check_rank, by Gram eigenvalues
        assert report["rank"]["passed"]
        with pytest.raises(RankDeficientError, match="^data rank 12 below "):
            run_srl(_one_tone_spec())
        config, data = _spec_data(_one_tone_spec())
        with pytest.raises(RankDeficientError, match="^regression matrix "):
            solve_iteration(data, config.initial_gain, config)
        assert calls == []

    @pytest.mark.parametrize("record", ["passing", "one-tone", "copied-state",
                                        "scaled-state"])
    def test_check_rank_agrees_with_the_regression_gate(self, record):
        # one rule: the data pass check_rank exactly when the regression at
        # K0 passes its gate (the one-tone record counts 12 and 13 of 21)
        config, data = _RANK_RECORDS[record]()
        passed = check_rank(data, config.mask, rank_tol=config.rank_tol).passed
        try:
            solve_iteration(data, config.initial_gain, config)
        except RankDeficientError:
            assert not passed
        else:
            assert passed


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
        policy = InputPolicy(gain=K, probe=probe)
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
        policy = InputPolicy(gain=K, probe=probe)
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

    @pytest.mark.parametrize("record", ["consensus-a", "consensus-b",
                                        "n3-m2"])
    @pytest.mark.parametrize("block_rows", [1, 9])
    def test_row_blocks_give_the_one_block_bits(self, monkeypatch, record,
                                                block_rows):
        # theta is written in row blocks of _SEGMENT_ENTRIES coefficients,
        # n^2 per window; each record is below one block by default, so one
        # row per block, or 9 with a partial last block, must give its bits
        config, data = _BLOCK_RECORDS[record]()
        n, windows = data.n, data.num_windows
        assert windows * n * n <= _SEGMENT_ENTRIES
        assert block_rows == 1 or windows % block_rows != 0
        whole = solve_iteration(data, config.initial_gain, config)
        monkeypatch.setattr("structlqr.learning._SEGMENT_ENTRIES",
                            block_rows * n * n)
        blocked = solve_iteration(data, config.initial_gain, config)
        assert blocked.tobytes() == whole.tobytes()

    def test_peak_memory_holds_no_window_by_coefficient_array(self):
        # n = 24, band-1 mask, 800 windows (required_samples asks 740): the
        # peak stays within theta and two p x p arrays, with room for the
        # row blocks but not for an N x n^2 array
        n, windows = 24, 800
        p = n * (n + 1) // 2
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
        mask = SparsityMask(band.astype(float))
        assert required_samples(n, mask) == 740
        rng = np.random.default_rng(0)
        states = rng.standard_normal((windows, 3, n))
        delta_xx = rng.standard_normal((windows, n, n))
        data = DataMatrices(
            delta_xx=delta_xx + delta_xx.transpose(0, 2, 1),
            int_xx=np.einsum("wki,wkj->wij", states, states),
            int_xu=rng.standard_normal((windows, n, n)))
        config = SrlConfig(mask=mask, weights=CostWeights(Q=np.eye(n),
                                                          R=np.eye(n)),
                           B=np.eye(n), initial_gain=mask.indicator,
                           window=0.02, num_windows=windows, dt=0.01)
        tracemalloc.start()
        try:
            solve_iteration(data, config.initial_gain, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (windows * p + 2 * p * p)

    def test_ill_conditioned_record_is_rank_deficient(self):
        # consensus-a seen through x1 <- x0 + 1e-4 x1: state 1 copies state
        # 0 up to a relative 1e-4, and the regressor's condition number is
        # about 1e9. An SVD least-squares solve finds full rank there and
        # returns a P; the Gram gate, cond below 1e6, refuses it, and by
        # the same rule check_rank stops srl_synthesize before it regresses.
        config, copied = _copied_state_record()
        rows, _, _ = policy_evaluation_regression(copied, config.initial_gain,
                                                  config)
        cond = np.linalg.cond(rows / np.linalg.norm(rows, axis=0))
        assert 1e6 < cond < 1e12
        assert np.linalg.matrix_rank(rows) == 21
        with pytest.raises(RankDeficientError, match=(
                r"^regression matrix rank 20 < 21 unknowns; deficient "
                r"subspace dimension 1; condition number above 1e\+06$")):
            solve_iteration(copied, config.initial_gain, config)
        with pytest.raises(RankDeficientError, match=(
                r"^data rank 20 below the required count 21 ")):
            srl_synthesize(copied, config)

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
        policy = InputPolicy(gain=config.initial_gain, probe=probe)
        _, data = collect(plant, policy, X0, config)
        learned = srl_synthesize(data, config)
        classical = kleinman_structured(network, config.weights, mask,
                                        config.initial_gain, tol=config.tol)
        assert np.linalg.norm(learned.K - classical.K, "fro") <= 1e-3

    def test_iterates_track_model_based_path(self, network, mask_a):
        config = network_config(mask_a)
        probe = make_exploration(7, 6, amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy(gain=config.initial_gain, probe=probe)
        _, data = collect(plant, policy, X0, config)
        learned = srl_synthesize(data, config)
        model = kleinman_structured(network, config.weights, mask_a,
                                    config.initial_gain, tol=config.tol,
                                    max_iter=config.max_iter)
        assert learned.converged
        assert learned.iterations <= 10
        # the data-driven iterates reproduce the model-based ones: the two
        # policy evaluations agree on each gain, and so do the gains
        weights = config.weights
        for K in [config.initial_gain] + [r.K for r in model.history[:-1]]:
            P = solve_lyapunov(network.A - network.B @ K,
                               weights.Q + K.T @ weights.R @ K)
            assert np.linalg.norm(solve_iteration(data, K, config) - P,
                                  "fro") < 1e-3
        for rec_l, rec_m in zip(learned.history, model.history):
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
            policy = InputPolicy(gain=config.initial_gain, probe=probe)
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
        policy = InputPolicy(gain=config.initial_gain, probe=probe)
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
            policy = InputPolicy(gain=config.initial_gain, probe=probe)
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
            policy = InputPolicy(gain=config.initial_gain, probe=probe)
            _, data = collect(plant, policy, X0, config)
            learned = srl_synthesize(data, config)
            gains.append(learned.K)
        assert np.linalg.norm(gains[0] - gains[1], "fro") <= 2e-3

    def test_insufficient_span_fails_rank_gate(self, network, mask_a):
        # one probe frequency per channel spans rank 12 of the 21 int_xx
        # columns
        config = network_config(mask_a)
        probe = make_exploration(7, 6, freq_range=(5.0, 5.0), amplitude=100.0)
        plant = hide_state_matrix(network)
        policy = InputPolicy(gain=config.initial_gain, probe=probe)
        _, data = collect(plant, policy, X0, config)
        with pytest.raises(RankDeficientError):
            srl_synthesize(data, config)

    def test_state_in_other_units_lands_on_the_optimum(self):
        # a state 1000x smaller scales its int_xx columns by up to 1e-6,
        # which every rank count must ignore: the gain of the record is
        # the model-based one of the plant in those units
        config, data = _scaled_state_record()
        assert check_rank(data, config.mask, rank_tol=config.rank_tol).passed
        learned = srl_synthesize(data, config)
        net, T = builtin_scenario("consensus-a").system(), _SCALED_STATE
        net = dataclasses.replace(net, A=T @ net.A @ np.linalg.inv(T),
                                  B=T @ net.B)
        model = kleinman_structured(net, config.weights, config.mask,
                                    config.initial_gain, tol=1e-8)
        assert learned.converged
        assert (np.linalg.norm(learned.K - model.K)
                <= 1e-4 * np.linalg.norm(model.K))

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
        policy = InputPolicy(gain=config.initial_gain, probe=spec.probe())
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
                             [(1, 3), (1, 4), (1, 5), (1, 10), (1, 12),
                              (1, 15), (2, 8)])
    def test_weak_probe_lands_on_the_optimum(self, sinusoids, seed,
                                             consensus_a_optimum):
        # A joint regression in P and the gain entries, the paper's form,
        # returned errors up to 5.4e-3 on these draws at the scenario's own
        # tol, and (1, 3) and (1, 12) failed a rank gate over [int_xx
        # int_xu] (condition near 1e17); evaluating P alone gives at most
        # 3.3e-5.
        config, data = _spec_data(_weak_probe_spec(sinusoids, seed))
        learned = srl_synthesize(data, config)
        err = (np.linalg.norm(learned.K - consensus_a_optimum)
               / np.linalg.norm(consensus_a_optimum))
        assert learned.converged
        assert err <= 1e-4


def _weak_probe_spec(sinusoids, seed):
    """consensus-a with a few probe sinusoids per channel."""
    spec = builtin_scenario("consensus-a")
    return dataclasses.replace(spec, exploration=dataclasses.replace(
        spec.exploration, num_sinusoids=sinusoids, seed=seed))


def _spec_data(spec):
    """The config and window blocks of a data-driven run on spec."""
    config = spec.srl_config()
    policy = InputPolicy(gain=config.initial_gain, probe=spec.probe())
    _, data = collect(hide_state_matrix(spec.system()), policy, spec.x0,
                      config)
    return config, data


def _near_gate_spec():
    """consensus-a probed by one sinusoid per channel of amplitude 0.05."""
    spec = builtin_scenario("consensus-a")
    return dataclasses.replace(spec, exploration=dataclasses.replace(
        spec.exploration, num_sinusoids=1, amplitude=0.05))


def _one_tone_spec():
    """consensus-a probed at the single frequency 5 rad/s."""
    spec = builtin_scenario("consensus-a")
    return dataclasses.replace(spec, exploration=dataclasses.replace(
        spec.exploration, freq_min=5.0, freq_max=5.0))


def _transformed_record(T, mask):
    """consensus-a's record and config seen through the state change
    x <- T x, with mask as the config's mask."""
    config, data = _spec_data(builtin_scenario("consensus-a"))
    seen = DataMatrices(delta_xx=T @ data.delta_xx @ T.T,
                        int_xx=T @ data.int_xx @ T.T, int_xu=T @ data.int_xu)
    config = dataclasses.replace(
        config, mask=mask, B=T @ config.B,
        initial_gain=config.initial_gain @ np.linalg.inv(T))
    return config, seen


def _copied_state_record():
    """consensus-a seen through x1 <- x0 + 1e-4 x1."""
    T = np.eye(6)
    T[1, :2] = 1.0, 1e-4
    return _transformed_record(T, SparsityMask.all_ones(6, 6))


# state 1 in units 1000x larger; the diagonal change keeps mask A
_SCALED_STATE = np.diag([1.0, 1e-3, 1.0, 1.0, 1.0, 1.0])


def _scaled_state_record():
    """consensus-a seen through x1 <- 1e-3 x1."""
    return _transformed_record(
        _SCALED_STATE, builtin_scenario("consensus-a").mask)


_BLOCK_RECORDS = {
    "consensus-a": lambda: _spec_data(builtin_scenario("consensus-a")),
    "consensus-b": lambda: _spec_data(builtin_scenario("consensus-b")),
    "n3-m2": _rectangular_data,
}


_RANK_RECORDS = {
    "passing": lambda: _spec_data(builtin_scenario("consensus-a")),
    "one-tone": lambda: _spec_data(_one_tone_spec()),
    "copied-state": _copied_state_record,
    "scaled-state": _scaled_state_record,
}
