import time
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (NETWORK_A, OPEN_LOOP_EIGS, TRIANGLE_A, X0,
                     matrix_exponential_state, random_stable_matrix,
                     rk4_reference, spectral_abscissa)
from structlqr import (CostWeights, ExplorationSignal, InputPolicy, LtiSystem,
                       SimulationDiverged, Trajectory, UnstableClosedLoopError,
                       evaluate_cost, evaluate_cost_analytic,
                       make_exploration, simulate, solve_lyapunov)


@pytest.fixture
def network():
    return LtiSystem(A=NETWORK_A, B=np.eye(6))


@pytest.fixture
def probe_calls(monkeypatch):
    """The times at which any ExplorationSignal is called, in call order."""
    calls, call = [], ExplorationSignal.__call__

    def spy(signal, t):
        calls.append(t)
        return call(signal, t)

    monkeypatch.setattr(ExplorationSignal, "__call__", spy)
    return calls


class TestTypes:
    def test_system_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LtiSystem(A=np.zeros((5, 6)), B=np.zeros((5, 1)))
        with pytest.raises(ValueError):
            LtiSystem(A=np.zeros((3, 3)), B=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            LtiSystem(A=np.array([[np.nan]]), B=np.array([[1.0]]))

    def test_system_dimensions(self, network):
        assert network.n == 6 and network.m == 6

    def test_weights_symmetrize_and_check(self):
        w = CostWeights(Q=np.eye(2) + 1e-14 * np.array([[0, 1], [0, 0]]), R=np.eye(2))
        assert np.array_equal(w.Q, w.Q.T)
        with pytest.raises(ValueError):
            CostWeights(Q=np.eye(2), R=np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            CostWeights(Q=-np.eye(2), R=np.eye(2))
        with pytest.raises(ValueError):
            CostWeights(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(2))

    def test_trajectory_invariants(self):
        t = np.array([0.0, 0.1, 0.2])
        x = np.zeros((3, 2))
        u = np.zeros((3, 1))
        traj = Trajectory(times=t, states=x, inputs=u)
        assert traj.dt == pytest.approx(0.1)
        with pytest.raises(ValueError):
            Trajectory(times=t[:2], states=x, inputs=u)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.2, 0.25]), states=x, inputs=u)

    @pytest.mark.parametrize("field, value, message", [
        ("times", np.zeros((3, 1)), r"times must be 1-D, got shape \(3, 1\)"),
        ("states", [1.0, 2.0, 3.0], r"states must be 2-D, got shape \(3,\)"),
        ("states", np.zeros((3, 2, 1)),
         r"states must be 2-D, got shape \(3, 2, 1\)"),
        ("inputs", [1.0, 2.0, 3.0], r"inputs must be 2-D, got shape \(3,\)"),
    ])
    def test_trajectory_rejects_arrays_of_the_wrong_rank(self, field, value,
                                                          message):
        # a record from a wrapped plant reaches the window assembly as is
        arrays = dict(times=[0.0, 0.5, 1.0], states=np.zeros((3, 2)),
                      inputs=np.zeros((3, 1)))
        arrays[field] = value
        with pytest.raises(ValueError, match=message):
            Trajectory(**arrays)

    @pytest.mark.parametrize("field, value", [
        ("times", [0.0, 0.1, np.nan, 0.3, 0.4]),
        ("states", np.full((5, 2), np.nan)),
        ("inputs", [[0.0], [0.0], [np.inf], [0.0], [0.0]]),
    ])
    def test_trajectory_rejects_non_finite_entries(self, field, value):
        # NaN fails every comparison, so the spacing check cannot see it
        arrays = dict(times=0.1 * np.arange(5), states=np.zeros((5, 2)),
                      inputs=np.zeros((5, 1)))
        arrays[field] = value
        with pytest.raises(ValueError,
                           match=f"^{field} has non-finite entries$"):
            Trajectory(**arrays)

    @pytest.mark.parametrize("make, name", [
        (lambda: LtiSystem(A=np.zeros((0, 0)), B=np.zeros((0, 1))), "A"),
        (lambda: LtiSystem(A=-np.eye(2), B=np.zeros((2, 0))), "B"),
        (lambda: CostWeights(Q=np.zeros((0, 0)), R=np.zeros((0, 0))), "Q"),
        (lambda: solve_lyapunov(np.zeros((0, 0)), np.zeros((0, 0))), "M"),
    ], ids=["A", "B", "Q", "M"])
    def test_empty_matrix_is_named(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must not be empty, "
                           r"got shape \(\d, \d\)$"):
            make()


class TestSpectralAbscissa:
    def test_negative_identity(self):
        # the eigvals oracle and the library's stability rule agree
        assert spectral_abscissa(-np.eye(4)) == pytest.approx(-1.0)
        sys = LtiSystem(A=-np.eye(4), B=np.eye(4))
        w = CostWeights(Q=np.eye(4), R=np.eye(4))
        J = evaluate_cost(sys, w, np.zeros((4, 4)), np.ones(4))
        assert J == pytest.approx(2.0, rel=1e-6)

    def test_network_has_zero_mode(self, network):
        # NETWORK_A's zero mode rounds positive, TRIANGLE_A's negative: the
        # rule rejects both
        for A in (network.A, TRIANGLE_A):
            assert abs(spectral_abscissa(A)) < 1e-8
            n = len(A)
            sys = LtiSystem(A=A, B=np.eye(n))
            w = CostWeights(Q=np.eye(n), R=np.eye(n))
            with pytest.raises(UnstableClosedLoopError,
                               match=r"^closed loop is not Hurwitz"):
                evaluate_cost(sys, w, np.zeros((n, n)), np.ones(n))

    def test_band_around_the_axis_is_half_the_spectral_tolerance(self):
        # |lambda| < 1, so the band is 5e-13 wide: -6e-13 passes (the
        # README's drift example), -4e-13 is named as within it
        w = CostWeights(Q=np.eye(1), R=np.eye(1))
        K, x0 = np.zeros((1, 1)), np.ones(1)
        slow = LtiSystem(A=np.array([[-6e-13]]), B=np.eye(1))
        assert evaluate_cost(slow, w, K, x0) == pytest.approx(9.007e11,
                                                              rel=1e-3)
        marginal = LtiSystem(A=np.array([[-4e-13]]), B=np.eye(1))
        with pytest.raises(UnstableClosedLoopError) as err:
            evaluate_cost(marginal, w, K, x0)
        assert str(err.value) == (
            "closed loop is not Hurwitz (spectral abscissa -4e-13, within "
            "5e-13 of the imaginary axis)")

    def test_network_spectrum_matches_reference(self, network):
        eigs = np.sort(np.linalg.eigvals(network.A).real)
        assert np.allclose(eigs, sorted(OPEN_LOOP_EIGS), atol=0.01)


class TestSimulate:
    def test_zero_dynamics_constant_state(self):
        sys = LtiSystem(A=np.zeros((6, 6)), B=np.eye(6))
        traj = simulate(sys, InputPolicy(), X0, horizon=1.0, dt=0.01)
        assert np.allclose(traj.states, X0, atol=0.0)
        assert traj.states.shape == (101, 6)

    def test_sample_count(self, network):
        traj = simulate(network, InputPolicy(), X0, horizon=1.4, dt=0.01)
        assert len(traj.times) == 141

    def test_rotation_against_closed_form(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = LtiSystem(A=A, B=np.zeros((2, 1)))
        x0 = np.array([1.0, 0.0])
        horizon = 2 * np.pi
        traj = simulate(sys, InputPolicy(), x0, horizon, dt=horizon / 628)
        assert traj.times[-1] == pytest.approx(horizon, abs=1e-12)
        assert np.linalg.norm(traj.states[-1] - x0) < 1e-6
        # closed-form solution at every recorded instant
        mid = len(traj.times) // 2
        expected = matrix_exponential_state(A, x0, traj.times[mid])
        assert np.linalg.norm(traj.states[mid] - expected) < 1e-6

    def test_rk4_order_ratio(self):
        A = np.array([[0.0, 1.0], [-1.0, -0.3]])
        sys = LtiSystem(A=A, B=np.zeros((2, 1)))
        x0 = np.array([1.0, 0.5])
        horizon = 2.0
        exact = matrix_exponential_state(A, x0, horizon)
        errs = []
        for dt in (0.02, 0.01):
            traj = simulate(sys, InputPolicy(), x0, horizon, dt=dt,
                            substeps=1)
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0

    def test_network_converges_to_consensus(self, network):
        traj = simulate(network, InputPolicy(), X0, horizon=20.0, dt=0.01)

        def consensus_distance(x):
            return np.linalg.norm(x - np.mean(x))

        assert consensus_distance(traj.states[-1]) < 1e-5
        assert consensus_distance(traj.states[-1]) < consensus_distance(X0)
        # the average is conserved by the zero-row-sum symmetric dynamics
        assert np.mean(traj.states[-1]) == pytest.approx(np.mean(X0), abs=1e-9)

    def test_determinism(self, network):
        from structlqr import make_exploration
        probe = make_exploration(3, 6, num_sinusoids=10)
        policy = InputPolicy.feedback_with_probe(0.5 * np.eye(6), probe)
        t1 = simulate(network, policy, X0, 0.5, dt=0.01)
        t2 = simulate(network, policy, X0, 0.5, dt=0.01)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.inputs, t2.inputs)

    def test_divergence_raises_with_time(self):
        sys = LtiSystem(A=np.array([[600.0]]), B=np.array([[1.0]]))
        with pytest.raises(SimulationDiverged) as err:
            simulate(sys, InputPolicy(), np.array([1.0]), horizon=2.0,
                     dt=0.01)
        assert 0.0 < err.value.time <= 2.0
        with pytest.raises(SimulationDiverged) as ref:
            rk4_reference(sys, InputPolicy(), np.array([1.0]), 2.0,
                          dt=0.01)
        assert err.value.time == ref.value.time

    def test_divergence_overflowing_later_in_the_block(self):
        # the state passes 1e150 at the 6th sample, then reaches inf and nan
        # within the same block of steps: no overflow warning may leak
        sys = LtiSystem(A=6000.0 * np.array([[1.0, 1.0], [1.0, -1.0]]),
                        B=np.eye(2))
        x0 = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationDiverged) as err:
                simulate(sys, InputPolicy(), x0, horizon=2.0, dt=0.01)
        with pytest.raises(SimulationDiverged) as ref:
            rk4_reference(sys, InputPolicy(), x0, 2.0, dt=0.01)
        assert err.value.time == ref.value.time == pytest.approx(0.06)

    def test_unexcited_stiff_mode_is_not_divergence(self):
        # the 6000/s mode grows by 4e20 per recorded step and is never
        # excited: a blocked scan whose power table overflowed would read
        # 0 * inf = nan there and report divergence at 0.15 s
        sys = LtiSystem(A=np.diag([-1.0, 6000.0]), B=np.eye(2))
        x0 = np.array([1.0, 0.0])
        traj = simulate(sys, InputPolicy(), x0, horizon=40.0, dt=0.01)
        states, _ = rk4_reference(sys, InputPolicy(), x0, 40.0, dt=0.01)
        assert np.all(traj.states[:, 1] == 0.0)
        assert np.max(np.abs(traj.states - states)) <= 1e-12

    def test_temporaries_stay_bounded(self):
        # feedback only on a 40-agent ring over 1e5 recorded steps: above
        # the returned 64 MB record the peak holds the scan's segment
        # buffers and a few 0.8 MB time-grid arrays, not a second record
        from structlqr.experiments import ring_scenario

        spec = ring_scenario(40)
        policy = InputPolicy(gain=spec.initial_gain)
        tracemalloc.start()
        try:
            traj = simulate(spec.system(), policy, spec.x0, 1000.0, dt=0.01,
                            substeps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 100001
        assert peak < traj.states.nbytes + traj.inputs.nbytes + 8e6

    def test_probed_temporaries_stay_bounded(self, network):
        # a probed run over 5e4 recorded steps, 5 segments: above the
        # returned record the peak holds a few segment-sized buffers (0.5
        # MB each here, m = n), not the probe at every RK4 stage time
        from structlqr.system import _SEGMENT_ENTRIES

        probe = make_exploration(0, 6, num_sinusoids=1)
        policy = InputPolicy.feedback_with_probe(0.5 * np.eye(6), probe)
        tracemalloc.start()
        try:
            traj = simulate(network, policy, X0, 500.0, dt=0.01, substeps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = traj.times.nbytes + traj.states.nbytes + traj.inputs.nbytes
        assert len(traj.times) == 50001
        assert peak < record + 8 * (8 * _SEGMENT_ENTRIES)

    def test_probed_temporaries_do_not_grow_with_substeps(self, network):
        # 250 recorded steps of 200 substeps each: a segment of as many rows
        # as the feedback-only scan takes would hold 300,000 probe samples
        # per buffer (2.4 MB), so its rows shrink to fit the samples
        from structlqr.system import _SEGMENT_ENTRIES

        probe = make_exploration(0, 6, num_sinusoids=1)
        policy = InputPolicy.feedback_with_probe(0.5 * np.eye(6), probe)
        tracemalloc.start()
        try:
            traj = simulate(network, policy, X0, 0.25, dt=1e-3, substeps=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = traj.times.nbytes + traj.states.nbytes + traj.inputs.nbytes
        assert len(traj.times) == 251
        assert peak < record + 8 * (8 * _SEGMENT_ENTRIES)

    @pytest.mark.parametrize("case", ["consensus-a", "consensus-b",
                                      "feedback-substeps", "zero-policy"])
    def test_matches_per_stage_rk4(self, case):
        from structlqr.experiments import builtin_scenario

        if case.startswith("consensus"):
            # the full exploration run of the data-driven route
            spec = builtin_scenario(case)
            config = spec.srl_config()
            sys = spec.system()
            policy = InputPolicy.feedback_with_probe(config.initial_gain,
                                                     spec.probe())
            args = (spec.x0, config.num_windows * config.window)
            kwargs = dict(dt=config.dt, substeps=1)
        else:
            sys = LtiSystem(A=NETWORK_A, B=np.eye(6))
            policy = (InputPolicy(gain=3.0 * np.eye(6))
                      if case == "feedback-substeps" else InputPolicy())
            args, kwargs = (X0, 6.0), dict(dt=0.01, substeps=10)
        traj = simulate(sys, policy, *args, **kwargs)
        states, inputs = rk4_reference(sys, policy, *args, **kwargs)
        for got, want in ((traj.states, states), (traj.inputs, inputs)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_recorded_inputs_are_applied_inputs(self, network):
        K = 0.5 * np.eye(6)
        traj = simulate(network, InputPolicy(gain=K), X0, 0.2, dt=0.01)
        assert np.allclose(traj.inputs, -traj.states @ K.T)

    @pytest.mark.parametrize("parts", ["zero", "probe", "gain", "both"])
    def test_recorded_inputs_are_probe_minus_feedback_bits(self, network,
                                                           parts):
        probe = make_exploration(3, 6, num_sinusoids=10)
        K = 0.5 * np.eye(6)
        policy = InputPolicy(gain=K if parts in ("gain", "both") else None,
                             probe=probe if parts in ("probe", "both")
                             else None)
        traj = simulate(network, policy, X0, 0.2, dt=0.01, substeps=1)
        u0 = (np.array([probe(t) for t in traj.times])
              if policy.probe is not None else np.zeros_like(traj.inputs))
        want = u0 if policy.gain is None else u0 - traj.states @ K.T
        assert np.array_equal(traj.inputs, want)

    @pytest.mark.parametrize("width", [1, 2])
    def test_probe_of_another_width_is_error(self, network, width,
                                             probe_calls):
        policy = InputPolicy(probe=make_exploration(0, width))
        with pytest.raises(ValueError, match="^probe must have 6 channels, "
                           f"got {width}$"):
            simulate(network, policy, X0, 0.05, dt=1e-3)
        assert probe_calls == []  # rejected before any sample is drawn

    def test_probe_must_be_an_exploration_signal(self):
        signal = make_exploration(0, 6)
        with pytest.raises(ValueError, match="^probe must be an "
                           "ExplorationSignal, got function$"):
            InputPolicy(probe=lambda t: signal(t))

    def test_probe_is_sampled_once_per_stage_time(self, network, probe_calls):
        simulate(network, InputPolicy(probe=make_exploration(0, 6)), X0, 0.05,
                 dt=1e-2, substeps=2)
        assert len(probe_calls) == (5 * 2 + 1) + 5 * 2  # 11 starts, 10 mids

    def test_segments_sample_each_stage_time_once_in_order(
            self, network, monkeypatch, probe_calls):
        # 60 state entries a segment: 10 recorded steps, so 35 steps take 4
        # segments; each draws its own starts and midpoints, and the
        # start it shares with the segment before is carried, not redrawn
        import structlqr.system

        monkeypatch.setattr(structlqr.system, "_SEGMENT_ENTRIES", 60)
        policy = InputPolicy(gain=0.5 * np.eye(6),
                             probe=make_exploration(0, 6))
        traj = simulate(network, policy, X0, 0.35, dt=1e-2, substeps=3)
        h = 1e-2 / 3
        starts = (h * np.arange(35 * 3 + 1)).tolist()
        mids = (h * np.arange(35 * 3) + 0.5 * h).tolist()
        assert len(probe_calls) == 2 * 35 * 3 + 1
        for grid in (starts, mids):
            members = set(grid)
            assert [t for t in probe_calls if t in members] == grid
        # the record of one segment, to rounding
        monkeypatch.undo()
        whole = simulate(network, policy, X0, 0.35, dt=1e-2, substeps=3)
        for got, want in ((traj.states, whole.states),
                          (traj.inputs, whole.inputs)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_divergence_stops_the_probe_at_its_segment(self, monkeypatch,
                                                       probe_calls):
        # 10 steps a segment: the state passes 1e150 at 0.73 s, in the 8th
        # segment of 200, so the probe is drawn up to 0.8 s and no further
        import structlqr.system

        monkeypatch.setattr(structlqr.system, "_SEGMENT_ENTRIES", 10)
        sys = LtiSystem(A=np.array([[600.0]]), B=np.array([[1.0]]))
        with pytest.raises(SimulationDiverged) as err:
            simulate(sys, InputPolicy(probe=make_exploration(0, 1)),
                     np.array([1.0]), horizon=20.0, dt=0.01, substeps=1)
        assert err.value.time == pytest.approx(0.73)
        assert len(probe_calls) == 2 * 80 + 1 < 2 * 2000 + 1
        assert max(probe_calls) == pytest.approx(0.8)

    def test_policy_converts_its_gain(self, network):
        K = [[0.5 * (i == j) for j in range(6)] for i in range(6)]
        traj = simulate(network, InputPolicy(gain=K), X0, 0.2, dt=0.01)
        want = simulate(network, InputPolicy(gain=np.array(K)), X0, 0.2,
                        dt=0.01)
        assert np.array_equal(traj.states, want.states)
        assert np.array_equal(traj.inputs, want.inputs)

    def test_policy_rejects_a_non_finite_gain(self):
        K = np.eye(6)
        K[2, 3] = np.inf
        for make in (lambda: InputPolicy(gain=K),
                     lambda: InputPolicy.feedback_with_probe(K, None)):
            with pytest.raises(ValueError,
                               match="^feedback gain has non-finite entries$"):
                make()


class TestCost:
    def test_zero_weight_zero_gain(self):
        sys = LtiSystem(A=-np.eye(3), B=np.eye(3))
        w = CostWeights(Q=np.zeros((3, 3)), R=np.eye(3))
        J = evaluate_cost(sys, w, np.zeros((3, 3)), np.ones(3))
        assert J == 0.0

    def test_scalar_analytic(self):
        sys = LtiSystem(A=np.array([[-1.0]]), B=np.array([[0.0]]))
        w = CostWeights(Q=np.array([[2.0]]), R=np.array([[1.0]]))
        J = evaluate_cost_analytic(sys, w, np.array([[0.0]]), np.array([1.0]))
        assert J == pytest.approx(1.0, abs=1e-12)

    def test_unstable_loop_is_error_not_huge_number(self, network):
        w = CostWeights(Q=np.eye(6), R=np.eye(6))
        with pytest.raises(UnstableClosedLoopError,
                           match=r"^closed loop is not Hurwitz"):
            evaluate_cost(network, w, np.zeros((6, 6)), X0)
        with pytest.raises(UnstableClosedLoopError,
                           match=r"^M is not Hurwitz \(spectral abscissa"):
            evaluate_cost_analytic(network, w, np.zeros((6, 6)), X0)

    def test_quadrature_matches_analytic(self, network):
        from structlqr import kleinman_structured
        from structlqr.structure import SparsityMask

        w = CostWeights(Q=30.0 * np.eye(6), R=np.eye(6))
        mask = SparsityMask.all_ones(6, 6)
        res = kleinman_structured(network, w, mask, 10.0 * np.eye(6))
        Jq = evaluate_cost(network, w, res.K, X0)
        Ja = evaluate_cost_analytic(network, w, res.K, X0)
        assert Jq == pytest.approx(Ja, rel=1e-3)

    def test_slow_loop_is_summed_to_infinity(self):
        # x(t) = exp(-0.05 t): the exact cost 10 needs t far past 50 s
        sys = LtiSystem(A=np.array([[-0.05]]), B=np.array([[1.0]]))
        w = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
        J = evaluate_cost(sys, w, np.array([[0.0]]), np.array([1.0]))
        assert J == pytest.approx(10.0, rel=1e-8)

    def test_drift_near_the_hurwitz_boundary_within_the_stated_bound(self):
        # the step map 1 + h lam rounds to a multiple of 2^-53, so the sum
        # may be off by 2^-54 / (h |lam|) relative, as the docstring says
        lam = -1e-9
        sys = LtiSystem(A=np.array([[lam]]), B=np.array([[1.0]]))
        w = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
        K, x0 = np.array([[0.0]]), np.array([1.0])
        Jq = evaluate_cost(sys, w, K, x0)
        Ja = evaluate_cost_analytic(sys, w, K, x0)
        assert Ja == pytest.approx(0.5 / abs(lam), rel=1e-12)
        assert abs(Jq - Ja) <= 2.0**-54 / (1e-3 * abs(lam)) * Ja

    @pytest.mark.parametrize("A, x0", [
        (np.diag([-5000.0, -1.0]), np.array([1.0, 1.0])),
        (np.diag([-5000.0, -1.0]), np.array([0.0, 1.0])),
        (np.diag([-5000.0, -1.0]), np.array([1.0, 0.0])),
        (np.array([[-1000.0]]), np.array([1.0])),
        (np.array([[-np.sqrt(1e7)]]), np.array([1.0]))])
    def test_fast_loop_takes_a_finer_step(self, A, x0):
        # RK4 at 1 ms would amplify a -5000/s mode by 13.7 a step; the step
        # 0.02 / max|lambda| keeps the sum within the docstring's
        # (2 h |lambda|)^2 / 12 <= 1.4e-4 of the closed form
        sys = LtiSystem(A=A, B=np.eye(len(x0)))
        w = CostWeights(Q=np.eye(len(x0)), R=np.eye(len(x0)))
        K = np.zeros((len(x0), len(x0)))
        Jq = evaluate_cost(sys, w, K, x0)
        Ja = evaluate_cost_analytic(sys, w, K, x0)
        assert abs(Jq - Ja) <= 1.4e-4 * Ja

    def test_step_map_of_spectral_radius_one_diverges(self):
        # 1 - 1e-20 would round to 1 and the sum grow without bound; the
        # stability rule stops the loop first, within 5e-13 of the axis
        sys = LtiSystem(A=np.array([[-1e-17]]), B=np.array([[1.0]]))
        w = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
        with pytest.raises(UnstableClosedLoopError) as err:
            evaluate_cost(sys, w, np.array([[0.0]]), np.array([1.0]))
        assert str(err.value) == (
            "closed loop is not Hurwitz (spectral abscissa -1e-17, within "
            "5e-13 of the imaginary axis)")

    def test_doubling_cap_stops_an_unsettled_sum(self, monkeypatch):
        # a slow loop that passes the gate but needs far more than 2^8 steps
        # to settle: with the cap at 8 it stops at the time the 8th reaches
        import structlqr.system

        monkeypatch.setattr(structlqr.system, "_COST_DOUBLINGS", 8)
        sys = LtiSystem(A=np.array([[-1e-6]]), B=np.array([[1.0]]))
        w = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
        start = time.perf_counter()
        with pytest.raises(SimulationDiverged) as err:
            evaluate_cost(sys, w, np.array([[0.0]]), np.array([1.0]))
        assert time.perf_counter() - start < 1.0
        assert err.value.time == pytest.approx(1e-3 * 2.0**8, rel=1e-12)

    @pytest.mark.parametrize("case", ["consensus-a", "non-normal"])
    def test_trapezoid_on_the_rk4_grid_oracle(self, case):
        # the per-step RK4 loop over a horizon where the tail is below
        # rounding, then the trapezoid rule on its record
        if case == "consensus-a":
            from structlqr import kleinman_structured
            from structlqr.experiments import builtin_scenario
            spec = builtin_scenario(case)
            sys, w, x0 = spec.system(), spec.weights(), spec.x0
            K = kleinman_structured(sys, w, spec.mask, spec.initial_gain).K
            horizon = 12.0
        else:
            rng = np.random.default_rng(4)
            A = np.triu(rng.standard_normal((5, 5)), 1) * 4.0 - np.eye(5)
            sys = LtiSystem(A=A, B=rng.standard_normal((5, 2)))
            w = CostWeights(Q=np.eye(5), R=np.eye(2))
            K, x0 = np.zeros((2, 5)), rng.standard_normal(5)
            horizon = 40.0
        states, inputs = rk4_reference(sys, InputPolicy(gain=K), x0, horizon,
                                       dt=1e-3, substeps=1)
        running = (np.einsum("ti,ij,tj->t", states, w.Q, states)
                   + np.einsum("ti,ij,tj->t", inputs, w.R, inputs))
        assert running[-1] < 1e-16 * running.max()
        expected = 1e-3 * (running.sum() - 0.5 * (running[0] + running[-1]))
        J = evaluate_cost(sys, w, K, x0)
        assert J == pytest.approx(expected, rel=1e-12)

    def test_random_stable_quadrature_cross_check(self):
        rng = np.random.default_rng(11)
        A = random_stable_matrix(rng, 4)
        sys = LtiSystem(A=A, B=rng.standard_normal((4, 2)))
        w = CostWeights(Q=np.eye(4), R=np.eye(2))
        K = np.zeros((2, 4))
        x0 = rng.standard_normal(4)
        Jq = evaluate_cost(sys, w, K, x0)
        Ja = evaluate_cost_analytic(sys, w, K, x0)
        assert Jq == pytest.approx(Ja, rel=1e-3)
