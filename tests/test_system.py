import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (NETWORK_A, OPEN_LOOP_EIGS, X0, matrix_exponential_state,
                     random_stable_matrix, rk4_reference)
from structlqr import (CostWeights, InputPolicy, LtiSystem, SimulationDiverged,
                       Trajectory, TruncationWarning, UnstableClosedLoopError,
                       evaluate_cost, evaluate_cost_analytic, is_hurwitz,
                       simulate, spectral_abscissa)


@pytest.fixture
def network():
    return LtiSystem(A=NETWORK_A, B=np.eye(6))


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


class TestSpectralAbscissa:
    def test_negative_identity(self):
        assert spectral_abscissa(-np.eye(4)) == pytest.approx(-1.0)

    def test_network_has_zero_mode(self, network):
        assert abs(spectral_abscissa(network.A)) < 1e-8
        assert not is_hurwitz(network.A)

    def test_network_spectrum_matches_reference(self, network):
        eigs = np.sort(np.linalg.eigvals(network.A).real)
        assert np.allclose(eigs, sorted(OPEN_LOOP_EIGS), atol=0.01)


class TestSimulate:
    def test_zero_dynamics_constant_state(self):
        sys = LtiSystem(A=np.zeros((6, 6)), B=np.eye(6))
        traj = simulate(sys, InputPolicy.zero(), X0, horizon=1.0, dt=0.01)
        assert np.allclose(traj.states, X0, atol=0.0)
        assert traj.states.shape == (101, 6)

    def test_sample_count(self, network):
        traj = simulate(network, InputPolicy.zero(), X0, horizon=1.4, dt=0.01)
        assert len(traj.times) == 141

    def test_rotation_against_closed_form(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = LtiSystem(A=A, B=np.zeros((2, 1)))
        x0 = np.array([1.0, 0.0])
        horizon = 2 * np.pi
        traj = simulate(sys, InputPolicy.zero(), x0, horizon, dt=horizon / 628)
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
            traj = simulate(sys, InputPolicy.zero(), x0, horizon, dt=dt,
                            substeps=1)
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0

    def test_network_converges_to_consensus(self, network):
        traj = simulate(network, InputPolicy.zero(), X0, horizon=20.0, dt=0.01)

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
            simulate(sys, InputPolicy.zero(), np.array([1.0]), horizon=2.0,
                     dt=0.01)
        assert 0.0 < err.value.time <= 2.0
        with pytest.raises(SimulationDiverged) as ref:
            rk4_reference(sys, InputPolicy.zero(), np.array([1.0]), 2.0,
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
                simulate(sys, InputPolicy.zero(), x0, horizon=2.0, dt=0.01)
        with pytest.raises(SimulationDiverged) as ref:
            rk4_reference(sys, InputPolicy.zero(), x0, 2.0, dt=0.01)
        assert err.value.time == ref.value.time == pytest.approx(0.06)

    def test_unexcited_stiff_mode_is_not_divergence(self):
        # the 6000/s mode grows by 4e20 per recorded step and is never
        # excited: a blocked scan whose power table overflowed would read
        # 0 * inf = nan there and report divergence at 0.15 s
        sys = LtiSystem(A=np.diag([-1.0, 6000.0]), B=np.eye(2))
        x0 = np.array([1.0, 0.0])
        traj = simulate(sys, InputPolicy.zero(), x0, horizon=40.0, dt=0.01)
        states, _ = rk4_reference(sys, InputPolicy.zero(), x0, 40.0, dt=0.01)
        assert np.all(traj.states[:, 1] == 0.0)
        assert np.max(np.abs(traj.states - states)) <= 1e-12

    def test_temporaries_stay_bounded(self):
        # feedback only on a 40-agent ring over 1e5 recorded steps: above
        # the returned 64 MB record the peak holds the scan's segment
        # buffers and a few 0.8 MB time-grid arrays, not a second record
        from structlqr.experiments import ring_scenario

        spec = ring_scenario(40)
        policy = InputPolicy.feedback(spec.resolve_initial_gain())
        tracemalloc.start()
        try:
            traj = simulate(spec.system(), policy, spec.x0, 1000.0, dt=0.01,
                            substeps=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 100001
        assert peak < traj.states.nbytes + traj.inputs.nbytes + 8e6

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
            policy = (InputPolicy.feedback(3.0 * np.eye(6))
                      if case == "feedback-substeps" else InputPolicy.zero())
            args, kwargs = (X0, 6.0), dict(dt=0.01, substeps=10)
        traj = simulate(sys, policy, *args, **kwargs)
        states, inputs = rk4_reference(sys, policy, *args, **kwargs)
        for got, want in ((traj.states, states), (traj.inputs, inputs)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_recorded_inputs_are_applied_inputs(self, network):
        K = 0.5 * np.eye(6)
        traj = simulate(network, InputPolicy.feedback(K), X0, 0.2, dt=0.01)
        assert np.allclose(traj.inputs, -traj.states @ K.T)


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
        with pytest.raises(UnstableClosedLoopError):
            evaluate_cost(network, w, np.zeros((6, 6)), X0)
        with pytest.raises(UnstableClosedLoopError):
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

    def test_truncation_warning_at_cap(self):
        sys = LtiSystem(A=np.array([[-0.05]]), B=np.array([[1.0]]))
        w = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
        with pytest.warns(TruncationWarning):
            evaluate_cost(sys, w, np.array([[0.0]]), np.array([1.0]))

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
