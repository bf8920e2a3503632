import numpy as np
import pytest
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

from helpers import (NETWORK_A, REFERENCE_GAIN_A, REFERENCE_GAIN_UNSTRUCTURED,
                     X0, ZEROS_A, lyapunov_integral_oracle,
                     random_stable_matrix)
from structlqr import (ConvergenceError, CostWeights, IterateDestabilizedError,
                       LtiSystem, NotStabilizingError, SparsityMask,
                       check_membership, evaluate_cost_analytic,
                       find_stabilizing_gain, is_hurwitz, kleinman_structured,
                       modified_are_residual, solve_lyapunov,
                       solve_unstructured_lqr, spectral_abscissa,
                       suboptimality_bound)


@pytest.fixture
def network():
    return LtiSystem(A=NETWORK_A, B=np.eye(6))


@pytest.fixture
def weights():
    return CostWeights(Q=30.0 * np.eye(6), R=np.eye(6))


@pytest.fixture
def mask_a():
    return SparsityMask.from_zero_positions(6, 6, ZEROS_A)


def masked_identity_gain(mask, scale=10.0):
    return scale * (np.eye(6) * mask.indicator)


class TestSolveLyapunov:
    def test_negative_identity(self):
        P = solve_lyapunov(-np.eye(3), 2.0 * np.eye(3))
        assert np.allclose(P, np.eye(3), atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(2, 8)
            M = random_stable_matrix(rng, n)
            G = rng.standard_normal((n, n))
            S = G.T @ G
            P = solve_lyapunov(M, S)
            res = np.linalg.norm(M.T @ P + P @ M + S, "fro")
            assert res <= 1e-9 * (1.0 + np.linalg.norm(S, "fro"))
            assert np.array_equal(P, P.T)

    def test_against_scipy(self):
        rng = np.random.default_rng(1)
        M = random_stable_matrix(rng, 5)
        G = rng.standard_normal((5, 5))
        S = G.T @ G
        assert np.allclose(solve_lyapunov(M, S),
                           solve_continuous_lyapunov(M.T, -S), atol=1e-9)

    def test_against_integral_oracle(self, network, weights):
        K0 = 0.1 * np.eye(6)
        M = network.A - network.B @ K0
        S = weights.Q + K0.T @ weights.R @ K0
        P = solve_lyapunov(M, S)
        P_quad = lyapunov_integral_oracle(M, S)
        assert np.linalg.norm(P - P_quad, "fro") <= 1e-6

    def test_non_hurwitz_rejected(self, network):
        with pytest.raises(NotStabilizingError):
            solve_lyapunov(network.A, np.eye(6))  # zero mode

    def test_asymmetric_s_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestKleinmanStructured:
    def test_all_ones_recovers_classical_lqr(self, network, weights):
        res = solve_unstructured_lqr(network, weights,
                                     initial_gain=10.0 * np.eye(6))
        P_care = solve_continuous_are(network.A, network.B, weights.Q, weights.R)
        K_care = np.linalg.solve(weights.R, network.B.T @ P_care)
        assert np.linalg.norm(res.K - K_care, "fro") < 1e-5
        assert np.max(np.abs(res.K - REFERENCE_GAIN_UNSTRUCTURED)) < 0.02
        assert abs(res.K[0, 0] - 2.9234) < 0.02

    def test_structure_a_matches_reference(self, network, weights, mask_a):
        res = kleinman_structured(network, weights, mask_a,
                                  masked_identity_gain(mask_a))
        assert res.converged
        assert np.max(np.abs(res.K - REFERENCE_GAIN_A)) < 0.05
        off = res.K * mask_a.complement
        assert np.array_equal(off, np.zeros((6, 6)))
        assert res.K[2, 2] == pytest.approx(2.9976, abs=0.01)

    def test_history_and_invariants(self, network, weights, mask_a):
        res = kleinman_structured(network, weights, mask_a,
                                  masked_identity_gain(mask_a))
        assert res.iterations == len(res.history)
        assert res.history[-1].delta_P < 1e-6
        # symmetric positive-definite value matrix
        assert np.max(np.abs(res.P - res.P.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(res.P)) > 0.0
        # gain/deviation split reassembles the unconstrained update
        phi = np.linalg.solve(weights.R, network.B.T @ res.P)
        assert np.max(np.abs(res.K + res.L - phi)) <= 1e-8
        # every accepted iterate keeps the loop Hurwitz
        for rec in res.history:
            assert is_hurwitz(network.A - network.B @ rec.K)

    def test_weak_initial_gain_destabilizes_first_update(self, network, weights,
                                                         mask_a):
        K0 = masked_identity_gain(mask_a, scale=0.1)
        assert is_hurwitz(network.A - network.B @ K0)
        with pytest.raises(IterateDestabilizedError) as err:
            kleinman_structured(network, weights, mask_a, K0)
        assert err.value.iteration == 1

    def test_nonstabilizing_initial_gain_rejected(self, network, weights, mask_a):
        with pytest.raises(NotStabilizingError):
            kleinman_structured(network, weights, mask_a, np.zeros((6, 6)))

    @pytest.mark.parametrize("knob, value", [
        ("tol", 0.0), ("tol", float("nan")), ("tol", float("inf")),
        ("max_iter", 0), ("max_iter", -1)])
    def test_stopping_rule_validated(self, network, weights, mask_a, knob,
                                     value):
        with pytest.raises(ValueError, match=knob):
            kleinman_structured(network, weights, mask_a,
                                masked_identity_gain(mask_a), **{knob: value})

    def test_budget_exhaustion_carries_partial_result(self, network, weights,
                                                      mask_a):
        with pytest.raises(ConvergenceError) as err:
            kleinman_structured(network, weights, mask_a,
                                masked_identity_gain(mask_a), max_iter=3)
        partial = err.value.result
        assert partial is not None and not partial.converged
        assert partial.iterations == 3

    def test_structured_cost_dominates_unstructured(self, network, weights,
                                                    mask_a):
        res = kleinman_structured(network, weights, mask_a,
                                  masked_identity_gain(mask_a))
        unstr = solve_unstructured_lqr(network, weights,
                                       initial_gain=10.0 * np.eye(6))
        rng = np.random.default_rng(3)
        for _ in range(10):
            x0 = rng.standard_normal(6)
            assert x0 @ res.P @ x0 >= x0 @ unstr.P @ x0 - 1e-9


class TestModifiedAreResidual:
    def test_zero_deviation_on_care_solution(self, network, weights):
        P = solve_continuous_are(network.A, network.B, weights.Q, weights.R)
        res = modified_are_residual(P, np.zeros((6, 6)), network, weights)
        assert res < 1e-8

    def test_zero_matrices_give_q_norm(self, network, weights):
        res = modified_are_residual(np.zeros((6, 6)), np.zeros((6, 6)),
                                    network, weights)
        assert res == pytest.approx(np.linalg.norm(weights.Q, "fro"))

    def test_converged_synthesis_satisfies_residual_bound(self, network,
                                                          weights, mask_a):
        res = kleinman_structured(network, weights, mask_a,
                                  masked_identity_gain(mask_a))
        residual = modified_are_residual(res.P, res.L, network, weights)
        assert residual <= 1e-6 * np.linalg.norm(weights.Q, "fro")


class TestUnstructuredLqr:
    def test_scalar_closed_form(self):
        sys = LtiSystem(A=np.array([[1.0]]), B=np.array([[1.0]]))
        w = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
        res = solve_unstructured_lqr(sys, w, initial_gain=np.array([[2.0]]))
        assert res.P[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-9)
        assert res.K[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-9)

    def test_vanishing_state_weight(self):
        sys = LtiSystem(A=-np.eye(3), B=np.eye(3))
        w = CostWeights(Q=1e-9 * np.eye(3), R=np.eye(3))
        res = solve_unstructured_lqr(sys, w)
        assert np.linalg.norm(res.P, "fro") < 1e-8

    def test_reference_cost(self, network, weights):
        res = solve_unstructured_lqr(network, weights,
                                     initial_gain=10.0 * np.eye(6))
        J = evaluate_cost_analytic(network, weights, res.K, X0)
        assert abs(J - 12.0428) < 0.02


class TestFindStabilizingGain:
    def test_hurwitz_plant_gets_zero_gain(self):
        sys = LtiSystem(A=-np.eye(3), B=np.eye(3))
        w = CostWeights(Q=np.eye(3), R=np.eye(3))
        K0 = find_stabilizing_gain(sys, w, SparsityMask.all_ones(3, 3))
        assert np.array_equal(K0, np.zeros((3, 3)))

    def test_marginal_plant_gets_scaled_pattern(self, network, weights, mask_a):
        K0 = find_stabilizing_gain(network, weights, mask_a)
        assert is_hurwitz(network.A - network.B @ K0)
        assert check_membership(K0, mask_a, tol=0.0).ok

    def test_unstabilizable_plant_raises(self):
        sys = LtiSystem(A=np.diag([1.0, -1.0]), B=np.array([[0.0], [1.0]]))
        w = CostWeights(Q=np.eye(2), R=np.eye(1))
        with pytest.raises(NotStabilizingError):
            find_stabilizing_gain(sys, w, SparsityMask.all_ones(1, 2))


class TestSuboptimalityBound:
    def test_identity_case_values(self, network, weights, mask_a):
        res = kleinman_structured(network, weights, mask_a,
                                  masked_identity_gain(mask_a))
        unstr = solve_unstructured_lqr(network, weights,
                                       initial_gain=10.0 * np.eye(6))
        J = evaluate_cost_analytic(network, weights, res.K, X0)
        Jbar = evaluate_cost_analytic(network, weights, unstr.K, X0)
        rep = suboptimality_bound(network, weights, X0, J, Jbar,
                                  deviation=res.L)
        assert rep.g == pytest.approx(1.0)  # B = R = I
        # kron-vector norm identity: the bound scales with ||x0||^2 = 2.31
        assert rep.bound == pytest.approx(rep.l / 2.0 * 2.31)
        assert rep.gap == pytest.approx(abs(J - Jbar))
        assert rep.within_bound and rep.gap <= rep.bound
        assert rep.epsilon is not None and rep.epsilon > 0
        assert np.allclose(rep.operator_matrix, network.A - np.eye(6))

    def test_oracle_for_l_constant(self, network, weights):
        # independent route: smallest singular value of the explicit operator
        Mv = network.A - np.eye(6)
        V = np.kron(np.eye(6), Mv.T) + np.kron(Mv.T, np.eye(6))
        sigma_min = np.linalg.svd(V, compute_uv=False)[-1]
        rep = suboptimality_bound(network, weights, X0, 1.0, 1.0)
        assert rep.l == pytest.approx(sigma_min, rel=1e-9)

    def test_zero_input_matrix_rejected(self):
        sys = LtiSystem(A=-np.eye(2), B=np.zeros((2, 1)))
        w = CostWeights(Q=np.eye(2), R=np.eye(1))
        with pytest.raises(ValueError):
            suboptimality_bound(sys, w, np.ones(2), 1.0, 1.0)

    def test_singular_operator_rejected(self):
        # eigenvalues of A - B R^-1 B' are +1 and -1, summing to zero
        sys = LtiSystem(A=np.diag([2.0, 0.0]), B=np.eye(2))
        w = CostWeights(Q=np.eye(2), R=np.eye(2))
        with pytest.raises(ValueError):
            suboptimality_bound(sys, w, np.ones(2), 1.0, 1.0)
