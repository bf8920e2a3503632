import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

from helpers import (NETWORK_A, REFERENCE_GAIN_A, REFERENCE_GAIN_UNSTRUCTURED,
                     TRIANGLE_A, X0, ZEROS_A, kron_bound_constant_oracle,
                     kron_lyapunov_oracle, lyapunov_integral_oracle,
                     random_laplacian, random_stable_matrix,
                     spectral_abscissa)
from structlqr import (ConvergenceError, CostWeights, InputPolicy, LtiSystem,
                       SparsityMask, SrlConfig, UnstableClosedLoopError,
                       evaluate_cost, evaluate_cost_analytic,
                       kleinman_structured, modified_are_residual, simulate,
                       solve_lyapunov, solve_unstructured_lqr,
                       suboptimality_bound)
from structlqr.experiments import (builtin_scenario,
                                   make_consensus_network, ring_scenario,
                                   run_model_based)


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


def directed_ring_m(n):
    """A - B R^-1 B' of ring_scenario(n) with a skew ring coupling
    (S - S') / 2 added to A, S the cyclic shift: not symmetric."""
    spec = ring_scenario(n)
    S = np.roll(np.eye(n), 1, axis=1)
    G = spec.B @ np.linalg.solve(spec.R, spec.B.T)
    return spec.A + 0.5 * (S - S.T) - G


def count_calls(monkeypatch, module, names):
    """Count calls of each module.name from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _fn=getattr(module, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


def count_spectra(monkeypatch):
    """Count np.linalg.eig, eigh and eigvals calls from here on."""
    return count_calls(monkeypatch, np.linalg, ("eig", "eigh", "eigvals"))


def count_gates(monkeypatch):
    """Count the model-based module's calls of its two spectral gates."""
    from structlqr import model_based

    return count_calls(monkeypatch, model_based,
                       ("_check_hurwitz", "_check_eigenvalue_sums"))


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

    def test_matches_both_oracles_on_random_hurwitz_matrices(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for k in range(100):
            n = int(rng.integers(2, 13))
            M = random_stable_matrix(rng, n, shift=rng.uniform(0.05, 1.0))
            if k % 2:  # strongly non-normal: large strictly upper part
                M += 5.0 * np.triu(rng.standard_normal((n, n)), 1)
                M -= (spectral_abscissa(M) + 0.3) * np.eye(n)
            G = rng.standard_normal((n, n))
            S = G @ G.T
            P = solve_lyapunov(M, S)
            for oracle in (kron_lyapunov_oracle(M, S),
                           solve_continuous_lyapunov(M.T, -S)):
                worst = max(worst, np.linalg.norm(P - oracle)
                            / np.linalg.norm(oracle))
        assert worst <= 1e-10

    def test_matches_both_oracles_on_ring_closed_loops(self):
        spec = ring_scenario(40)
        res = kleinman_structured(spec.system(), spec.weights(), spec.mask,
                                  spec.initial_gain, tol=1e-3)
        for K in [spec.initial_gain] + [rec.K for rec in res.history]:
            M = spec.A - spec.B @ K
            S = spec.Q + K.T @ spec.R @ K
            P = solve_lyapunov(M, S)
            assert np.array_equal(P, P.T)
            for oracle in (kron_lyapunov_oracle(M, S),
                           solve_continuous_lyapunov(M.T, -S)):
                assert (np.linalg.norm(P - oracle)
                        <= 1e-10 * np.linalg.norm(oracle))

    def test_matches_both_oracles_on_defective_m(self):
        # a rotated Jordan block: eig finds no eigenbasis, so the Schur
        # basis is only accurate after refinement
        rng = np.random.default_rng(5)
        for n in (6, 10):
            rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
            M = rot @ (np.diag(np.ones(n - 1), 1) - np.eye(n)) @ rot.T
            S = np.eye(n)
            P = solve_lyapunov(M, S)
            for oracle in (kron_lyapunov_oracle(M, S),
                           solve_continuous_lyapunov(M.T, -S)):
                assert (np.linalg.norm(P - oracle)
                        <= 1e-10 * np.linalg.norm(oracle))

    def test_non_square_m_is_named_before_s(self):
        with pytest.raises(ValueError, match="M must be square"):
            solve_lyapunov(np.ones((2, 3)), np.eye(3))

    def test_against_integral_oracle(self, network, weights):
        K0 = 0.1 * np.eye(6)
        M = network.A - network.B @ K0
        S = weights.Q + K0.T @ weights.R @ K0
        P = solve_lyapunov(M, S)
        P_quad = lyapunov_integral_oracle(M, S)
        assert np.linalg.norm(P - P_quad, "fro") <= 1e-6

    def test_non_hurwitz_rejected(self, network):
        # the zero mode reads 2.1e-16 in the eigh of NETWORK_A and -2.6e-16
        # in that of TRIANGLE_A: rejected whichever sign it rounds to
        for A in (network.A, TRIANGLE_A):
            with pytest.raises(UnstableClosedLoopError,
                               match=r"^M is not Hurwitz \(spectral abscissa"):
                solve_lyapunov(A, np.eye(len(A)))

    def test_one_eig_per_solve(self, network, weights, monkeypatch):
        calls = count_spectra(monkeypatch)
        M = network.A - np.eye(6) - 0.1 * np.triu(np.ones((6, 6)), 1)
        solve_lyapunov(M, weights.Q)
        assert calls == {"eig": 1, "eigh": 0, "eigvals": 0}

    def test_one_eigh_per_symmetric_solve(self, network, weights,
                                          monkeypatch):
        calls = count_spectra(monkeypatch)
        M = network.A - np.eye(6)
        assert np.array_equal(M, M.T)
        solve_lyapunov(M, weights.Q)
        assert calls == {"eig": 0, "eigh": 1, "eigvals": 0}

    def test_symmetric_m_matches_scipy(self):
        # an exactly symmetric M takes the real eigh basis; every third
        # draw repeats one eigenvalue over half the spectrum
        rng = np.random.default_rng(11)
        worst = 0.0
        for k in range(60):
            n = int(rng.integers(2, 41))
            lam = -rng.uniform(0.05, 5.0, n)
            if k % 3 == 0:
                lam[:n // 2 + 1] = lam[0]
            rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
            M = rot @ np.diag(lam) @ rot.T
            M = 0.5 * (M + M.T)
            assert np.array_equal(M, M.T)
            G = rng.standard_normal((n, n))
            S = G @ G.T
            P = solve_lyapunov(M, S)
            oracle = solve_continuous_lyapunov(M.T, -S)
            worst = max(worst, np.linalg.norm(P - oracle)
                        / np.linalg.norm(oracle))
        assert worst <= 1e-10

    def test_symmetric_and_general_bases_agree(self):
        # one ulp off symmetric takes the eig/Schur path; the two solutions
        # differ by about the condition number times that ulp
        rng = np.random.default_rng(12)
        for n in (2, 7, 20, 40):
            M = rng.standard_normal((n, n))
            M = M + M.T
            M -= (np.max(np.linalg.eigvalsh(M)) + 0.5) * np.eye(n)
            near = M.copy()
            near[0, 1] = np.nextafter(near[0, 1], np.inf)
            assert not np.array_equal(near, near.T)
            S = np.eye(n)
            P, P_near = solve_lyapunov(M, S), solve_lyapunov(near, S)
            assert (np.linalg.norm(P - P_near)
                    <= 1e-12 * np.linalg.norm(P))

    def test_symmetric_non_hurwitz_rejected(self):
        rot = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 4.0]]))[0]
        M = rot @ np.diag([-1.0, 0.5]) @ rot.T
        M = 0.5 * (M + M.T)
        with pytest.raises(UnstableClosedLoopError,
                           match=r"^M is not Hurwitz \(spectral abscissa"):
            solve_lyapunov(M, np.eye(2))

    def test_symmetric_eigenvalues_summing_to_zero_rejected(self):
        # an abscissa of -1e-13 is within 5e-13 of the axis: the one gate
        # rejects it as not Hurwitz and says why
        rot = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 4.0]]))[0]
        M = rot @ np.diag([-1e-13, -1.0]) @ rot.T
        M = 0.5 * (M + M.T)
        with pytest.raises(UnstableClosedLoopError) as err:
            solve_lyapunov(M, np.eye(2))
        # -1e-13 up to the rotation's rounding
        assert re.fullmatch(r"M is not Hurwitz \(spectral abscissa "
                            r"-(9\.9\d*e-14|1(\.0\d*)?e-13), within 5e-13 of "
                            r"the imaginary axis\)", str(err.value))

    @pytest.mark.parametrize("M", [
        NETWORK_A - np.eye(6),  # symmetric: eigh
        NETWORK_A - np.eye(6) - 0.1 * np.triu(np.ones((6, 6)), 1)])  # eig
    def test_one_gate_per_solve(self, M, monkeypatch):
        calls = count_gates(monkeypatch)
        solve_lyapunov(M, np.eye(6))
        assert calls == {"_check_hurwitz": 1,
                         "_check_eigenvalue_sums": 0}

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
            assert spectral_abscissa(network.A - network.B @ rec.K) < 0.0

    def test_weak_initial_gain_destabilizes_first_update(self, network, weights,
                                                         mask_a):
        K0 = masked_identity_gain(mask_a, scale=0.1)
        assert spectral_abscissa(network.A - network.B @ K0) < 0.0
        for max_iter in (2, 50):  # any budget that reaches iterate 1's solve
            with pytest.raises(UnstableClosedLoopError,
                               match=r"^iterate 1 destabilized the loop"):
                kleinman_structured(network, weights, mask_a, K0,
                                    max_iter=max_iter)

    def test_budget_ends_before_the_weak_first_update_is_solved(
            self, network, weights, mask_a):
        # iterate 1 is checked on the solve that would use it, which a
        # budget of one iteration never reaches
        K0 = masked_identity_gain(mask_a, scale=0.1)
        with pytest.raises(ConvergenceError) as err:
            kleinman_structured(network, weights, mask_a, K0, max_iter=1)
        partial = err.value.result
        assert partial.iterations == 1 and not partial.converged
        assert spectral_abscissa(network.A - network.B @ partial.K) >= 0.0

    def test_nonstabilizing_initial_gain_rejected(self, network, weights, mask_a):
        K0 = np.zeros((6, 6))
        for run in (lambda: kleinman_structured(network, weights, mask_a, K0),
                    lambda: solve_unstructured_lqr(network, weights,
                                                   initial_gain=K0)):
            with pytest.raises(UnstableClosedLoopError,
                               match=r"^initial gain is not stabilizing"):
                run()

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
        res = solve_unstructured_lqr(sys, w, initial_gain=np.zeros((3, 3)))
        assert np.linalg.norm(res.P, "fro") < 1e-8

    def test_reference_cost(self, network, weights):
        res = solve_unstructured_lqr(network, weights,
                                     initial_gain=10.0 * np.eye(6))
        J = evaluate_cost_analytic(network, weights, res.K, X0)
        assert abs(J - 12.0428) < 0.02


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

    def test_oracle_for_l_constant(self, network, weights):
        rep = suboptimality_bound(network, weights, X0, 1.0, 1.0)
        assert rep.l == pytest.approx(
            kron_bound_constant_oracle(network.A - np.eye(6)), rel=1e-9)

    @pytest.mark.parametrize("case", ["random", "mixed-spectrum", "defective",
                                      "directed-ring"])
    def test_l_matches_full_svd(self, case):
        rng = np.random.default_rng(4)
        for k in range({"random": 10, "directed-ring": 1}.get(case, 4)):
            if case == "directed-ring":  # a 144 x 144 dense oracle
                M = directed_ring_m(12)
            elif case == "random":  # non-normal, complex spectrum
                n = int(rng.integers(2, 9))
                M = random_stable_matrix(rng, n) + 3.0 * np.triu(
                    rng.standard_normal((n, n)), 1)
            elif case == "mixed-spectrum":  # eigenvalues 1, -0.5, -2
                M = np.diag([1.0, -0.5, -2.0]) + np.triu(
                    rng.standard_normal((3, 3)), 1)
            else:  # a rotated Jordan block: eig finds no eigenbasis
                n = (6, 10)[k % 2]
                rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
                M = rot @ (np.diag(np.ones(n - 1), 1) - np.eye(n)) @ rot.T
            sys = LtiSystem(A=M + np.eye(M.shape[0]), B=np.eye(M.shape[0]))
            w = CostWeights(Q=np.eye(M.shape[0]), R=np.eye(M.shape[0]))
            rep = suboptimality_bound(sys, w, np.ones(M.shape[0]), 1.0, 1.0)
            assert rep.l == pytest.approx(kron_bound_constant_oracle(M),
                                          rel=1e-8)

    def test_lanczos_holds_no_krylov_basis(self):
        # the three-term recurrence keeps three n x n vectors; a stored
        # Krylov basis would add n^2 doubles per step
        from structlqr import model_based

        M = directed_ring_m(80)
        tracemalloc.start()
        try:
            model_based._bound_constant(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("name", ["consensus-a", "consensus-b", "ring20"])
    def test_l_matches_full_svd_on_scenarios(self, name):
        spec = (ring_scenario(20) if name == "ring20"
                else builtin_scenario(name))
        rep = suboptimality_bound(spec.system(), spec.weights(), spec.x0,
                                  1.0, 1.0)
        M = spec.A - spec.B @ np.linalg.solve(spec.R, spec.B.T)
        assert rep.l == pytest.approx(kron_bound_constant_oracle(M), rel=1e-8)

    @pytest.mark.parametrize("name", ["consensus-a", "ring8-chords"])
    def test_closed_form_l_on_symmetric_m(self, name, monkeypatch):
        from structlqr import model_based

        if name == "ring8-chords":
            couplings = {(i, (i + 1) % 8): 1.0 + 0.25 * i for i in range(8)}
            couplings.update({(0, 4): 2.0, (1, 6): 0.5, (2, 5): 1.5})
            sys = make_consensus_network(8, couplings)
            w = CostWeights(Q=np.eye(8), R=0.5 * np.eye(8))
        else:
            spec = builtin_scenario(name)
            sys, w = spec.system(), spec.weights()
        M = sys.A - sys.B @ np.linalg.solve(w.R, sys.B.T)
        assert np.array_equal(M, M.T)
        # the closed form builds no Sylvester solver
        monkeypatch.setattr(model_based, "_sylvester_solver", None)
        l = model_based._bound_constant(M)
        oracle = kron_bound_constant_oracle(M)
        assert abs(l - oracle) <= 1e-12 * oracle

    def test_non_symmetric_m_takes_lanczos(self, monkeypatch):
        from structlqr import model_based

        builds = []
        solver = model_based._sylvester_solver

        def counting(M, name):
            builds.append(M)
            return solver(M, name)

        monkeypatch.setattr(model_based, "_sylvester_solver", counting)
        M = random_stable_matrix(np.random.default_rng(3), 5)
        l = model_based._bound_constant(M)
        assert len(builds) == 2  # one for V, one for V'
        assert l == pytest.approx(kron_bound_constant_oracle(M), rel=1e-8)

    @pytest.mark.parametrize("x0, message", [
        (np.ones(3), r"x0 must have shape \(6,\), got \(3,\)"),
        (np.ones((6, 6)), r"x0 must have shape \(6,\), got \(6, 6\)"),
        (np.array([1.0, np.nan, 0, 0, 0, 0]), "x0 has non-finite entries"),
        (np.array([np.inf, 0, 0, 0, 0, 0]), "x0 has non-finite entries")])
    def test_bad_x0_rejected(self, network, weights, x0, message):
        # every entry point that takes an x0 gives the same message
        K = 10.0 * np.eye(6)
        for run in (lambda: suboptimality_bound(network, weights, x0, 1.0, 1.0),
                    lambda: evaluate_cost_analytic(network, weights, K, x0),
                    lambda: evaluate_cost(network, weights, K, x0),
                    lambda: simulate(network, InputPolicy(), x0, 1.0)):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("Q, R, message", [
        (np.eye(3), np.eye(6), r"Q must have shape \(6, 6\), got \(3, 3\)"),
        (np.eye(6), np.eye(2), r"R must have shape \(6, 6\), got \(2, 2\)")])
    def test_weights_of_another_size_rejected(self, network, mask_a, Q, R,
                                              message):
        # every entry point that takes cost weights gives the same message
        w = CostWeights(Q=Q, R=R)
        K = masked_identity_gain(mask_a)
        for run in (
                lambda: kleinman_structured(network, w, mask_a, K),
                lambda: solve_unstructured_lqr(network, w, initial_gain=K),
                lambda: evaluate_cost(network, w, K, X0),
                lambda: evaluate_cost_analytic(network, w, K, X0),
                lambda: suboptimality_bound(network, w, X0, 1.0, 1.0),
                lambda: modified_are_residual(np.eye(6), np.zeros((6, 6)),
                                              network, w),
                lambda: SrlConfig(mask=mask_a, weights=w, B=network.B,
                                  initial_gain=K, window=0.01,
                                  num_windows=100, dt=0.001)):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("costs, name", [
        ((float("nan"), 1.0), "cost_structured"),
        ((1.0, float("inf")), "cost_unstructured"),
        (("a", 1.0), "cost_structured")])
    def test_non_finite_cost_rejected(self, network, weights, costs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            suboptimality_bound(network, weights, X0, *costs)

    def test_zero_input_matrix_rejected(self):
        sys = LtiSystem(A=-np.eye(2), B=np.zeros((2, 1)))
        w = CostWeights(Q=np.eye(2), R=np.eye(1))
        with pytest.raises(ValueError):
            suboptimality_bound(sys, w, np.ones(2), 1.0, 1.0)

    def test_singular_operator_rejected(self, monkeypatch):
        # eigenvalues of A - B R^-1 B' are +1 and -1, summing to zero; it
        # has no Hurwitz gate, so the sum check alone reads its spectrum
        self.check_singular(np.diag([2.0, 0.0]), monkeypatch)  # closed form

    def test_singular_non_symmetric_operator_rejected(self, monkeypatch):
        # the same spectrum, not symmetric: the Lanczos branch's first solver
        self.check_singular(np.array([[2.0, 5.0], [0.0, 0.0]]), monkeypatch)

    @staticmethod
    def check_singular(A, monkeypatch):
        sys = LtiSystem(A=A, B=np.eye(2))
        w = CostWeights(Q=np.eye(2), R=np.eye(2))
        calls = count_gates(monkeypatch)
        with pytest.raises(ValueError, match=(
                r"^two eigenvalues of A - B R\^-1 B' sum to zero; ")):
            suboptimality_bound(sys, w, np.ones(2), 1.0, 1.0)
        assert calls == {"_check_hurwitz": 0,
                         "_check_eigenvalue_sums": 1}


@pytest.mark.parametrize("name, decompositions", [("ring40", 16),
                                                   ("consensus-a", 19)])
def test_model_based_run_decomposes_each_closed_loop_once(
        name, decompositions, monkeypatch):
    # one eig or eigh per Lyapunov solve (each iterate's gate included),
    # one eigvals per returned gain, the quadrature gate and the reported
    # closed-loop spectrum; every ring40 closed loop is symmetric
    spec = ring_scenario(40) if name == "ring40" else builtin_scenario(name)
    calls = count_spectra(monkeypatch)
    run_model_based(spec)
    assert sum(calls.values()) == decompositions
    assert name != "ring40" or calls["eig"] == 0


def test_model_based_run_memory_stays_quadratic():
    # a dense n^2 x n^2 operator at n = 40 alone is 20 MB
    spec = ring_scenario(40)
    tracemalloc.start()
    try:
        run_model_based(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_marginal_loops_are_unstable_whatever_the_rounding():
    # a consensus Laplacian has one zero mode, which eig, eigh and eigvals
    # round to either sign; every entry point that needs a Hurwitz loop
    # rejects it as not Hurwitz, and no cost comes out finite
    rng = np.random.default_rng(0)
    signs = set()
    for _ in range(40):
        n = int(rng.integers(2, 12))
        A = random_laplacian(rng, n)
        signs.add(bool(np.max(np.linalg.eigvalsh(A)) < 0.0))
        sys, eye, zero = LtiSystem(A=A, B=np.eye(n)), np.eye(n), np.zeros((n, n))
        w = CostWeights(Q=eye, R=eye)
        for run in (lambda: solve_lyapunov(A, eye),
                    lambda: kleinman_structured(
                        sys, w, SparsityMask.all_ones(n, n), zero),
                    lambda: evaluate_cost(sys, w, zero, np.ones(n))):
            with pytest.raises(UnstableClosedLoopError):
                run()
    assert signs == {False, True}  # both roundings were exercised
