"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest outcomes.
"""

import functools
import time

import numpy as np
import pytest

from helpers import (NETWORK_A, REFERENCE_CLOSED_LOOP_EIGS_B,
                     REFERENCE_COST_A, REFERENCE_COST_B,
                     REFERENCE_COST_UNSTRUCTURED, REFERENCE_GAIN_A,
                     REFERENCE_GAIN_UNSTRUCTURED, X0, random_stable_matrix,
                     spectral_abscissa)
from structlqr import (ConvergenceError, CostWeights, InputPolicy, LtiSystem,
                       SparsityMask, UnstableClosedLoopError, collect,
                       evaluate_cost_analytic, hide_state_matrix,
                       kleinman_structured, make_exploration,
                       modified_are_residual, required_samples, simulate,
                       solve_lyapunov, solve_unstructured_lqr,
                       srl_synthesize, suboptimality_bound)
from structlqr.experiments import builtin_scenario, run_srl
from structlqr.learning import SrlConfig


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS" + (f" ({detail})" if detail else ""))
        return wrapper
    return deco


@pytest.fixture(scope="module")
def network():
    return LtiSystem(A=NETWORK_A, B=np.eye(6))


@pytest.fixture(scope="module")
def weights():
    return CostWeights(Q=30.0 * np.eye(6), R=np.eye(6))


def scenario_mask(name):
    return builtin_scenario(name).mask


def initial_gain(mask):
    return 10.0 * (np.eye(6) * mask.indicator)


@criterion("1 structured reproduction (scenario A)")
def test_criterion_1_scenario_a_model_based(network, weights):
    mask = scenario_mask("consensus-a")
    start = time.perf_counter()
    res = kleinman_structured(network, weights, mask, initial_gain(mask))
    cost = evaluate_cost_analytic(network, weights, res.K, X0)
    elapsed = time.perf_counter() - start
    assert res.converged
    assert np.max(np.abs(res.K - REFERENCE_GAIN_A)) < 0.05
    assert np.array_equal(res.K * mask.complement, np.zeros((6, 6)))
    assert abs(cost - REFERENCE_COST_A) < 0.05
    assert elapsed < 1.0
    return f"cost {cost:.4f} vs {REFERENCE_COST_A}, {elapsed:.2f}s"


@criterion("2 unstructured baseline")
def test_criterion_2_unstructured(network, weights):
    start = time.perf_counter()
    res = solve_unstructured_lqr(network, weights, initial_gain=10.0 * np.eye(6))
    cost = evaluate_cost_analytic(network, weights, res.K, X0)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(res.K - REFERENCE_GAIN_UNSTRUCTURED)) < 0.02
    assert abs(cost - REFERENCE_COST_UNSTRUCTURED) < 0.02
    assert elapsed < 1.0
    return f"cost {cost:.4f} vs {REFERENCE_COST_UNSTRUCTURED}, {elapsed:.2f}s"


@criterion("3 structured reproduction (scenario B)")
def test_criterion_3_scenario_b(network, weights):
    mask = scenario_mask("consensus-b")
    start = time.perf_counter()
    res = kleinman_structured(network, weights, mask, initial_gain(mask))
    cost = evaluate_cost_analytic(network, weights, res.K, X0)
    eigs = np.sort(np.linalg.eigvals(network.A - network.B @ res.K).real)
    elapsed = time.perf_counter() - start
    assert abs(cost - REFERENCE_COST_B) < 0.05
    reference = np.sort(np.array(REFERENCE_CLOSED_LOOP_EIGS_B))
    assert np.all(np.abs(eigs - reference) < 0.05)
    assert elapsed < 1.0
    return f"cost {cost:.4f} vs {REFERENCE_COST_B}, {elapsed:.2f}s"


@criterion("4 model-free matches model-based")
def test_criterion_4_srl_equals_model_based(network, weights):
    details = []
    for name in ("consensus-a", "consensus-b"):
        spec = builtin_scenario(name)
        config = spec.srl_config()
        probe = spec.probe()
        plant = hide_state_matrix(network)
        policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
        start = time.perf_counter()
        _, data = collect(plant, policy, spec.x0, config)
        learned = srl_synthesize(data, config)
        elapsed = time.perf_counter() - start
        model = kleinman_structured(network, weights, spec.mask,
                                    config.initial_gain, tol=config.tol,
                                    max_iter=config.max_iter)
        dP = np.linalg.norm(learned.P - model.P, "fro")
        dK = np.linalg.norm(learned.K - model.K, "fro")
        assert learned.converged
        assert dP <= 1e-3, f"{name}: |P - P_mb| = {dP:.2e}"
        assert dK <= 1e-3, f"{name}: |K - K_mb| = {dK:.2e}"
        assert learned.iterations <= 10
        assert elapsed < 10.0
        details.append(f"{name}: dP={dP:.1e} dK={dK:.1e} "
                       f"iters={learned.iterations} {elapsed:.1f}s")
    return "; ".join(details)


@criterion("5 sample-count arithmetic")
def test_criterion_5_required_samples():
    mask_a = scenario_mask("consensus-a")
    mask_b_declared = scenario_mask("consensus-b-declared")
    assert required_samples(6, mask_a) == 100
    assert required_samples(6, mask_b_declared) == 88
    return "A: 100, B: 88"


@criterion("6 suboptimality bound")
def test_criterion_6_bound(network, weights):
    ratios = []
    unstr = solve_unstructured_lqr(network, weights, initial_gain=10.0 * np.eye(6))
    J_bar = evaluate_cost_analytic(network, weights, unstr.K, X0)
    for name in ("consensus-a", "consensus-b"):
        mask = scenario_mask(name)
        res = kleinman_structured(network, weights, mask, initial_gain(mask))
        J = evaluate_cost_analytic(network, weights, res.K, X0)
        rep = suboptimality_bound(network, weights, X0, J, J_bar,
                                  deviation=res.L)
        assert rep.gap <= rep.bound
        assert rep.within_bound
        ratios.append(f"{name}: gap/bound = {rep.gap / rep.bound:.3f}")
    return "; ".join(ratios)


@criterion("7a Lyapunov residuals on 100 random stable systems")
def test_criterion_7a_lyapunov_residuals():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        M = random_stable_matrix(rng, n)
        G = rng.standard_normal((n, n))
        S = G.T @ G
        P = solve_lyapunov(M, S)
        res = np.linalg.norm(M.T @ P + P @ M + S, "fro")
        scaled = res / (1.0 + np.linalg.norm(S, "fro"))
        worst = max(worst, scaled)
        assert scaled <= 1e-9
    return f"worst scaled residual {worst:.1e}"


def _random_feasible_runs(count=20, seed=99):
    """Random stable (system, mask) pairs whose structured iteration converges."""
    rng = np.random.default_rng(seed)
    runs = []
    attempts = 0
    while len(runs) < count and attempts < 200:
        attempts += 1
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, n + 1))
        sys = LtiSystem(A=random_stable_matrix(rng, n, shift=1.0),
                        B=rng.standard_normal((n, m)))
        G = rng.standard_normal((n, n))
        weights = CostWeights(Q=G.T @ G + 0.1 * np.eye(n),
                              R=np.diag(rng.uniform(0.5, 2.0, m)))
        ind = (rng.random((m, n)) < 0.7).astype(float)
        if ind.sum() == 0:
            ind[0, 0] = 1.0
        mask = SparsityMask(ind)
        try:
            res = kleinman_structured(sys, weights, mask, np.zeros((m, n)),
                                      tol=1e-8, max_iter=200)
        except (UnstableClosedLoopError, ConvergenceError):
            continue
        runs.append((sys, weights, mask, res))
    assert len(runs) == count, f"only {len(runs)} feasible runs in {attempts}"
    return runs


@pytest.fixture(scope="module")
def feasible_runs():
    return _random_feasible_runs()


@criterion("7b modified equation residual at convergence")
def test_criterion_7b_residuals(feasible_runs):
    worst = 0.0
    for sys, weights, mask, res in feasible_runs:
        residual = modified_are_residual(res.P, res.L, sys, weights)
        bar = 1e-6 * np.linalg.norm(weights.Q, "fro")
        worst = max(worst, residual / bar)
        assert residual <= bar
    return f"20 runs, worst residual at {worst:.2f} of the bar"


@criterion("7c every accepted iterate is stabilizing")
def test_criterion_7c_iterates_hurwitz(feasible_runs, network, weights):
    mask = scenario_mask("consensus-a")
    scen = kleinman_structured(network, weights, mask, initial_gain(mask))
    checked = 0
    for sys, w, m, res in feasible_runs + [(network, weights, mask, scen)]:
        for rec in res.history:
            assert spectral_abscissa(sys.A - sys.B @ rec.K) < 0.0
            checked += 1
    return f"{checked} iterates checked"


@criterion("7d projection identities on random matrices")
def test_criterion_7d_projection_identities():
    from structlqr import off_pattern, on_pattern
    rng = np.random.default_rng(512)
    for _ in range(50):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        ind = (rng.random((m, n)) < 0.5).astype(float)
        if ind.sum() == 0:
            ind[0, 0] = 1.0
        mask = SparsityMask(ind)
        K = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
        off = off_pattern(K, mask)
        assert np.array_equal(off_pattern(off, mask), off)
        assert np.array_equal(on_pattern(K, mask) + off, K)
    return "50 random matrices"


@criterion("7e structured cost dominates unstructured cost")
def test_criterion_7e_cost_dominance(feasible_runs):
    rng = np.random.default_rng(7)
    for sys, weights, mask, res in feasible_runs:
        unstr = solve_unstructured_lqr(sys, weights,
                                       initial_gain=np.zeros(mask.shape),
                                       tol=1e-8, max_iter=200)
        for _ in range(5):
            x0 = rng.standard_normal(sys.n)
            assert x0 @ res.P @ x0 >= x0 @ unstr.P @ x0 - 1e-8
    return "20 systems x 5 initial states"


@criterion("7f integrator order ratio")
def test_criterion_7f_rk4_order():
    from helpers import matrix_exponential_state
    A = np.array([[0.0, 1.0], [-2.0, -0.4]])
    sys = LtiSystem(A=A, B=np.zeros((2, 1)))
    x0 = np.array([1.0, -0.3])
    horizon = 2.0
    exact = matrix_exponential_state(A, x0, horizon)
    errs = [np.linalg.norm(
        simulate(sys, InputPolicy(), x0, horizon, dt=dt,
                 substeps=1).states[-1] - exact)
        for dt in (0.02, 0.01)]
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0
    return f"ratio {ratio:.2f}"


@criterion("7g all-ones-mask learning equals classical solution")
def test_criterion_7g_all_ones_srl(network, weights):
    mask = SparsityMask.all_ones(6, 6)
    config = SrlConfig(mask=mask, weights=weights, B=np.eye(6),
                       initial_gain=10.0 * np.eye(6), window=0.01,
                       num_windows=140, dt=5e-5, tol=1e-3, max_iter=30)
    probe = make_exploration(7, 6, amplitude=100.0)
    plant = hide_state_matrix(network)
    policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
    _, data = collect(plant, policy, X0, config)
    learned = srl_synthesize(data, config)
    classical = solve_unstructured_lqr(network, weights,
                                       initial_gain=config.initial_gain,
                                       tol=config.tol)
    dK = np.linalg.norm(learned.K - classical.K, "fro")
    assert dK <= 1e-3
    return f"|K - K_classical| = {dK:.1e}"


@criterion("8 seeded runs are byte-identical")
def test_criterion_8_determinism(tmp_path):
    spec = builtin_scenario("consensus-a")  # exploration seed 7
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        run_srl(spec, out_dir=d)
    files = ["trajectory.csv", "convergence.csv", "gains.csv", "report.json"]
    for name in files:
        b1 = (dirs[0] / name).read_bytes()
        b2 = (dirs[1] / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    return f"{len(files)} files byte-identical"
