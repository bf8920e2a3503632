import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import random_stable_matrix
from structlqr import (InputPolicy, LtiSystem, SparsityMask, required_samples,
                       simulate, solve_lyapunov)


@settings(max_examples=80, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 8),
                elements=st.floats(-1e3, 1e3, allow_nan=False)))
def test_kron_vector_norm_identity(x):
    assert np.linalg.norm(np.kron(x, x)) == pytest.approx(
        np.linalg.norm(x) ** 2, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6))
def test_lyapunov_residual_property(seed, n):
    rng = np.random.default_rng(seed)
    M = random_stable_matrix(rng, n)
    G = rng.standard_normal((n, n))
    S = G.T @ G
    P = solve_lyapunov(M, S)
    res = np.linalg.norm(M.T @ P + P @ M + S, "fro")
    assert res <= 1e-9 * (1.0 + np.linalg.norm(S, "fro"))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5),
       m=st.integers(1, 5))
def test_required_samples_formula(seed, n, m):
    rng = np.random.default_rng(seed)
    ind = (rng.random((m, n)) < 0.6).astype(float)
    if ind.sum() == 0:
        ind[0, 0] = 1.0
    mask = SparsityMask(ind)
    assert required_samples(n, mask) == 2 * (n * (n + 1) // 2 + mask.nnz)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_simulation_sample_count_contract(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    sys = LtiSystem(A=random_stable_matrix(rng, n), B=np.eye(n))
    dt = float(rng.uniform(0.005, 0.05))
    steps = int(rng.integers(1, 40))
    horizon = steps * dt
    traj = simulate(sys, InputPolicy.zero(), rng.standard_normal(n),
                    horizon, dt=dt, substeps=2)
    assert len(traj.times) == steps + 1
