"""Shared reference data and independent oracles for the test suite."""

import numpy as np
from scipy.linalg import expm

from structlqr import SimulationDiverged

# 6-agent diffusive network benchmark: reference values the fixtures must
# reproduce (gains quoted to 4 decimals, costs in objective units).

NETWORK_A = np.array([
    [-5.0, 2.0, 3.0, 0.0, 0.0, 0.0],
    [2.0, -6.0, 0.0, 0.0, 1.0, 3.0],
    [3.0, 0.0, -5.0, 2.0, 0.0, 0.0],
    [0.0, 0.0, 2.0, -2.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, -4.0, 3.0],
    [0.0, 3.0, 0.0, 0.0, 3.0, -6.0],
])

X0 = np.array([0.3, 0.5, 0.4, 0.8, 0.9, 0.6])

OPEN_LOOP_EIGS = [-10.00, -8.27, -6.00, -3.00, -0.72, -0.00]

REFERENCE_GAIN_A = np.array([
    [0.0000, 0.0000, 1.2527, 0.2901, 0.1468, 0.0000],
    [1.0455, 2.7516, 0.2686, 0.0000, 0.7485, 0.0000],
    [1.2527, 0.2686, 2.9976, 0.0000, 0.0000, 0.0670],
    [0.2901, 0.0364, 1.0471, 4.1729, 0.0025, 0.0054],
    [0.1468, 0.7485, 0.0288, 0.0025, 3.2813, 1.2978],
    [0.3306, 1.1411, 0.0670, 0.0054, 1.2978, 2.8851],
])

REFERENCE_GAIN_UNSTRUCTURED = np.array([
    [2.9234, 0.7255, 1.1487, 0.3057, 0.1397, 0.2342],
    [0.7255, 2.6395, 0.2282, 0.0418, 0.7435, 1.0987],
    [1.1487, 0.2282, 2.9751, 1.0436, 0.0269, 0.0547],
    [0.3057, 0.0418, 1.0436, 4.0820, 0.0001, 0.0041],
    [0.1397, 0.7435, 0.0269, 0.0001, 3.2790, 1.2881],
    [0.2342, 1.0987, 0.0547, 0.0041, 1.2881, 2.7975],
])

REFERENCE_COST_A = 12.4705
REFERENCE_COST_UNSTRUCTURED = 12.0428
REFERENCE_COST_B = 12.9764
REFERENCE_CLOSED_LOOP_EIGS_B = [-10.61, -3.58, -4.22, -5.70, -9.19, -7.91]

# zero positions (0-indexed) of the two gain structures
ZEROS_A = ((0, 0), (0, 1), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4))


def random_stable_matrix(rng, n, shift=0.5):
    """Random matrix shifted to be comfortably Hurwitz."""
    M = rng.standard_normal((n, n))
    sa = float(np.max(np.linalg.eigvals(M).real))
    return M - (sa + shift) * np.eye(n)


def lyapunov_integral_oracle(M, S, dt=0.002, horizon=120.0):
    """Independent quadrature oracle: Simpson sum of expm(M't) S expm(Mt)."""
    nst = int(round(horizon / dt))
    if nst % 2 == 1:
        nst += 1
    E = expm(M * dt)
    weights = np.empty(nst + 1)
    weights[0] = weights[-1] = 1.0
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    acc = np.zeros_like(M, dtype=float)
    Ek = np.eye(M.shape[0])
    for k in range(nst + 1):
        acc += weights[k] * (Ek.T @ S @ Ek)
        Ek = Ek @ E
    return acc * (dt / 3.0)


def matrix_exponential_state(A, x0, t):
    return expm(A * t) @ x0


def rk4_reference(sys, policy, x0, horizon, dt=0.01, substeps=10):
    """Per-stage classical RK4 loop, one Python step at a time: the oracle
    for the precomputed one-step map in ``simulate``. Returns
    (states, inputs) on the recorded grid."""
    nsteps = int(np.floor(horizon / dt + 1e-9))
    total = nsteps * substeps
    h = dt / substeps

    def probe_samples(times):
        if policy.probe is None:
            return np.zeros((len(times), sys.m))
        return np.array([np.asarray(policy.probe(t), dtype=float)
                         for t in times])

    G = sys.A if policy.gain is None else sys.A - sys.B @ policy.gain
    starts = h * np.arange(total + 1)
    probe_start = probe_samples(starts)
    f_start = probe_start @ sys.B.T
    f_mid = probe_samples(starts[:-1] + 0.5 * h) @ sys.B.T

    states = np.empty((nsteps + 1, sys.n))
    states[0] = x0
    x = np.array(x0, dtype=float)
    for k in range(total):
        k1 = G @ x + f_start[k]
        k2 = G @ (x + 0.5 * h * k1) + f_mid[k]
        k3 = G @ (x + 0.5 * h * k2) + f_mid[k]
        k4 = G @ (x + h * k3) + f_start[k + 1]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % substeps == 0:
            i = (k + 1) // substeps
            if np.max(np.abs(x)) > 1e150 or not np.all(np.isfinite(x)):
                raise SimulationDiverged(time=i * dt)
            states[i] = x

    inputs = probe_start[::substeps].copy()
    if policy.gain is not None:
        inputs -= states @ policy.gain.T
    return states, inputs
