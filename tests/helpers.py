"""Shared reference data and independent oracles for the test suite."""

import numpy as np
from scipy.linalg import expm, lstsq

from structlqr import SimulationDiverged, Trajectory
from structlqr.learning import DataMatrices, PlantHandle, hide_state_matrix

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

# A weighted 3-node consensus Laplacian whose zero mode rounds negative
# (-5.2e-16 in eigvals, -2.6e-16 in eigh with numpy 2.4 on OpenBLAS), where
# NETWORK_A's rounds to +2.1e-16: a stability test passes on both only if
# the zero mode is rejected whatever its sign.
TRIANGLE_A = np.array([
    [-1.1, 1.0, 0.1],
    [1.0, -2.0, 1.0],
    [0.1, 1.0, -1.1],
])


def noisy_plant(sys, level=1e-2, seed=5) -> PlantHandle:
    """hide_state_matrix(sys) whose every record carries measurement noise:
    level * RMS(states) * default_rng(seed).standard_normal(states.shape)
    added to the states. The inputs are the ones applied, noise-free."""
    exact = hide_state_matrix(sys)

    def simulate(policy, x0, horizon, dt, substeps):
        traj = exact.simulate(policy, x0, horizon, dt=dt, substeps=substeps)
        rms = np.sqrt(np.mean(traj.states ** 2))
        noise = np.random.default_rng(seed).standard_normal(traj.states.shape)
        return Trajectory(times=traj.times, states=traj.states
                          + level * rms * noise, inputs=traj.inputs)

    return PlantHandle(simulate=simulate)


def spectral_abscissa(M):
    """Largest real part over np.linalg.eigvals(M): the oracle the tests
    hold the library's stability rule against; it shares no code with it."""
    return float(np.max(np.linalg.eigvals(M).real))


def random_stable_matrix(rng, n, shift=0.5):
    """Random matrix shifted to be comfortably Hurwitz."""
    M = rng.standard_normal((n, n))
    return M - (spectral_abscissa(M) + shift) * np.eye(n)


def random_laplacian(rng, n):
    """-(D - W) for a random connected weighted graph on n nodes: a spanning
    path in random order plus each other edge with probability 1/2, weights
    uniform in [0.1, 3]. Exactly symmetric, with one zero mode (consensus),
    which the decompositions round to either sign."""
    W = rng.uniform(0.1, 3.0, (n, n)) * (rng.random((n, n)) < 0.5)
    order = rng.permutation(n)
    W[order[:-1], order[1:]] = rng.uniform(0.1, 3.0, n - 1)
    W = np.triu(W + W.T, 1)
    W = W + W.T
    return W - np.diag(W.sum(1))


def kron_operator(M):
    """V = I (x) M' + M' (x) I, so that V vec(X) = vec(M'X + XM) (column-major
    vec). It has n^4 entries: the oracles below are for small n only."""
    eye = np.eye(M.shape[0])
    return np.kron(eye, M.T) + np.kron(M.T, eye)


def kron_lyapunov_oracle(M, S):
    """Dense Kronecker solve of M'P + PM + S = 0."""
    n = M.shape[0]
    p = np.linalg.solve(kron_operator(M), -S.ravel(order="F"))
    P = p.reshape(n, n, order="F")
    return 0.5 * (P + P.T)


def kron_bound_constant_oracle(M):
    """Smallest singular value of I (x) M' + M' (x) I, from its full SVD."""
    return float(np.linalg.svd(kron_operator(M), compute_uv=False)[-1])


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


def _cumulative_trapezoid(rows: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(rows)
    np.cumsum(0.5 * dt * (rows[1:] + rows[:-1]), axis=0, out=out[1:])
    return out


def assemble_data_reference(traj, window: float) -> DataMatrices:
    """Per-sample x x' / x u' records, running trapezoid integrals and
    differences at the window edges: the oracle for the per-window Gram
    products in ``assemble_data``."""
    dt = traj.dt
    stride = int(round(window / dt))
    nwin = (len(traj.times) - 1) // stride

    X, U = traj.states, traj.inputs
    kxx = np.einsum("ti,tj->tij", X, X)
    kxu = np.einsum("ti,tj->tij", X, U)
    cxx = _cumulative_trapezoid(kxx, dt)
    cxu = _cumulative_trapezoid(kxu, dt)
    idx = np.arange(nwin + 1) * stride
    return DataMatrices(
        delta_xx=kxx[idx[1:]] - kxx[idx[:-1]],
        int_xx=cxx[idx[1:]] - cxx[idx[:-1]],
        int_xu=cxu[idx[1:]] - cxu[idx[:-1]],
    )


def policy_evaluation_regression(data, gain, config):
    """Row-equilibrated regression for the value matrix P of a gain, built
    one window at a time from d(x'Px)/dt = -x'Qbar x + 2 (u + Kx)'B'Px with
    Qbar = Q + K'RK. Over a window, with H the integral of x (u + Kx)',
    <delta_xx - B H' - H B', P> = -<int_xx, Qbar>. Unknowns are P's entries
    (i, j), i <= j, in row-major order. Returns (rows, rhs, (i, j))."""
    K, B = np.asarray(gain, dtype=float), config.B
    Qbar = config.weights.Q + K.T @ config.weights.R @ K
    iu, ju = np.triu_indices(B.shape[0])
    rows, rhs = [], []
    for dxx, ixx, ixu in zip(data.delta_xx, data.int_xx, data.int_xu):
        H = ixu + ixx @ K.T
        C = dxx - B @ H.T - H @ B.T
        row = np.where(iu == ju, 1.0, 2.0) * C[iu, ju]
        norm = np.linalg.norm(row)
        norm = norm if norm > 0 else 1.0
        rows.append(row / norm)
        rhs.append(-np.sum(ixx * Qbar) / norm)
    return np.array(rows), np.array(rhs), (iu, ju)


def solve_iteration_reference(data, gain, config):
    """scipy.linalg.lstsq (SVD based) on policy_evaluation_regression: the
    oracle for the Gram-matrix solve in ``solve_iteration``."""
    rows, rhs, (i, j) = policy_evaluation_regression(data, gain, config)
    P = np.zeros((config.B.shape[0],) * 2)
    P[i, j] = P[j, i] = lstsq(rows, rhs)[0]
    return P
