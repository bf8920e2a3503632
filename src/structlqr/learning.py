"""Trajectory-data-driven structured gain synthesis.

This path never reads the state matrix: data comes through a plant handle
that only exposes simulation, and the input matrix through the config. Each
iteration solves one least-squares problem assembled from windowed
integrals of the recorded states and inputs.
"""

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .model_based import _MAX_ITER, _TOL, SynthesisResult, _policy_iteration
from .structure import SparsityMask, _check_mask, _check_on_mask
from .system import (CostWeights, ExplorationSignal, InputPolicy, LtiSystem,
                     Trajectory, _as_matrix, _check_at_least, _check_fraction,
                     _check_multiple, _check_positive, _check_weights, _freeze)


# Knob defaults, shared with the scenario configs.
_RANK_TOL = 1e-12          # sigma ratio cutoff; cond < 1/sqrt(rank_tol)
_NUM_SINUSOIDS = 100       # probe sinusoids per input channel
_FREQ_RANGE = (0.5, 50.0)  # probe frequencies, rad/s
_AMPLITUDE = 1.0           # per-channel probe peak budget


class RankDeficientError(RuntimeError):
    """Collected data cannot identify all regression unknowns."""


def make_exploration(seed: int, num_inputs: int,
                     num_sinusoids: int = _NUM_SINUSOIDS,
                     freq_range: Tuple[float, float] = _FREQ_RANGE,
                     amplitude: float = _AMPLITUDE) -> ExplorationSignal:
    """Draw a seeded exploration signal.

    Each channel gets its own frequencies (uniform over freq_range, rad/s)
    and phases; the per-sinusoid amplitude is amplitude / num_sinusoids so
    the per-channel peak stays within the amplitude budget.
    """
    _check_at_least("seed", seed, 0)
    _check_at_least("num_inputs", num_inputs, 1)
    _check_at_least("num_sinusoids", num_sinusoids, 1)
    _check_positive("amplitude", amplitude)
    lo, hi = freq_range
    if not (0 < lo <= hi < np.inf):
        raise ValueError(
            f"freq_range must satisfy 0 < lo <= hi < inf, got {freq_range!r}")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(lo, hi, size=(num_inputs, num_sinusoids))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_inputs, num_sinusoids))
    amps = np.full((num_inputs, num_sinusoids), amplitude / num_sinusoids)
    return ExplorationSignal(frequencies=freqs, amplitudes=amps, phases=phases)


@dataclass(frozen=True)
class PlantHandle:
    """What the learner may touch: simulate(policy, x0, horizon, dt=...,
    substeps=...) -> Trajectory, and nothing else. A real plant is wrapped
    as PlantHandle(simulate=fn)."""

    simulate: Callable[..., Trajectory]


def hide_state_matrix(sys: LtiSystem) -> PlantHandle:
    """Wrap a system so downstream code can only excite and measure it; the
    state matrix stays inside the closure."""
    from .system import simulate as _simulate

    def simulate(policy, x0, horizon, dt, substeps):
        return _simulate(sys, policy, x0, horizon, dt=dt, substeps=substeps)

    return PlantHandle(simulate=simulate)


def _num_unknowns(n: int, mask: SparsityMask) -> int:
    """The paper's unknown count n(n+1)/2 + nnz(mask); it sizes the data."""
    return n * (n + 1) // 2 + mask.nnz


def required_samples(n: int, mask: SparsityMask) -> int:
    """Data windows needed: twice the unknown count n(n+1)/2 + nnz."""
    return 2 * _num_unknowns(n, mask)


@dataclass(frozen=True)
class DataMatrices:
    """Windowed regression blocks built from one exploration run: per window,
    delta_xx (N, n, n) is the increment of x x', and int_xx (N, n, n) /
    int_xu (N, n, m) are the integrals of x x' and x u', u being the input
    applied to the plant."""

    delta_xx: np.ndarray
    int_xx: np.ndarray
    int_xu: np.ndarray

    def __post_init__(self):
        d, xx, xu = (_freeze(np.asarray(b, float))
                     for b in (self.delta_xx, self.int_xx, self.int_xu))
        if not (xu.ndim == 3
                and d.shape == xx.shape == (len(xu), xu.shape[1], xu.shape[1])):
            raise ValueError(
                "data blocks must be (N, n, n), (N, n, n) and (N, n, m), "
                f"got {d.shape}, {xx.shape} and {xu.shape}")
        for name, block in zip(("delta_xx", "int_xx", "int_xu"), (d, xx, xu)):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, block)

    @property
    def num_windows(self) -> int:
        return self.int_xu.shape[0]

    @property
    def n(self) -> int:
        return self.int_xu.shape[1]

    @property
    def m(self) -> int:
        return self.int_xu.shape[2]

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values, descending and read-only, of the distinct
        columns of [int_xx int_xu]: the n(n+1)/2 entries of the symmetric
        int_xx with i <= j beside the n*m of int_xu. An off-diagonal column
        c stands for the pair c, c of the full block, so it is scaled by
        sqrt(2) (same c c' sum); the nonzero singular values are those of
        the full block. Computed on first use, once per data set."""
        i, j = np.triu_indices(self.n)
        xx = self.int_xx[:, i, j] * np.where(i == j, 1.0, np.sqrt(2.0))
        block = np.hstack([xx, self.int_xu.reshape(self.num_windows, -1)])
        return _freeze(np.linalg.svd(block, compute_uv=False))


@dataclass(frozen=True)
class SrlConfig:
    """Knobs for data collection and the least-squares iteration."""

    mask: SparsityMask
    weights: CostWeights
    B: np.ndarray
    initial_gain: np.ndarray
    window: float       # data-sample spacing T, seconds
    num_windows: int
    dt: float           # trajectory recording / quadrature step
    substeps: int = 1
    tol: float = _TOL
    max_iter: int = _MAX_ITER
    rank_tol: float = _RANK_TOL  # see check_rank and solve_iteration

    def __post_init__(self):
        B = _as_matrix(self.B, name="B")
        n, m = B.shape
        _check_mask(self.mask)
        if self.mask.shape != (m, n):
            raise ValueError(f"mask must be {m}x{n}")
        K0 = _as_matrix(self.initial_gain, rows=m, cols=n, name="initial_gain")
        _check_on_mask("initial_gain", K0, self.mask)
        _check_weights(self.weights, n, m)
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "initial_gain", _freeze(K0))
        _check_positive("dt", self.dt)
        _check_positive("window", self.window)
        _check_multiple("window", self.window, "dt", self.dt, least=2)
        _check_at_least("num_windows", self.num_windows,
                        required_samples(n, self.mask))
        _check_at_least("substeps", self.substeps, 1)
        _check_positive("tol", self.tol)
        _check_at_least("max_iter", self.max_iter, 1)
        _check_fraction("rank_tol", self.rank_tol)


def assemble_data(traj: Trajectory, window: float) -> DataMatrices:
    """Window the x x' / x u' records of a trajectory.

    Increments use exact endpoint evaluations; integrals use the composite
    trapezoidal rule, one Gram product Xw'Xw per window.
    """
    dt = traj.dt
    stride = _check_multiple("window", window, "the trajectory step", dt,
                             least=2)
    nwin = (len(traj.times) - 1) // stride
    if nwin < 1:
        raise ValueError("trajectory too short for a single window")

    X, U = traj.states, traj.inputs
    idx = np.arange(nwin + 1) * stride
    delta_xx = np.diff(np.einsum("wi,wj->wij", X[idx], X[idx]), axis=0)
    delta_xu = np.diff(np.einsum("wi,wj->wij", X[idx], U[idx]), axis=0)
    Xw = X[:idx[-1]].reshape(nwin, stride, -1)
    Uw = U[:idx[-1]].reshape(nwin, stride, -1)
    int_xx = dt * (Xw.transpose(0, 2, 1) @ Xw) + (0.5 * dt) * delta_xx
    int_xu = dt * (Xw.transpose(0, 2, 1) @ Uw) + (0.5 * dt) * delta_xu
    for block in (delta_xx, int_xx, int_xu):
        block.setflags(write=False)  # so DataMatrices takes them without a copy
    return DataMatrices(delta_xx=delta_xx, int_xx=int_xx, int_xu=int_xu)


def collect(plant: PlantHandle, policy: InputPolicy, x0,
            config: SrlConfig) -> Tuple[Trajectory, DataMatrices]:
    """Run the exploration policy and assemble the regression blocks."""
    horizon = config.num_windows * config.window
    traj = plant.simulate(policy, x0, horizon, dt=config.dt,
                          substeps=config.substeps)
    return traj, assemble_data(traj, config.window)


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of the distinct columns of [int_xx int_xu] (see
    DataMatrices.singular_values) against the paper's unknown count
    n(n+1)/2 + nnz(mask). sigma_max and sigma_min are the largest and
    smallest of those columns' singular values."""

    rank: int
    required: int
    sigma_max: float
    sigma_min: float

    @property
    def passed(self) -> bool:
        return self.rank >= self.required

    @property
    def margin(self) -> int:
        return self.rank - self.required

    def to_dict(self):
        return {**asdict(self), "passed": self.passed, "margin": self.margin}


def check_rank(data: DataMatrices, mask: SparsityMask,
               rank_tol: float = _RANK_TOL) -> RankReport:
    """Rank diagnostic for the excitation content of collected data: the
    singular values above rank_tol * sigma_max, counted from the spectrum
    the data set computes once, however often it is checked. A mask that
    is not an m-by-n SparsityMask for the data's n states and m inputs, or
    a rank_tol outside (0, 1), is a ValueError."""
    _check_mask(mask)
    _check_fraction("rank_tol", rank_tol)
    if mask.shape != (data.m, data.n):
        raise ValueError(f"mask shape {mask.shape} does not match the data's "
                         f"gain shape {(data.m, data.n)}")
    sv = data.singular_values
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > rank_tol * smax)) if smax > 0 else 0
    return RankReport(rank=rank, required=_num_unknowns(data.n, mask),
                      sigma_max=smax,
                      sigma_min=float(sv[-1]) if sv.size else 0.0)


def solve_iteration(data: DataMatrices, gain, config: SrlConfig) -> np.ndarray:
    """Policy evaluation from data: the value matrix P of the gain.

    B is known, so along the record d(x'Px)/dt = -x'Qbar x + 2 (u + Kx)' B'Px
    with Qbar = Q + K'RK, linear in P alone. Per window that is one least
    squares row <delta_xx - 2 H B', P> = -<int_xx, Qbar>, H = int_xx K' +
    int_xu, in the n(n+1)/2 distinct entries of P, solved from the Gram matrix
    G; an eigenvalue of G not above rank_tol * lambda_max (cond 1e6 at 1e-12)
    is a RankDeficientError, data whose (n, m) is not B's shape a ValueError.
    """
    n, m = config.B.shape
    if (data.n, data.m) != (n, m):
        raise ValueError(f"data (n, m) = {(data.n, data.m)} does not match "
                         f"B's shape {(n, m)}")
    K = _as_matrix(gain, rows=m, cols=n, name="gain")
    Qbar = config.weights.Q + K.T @ config.weights.R @ K
    coef = ((data.int_xx.reshape(-1, n) @ K.T + data.int_xu.reshape(-1, m))
            @ (-2.0 * config.B.T)).reshape(-1, n * n)
    coef += data.delta_xx.reshape(coef.shape)

    # The regressors cannot separate P_ij from P_ji, so their coefficients
    # are merged and the unknown is the n(n+1)/2 distinct values of a
    # symmetric P, ordered (i, j) with i <= j, column by column.
    j, i = np.tril_indices(n)
    theta = np.take(coef, j * n + i, axis=1)
    theta += np.take(coef, i * n + j, axis=1)
    theta[:, i == j] *= 0.5
    rhs = -np.tensordot(data.int_xx, Qbar.T)  # window integrals of x'Qbar x

    # equilibrate rows then columns; plain scaling, undone after the solve
    row_scale = np.linalg.norm(theta, axis=1)
    row_scale[row_scale == 0.0] = 1.0
    theta /= row_scale[:, None]
    rhs /= row_scale
    col_scale = np.linalg.norm(theta, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    theta /= col_scale
    # normal equations: their error grows as cond^2, hence the gate on G
    G = theta.T @ theta
    lam = np.linalg.eigvalsh(G)
    rank, p = int(np.sum(lam > config.rank_tol * lam[-1])), len(lam)
    if rank < p:  # cond from an SVD: past about 1e8, lam[0] is rounding
        raise RankDeficientError(
            f"regression matrix rank {rank} < {p} unknowns; deficient subspace "
            f"dimension {p - rank}; condition number {np.linalg.cond(theta):.3g}")
    P = np.zeros((n, n))
    P[i, j] = P[j, i] = np.linalg.solve(G, theta.T @ rhs) / col_scale
    return P


def srl_synthesize(data: DataMatrices, config: SrlConfig) -> SynthesisResult:
    """Data-driven structured synthesis from collected data: a rank gate,
    then policy iteration evaluating each gain by solve_iteration.
    """
    report = check_rank(data, config.mask, rank_tol=config.rank_tol)
    if not report.passed:
        raise RankDeficientError(
            f"data rank {report.rank} below the required count "
            f"{report.required} = n(n+1)/2 + nnz; gather more or richer data")

    RinvBt = np.linalg.solve(config.weights.R, config.B.T)
    return _policy_iteration(lambda k, K: solve_iteration(data, K, config),
                             config.initial_gain, RinvBt, config.mask,
                             config.tol, config.max_iter)
