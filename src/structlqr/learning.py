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
from .structure import SparsityMask, _check_on_mask
from .system import (CostWeights, InputPolicy, LtiSystem, Trajectory, _as_matrix,
                     _check_at_least, _check_multiple, _check_positive,
                     _check_weights, _freeze)


# Knob defaults, shared with the scenario configs.
_RANK_TOL = 1e-12          # rank cutoff relative to the largest singular value
_NUM_SINUSOIDS = 100       # probe sinusoids per input channel
_FREQ_RANGE = (0.5, 50.0)  # probe frequencies, rad/s
_AMPLITUDE = 1.0           # per-channel probe peak budget


class RankDeficientError(RuntimeError):
    """Collected data cannot identify all regression unknowns."""


@dataclass(frozen=True)
class ExplorationSignal:
    """Per-channel sum of sinusoids u0_j(t) = sum_i a_ji sin(w_ji t + p_ji)."""

    frequencies: np.ndarray  # (m, num_sinusoids), rad/s
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        arrays = {name: _as_matrix(np.atleast_2d(getattr(self, name)), name=name)
                  for name in ("frequencies", "amplitudes", "phases")}
        if len({a.shape for a in arrays.values()}) != 1:
            raise ValueError("frequencies, amplitudes, phases must share a shape")
        if np.any(arrays["frequencies"] <= 0):
            raise ValueError("frequencies must be positive")
        for name, a in arrays.items():
            object.__setattr__(self, name, _freeze(a))

    def __call__(self, t: float) -> np.ndarray:
        return (self.amplitudes
                * np.sin(self.frequencies * t + self.phases)).sum(axis=1)

    def sample(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        arg = self.frequencies[None, :, :] * times[:, None, None] + self.phases[None, :, :]
        return np.einsum("mk,tmk->tm", self.amplitudes, np.sin(arg))


def make_exploration(seed: int, num_inputs: int,
                     num_sinusoids: int = _NUM_SINUSOIDS,
                     freq_range: Tuple[float, float] = _FREQ_RANGE,
                     amplitude: float = _AMPLITUDE) -> ExplorationSignal:
    """Draw a seeded exploration signal.

    Each channel gets its own frequencies (uniform over freq_range, rad/s)
    and phases; the per-sinusoid amplitude is amplitude / num_sinusoids so
    the per-channel peak stays within the amplitude budget.
    """
    _check_at_least("num_inputs", num_inputs, 1)
    _check_at_least("num_sinusoids", num_sinusoids, 1)
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
    """Regression unknowns: n(n+1)/2 entries of the symmetric P plus nnz."""
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
        object.__setattr__(self, "delta_xx", d)
        object.__setattr__(self, "int_xx", xx)
        object.__setattr__(self, "int_xu", xu)

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
    rank_tol: float = _RANK_TOL

    def __post_init__(self):
        B = _as_matrix(self.B, name="B")
        n, m = B.shape
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
        need = required_samples(n, self.mask)
        if self.num_windows < need:
            raise ValueError(
                f"num_windows = {self.num_windows} below the required "
                f"sample count {need}")
        _check_positive("tol", self.tol)
        _check_at_least("max_iter", self.max_iter, 1)
        _check_positive("rank_tol", self.rank_tol)


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
    DataMatrices.singular_values) against the regression's unknown count
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
    is not m-by-n for the data's n states and m inputs is a ValueError."""
    if mask.shape != (data.m, data.n):
        raise ValueError(f"mask shape {mask.shape} does not match the data's "
                         f"gain shape {(data.m, data.n)}")
    sv = data.singular_values
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > rank_tol * smax)) if smax > 0 else 0
    return RankReport(rank=rank, required=_num_unknowns(data.n, mask),
                      sigma_max=smax,
                      sigma_min=float(sv[-1]) if sv.size else 0.0)


def _gain_regressors(data: DataMatrices, K, R) -> np.ndarray:
    """Per window, (int_xx K' + int_xu) R: the regressors of K_next'."""
    return (data.int_xx @ K.T + data.int_xu) @ R


def solve_iteration(data: DataMatrices, gain, config: SrlConfig):
    """One policy-evaluation/update least squares in the paper's unknowns.

    Solves jointly for the n(n+1)/2 distinct entries of the symmetric value
    matrix P and the nnz(mask) free entries of the next gain; returns
    (P, K_next) with K_next exactly zero off the mask.
    """
    n, m = data.n, data.m
    K = _as_matrix(gain, rows=m, cols=n, name="gain")
    R = config.weights.R
    Qbar = config.weights.Q + K.T @ R @ K
    RinvBt = np.linalg.solve(R, config.B.T)

    # G[:, c, r] multiplies entry (r, c) of R^-1 B' P. Off the mask that
    # entry is known from P, sum_l RinvBt[r, l] P[l, c], so those columns
    # are added to the coefficients of P (at [c, l]; P is symmetric) and
    # only the nnz on-mask gain entries stay unknowns.
    G = _gain_regressors(data, K, R)
    r, c = np.nonzero(config.mask.indicator)
    gain_cols = -2.0 * G[:, c, r]
    G *= config.mask.complement.T  # in place: one (N, n, m) array fewer
    coef = G @ (-2.0 * RinvBt)
    coef += data.delta_xx

    # The regressors cannot separate P_ij from P_ji, so their coefficients
    # are merged and the unknown is the n(n+1)/2 distinct values of a
    # symmetric P, ordered (i, j) with i <= j, column by column.
    j, i = np.tril_indices(n)
    P_cols = coef[:, j, i]
    off = i != j
    P_cols[:, off] += coef[:, i[off], j[off]]
    theta = np.hstack([P_cols, gain_cols])
    rhs = -np.tensordot(data.int_xx, Qbar.T)  # window integrals of x'Qbar x

    # equilibrate rows then columns; plain scaling, undone after the solve
    row_scale = np.linalg.norm(theta, axis=1)
    row_scale[row_scale == 0.0] = 1.0
    theta = theta / row_scale[:, None]
    rhs = rhs / row_scale
    col_scale = np.linalg.norm(theta, axis=0)
    col_scale[col_scale == 0.0] = 1.0

    sol, _, rank, _ = np.linalg.lstsq(theta / col_scale, rhs, rcond=None)
    ncols = theta.shape[1]
    if rank < ncols:
        raise RankDeficientError(
            f"regression matrix rank {rank} < {ncols} unknowns; "
            f"deficient subspace dimension {ncols - rank}")
    sol = sol / col_scale
    P = np.zeros((n, n))
    P[i, j] = P[j, i] = sol[:len(i)]
    K_next = np.zeros((m, n))
    K_next[r, c] = sol[len(i):]
    return P, K_next


def srl_synthesize(data: DataMatrices, config: SrlConfig) -> SynthesisResult:
    """Data-driven structured synthesis from collected data: a rank gate,
    then one solve_iteration least squares per iteration until ||dP|| < tol.
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
