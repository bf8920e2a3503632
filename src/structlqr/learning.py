"""Trajectory-data-driven structured gain synthesis.

This path never reads the state matrix: data comes through a plant handle
that only exposes simulation, the input matrix and measurements. Each
iteration solves one least-squares problem assembled from windowed
integrals of the recorded states and inputs.
"""

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .model_based import (_MAX_ITER, _TOL, SynthesisResult,
                          _check_stopping_rule, _policy_iteration)
from .structure import SparsityMask
from .system import (CostWeights, InputPolicy, LtiSystem, Trajectory, _as_matrix,
                     _check_positive, _freeze)


# Knob defaults, shared with the scenario configs.
_WINDOW = 0.01             # data-window length T, seconds
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
    seed: Optional[int] = None

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.frequencies, dtype=float))
        a = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        p = np.atleast_2d(np.asarray(self.phases, dtype=float))
        if not (f.shape == a.shape == p.shape):
            raise ValueError("frequencies, amplitudes, phases must share a shape")
        if np.any(f <= 0):
            raise ValueError("frequencies must be positive")
        object.__setattr__(self, "frequencies", _freeze(f))
        object.__setattr__(self, "amplitudes", _freeze(a))
        object.__setattr__(self, "phases", _freeze(p))

    @property
    def num_channels(self) -> int:
        return self.frequencies.shape[0]

    @property
    def num_sinusoids(self) -> int:
        return self.frequencies.shape[1]

    @property
    def peak_bound(self) -> np.ndarray:
        """Per-channel bound sum |a_ji| on |u0_j(t)|."""
        return np.sum(np.abs(self.amplitudes), axis=1)

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
    if num_sinusoids < 1:
        raise ValueError("num_sinusoids must be at least 1")
    lo, hi = freq_range
    if not (0 < lo <= hi):
        raise ValueError("freq_range must satisfy 0 < lo <= hi")
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(lo, hi, size=(num_inputs, num_sinusoids))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_inputs, num_sinusoids))
    amps = np.full((num_inputs, num_sinusoids), amplitude / num_sinusoids)
    return ExplorationSignal(frequencies=freqs, amplitudes=amps, phases=phases,
                             seed=seed)


@dataclass(frozen=True)
class PlantHandle:
    """What the learner may touch: simulate, the input matrix, dimensions.

    The state matrix stays inside the closure and is not reachable from
    this object.
    """

    B: np.ndarray
    n: int
    m: int
    _run: Callable

    def simulate(self, policy: InputPolicy, x0, horizon: float, dt: float,
                 substeps: int = 1) -> Trajectory:
        return self._run(policy, x0, horizon, dt, substeps)


def hide_state_matrix(sys: LtiSystem) -> PlantHandle:
    """Wrap a system so downstream code can only excite and measure it."""
    from .system import simulate as _simulate

    def run(policy, x0, horizon, dt, substeps=1):
        return _simulate(sys, policy, x0, horizon, dt=dt, substeps=substeps)

    return PlantHandle(B=sys.B, n=sys.n, m=sys.m, _run=run)


def required_samples(n: int, mask: SparsityMask) -> int:
    """Data windows needed: twice the unknown count n(n+1)/2 + nnz."""
    return 2 * (n * (n + 1) // 2 + mask.nnz)


@dataclass(frozen=True)
class DataMatrices:
    """Windowed regression blocks built from one exploration run.

    delta_xx rows are increments of kron(x, x) across each window,
    int_xx / int_xu are window integrals of kron(x, x) and kron(x, u)
    where u is the input applied to the plant. The columns stay in kron
    order (n*n, n*n and n*m of them); solve_iteration folds them into its
    n(n+1)/2 + nnz(mask) unknowns.
    """

    delta_xx: np.ndarray
    int_xx: np.ndarray
    int_xu: np.ndarray
    window_length: float
    window_starts: np.ndarray

    def __post_init__(self):
        if not (self.delta_xx.shape[0] == self.int_xx.shape[0]
                == self.int_xu.shape[0] == len(self.window_starts)):
            raise ValueError("row counts of the data blocks must agree")
        object.__setattr__(self, "delta_xx", _freeze(np.asarray(self.delta_xx, float)))
        object.__setattr__(self, "int_xx", _freeze(np.asarray(self.int_xx, float)))
        object.__setattr__(self, "int_xu", _freeze(np.asarray(self.int_xu, float)))
        object.__setattr__(self, "window_starts",
                           _freeze(np.asarray(self.window_starts, float)))

    @property
    def num_windows(self) -> int:
        return self.delta_xx.shape[0]

    @property
    def n(self) -> int:
        return int(round(np.sqrt(self.int_xx.shape[1])))

    @property
    def m(self) -> int:
        return self.int_xu.shape[1] // self.n


@dataclass(frozen=True)
class SrlConfig:
    """Knobs for data collection and the least-squares iteration."""

    mask: SparsityMask
    weights: CostWeights
    B: np.ndarray
    initial_gain: np.ndarray
    window: float = _WINDOW       # data-sample spacing T, seconds
    num_windows: int = 140
    dt: float = 5e-5              # trajectory recording / quadrature step
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
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "initial_gain", _freeze(K0))
        _check_positive("dt", self.dt)
        _check_positive("window", self.window)
        if self.window < 2.0 * self.dt:
            raise ValueError("window must span at least 2 recording steps")
        stride = self.window / self.dt
        if abs(stride - round(stride)) > 1e-9 * max(1.0, stride):
            raise ValueError("window must be an integer multiple of dt")
        need = required_samples(n, self.mask)
        if self.num_windows < need:
            raise ValueError(
                f"num_windows = {self.num_windows} below the required "
                f"sample count {need}")
        _check_stopping_rule(self.tol, self.max_iter)
        _check_positive("rank_tol", self.rank_tol)


def assemble_data(traj: Trajectory, window: float) -> DataMatrices:
    """Window the kron(x,x) / kron(x,u) records of a trajectory.

    Increment rows use exact endpoint evaluations; integral rows use the
    composite trapezoidal rule, one Gram product Xw'Xw per window.
    """
    dt = traj.dt
    stride_f = window / dt
    stride = int(round(stride_f))
    if abs(stride_f - stride) > 1e-9 * max(1.0, stride_f) or stride < 2:
        raise ValueError(
            f"window {window:g} must be an integer multiple (>= 2) of the "
            f"trajectory step {dt:g}")
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
    return DataMatrices(
        delta_xx=delta_xx.reshape(nwin, -1),
        int_xx=int_xx.reshape(nwin, -1),
        int_xu=int_xu.reshape(nwin, -1),
        window_length=window,
        window_starts=traj.times[idx[:-1]],
    )


def collect(plant: PlantHandle, policy: InputPolicy, x0,
            config: SrlConfig) -> Tuple[Trajectory, DataMatrices]:
    """Run the exploration policy and assemble the regression blocks."""
    horizon = config.num_windows * config.window
    traj = plant.simulate(policy, x0, horizon, dt=config.dt,
                          substeps=config.substeps)
    return traj, assemble_data(traj, config.window)


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of [int_xx int_xu] against the regression's unknown
    count n(n+1)/2 + nnz(mask): the distinct entries of the symmetric value
    matrix plus the free gain entries."""

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
    """Rank diagnostic for the excitation content of collected data."""
    n = data.n
    block = np.hstack([data.int_xx, data.int_xu])
    sv = np.linalg.svd(block, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > rank_tol * smax)) if smax > 0 else 0
    return RankReport(rank=rank, required=n * (n + 1) // 2 + mask.nnz,
                      sigma_max=smax,
                      sigma_min=float(sv[-1]) if sv.size else 0.0)


def _gain_regressors(data: DataMatrices, K, R) -> np.ndarray:
    """Rows of int_xx @ kron(I, K'R) + int_xu @ kron(I, R), without the krons."""
    N, n, m = data.num_windows, data.n, data.m
    return ((data.int_xx.reshape(N, n, n) @ K.T
             + data.int_xu.reshape(N, n, m)) @ R).reshape(N, -1)


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
    G = _gain_regressors(data, K, R).reshape(-1, n, m)
    r, c = np.nonzero(config.mask.indicator)
    gain_cols = -2.0 * G[:, c, r]
    G *= config.mask.complement.T  # in place: one (N, n, m) array fewer
    coef = G @ (-2.0 * RinvBt)
    coef += data.delta_xx.reshape(-1, n, n)

    # The regressors cannot separate P_ij from P_ji, so their coefficients
    # are merged and the unknown is the n(n+1)/2 distinct values of a
    # symmetric P, ordered (i, j) with i <= j, column by column.
    j, i = np.tril_indices(n)
    P_cols = coef[:, j, i]
    off = i != j
    P_cols[:, off] += coef[:, i[off], j[off]]
    theta = np.hstack([P_cols, gain_cols])
    rhs = -data.int_xx @ Qbar.ravel(order="F")

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


def srl_synthesize(source, config: SrlConfig, x0=None,
                   policy: Optional[InputPolicy] = None) -> SynthesisResult:
    """Data-driven structured synthesis.

    source is either precollected DataMatrices or a PlantHandle; a plant
    needs x0 and an exploration policy for the collection phase. Each
    iteration is one solve_iteration least squares for P and the masked
    next gain, until ||dP|| < tol.
    """
    if isinstance(source, DataMatrices):
        data = source
    elif isinstance(source, PlantHandle):
        if x0 is None or policy is None:
            raise ValueError("collecting from a plant needs x0 and a policy")
        _, data = collect(source, policy, x0, config)
    else:
        raise TypeError("source must be DataMatrices or PlantHandle")

    report = check_rank(data, config.mask, rank_tol=config.rank_tol)
    if not report.passed:
        raise RankDeficientError(
            f"data rank {report.rank} below the required count "
            f"{report.required} = n(n+1)/2 + nnz; gather more or richer data")

    RinvBt = np.linalg.solve(config.weights.R, config.B.T)
    return _policy_iteration(lambda k, K: solve_iteration(data, K, config),
                             config.initial_gain, RinvBt, config.mask,
                             config.tol, config.max_iter)
