"""Trajectory-data-driven structured gain synthesis.

This path never reads the state matrix: data comes through a plant handle
that only exposes simulation, the input matrix and measurements. Each
iteration solves one least-squares problem assembled from windowed
integrals of the recorded states and inputs.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .model_based import (ConvergenceError, IterationRecord, SynthesisResult,
                          _check_stopping_rule)
from .structure import SparsityMask, off_pattern, on_pattern
from .system import CostWeights, InputPolicy, LtiSystem, Trajectory, _as_matrix, _freeze


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


def make_exploration(seed: int, num_inputs: int, num_sinusoids: int = 100,
                     freq_range: Tuple[float, float] = (0.5, 50.0),
                     amplitude: float = 1.0) -> ExplorationSignal:
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
    where u is the input applied to the plant.
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
    window: float = 0.01          # data-sample spacing T, seconds
    num_windows: int = 140
    dt: float = 5e-5              # trajectory recording / quadrature step
    substeps: int = 1
    tol: float = 1e-6
    max_iter: int = 50
    rank_tol: float = 1e-12

    def __post_init__(self):
        B = _as_matrix(self.B, name="B")
        n, m = B.shape
        if self.mask.shape != (m, n):
            raise ValueError(f"mask must be {m}x{n}")
        K0 = _as_matrix(self.initial_gain, rows=m, cols=n, name="initial_gain")
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "initial_gain", _freeze(K0))
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


def _cumulative_trapezoid(rows: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(rows)
    np.cumsum(0.5 * dt * (rows[1:] + rows[:-1]), axis=0, out=out[1:])
    return out


def assemble_data(traj: Trajectory, window: float) -> DataMatrices:
    """Window the kron(x,x) / kron(x,u) records of a trajectory.

    Increment rows use exact endpoint evaluations; integral rows use the
    composite trapezoidal rule on the recorded grid.
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
    kxx = np.einsum("ti,tj->tij", X, X).reshape(len(X), -1)
    kxu = np.einsum("ti,tj->tij", X, U).reshape(len(X), -1)
    cxx = _cumulative_trapezoid(kxx, dt)
    cxu = _cumulative_trapezoid(kxu, dt)
    idx = np.arange(nwin + 1) * stride
    return DataMatrices(
        delta_xx=kxx[idx[1:]] - kxx[idx[:-1]],
        int_xx=cxx[idx[1:]] - cxx[idx[:-1]],
        int_xu=cxu[idx[1:]] - cxu[idx[:-1]],
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
    """Numerical rank of [int_xx int_xu] against both solvability counts.

    required counts the classical condition n(n+1)/2 + nnz(mask); the
    regression actually solved has n(n+1)/2 + n*m unknowns (the gain block
    is dense before masking), so required_regression is the operative bar.
    """

    rank: int
    required: int
    required_regression: int
    passed_required: bool
    passed_regression: bool
    sigma_max: float
    sigma_min: float

    @property
    def passed(self) -> bool:
        return self.passed_regression

    @property
    def margin(self) -> int:
        return self.rank - self.required_regression

    def to_dict(self):
        return {
            "rank": self.rank,
            "required": self.required,
            "required_regression": self.required_regression,
            "passed_required": self.passed_required,
            "passed_regression": self.passed_regression,
            "margin": self.margin,
            "sigma_max": self.sigma_max,
            "sigma_min": self.sigma_min,
        }


def check_rank(data: DataMatrices, mask: SparsityMask,
               rank_tol: float = 1e-12) -> RankReport:
    """Rank diagnostic for the excitation content of collected data."""
    n, m = data.n, data.m
    block = np.hstack([data.int_xx, data.int_xu])
    sv = np.linalg.svd(block, compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    rank = int(np.sum(sv > rank_tol * smax)) if smax > 0 else 0
    required = n * (n + 1) // 2 + mask.nnz
    required_regression = n * (n + 1) // 2 + n * m
    return RankReport(rank=rank, required=required,
                      required_regression=required_regression,
                      passed_required=rank >= required,
                      passed_regression=rank >= required_regression,
                      sigma_max=smax,
                      sigma_min=float(sv[-1]) if sv.size else 0.0)


def _half_pairs(n: int):
    return [(i, j) for j in range(n) for i in range(j + 1)]


def _fold_symmetric_columns(block: np.ndarray, n: int) -> np.ndarray:
    """Merge the kron(x,x) columns multiplying P_ij and P_ji (i != j).

    The regressors cannot separate symmetric entries, so the unknown is
    reduced to the n(n+1)/2 distinct values of a symmetric P.
    """
    cols = []
    for (i, j) in _half_pairs(n):
        if i == j:
            cols.append(block[:, j * n + i])
        else:
            cols.append(block[:, j * n + i] + block[:, i * n + j])
    return np.stack(cols, axis=1)


def _unfold_symmetric(values: np.ndarray, n: int) -> np.ndarray:
    P = np.zeros((n, n))
    for v, (i, j) in zip(values, _half_pairs(n)):
        P[i, j] = v
        P[j, i] = v
    return P


def solve_iteration(data: DataMatrices, gain, config: SrlConfig):
    """One policy-evaluation/update least squares.

    Solves for the symmetric value matrix P (half-vectorized) and the dense
    update block M = K_next + F jointly; returns (P, M).
    """
    n, m = data.n, data.m
    K = _as_matrix(gain, rows=m, cols=n, name="gain")
    R = config.weights.R
    Qbar = config.weights.Q + K.T @ R @ K

    eye = np.eye(n)
    theta_gain = (-2.0 * data.int_xx @ np.kron(eye, K.T @ R)
                  - 2.0 * data.int_xu @ np.kron(eye, R))
    theta = np.hstack([_fold_symmetric_columns(data.delta_xx, n), theta_gain])
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
    nh = n * (n + 1) // 2
    P = _unfold_symmetric(sol[:nh], n)
    M = sol[nh:].reshape(m, n, order="F")
    return P, M


def srl_synthesize(source, config: SrlConfig, x0=None,
                   policy: Optional[InputPolicy] = None) -> SynthesisResult:
    """Data-driven structured synthesis.

    source is either precollected DataMatrices or a PlantHandle; a plant
    needs x0 and an exploration policy for the collection phase. The loop
    alternates the joint least squares with the masked gain update
    K <- M - F, F = (R^-1 B' P) o complement, until ||dP|| < tol.
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
            f"data rank {report.rank} below the regression requirement "
            f"{report.required_regression} (classical count "
            f"{report.required}); gather more or richer data")

    R = config.weights.R
    RinvBt = np.linalg.solve(R, config.B.T)
    K = config.initial_gain.copy()
    history: List[IterationRecord] = []
    P_prev: Optional[np.ndarray] = None
    for k in range(config.max_iter):
        P, M = solve_iteration(data, K, config)
        F = off_pattern(RinvBt @ P, config.mask)
        K = on_pattern(M - F, config.mask)  # masked entries exactly zero
        delta = np.inf if P_prev is None else float(np.linalg.norm(P - P_prev, "fro"))
        history.append(IterationRecord(P=P, K=K, delta_P=delta))
        if P_prev is not None and delta < config.tol:
            return SynthesisResult(P=P, K=K, L=off_pattern(RinvBt @ P, config.mask),
                                   iterations=k + 1, history=history,
                                   converged=True)
        P_prev = P

    partial = SynthesisResult(P=P_prev, K=K,
                              L=off_pattern(RinvBt @ P_prev, config.mask),
                              iterations=config.max_iter, history=history,
                              converged=False)
    raise ConvergenceError(
        f"no convergence after {config.max_iter} iterations "
        f"(last ||dP|| = {history[-1].delta_P:.3g}, tol = {config.tol:g})",
        result=partial)
