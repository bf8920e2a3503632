"""Trajectory-data-driven structured gain synthesis.

This path never reads the state matrix: data comes through a plant handle
that only exposes simulation, and the input matrix through the config. Each
iteration solves one least-squares problem assembled from windowed
integrals of the recorded states and inputs.
"""

from dataclasses import asdict, dataclass
from typing import Callable, Tuple

import numpy as np

from .model_based import (_MAX_ITER, _TOL, SynthesisResult, _check_problem,
                          _policy_iteration)
from .structure import SparsityMask
from .system import (_DIVERGENCE_BOUND, _SEGMENT_ENTRIES, CostWeights,
                     ExplorationSignal, InputPolicy, LtiSystem,
                     SimulationDiverged, Trajectory, _as_floats, _as_matrix,
                     _as_pair, _as_state, _check_at_least, _check_fraction,
                     _check_instance, _check_multiple, _check_positive,
                     _freeze, _is_real)


# Knob defaults and caps, shared with the scenario configs.
_RANK_TOL = 1e-12          # unit-column Gram eigenvalue cutoff: cond < 1e6
_NUM_SINUSOIDS = 100       # probe sinusoids per input channel
_MAX_SINUSOIDS = 10000     # their cap: 1e8 grew a consensus-a run to 7.8 GB
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
    _check_at_least("num_sinusoids", num_sinusoids, 1, _MAX_SINUSOIDS)
    _check_positive("amplitude", amplitude)
    lo, hi, _ = _as_pair(freq_range)
    if not (_is_real(lo) and _is_real(hi) and 0 < lo <= hi < np.inf):
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

    def __post_init__(self):
        if not callable(self.simulate):
            raise ValueError("simulate must be callable, "
                             f"got {type(self.simulate).__name__}")


def hide_state_matrix(sys: LtiSystem) -> PlantHandle:
    """Wrap a system so downstream code can only excite and measure it; the
    state matrix stays inside the closure."""
    from .system import simulate as _simulate

    _check_instance("sys", sys, LtiSystem)

    def simulate(policy, x0, horizon, dt, substeps):
        return _simulate(sys, policy, x0, horizon, dt=dt, substeps=substeps)

    return PlantHandle(simulate=simulate)


def required_samples(n: int, mask: SparsityMask) -> int:
    """The least cap on the data windows to record: twice the paper's
    unknown count n(n+1)/2 + nnz. It only sizes the cap; collect may stop
    before it, and the rank gate counts n(n+1)/2."""
    _check_at_least("n", n, 1)
    _check_instance("mask", mask, SparsityMask)
    if mask.shape[1] != n:
        raise ValueError(f"mask must have n = {n} columns, got {mask.shape[1]}")
    return 2 * (n * (n + 1) // 2 + mask.nnz)


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
        d, xx, xu = (_freeze(_as_floats(getattr(self, name), name))
                     for name in ("delta_xx", "int_xx", "int_xu"))
        if not (xu.ndim == 3
                and d.shape == xx.shape == (len(xu), xu.shape[1], xu.shape[1])):
            raise ValueError(
                "data blocks must be (N, n, n), (N, n, n) and (N, n, m), "
                f"got {d.shape}, {xx.shape} and {xu.shape}")
        _check_at_least("windows of delta_xx, int_xx and int_xu", len(xu), 1)
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


@dataclass(frozen=True)
class SrlConfig:
    """Knobs for data collection and the least-squares iteration."""

    mask: SparsityMask
    weights: CostWeights
    B: np.ndarray
    initial_gain: np.ndarray
    window: float       # data-sample spacing T, seconds
    num_windows: int    # cap on the windows collect records
    dt: float           # trajectory recording / quadrature step
    substeps: int = 1   # least RK4 steps per dt; simulate may take more
    tol: float = _TOL
    max_iter: int = _MAX_ITER
    rank_tol: float = _RANK_TOL  # see check_rank and solve_iteration

    def __post_init__(self):
        B = _as_matrix(self.B, name="B")
        n, m = B.shape
        K0 = _check_problem(n, m, self.weights, self.mask, self.initial_gain,
                            self.tol, self.max_iter)
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "initial_gain", _freeze(K0))
        _check_positive("dt", self.dt)
        _check_positive("window", self.window)
        _check_multiple("window", self.window, "dt", self.dt, least=2)
        _check_at_least("num_windows", self.num_windows,
                        required_samples(n, self.mask))
        _check_at_least("substeps", self.substeps, 1)
        _check_fraction("rank_tol", self.rank_tol)


def assemble_data(traj: Trajectory, window: float) -> DataMatrices:
    """Window the x x' / x u' records of a trajectory.

    Increments use exact endpoint evaluations; integrals use the composite
    trapezoidal rule, one Gram product Xw'Xw per window.
    """
    _check_instance("traj", traj, Trajectory)
    _check_positive("window", window)
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
    """Run the exploration policy until the data determine the gain, and
    assemble the regression blocks of the record.

    The exploration runs in chunks of ceil(n(n+1)/4) windows, each one
    plant.simulate call from the last chunk's final state, with the
    probe's phases advanced by w t0 to the chunk's start t0, so that the
    input is the same function of time. After each chunk the new windows'
    distinct int_xx columns join a running Gram matrix, and recording stops
    at the first chunk where their condition number by the rank rule
    (_gram_rank's) is at most rank_tol**-0.2, the gate's bound
    1/sqrt(rank_tol) to the power 2/5: 251 at the default 1e-12. One
    column (n = 1) has condition 1 whatever the data, so it never stops
    early. Otherwise recording stops at the config's num_windows, the cap.

    The record returned is the chunks end to end, each later chunk's first
    sample (the carried state) dropped, on the times dt * arange; the data
    are assemble_data of it. A chunk's record must be on the config's step
    dt, as wide as its B and hold the chunk's windows, else ValueError: the
    config sizes it. x0 must be a state _as_state takes, as for simulate."""
    _check_instance("plant", plant, PlantHandle)
    _check_instance("policy", policy, InputPolicy)
    _check_instance("config", config, SrlConfig)
    n = config.B.shape[0]
    chunk = -(-n * (n + 1) // 4)
    bound = config.rank_tol ** -0.2
    gram = np.zeros((n * (n + 1) // 2,) * 2)
    chunks, done, x = [], 0, _as_state(x0, n)
    while done < config.num_windows:
        windows = min(chunk, config.num_windows - done)
        t0 = done * config.window
        try:
            traj = plant.simulate(_advanced(policy, t0), x,
                                  windows * config.window, dt=config.dt,
                                  substeps=config.substeps)
            theta = _distinct_xx(_chunk_data(traj, config, windows).int_xx)
        except SimulationDiverged as exc:  # at the exploration's time
            raise SimulationDiverged(time=t0 + exc.time) from None
        gram += theta.T @ theta
        chunks.append(traj)
        done, x = done + windows, traj.states[-1]
        if n > 1 and _rank_of_gram(gram.copy(),
                                   config.rank_tol)[1].condition <= bound:
            break
    states = np.concatenate([chunks[0].states]
                            + [traj.states[1:] for traj in chunks[1:]])
    inputs = np.concatenate([chunks[0].inputs]
                            + [traj.inputs[1:] for traj in chunks[1:]])
    times = config.dt * np.arange(len(states))
    for arr in (times, states, inputs):
        arr.setflags(write=False)  # so Trajectory takes them without a copy
    record = Trajectory(times=times, states=states, inputs=inputs)
    return record, assemble_data(record, config.window)


def _advanced(policy: InputPolicy, t0: float) -> InputPolicy:
    """policy seen from t0 on: its probe's phases advanced by w t0."""
    probe = policy.probe
    if probe is None or t0 == 0:
        return policy
    return InputPolicy(gain=policy.gain, probe=ExplorationSignal(
        frequencies=probe.frequencies, amplitudes=probe.amplitudes,
        phases=probe.phases + probe.frequencies * t0))


def _chunk_data(traj, config: SrlConfig, windows: int) -> DataMatrices:
    """The blocks of one chunk's record, which must be a Trajectory on the
    config's step, as wide as its B, holding the chunk's windows; its first
    state above _DIVERGENCE_BOUND is a SimulationDiverged at its time."""
    _check_instance("traj", traj, Trajectory)
    if not abs(traj.dt - config.dt) <= 1e-9 * config.dt:
        raise ValueError(f"the plant's record must have the config's step "
                         f"dt {config.dt!r}, got {traj.dt!r}")
    width = (traj.states.shape[1], traj.inputs.shape[1])
    if width != config.B.shape:
        raise ValueError(f"the plant's record must have the config's "
                         f"(n, m) = {config.B.shape} states and inputs, "
                         f"got {width}")
    over = np.max(np.abs(traj.states), axis=1) > _DIVERGENCE_BOUND
    if over.any():
        raise SimulationDiverged(time=int(np.argmax(over)) * config.dt)
    data = assemble_data(traj, config.window)
    if data.num_windows != windows:
        raise ValueError(f"the plant's record must hold the chunk's "
                         f"{windows} windows, got {data.num_windows}")
    return data


def _distinct_xx(int_xx: np.ndarray) -> np.ndarray:
    """The n(n+1)/2 distinct int_xx entries (i <= j), a column each over the
    windows."""
    N, n = int_xx.shape[:2]
    i, j = np.triu_indices(n)
    # a take on the flat windows gathers in half the time of int_xx[:, i, j]
    return np.take(int_xx.reshape(N, -1), i * n + j, axis=1)


def _gram_rank(theta: np.ndarray, rank_tol: float):
    """The one rank rule, blind to column scale: G, the Gram matrix
    theta' theta formed once and scaled in place by _rank_of_gram (theta is
    not changed), the norms that undo the scaling, and G's RankReport."""
    G = theta.T @ theta
    return (G, *_rank_of_gram(G, rank_tol))


def _rank_of_gram(G: np.ndarray, rank_tol: float):
    """The rule's core on a Gram matrix G: G scaled in place to unit
    diagonal by the square roots of its own diagonal (zero columns count as
    norm 1), then those norms and G's RankReport."""
    norms = np.sqrt(np.diagonal(G))
    norms[norms == 0.0] = 1.0
    G /= norms
    G /= norms[:, None]
    lam = np.linalg.eigvalsh(G)
    condition = np.sqrt(lam[-1] / lam[0]) if lam[0] > 0.0 else np.inf
    rank = int(np.sum(lam > rank_tol * lam[-1]))
    return norms, RankReport(rank, len(lam), float(condition))


@dataclass(frozen=True)
class RankReport:
    """Rank of a regressor's unit-norm columns, the eigenvalues of their
    Gram matrix above rank_tol * lambda_max, against the count required
    (the columns), and their condition number sqrt(lambda_max /
    lambda_min), inf when lambda_min <= 0: the number rank_tol bounds
    (full rank: below 1/sqrt(rank_tol)), resolved up to about 1e8."""

    rank: int
    required: int
    condition: float

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
    """Rank gate on the excitation of collected data: _gram_rank, the rule
    of every regression, on the n(n+1)/2 distinct int_xx columns (i <= j),
    blind to a state's units; the P-only regressor has their rank at any
    stabilizing gain. Data that are not DataMatrices, a mask that is not
    an m-by-n SparsityMask for them, or a rank_tol outside (0, 1), is a
    ValueError."""
    _check_instance("data", data, DataMatrices)
    _check_instance("mask", mask, SparsityMask)
    _check_fraction("rank_tol", rank_tol)
    if mask.shape != (data.m, data.n):
        raise ValueError(f"mask shape {mask.shape} does not match the data's "
                         f"gain shape {(data.m, data.n)}")
    return _gram_rank(_distinct_xx(data.int_xx), rank_tol)[2]


def solve_iteration(data: DataMatrices, gain, config: SrlConfig) -> np.ndarray:
    """Policy evaluation from data: the value matrix P of the gain.

    B is known, so along the record d(x'Px)/dt = -x'Qbar x + 2 (u + Kx)' B'Px
    with Qbar = Q + K'RK, linear in P alone. Per window that is one least
    squares row <delta_xx - 2 H B', P> = -<int_xx, Qbar>, H = int_xx K' +
    int_xu, in the n(n+1)/2 distinct entries of P, solved from the Gram matrix
    G, gated by _gram_rank as in check_rank (cond of the unit-norm columns
    below 1/sqrt(rank_tol), 1e6 at 1e-12): a failure is a
    RankDeficientError naming that bound; data or config of the wrong type,
    or data whose (n, m) is not B's shape, a ValueError.

    The regressor theta (N, n(n+1)/2) is one array, written in row blocks
    of at most _SEGMENT_ENTRIES coefficients and row-scaled in place; the
    right side is (theta' rhs) / norms, so besides the data only theta, G
    and one block are held.
    """
    _check_instance("data", data, DataMatrices)
    _check_instance("config", config, SrlConfig)
    n, m = config.B.shape
    if (data.n, data.m) != (n, m):
        raise ValueError(f"data (n, m) = {(data.n, data.m)} does not match "
                         f"B's shape {(n, m)}")
    K = _as_matrix(gain, (m, n), "gain")
    Qbar = config.weights.Q + K.T @ config.weights.R @ K

    # The regressors cannot separate P_ij from P_ji, so their coefficients
    # are merged and the unknown is the n(n+1)/2 distinct values of a
    # symmetric P, ordered (i, j) with i <= j, column by column.
    j, i = np.tril_indices(n)
    lower, upper, diagonal = j * n + i, i * n + j, i == j
    theta = np.empty((data.num_windows, len(i)))
    rows = max(1, _SEGMENT_ENTRIES // (n * n))
    for first in range(0, data.num_windows, rows):
        span = slice(first, first + rows)
        coef = ((data.int_xx[span].reshape(-1, n) @ K.T
                 + data.int_xu[span].reshape(-1, m)) @ (-2.0 * config.B.T)
                ).reshape(-1, n * n)
        coef += data.delta_xx[span].reshape(coef.shape)
        block = theta[span]
        # mode "clip" (the indices are in range): "raise" buffers out
        np.take(coef, lower, axis=1, out=block, mode="clip")
        block += np.take(coef, upper, axis=1)
        block[:, diagonal] *= 0.5
    rhs = -np.tensordot(data.int_xx, Qbar.T)  # window integrals of x'Qbar x

    # equilibrate rows, then _gram_rank columns; scaling undone after solve
    row_scale = np.sqrt(np.einsum("ij,ij->i", theta, theta))
    row_scale[row_scale == 0.0] = 1.0
    theta /= row_scale[:, None]
    rhs /= row_scale
    # normal equations: their error grows as cond^2, hence the gate on G
    G, norms, report = _gram_rank(theta, config.rank_tol)
    if not report.passed:
        raise RankDeficientError(
            f"regression matrix rank {report.rank} < {report.required} "
            f"unknowns; deficient subspace dimension "
            f"{report.required - report.rank}; "
            f"condition number above {1.0 / np.sqrt(config.rank_tol):.3g}")
    P = np.zeros((n, n))
    P[i, j] = P[j, i] = np.linalg.solve(G, (theta.T @ rhs) / norms) / norms
    return P


def srl_synthesize(data: DataMatrices, config: SrlConfig) -> SynthesisResult:
    """Data-driven structured synthesis from collected data: check_rank,
    then policy iteration evaluating each gain by solve_iteration.
    """
    _check_instance("config", config, SrlConfig)
    report = check_rank(data, config.mask, rank_tol=config.rank_tol)
    if not report.passed:
        raise RankDeficientError(
            f"data rank {report.rank} below the required count "
            f"{report.required} = n(n+1)/2; gather more or richer data")

    RinvBt = np.linalg.solve(config.weights.R, config.B.T)
    return _policy_iteration(lambda k, K: solve_iteration(data, K, config),
                             config.initial_gain, RinvBt, config.mask,
                             config.tol, config.max_iter)
