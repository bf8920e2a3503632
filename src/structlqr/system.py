"""Continuous-time LTI dynamics: simulation, stability checks, quadratic cost."""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class SimulationDiverged(RuntimeError):
    """State became non-finite during integration."""

    def __init__(self, time: float):
        super().__init__(f"state diverged (non-finite) at t = {time:.6g} s")
        self.time = time


class UnstableClosedLoopError(ValueError):
    """A matrix that must be Hurwitz is not: a closed loop, a Lyapunov
    equation's M, or the loop of an initial gain or a policy iterate."""


class TruncationWarning(UserWarning):
    """Cost integral truncated before the state decayed to the target level."""


def _as_matrix(M, rows=None, cols=None, name="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if rows is not None and M.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {M.shape[1]}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def _check_positive(name: str, value) -> None:
    """Reject a time step or span that is not finite and positive."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_at_least(name: str, value, low: int) -> None:
    """Reject a count below its smallest meaningful value."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")


def _check_multiple(name: str, span, step_name: str, step, least: int = 1) -> int:
    """Return span / step, rejecting a ratio that is not a whole number (to
    1e-9 relative) of at least `least`."""
    ratio = span / step
    count = int(round(ratio)) if np.isfinite(ratio) else 0
    if abs(ratio - count) > 1e-9 * max(1.0, ratio) or count < least:
        at_least = f" (>= {least})" if least > 1 else ""
        raise ValueError(
            f"{name} must be an integer multiple{at_least} of {step_name} "
            f"{step:g}, got {span!r}")
    return count


# RK4 steps one simulate call may take. A call holds 8 (2m + 1) bytes of
# probe samples per step and 8 (n + m + 1) bytes of record per recorded
# sample, so at one substep the cap bounds a 6-agent builtin run at 2.1 GB.
# A builtin exploration run takes 28,000 steps, the largest benchmark run
# 61,000.
_MAX_STEPS = 10**7


def _check_step_count(name: str, span, dt, substeps) -> None:
    """Reject a time span that would take more than _MAX_STEPS RK4 steps."""
    if span / dt * substeps > _MAX_STEPS:
        raise ValueError(
            f"{name} must be at most {_MAX_STEPS * dt / substeps:g} s at "
            f"dt {dt:g} with {substeps} substeps, got {span!r}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LtiSystem:
    """State-space model x' = A x + B u."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        B = _as_matrix(self.B, rows=A.shape[0], name="B")
        if A.shape[0] < 1 or B.shape[1] < 1:
            raise ValueError("state and input dimensions must be at least 1")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class CostWeights:
    """Quadratic running-cost weights: Q PSD on states, R PD on inputs."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = _as_matrix(self.Q, name="Q")
        R = _as_matrix(self.R, name="R")
        if Q.shape[0] != Q.shape[1] or R.shape[0] != R.shape[1]:
            raise ValueError("Q and R must be square")
        if np.max(np.abs(Q - Q.T)) > 1e-12 * (1.0 + np.max(np.abs(Q))):
            raise ValueError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        if np.max(np.abs(R - R.T)) > 1e-12 * (1.0 + np.max(np.abs(R))):
            raise ValueError("R must be symmetric")
        R = 0.5 * (R + R.T)
        if np.min(np.linalg.eigvalsh(Q)) < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(R)) <= 0.0:
            raise ValueError("R must be positive definite")
        object.__setattr__(self, "Q", _freeze(Q))
        object.__setattr__(self, "R", _freeze(R))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state/input record of one simulation run."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        inputs = np.asarray(self.inputs, dtype=float)
        if not (len(times) == len(states) == len(inputs)):
            raise ValueError("times, states, inputs must have equal length")
        if len(times) < 2:
            raise ValueError("a trajectory needs at least two samples")
        steps = np.diff(times)
        if np.any(steps <= 0):
            raise ValueError("times must be strictly increasing")
        dt = steps[0]
        if np.max(np.abs(steps - dt)) > 1e-12 * max(1.0, abs(dt)) * len(times):
            raise ValueError("sample spacing must be uniform")
        object.__setattr__(self, "times", _freeze(times))
        object.__setattr__(self, "states", _freeze(states))
        object.__setattr__(self, "inputs", _freeze(inputs))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class InputPolicy:
    """Input law u(t, x) = -gain @ x + probe(t); either part may be absent,
    and with neither the input is zero."""

    gain: Optional[np.ndarray] = None
    probe: Optional[Callable[[float], np.ndarray]] = None

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def feedback(cls, gain):
        return cls(gain=np.asarray(gain, dtype=float))

    @classmethod
    def feedback_with_probe(cls, gain, probe):
        return cls(gain=np.asarray(gain, dtype=float), probe=probe)


def spectral_abscissa(M) -> float:
    """Largest real part over the eigenvalues of a square matrix."""
    M = _as_matrix(M, name="matrix")
    if M.shape[0] != M.shape[1]:
        raise ValueError("spectral abscissa is defined for square matrices")
    return float(np.max(np.linalg.eigvals(M).real))


def is_hurwitz(M) -> bool:
    """True when every eigenvalue satisfies Re(lambda) < 0."""
    return spectral_abscissa(M) < 0.0


def _check_hurwitz(M, what: str) -> None:
    """Raise UnstableClosedLoopError, saying `what`, unless M is Hurwitz."""
    sa = spectral_abscissa(M)
    if sa >= 0.0:
        raise UnstableClosedLoopError(f"{what} (spectral abscissa {sa:.6g})")


def _as_state(x0, n: int) -> np.ndarray:
    """x0 as a float vector of shape (n,) with finite entries."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 has non-finite entries")
    return x0


def _probe_samples(probe, times, m):
    if probe is None:
        return np.zeros((len(times), m))
    out = np.empty((len(times), m))
    for i, t in enumerate(times):
        out[i] = np.asarray(probe(t), dtype=float)
    return out


def _rk4_step(G, h, x, f_start, f_mid, f_end):
    """One classical RK4 step of x' = G x + f(t), f given at the step's
    start, midpoint and end; x and the f's may be matrices of columns."""
    k1 = G @ x + f_start
    k2 = G @ (x + 0.5 * h * k1) + f_mid
    k3 = G @ (x + 0.5 * h * k2) + f_mid
    k4 = G @ (x + h * k3) + f_end
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# A recorded state entry above this counts as divergence; it also caps a
# scenario's x0 entries, whose quadratic costs would overflow a float.
_DIVERGENCE_BOUND = 1e150

# RK4 steps whose forcing terms are formed at once, in one (steps, n)
# buffer reused across blocks; a full-length array would add 8 * steps * n
# bytes to the peak memory of a long exploration run.
_BLOCK_STEPS = 1024


def simulate(sys: LtiSystem, policy: InputPolicy, x0, horizon: float,
             dt: float = 0.01, substeps: int = 10) -> Trajectory:
    """Integrate the closed/open loop with classical RK4.

    The plant is LTI and the policy affine, so one RK4 step is the fixed
    linear map x+ = Phi x + E1 u0(t) + E2 u0(t + h/2) + E3 u0(t + h),
    built once per call from the RK4 stage formulas (h = dt / substeps).

    Args:
        sys: plant dynamics.
        policy: input law; the probe part is evaluated at the RK4 stage
            times, the feedback part at the stage states.
        x0: initial state.
        horizon: total simulated time, seconds.
        dt: recording step.
        substeps: internal RK4 steps per recorded sample.

    Raises:
        SimulationDiverged: at the first recorded sample that is non-finite
            or exceeds _DIVERGENCE_BOUND in magnitude.
    """
    _check_positive("dt", dt)
    _check_positive("horizon", horizon)
    _check_at_least("substeps", substeps, 1)
    if horizon < dt:
        raise ValueError("horizon must cover at least one step")
    _check_step_count("horizon", horizon, dt, substeps)
    x0 = _as_state(x0, sys.n)
    if policy.gain is not None and policy.gain.shape != (sys.m, sys.n):
        raise ValueError(f"feedback gain must be {sys.m}x{sys.n}")

    nsteps = int(np.floor(horizon / dt + 1e-9))
    total = nsteps * substeps
    h = dt / substeps

    G = sys.A if policy.gain is None else sys.A - sys.B @ policy.gain
    # probe u0(t), evaluated at step starts and midpoints in one pass
    starts = h * np.arange(total + 1)
    probe_start = _probe_samples(policy.probe, starts, sys.m)
    probe_mid = _probe_samples(policy.probe, starts[:-1] + 0.5 * h, sys.m)

    zero, B = np.zeros_like(sys.B), sys.B
    PhiT = _rk4_step(G, h, np.eye(sys.n), 0.0, 0.0, 0.0).T
    E1T, E2T, E3T = (_rk4_step(G, h, zero, *f).T for f in
                     ((B, zero, zero), (zero, B, zero), (zero, zero, B)))

    states = np.empty((nsteps + 1, sys.n))
    states[0] = x0
    x = x0
    # whole recorded samples per block, so each block ends on one
    rows = min(nsteps, max(1, _BLOCK_STEPS // substeps))
    block = np.empty((rows * substeps, sys.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, nsteps, rows):
            last = min(first + rows, nsteps)
            k0, k1 = first * substeps, last * substeps
            # the forcing terms, then in place the states after each step
            path = np.matmul(probe_start[k0:k1], E1T, out=block[:k1 - k0])
            path += probe_mid[k0:k1] @ E2T
            path += probe_start[k0 + 1:k1 + 1] @ E3T
            for row in path:
                row += x @ PhiT
                x = row
            x = x.copy()  # the next block overwrites the buffer
            recorded = path[substeps - 1::substeps]
            # the comparison is False for nan, so non-finite rows are bad too
            bad = ~np.all(np.abs(recorded) <= _DIVERGENCE_BOUND, axis=1)
            if bad.any():
                raise SimulationDiverged(
                    time=(first + 1 + int(np.argmax(bad))) * dt)
            states[first + 1:last + 1] = recorded

    times = dt * np.arange(nsteps + 1)
    inputs = probe_start[::substeps].copy()
    if policy.gain is not None:
        inputs -= states @ policy.gain.T
    return Trajectory(times=times, states=states, inputs=inputs)


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(dt * (np.sum(values) - 0.5 * (values[0] + values[-1])))


_COST_DT = 1e-3      # quadrature step of evaluate_cost, seconds
_COST_DECAY = 1e-6   # evaluate_cost stops once ||x|| <= _COST_DECAY * ||x0||
_COST_HORIZON_CAP = 50.0  # or at this many seconds, with a TruncationWarning


def evaluate_cost(sys: LtiSystem, weights: CostWeights, gain, x0) -> float:
    """Closed-loop quadratic cost by trapezoidal quadrature along x' = (A - BK)x.

    The quadrature step is _COST_DT. The integration runs in 1 s chunks
    until ||x|| <= _COST_DECAY * ||x0||, or until _COST_HORIZON_CAP, where
    it attaches a TruncationWarning. x0 must be a finite vector of length
    n, and a closed loop that is not Hurwitz raises UnstableClosedLoopError.
    """
    gain = _as_matrix(gain, rows=sys.m, cols=sys.n, name="gain")
    x0 = _as_state(x0, sys.n)
    _check_hurwitz(sys.A - sys.B @ gain, "closed loop is not Hurwitz")

    policy = InputPolicy.feedback(gain)
    target = _COST_DECAY * np.linalg.norm(x0)
    if np.linalg.norm(x0) == 0.0:
        return 0.0

    def running(traj):
        xQx = np.einsum("ti,ij,tj->t", traj.states, weights.Q, traj.states)
        uRu = np.einsum("ti,ij,tj->t", traj.inputs, weights.R, traj.inputs)
        return xQx + uRu

    total = 0.0
    x = x0
    elapsed = 0.0
    chunk = 1.0
    while True:
        traj = simulate(sys, policy, x, chunk, dt=_COST_DT, substeps=1)
        total += _trapezoid(running(traj), _COST_DT)
        x = traj.states[-1]
        elapsed += traj.times[-1]
        if np.linalg.norm(x) <= target:
            break
        if elapsed >= _COST_HORIZON_CAP:
            warnings.warn(
                f"decay target not reached within the {_COST_HORIZON_CAP:g} s "
                "cap; cost is truncated", TruncationWarning)
            break
    return total


def evaluate_cost_analytic(sys: LtiSystem, weights: CostWeights, gain, x0) -> float:
    """Closed-form cost x0' P x0 with P from the closed-loop Lyapunov equation.
    x0 must be a finite vector of length n; solve_lyapunov raises
    UnstableClosedLoopError for a closed loop that is not Hurwitz."""
    from .model_based import solve_lyapunov

    gain = _as_matrix(gain, rows=sys.m, cols=sys.n, name="gain")
    x0 = _as_state(x0, sys.n)
    P = solve_lyapunov(sys.A - sys.B @ gain,
                       weights.Q + gain.T @ weights.R @ gain)
    return float(x0 @ P @ x0)
