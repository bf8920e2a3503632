"""Continuous-time LTI dynamics: simulation, stability checks, quadratic cost."""

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np


class SimulationDiverged(RuntimeError):
    """State became non-finite during integration."""

    def __init__(self, time: float):
        super().__init__(f"state diverged (non-finite) at t = {time:.6g} s")
        self.time = time


class UnstableClosedLoopError(ValueError):
    """A matrix that must be Hurwitz is not: a closed loop, a Lyapunov
    equation's M, or the loop of an initial gain or a policy iterate."""


def _as_floats(value, name: str) -> np.ndarray:
    """value as a float array; one numpy cannot convert is named."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of real numbers") from None


def _as_matrix(M, shape=None, name="matrix") -> np.ndarray:
    M = _as_floats(M, name)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"{name} must not be empty, got shape {M.shape}")
    if shape is not None and M.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def _is_real(value) -> bool:
    """Whether value is a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive(name: str, value) -> None:
    """Reject a time step or span that is not a finite positive number."""
    if not (_is_real(value) and np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_fraction(name: str, value) -> None:
    """Reject a ratio cutoff outside (0, 1); no ratio to a maximum clears 1."""
    _check_positive(name, value)
    if value >= 1:
        raise ValueError(f"{name} must be below 1, got {value!r}")


def _check_at_least(name: str, value, low: int, high=np.inf) -> None:
    """Reject a non-integer count (a bool is not one) outside [low, high]."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    if value > high:
        raise ValueError(f"{name} must be at most {high}, got {value!r}")


def _check_instance(name: str, value, cls: type) -> None:
    """Reject an argument that is not a cls, naming the field."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, "
                         f"got {type(value).__name__}")


def _is_integer(k) -> bool:
    """Whether k is a Python or numpy integer other than a bool."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _is_index(k, size: int) -> bool:
    """Whether k is an integer in [0, size), so it may index an array."""
    return _is_integer(k) and 0 <= k < size


def _as_pair(value):
    """value as (a, b, text): its two entries and "(a, b)", or, for anything
    that is not a pair, (None, None, repr(value)); callers check a and b."""
    try:
        a, b = value
    except (TypeError, ValueError):
        return None, None, repr(value)
    return a, b, f"({a}, {b})"


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


# RK4 steps one simulate call may take. A call holds 8 (n + m + 1) bytes
# of record per recorded sample; the blocked scan's temporaries, the probe
# samples among them, hold one segment (see _SEGMENT_ENTRIES), so the record
# alone grows with the horizon and sets the budget. At one substep the cap
# bounds a 6-agent builtin exploration at 1.04 GB. A builtin exploration
# run takes 28,000 steps, the largest benchmark run 61,000.
_MAX_STEPS = 10**7


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of arr; an array that is already read-only and owns
    its data is taken as it is, as simulate hands over its record."""
    if arr.flags.writeable or not arr.flags.owndata:
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
        B = _as_matrix(self.B, name="B")
        if B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must have {A.shape[0]} rows, got {B.shape[0]}")
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


def _check_weights(weights: CostWeights, n: int, m: int) -> None:
    """Reject cost weights that do not fit n states and m inputs."""
    _check_instance("weights", weights, CostWeights)
    for name, M, size in (("Q", weights.Q, n), ("R", weights.R, m)):
        if M.shape != (size, size):
            raise ValueError(
                f"{name} must have shape {(size, size)}, got {M.shape}")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled state/input record of one simulation run."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        times = _as_floats(self.times, "times")
        if times.ndim != 1:
            raise ValueError(f"times must be 1-D, got shape {times.shape}")
        if not np.all(np.isfinite(times)):
            raise ValueError("times has non-finite entries")
        states = _as_matrix(self.states, name="states")
        inputs = _as_matrix(self.inputs, name="inputs")
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
class ExplorationSignal:
    """Per-channel sum of sinusoids u0_j(t) = sum_i a_ji sin(w_ji t + p_ji)."""

    frequencies: np.ndarray  # (m, num_sinusoids), rad/s
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        arrays = {name: _as_matrix(np.atleast_2d(
                      _as_floats(getattr(self, name), name)), name=name)
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
        times = _as_floats(times, "times")
        if times.ndim != 1:
            raise ValueError(f"times must be 1-D, got shape {times.shape}")
        arg = self.frequencies[None, :, :] * times[:, None, None] + self.phases[None, :, :]
        return np.einsum("mk,tmk->tm", self.amplitudes, np.sin(arg))


@dataclass(frozen=True)
class InputPolicy:
    """Input law u(t, x) = -gain @ x + probe(t); either part may be absent,
    and with neither the input is zero."""

    gain: Optional[np.ndarray] = None
    probe: Optional[ExplorationSignal] = None

    def __post_init__(self):
        if self.gain is not None:
            object.__setattr__(self, "gain", _freeze(
                _as_matrix(self.gain, name="feedback gain")))
        if self.probe is not None:
            _check_instance("probe", self.probe, ExplorationSignal)

    @classmethod
    def feedback_with_probe(cls, gain, probe):
        """InputPolicy(gain=gain, probe=probe), kept for the benchmark
        workloads that call it."""
        return cls(gain=gain, probe=probe)


# Eigenvalues that sum to within this, relative to max(1, max |lambda|),
# make X -> M' X + X M singular; half of it is the margin of Hurwitz.
_SPECTRAL_TOL = 1e-12


def _check_hurwitz(eigs, what: str) -> None:
    """Raise UnstableClosedLoopError, saying `what`, unless the spectrum eigs
    of a matrix that must be Hurwitz has abscissa below -_SPECTRAL_TOL / 2 *
    max(1, max |lambda|): the one stability rule. Twice |abscissa| is then
    min |conj(lambda_i) + lambda_j|, so the Lyapunov operator is nonsingular,
    and a zero mode fails whichever sign it rounds to."""
    sa = float(np.max(np.real(eigs)))
    band = 0.5 * _SPECTRAL_TOL * max(1.0, float(np.max(np.abs(eigs))))
    if sa >= -band:
        near = f", within {band:.3g} of the imaginary axis" if sa < 0 else ""
        raise UnstableClosedLoopError(f"{what} (spectral abscissa {sa:.6g}{near})")


def _as_state(x0, n: int) -> np.ndarray:
    """x0 as a float vector of shape (n,) with finite entries."""
    x0 = _as_floats(x0, "x0")
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 has non-finite entries")
    return x0


def _probe_samples(probe: ExplorationSignal, times) -> np.ndarray:
    """probe(t) at each time, one call per sample."""
    out = np.empty((len(times), len(probe.frequencies)))
    for i, t in enumerate(times):
        out[i] = probe(t)
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

# Entries one segment of simulate's blocked scan holds per buffer: its rows
# times n, or times substeps m when a probe's samples are the wider. Its
# buffers, the probe samples among them, are a few arrays of this size
# however long the horizon; its Python steps number about 2 sqrt(rows).
# learning.solve_iteration writes its regressor in row blocks of the same
# bound, n^2 coefficients per window, so no N x n^2 temporary exists.
_SEGMENT_ENTRIES = 2**16

# The most h ||G||_inf simulate lets a step take; max |lambda| <= ||G||_inf
# (Horn & Johnson, Matrix Analysis, Thm 5.6.9), so h |lambda| <= 2.5 too.
# RK4's |R(h lambda)| is at most 0.873 on the half circle |h lambda| = 2.5,
# Re <= 0, and at most 1 on the imaginary axis up to 2 sqrt 2, so every
# damped mode inside that half-disk decays; a faster one may grow.
_RK4_H_LAMBDA = 2.5


def _rk4_substeps(name: str, span, dt, substeps, G) -> int:
    """The least substeps >= the floor with h ||G||_inf <= _RK4_H_LAMBDA; a
    span that takes more than _MAX_STEPS is a ValueError naming name, and
    so is one dt that alone would take more, whatever the span."""
    with np.errstate(over="ignore"):  # an overflowed norm meets the step cap
        need = dt * np.linalg.norm(G, np.inf) / _RK4_H_LAMBDA
    substeps = max(substeps, int(np.ceil(np.fmin(need, _MAX_STEPS))))
    if span / dt * substeps > _MAX_STEPS:
        raise ValueError(
            f"{name} must be at most {_MAX_STEPS * dt / substeps:g} s at "
            f"dt {dt:g} with {substeps} substeps, got {span!r}")
    if not need <= _MAX_STEPS:  # a span of one dt, clamped at the cap
        raise ValueError(
            f"{name} {span!r} needs more than {_MAX_STEPS} RK4 steps: one "
            f"dt {dt:g} takes {need:.3g} substeps")
    return substeps


def _power_table(Phi, count: int) -> np.ndarray:
    """[Phi^1' ... Phi^b'] side by side, shape (n, b n), with b <= count the
    largest power count whose entries are all finite (at least 1)."""
    powers = [Phi.T]
    while len(powers) < count:
        nxt = powers[-1] @ Phi.T
        if not np.all(np.isfinite(nxt)):
            break
        powers.append(nxt)
    return np.concatenate(powers, axis=1)


def simulate(sys: LtiSystem, policy: InputPolicy, x0, horizon: float,
             dt: float = 0.01, substeps: int = 10) -> Trajectory:
    """Integrate the closed/open loop with classical RK4.

    The plant is LTI and the policy affine, so one RK4 step is the fixed
    linear map x+ = Phi x + E1 u0(t) + E2 u0(t + h/2) + E3 u0(t + h),
    built once per call from the RK4 stage formulas (h = dt / substeps).
    The substeps fold into one recorded-step map x+ = Phi^s x + F, F the
    probe's forcing over the step, and that recurrence runs as a blocked
    scan (Blelloch, CMU-CS-90-190, 1990): in segments of at most
    _SEGMENT_ENTRIES state entries, each with its own probe samples and cut
    into blocks of about sqrt(rows) steps, the blocks' particular parts are
    stepped side by side, one carry step per block gives its start state,
    and one matmul with the table [Phi^s, ..., (Phi^s)^b] adds the free
    response. The table holds only finite powers, so a stiff mode that the
    state does not excite cannot turn into 0 * inf. The states agree with
    the per-step recursion to rounding (the tests require 1e-12 relative).

    Args:
        sys: plant dynamics.
        policy: input law; the probe part is evaluated at the RK4 stage
            times, the feedback part at the stage states.
        x0: initial state.
        horizon: total simulated time, seconds, a whole number of dt.
        dt: recording step.
        substeps: the least internal RK4 steps per recorded sample;
            _rk4_substeps takes more, so no decaying mode grows.

    Raises:
        SimulationDiverged: at the first recorded sample that is non-finite
            or exceeds _DIVERGENCE_BOUND in magnitude.
    """
    _check_instance("sys", sys, LtiSystem)
    _check_instance("policy", policy, InputPolicy)
    _check_positive("dt", dt)
    _check_positive("horizon", horizon)
    _check_at_least("substeps", substeps, 1)
    x0 = _as_state(x0, sys.n)
    if policy.gain is not None and policy.gain.shape != (sys.m, sys.n):
        raise ValueError(f"feedback gain must be {sys.m}x{sys.n}")
    if policy.probe is not None and len(policy.probe.frequencies) != sys.m:
        raise ValueError(f"probe must have {sys.m} channels, got "
                         f"{len(policy.probe.frequencies)}")

    n, nsteps = sys.n, _check_multiple("horizon", horizon, "dt", dt)
    G = sys.A if policy.gain is None else sys.A - sys.B @ policy.gain
    substeps = _rk4_substeps("horizon", horizon, dt, substeps, G)
    h = dt / substeps
    Phi = _rk4_step(G, h, np.eye(n), 0.0, 0.0, 0.0)
    width = n if policy.probe is None else max(n, substeps * sys.m)
    rows = min(nsteps, max(1, _SEGMENT_ENTRIES // width))
    u0 = 0.0  # the probe at the recorded samples, zero without one

    if policy.probe is not None:
        zero, B = np.zeros_like(sys.B), sys.B
        E1T, E2T, E3T = (_rk4_step(G, h, zero, *f).T for f in
                         ((B, zero, zero), (zero, B, zero), (zero, zero, B)))
        u_start = _probe_samples(policy.probe, np.zeros(1))

    states = np.empty((nsteps + 1, n))
    inputs = np.empty((nsteps + 1, sys.m))
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        table = _power_table(np.linalg.matrix_power(Phi, substeps),
                             int(np.ceil(np.sqrt(rows))))
        b = table.shape[1] // n
        step_T, block_T = table[:, :n], table[:, -n:]
        for first in range(0, nsteps, rows):
            last = min(first + rows, nsteps)
            blocks = -(-(last - first) // b)
            # the forcing of each recorded step, its substeps folded in
            path = np.zeros((blocks * b, n))
            if policy.probe is not None:
                # the probe at the segment's stage times, a start carried over
                k0, k1 = first * substeps, last * substeps
                u_mid = _probe_samples(policy.probe,
                                       h * np.arange(k0, k1) + 0.5 * h)
                u_start = np.concatenate((u_start[-1:], _probe_samples(
                    policy.probe, h * np.arange(k0 + 1, k1 + 1))))
                u0 = u_start[::substeps]
                for j in range(substeps):
                    f = u_start[j:-1:substeps] @ E1T
                    f += u_mid[j::substeps] @ E2T
                    f += u_start[j + 1::substeps] @ E3T
                    if j:
                        f += path[:last - first] @ Phi.T
                    path[:last - first] = f
            # in place, each block's path from a zero start state
            blocked = path.reshape(blocks, b, n)
            for j in range(1, b):
                blocked[:, j] += blocked[:, j - 1] @ step_T
            carry = np.empty((blocks, n))
            carry[0] = states[first]
            for k in range(1, blocks):
                carry[k] = carry[k - 1] @ block_T + blocked[k - 1, -1]
            path += (carry @ table).reshape(-1, n)
            recorded = path[:last - first]
            # the comparison is False for nan, so non-finite rows are bad too
            bad = ~np.all(np.abs(recorded) <= _DIVERGENCE_BOUND, axis=1)
            if bad.any():
                raise SimulationDiverged(
                    time=(first + 1 + int(np.argmax(bad))) * dt)
            states[first + 1:last + 1] = recorded
            del path, blocked, recorded  # before the next segment's are made
            # u0 - states K' from the segment's start on: a product of two
            # rows or more rounds each row as one product of the whole record
            inputs[first:last + 1] = u0 if policy.gain is None else (
                u0 - states[first:last + 1] @ policy.gain.T)

    times = dt * np.arange(nsteps + 1)
    for arr in (times, states, inputs):
        arr.setflags(write=False)  # so Trajectory takes them without a copy
    return Trajectory(times=times, states=states, inputs=inputs)


# Quadrature step of evaluate_cost, seconds; the most h |lambda| a faster
# loop's step allows; and the most doublings it takes: 2^64 steps stop a
# step map that rounds to spectral radius 1, and at the 1 ms step let the
# slowest loop solve_lyapunov accepts (about 57 doublings) converge.
_COST_DT = 1e-3
_COST_H_LAMBDA = 0.02
_COST_DOUBLINGS = 64


def evaluate_cost(sys: LtiSystem, weights: CostWeights, gain, x0) -> float:
    """Closed-loop quadratic cost: the trapezoid rule along x' = (A - BK)x
    on the RK4 grid of step h = min(_COST_DT, _COST_H_LAMBDA / max|lambda|),
    lambda over the closed-loop spectrum, summed to t = infinity. Every
    shipped scenario has max|lambda| <= 13.4 and so takes the 1 ms grid.

    On the grid x_k = Phi^k x0 (Phi the RK4 step map, as in simulate) the
    running cost sums to x0' W x0, W = sum_k Phi'^k (Q + K'RK) Phi^k, which
    Smith's doubling (SIAM J. Appl. Math. 16(1), 1968), W <- W + Phi'W Phi
    and Phi <- Phi^2, forms until W stops changing. x0 must be a finite
    vector of length n; a closed loop that is not Hurwitz raises
    UnstableClosedLoopError. SimulationDiverged is raised where W turns
    non-finite or has not settled after 2^_COST_DOUBLINGS steps, at the
    time the failed doubling would reach.

    With h |lambda| <= 0.02 the trapezoid sum of a mode's exp(2 lambda t)
    is within (2 h |lambda|)^2 / 12 <= 1.4e-4 relative of its integral; the
    RK4 step adds about (h |lambda|)^4 / 240 < 1e-9. Near the Hurwitz
    boundary the sum drifts from the closed form: a mode's step factor
    1 + h lambda + ... rounds to a multiple of 2^-53, which moves the cost
    by up to about 2^-54 / (h |lambda|) relative, h the step used. At the
    1 ms step that is 2e-5 at lambda = -1e-9 and 8% at -6e-13, where this
    returns 9.007e11 against the exact 8.333e11.
    """
    _check_instance("sys", sys, LtiSystem)
    gain = _as_matrix(gain, (sys.m, sys.n), "gain")
    x0 = _as_state(x0, sys.n)
    _check_weights(weights, sys.n, sys.m)
    G = sys.A - sys.B @ gain
    eigs = np.linalg.eigvals(G)
    _check_hurwitz(eigs, "closed loop is not Hurwitz")
    h = min(_COST_DT, _COST_H_LAMBDA / float(np.max(np.abs(eigs))))

    Qbar = weights.Q + gain.T @ weights.R @ gain
    Phi = _rk4_step(G, h, np.eye(sys.n), 0.0, 0.0, 0.0)
    W = Qbar
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(_COST_DOUBLINGS):
            W_next = W + Phi.T @ W @ Phi
            if not np.all(np.isfinite(W_next)):
                break
            if np.array_equal(W_next, W):
                return float(h * (x0 @ W @ x0 - 0.5 * (x0 @ Qbar @ x0)))
            W, Phi = W_next, Phi @ Phi
    raise SimulationDiverged(time=h * 2.0**(j + 1))


def evaluate_cost_analytic(sys: LtiSystem, weights: CostWeights, gain, x0) -> float:
    """Closed-form cost x0' P x0 with P from the closed-loop Lyapunov equation.
    x0 must be a finite vector of length n; solve_lyapunov raises
    UnstableClosedLoopError for a closed loop that is not Hurwitz."""
    from .model_based import solve_lyapunov

    _check_instance("sys", sys, LtiSystem)
    gain = _as_matrix(gain, (sys.m, sys.n), "gain")
    x0 = _as_state(x0, sys.n)
    _check_weights(weights, sys.n, sys.m)
    P = solve_lyapunov(sys.A - sys.B @ gain,
                       weights.Q + gain.T @ weights.R @ gain)
    return float(x0 @ P @ x0)
