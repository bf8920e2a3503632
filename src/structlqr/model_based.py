"""Model-based synthesis: Lyapunov solves, structured policy iteration,
the unstructured baseline, and the suboptimality bound report."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .structure import SparsityMask, off_pattern, on_pattern
from .system import (CostWeights, LtiSystem, _as_matrix, _check_at_least,
                     is_hurwitz, spectral_abscissa)


_TOL, _MAX_ITER = 1e-6, 50  # default stopping rule of every policy iteration


class NotStabilizingError(ValueError):
    """Initial gain does not render A - B K0 Hurwitz."""


class IterateDestabilizedError(RuntimeError):
    """A policy-update iterate lost closed-loop stability."""

    def __init__(self, iteration: int, abscissa: float):
        super().__init__(
            f"iterate {iteration} destabilized the loop "
            f"(spectral abscissa {abscissa:.6g}); aborting")
        self.iteration = iteration
        self.abscissa = abscissa


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before the stopping tolerance was met."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class IterationRecord:
    P: np.ndarray
    K: np.ndarray
    delta_P: float  # Frobenius distance to the previous value matrix


@dataclass(frozen=True)
class SynthesisResult:
    """Converged value matrix, structured gain and per-iteration history.

    For model-based runs K + L equals R^-1 B' P to solver precision; for
    data-driven runs the identity holds to regression accuracy.
    """

    P: np.ndarray
    K: np.ndarray
    L: np.ndarray
    iterations: int
    history: List[IterationRecord]
    converged: bool


def solve_lyapunov(M, S) -> np.ndarray:
    """Solve M' P + P M + S = 0 for symmetric P, M Hurwitz.

    Dense Kronecker vectorization: (I kron M' + M' kron I) vec(P) = -vec(S).
    """
    M = _as_matrix(M, name="M")
    S = _as_matrix(S, rows=M.shape[0], cols=M.shape[0], name="S")
    if M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    if np.max(np.abs(S - S.T)) > 1e-10 * (1.0 + np.max(np.abs(S))):
        raise ValueError("S must be symmetric")
    if not is_hurwitz(M):
        raise NotStabilizingError(
            f"M is not Hurwitz (spectral abscissa {spectral_abscissa(M):.6g}); "
            "the Lyapunov equation may have no positive solution")
    n = M.shape[0]
    eye = np.eye(n)
    op = np.kron(eye, M.T)
    op += np.kron(M.T, eye)  # in place: one n^2 x n^2 temporary fewer
    p = np.linalg.solve(op, -S.ravel(order="F"))
    P = p.reshape(n, n, order="F")
    return 0.5 * (P + P.T)


def modified_are_residual(P, L, sys: LtiSystem, weights: CostWeights) -> float:
    """Frobenius residual of A'P + PA - P B R^-1 B' P + Q + L' R L."""
    P = _as_matrix(P, rows=sys.n, cols=sys.n, name="P")
    L = _as_matrix(L, rows=sys.m, cols=sys.n, name="L")
    RinvBt = np.linalg.solve(weights.R, sys.B.T)
    res = (sys.A.T @ P + P @ sys.A - P @ sys.B @ RinvBt @ P
           + weights.Q + L.T @ weights.R @ L)
    return float(np.linalg.norm(res, "fro"))


def _check_stopping_rule(tol, max_iter):
    """Reject iteration knobs the policy-iteration loop cannot run with."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    _check_at_least("max_iter", max_iter, 1)


def _policy_iteration(step, K, RinvBt, mask: SparsityMask, tol: float,
                      max_iter: int) -> SynthesisResult:
    """Policy iteration around one evaluation oracle.

    step(k, K) evaluates the gain K in iteration k (0-based) and returns
    the value matrix P and the next masked gain. The loop stops once
    ||P_k - P_{k-1}||_F < tol; L is the off-pattern part of R^-1 B' P.
    """
    history: List[IterationRecord] = []
    P_prev: Optional[np.ndarray] = None
    for k in range(max_iter):
        P, K = step(k, K)
        delta = np.inf if P_prev is None else float(np.linalg.norm(P - P_prev, "fro"))
        history.append(IterationRecord(P=P, K=K, delta_P=delta))
        if P_prev is not None and delta < tol:
            return SynthesisResult(P=P, K=K, L=off_pattern(RinvBt @ P, mask),
                                   iterations=k + 1, history=history,
                                   converged=True)
        P_prev = P

    partial = SynthesisResult(P=P, K=K, L=off_pattern(RinvBt @ P, mask),
                              iterations=max_iter, history=history, converged=False)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(last ||dP|| = {history[-1].delta_P:.3g}, tol = {tol:g})",
        result=partial)


def kleinman_structured(sys: LtiSystem, weights: CostWeights, mask: SparsityMask,
                        initial_gain, tol: float = _TOL,
                        max_iter: int = _MAX_ITER) -> SynthesisResult:
    """Structured policy iteration.

    Alternates the closed-loop Lyapunov solve (policy evaluation) with the
    masked gain update K <- (R^-1 B' P) o mask (policy improvement) until
    ||P_k - P_{k-1}||_F < tol. Every accepted iterate must keep the loop
    Hurwitz; a destabilizing update aborts with the iteration index.
    """
    _check_stopping_rule(tol, max_iter)
    if mask.shape != (sys.m, sys.n):
        raise ValueError(f"mask must be {sys.m}x{sys.n}")
    K = _as_matrix(initial_gain, rows=sys.m, cols=sys.n, name="initial_gain")
    if not is_hurwitz(sys.A - sys.B @ K):
        raise NotStabilizingError(
            "initial gain is not stabilizing (spectral abscissa "
            f"{spectral_abscissa(sys.A - sys.B @ K):.6g})")
    RinvBt = np.linalg.solve(weights.R, sys.B.T)

    def step(k, K):
        P = solve_lyapunov(sys.A - sys.B @ K, weights.Q + K.T @ weights.R @ K)
        K_next = on_pattern(RinvBt @ P, mask)
        sa = spectral_abscissa(sys.A - sys.B @ K_next)
        if sa >= 0.0:
            raise IterateDestabilizedError(iteration=k + 1, abscissa=sa)
        return P, K_next

    return _policy_iteration(step, K, RinvBt, mask, tol, max_iter)


def solve_unstructured_lqr(sys: LtiSystem, weights: CostWeights,
                           initial_gain=None, tol: float = _TOL,
                           max_iter: int = _MAX_ITER) -> SynthesisResult:
    """Classical LQR baseline: the structured iteration with an all-ones mask."""
    mask = SparsityMask.all_ones(sys.m, sys.n)
    if initial_gain is None:
        initial_gain = find_stabilizing_gain(sys, weights, mask)
    return kleinman_structured(sys, weights, mask, initial_gain,
                               tol=tol, max_iter=max_iter)


def find_stabilizing_gain(sys: LtiSystem, weights: CostWeights,
                          mask: SparsityMask) -> np.ndarray:
    """Try K0 = 0, then c * (R^-1 B' masked) for c in {0.1, 1, 10}.

    Only closed-loop Hurwitzness of A - B K0 is verified; the synthesis
    itself may still abort if a later iterate destabilizes.
    """
    zero = np.zeros((sys.m, sys.n))
    if is_hurwitz(sys.A):
        return zero
    base = on_pattern(np.linalg.solve(weights.R, sys.B.T), mask)
    for c in (0.1, 1.0, 10.0):
        K0 = c * base
        if is_hurwitz(sys.A - sys.B @ K0):
            return K0
    raise NotStabilizingError(
        "no stabilizing initial gain found among the built-in candidates; "
        "supply one explicitly")


@dataclass(frozen=True)
class BoundReport:
    """Suboptimality bound data for structured-vs-unstructured objectives.

    g is the spectral norm of B R^-1 B', l the smallest singular value of
    the Lyapunov-type operator built from A - B R^-1 B', and the bound is
    (l / 2g) * ||x0||^2. epsilon = ||L'RL|| / l is logged when a deviation
    matrix is supplied.
    """

    g: float
    l: float
    bound: float
    gap: float
    within_bound: bool
    operator_matrix: np.ndarray  # the shifted state matrix A - B R^-1 B'
    epsilon: Optional[float] = None

    def to_dict(self):
        return {
            "g": self.g,
            "l": self.l,
            "bound": self.bound,
            "gap": self.gap,
            "within_bound": self.within_bound,
            "gap_over_bound": self.gap / self.bound if self.bound > 0 else None,
            "epsilon": self.epsilon,
        }


def suboptimality_bound(sys: LtiSystem, weights: CostWeights, x0,
                        cost_structured: float, cost_unstructured: float,
                        deviation=None) -> BoundReport:
    """Bound |J - Jbar| <= (l / 2g) ||x0 (x) x0|| and report the actual gap."""
    x0 = np.asarray(x0, dtype=float)
    RinvBt = np.linalg.solve(weights.R, sys.B.T)
    G = sys.B @ RinvBt
    g = float(np.linalg.norm(G, 2))
    if g == 0.0:
        raise ValueError("B is zero; the bound is undefined (g = 0)")

    Mv = sys.A - G
    lam = np.linalg.eigvals(Mv)
    sums = np.abs(lam[:, None] + lam[None, :])
    if np.min(sums) < 1e-12 * max(1.0, float(np.max(np.abs(lam)))):
        raise ValueError(
            "two eigenvalues of A - B R^-1 B' sum to zero; "
            "the bound operator is singular")
    eye = np.eye(sys.n)
    V = np.kron(eye, Mv.T)
    V += np.kron(Mv.T, eye)
    l = float(np.linalg.norm(V, -2))  # smallest singular value

    # ||x0 (x) x0||_2 = ||x0||^2
    bound = (l / (2.0 * g)) * float(x0 @ x0)
    gap = abs(float(cost_structured) - float(cost_unstructured))
    eps = None
    if deviation is not None:
        L = _as_matrix(deviation, rows=sys.m, cols=sys.n, name="deviation")
        eps = float(np.linalg.norm(L.T @ weights.R @ L, 2)) / l
    return BoundReport(g=g, l=l, bound=bound, gap=gap,
                       within_bound=bool(gap <= bound),
                       operator_matrix=Mv, epsilon=eps)
