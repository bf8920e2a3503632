"""Model-based synthesis: Lyapunov solves, structured policy iteration,
the unstructured baseline, and the suboptimality bound report."""

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from .structure import SparsityMask, off_pattern, on_pattern
from .system import (CostWeights, LtiSystem, UnstableClosedLoopError,
                     _as_matrix, _as_state, _check_at_least, _check_hurwitz,
                     _check_positive, is_hurwitz)


_TOL, _MAX_ITER = 1e-6, 50  # default stopping rule of every policy iteration
_REFINE_TOL = 1e-14  # Sylvester residual target, relative to its terms
_LANCZOS_TOL = 1e-10  # relative residual of the bound constant's Ritz pair


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


def _check_eigenvalue_sums(eigs, sums, name: str) -> None:
    """Raise ValueError, calling M by name, when a pairwise sum of its
    eigenvalues vanishes to 1e-12 of the largest: then X -> M' X + X M is
    singular."""
    if np.min(np.abs(sums)) < 1e-12 * max(1.0, float(np.max(np.abs(eigs)))):
        raise ValueError(
            f"two eigenvalues of {name} sum to zero; "
            f"X -> {name}' X + X {name} is singular")


def _sylvester_solver(M, name: str):
    """Return solve(Y), the X with M' X + X M = Y: vec(X) = V^-1 vec(Y) for
    V = I (x) M' + M' (x) I, in O(n^3) per call without forming V.

    U = qr(eigenvectors of M) is a unitary Schur basis and T = U^H M U is
    upper triangular up to rounding, amplified by the eigenvectors'
    condition. With that lower triangle dropped, T^H Z + Z T = U^H Y U is
    solved one anti-diagonal of Z at a time (Bartels-Stewart style): entry
    (i, j) needs only the entries (k, j), k < i, and (i, k), k < j. Each
    solve is then refined against the exact operator until its residual is
    at rounding level; a refinement step that does not halve the residual
    means the basis is unusable and raises ValueError. Error messages call
    M by name.
    """
    n = M.shape[0]
    U = np.linalg.qr(np.linalg.eig(M)[1])[0]
    Uh = U.conj().T
    T = Uh @ M @ U
    d = np.diag(T)
    sums = d.conj()[:, None] + d[None, :]
    _check_eigenvalue_sums(d, sums, name)
    # Row i of [Z, L] dotted with row j of [L^*, Z'], L the strict lower
    # triangle of T^H, is sum_k Z_ik conj(L_jk) + L_ik Z_kj: the known part
    # of entry (i, j). Z is written into both buffers; the second is stored
    # upside down, so an anti-diagonal's rows are a slice of each.
    lower = np.triu(T, 1).conj().T
    left = np.zeros((n, 2 * n), dtype=T.dtype)
    right = np.zeros((n, 2 * n), dtype=T.dtype)
    left[:, n:] = lower
    right[:, :n] = lower.conj()[::-1]
    # every (i, j), ordered by anti-diagonal s = i + j and then by i
    i, j = np.indices((n, n)).reshape(2, -1)
    order = np.argsort(i + j, kind="stable")
    i, j = i[order], j[order]
    at, at_left = i * n + j, i * 2 * n + j
    at_right, inv = (n - 1 - j) * 2 * n + n + i, 1.0 / sums[i, j]
    diagonals, end = [], 0
    for s in range(2 * n - 1):
        a, b = max(0, s - n + 1), min(s, n - 1) + 1
        start, end = end, end + b - a
        diagonals.append((a, b, n - 1 - s + a, at[start:end],
                          at_left[start:end], at_right[start:end],
                          inv[start:end]))
    norm_M = np.linalg.norm(M)

    def sweep(Y):
        rhs = (Uh @ Y @ U).ravel()
        lz, rz = left.copy(), right.copy()
        lz_flat, rz_flat = lz.ravel(), rz.ravel()
        for a, b, r, at, at_left, at_right, inv in diagonals:
            z = (rhs.take(at) - (lz[a:b] * rz[r:r + b - a]).sum(1)) * inv
            lz_flat.put(at_left, z)
            rz_flat.put(at_right, z)
        return (U @ lz[:, :n] @ Uh).real

    def solve(Y):
        X = sweep(Y)
        R = Y - (M.T @ X + X @ M)
        r = np.linalg.norm(R)
        while not r <= _REFINE_TOL * (2.0 * norm_M * np.linalg.norm(X)
                                     + np.linalg.norm(Y)):
            X = X + sweep(R)
            R = Y - (M.T @ X + X @ M)
            r_prev, r = r, np.linalg.norm(R)
            if not r <= 0.5 * r_prev:
                raise ValueError(
                    f"the eigenvectors of {name} are too ill-conditioned "
                    "for the Schur-basis Sylvester solve (refinement stalled "
                    f"at residual {r:.3g})")
        return X

    return solve


def solve_lyapunov(M, S) -> np.ndarray:
    """Solve M' P + P M + S = 0 for symmetric P, M Hurwitz.

    One refined Schur-basis Sylvester solve (_sylvester_solver), the same
    one the bound constant uses: O(n^3) time and O(n^2) memory, numpy only.
    The result is symmetrized exactly; it agrees with scipy's
    Bartels-Stewart solver and with the dense Kronecker solve to about
    1e-13 relative on random non-normal M up to n = 12 (the tests require
    1e-10). The refinement keeps the relative residual near 1e-17 even on
    M with a 100x random strictly upper part, where a determinant-scaled
    Newton sign iteration left residuals up to 1e-7 and did not converge
    on 5 of 100 draws. If the refinement stalls it raises ValueError; an M
    that is not Hurwitz raises UnstableClosedLoopError before any solve.
    """
    M = _as_matrix(M, name="M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got {M.shape}")
    n = M.shape[0]
    S = _as_matrix(S, rows=n, cols=n, name="S")
    if np.max(np.abs(S - S.T)) > 1e-10 * (1.0 + np.max(np.abs(S))):
        raise ValueError("S must be symmetric")
    _check_hurwitz(M, "M is not Hurwitz")
    P = _sylvester_solver(M, "M")(-S)
    return 0.5 * (P + P.T)


def modified_are_residual(P, L, sys: LtiSystem, weights: CostWeights) -> float:
    """Frobenius residual of A'P + PA - P B R^-1 B' P + Q + L' R L."""
    P = _as_matrix(P, rows=sys.n, cols=sys.n, name="P")
    L = _as_matrix(L, rows=sys.m, cols=sys.n, name="L")
    RinvBt = np.linalg.solve(weights.R, sys.B.T)
    res = (sys.A.T @ P + P @ sys.A - P @ sys.B @ RinvBt @ P
           + weights.Q + L.T @ weights.R @ L)
    return float(np.linalg.norm(res, "fro"))


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
    _check_positive("tol", tol)
    _check_at_least("max_iter", max_iter, 1)
    if mask.shape != (sys.m, sys.n):
        raise ValueError(f"mask must be {sys.m}x{sys.n}")
    K = _as_matrix(initial_gain, rows=sys.m, cols=sys.n, name="initial_gain")
    _check_hurwitz(sys.A - sys.B @ K, "initial gain is not stabilizing")
    RinvBt = np.linalg.solve(weights.R, sys.B.T)

    def step(k, K):
        P = solve_lyapunov(sys.A - sys.B @ K, weights.Q + K.T @ weights.R @ K)
        K_next = on_pattern(RinvBt @ P, mask)
        _check_hurwitz(sys.A - sys.B @ K_next,
                       f"iterate {k + 1} destabilized the loop")
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
    raise UnstableClosedLoopError(
        "no stabilizing initial gain found among the built-in candidates; "
        "supply one explicitly")


def _bound_constant(Mv) -> float:
    """l = sigma_min(V) for V = I (x) M' + M' (x) I, without forming V.

    When M equals its transpose exactly, V is symmetric with eigenvalues
    lambda_i + lambda_j (Horn & Johnson, Topics in Matrix Analysis, 1991,
    Thm 4.4.5), so l = min |lambda_i + lambda_j| from eigvalsh(M). Every
    builtin, ring and benchmark scenario takes this path.

    Otherwise l = 1 / sqrt(lambda_max((V V')^-1)), by Lanczos on the
    symmetric operator V^-T V^-1, with full reorthogonalization and a fixed
    random start, so reruns give the same bits. Each step is a solve with V
    and one with V' (_sylvester_solver of M and of M'). It stops once the
    top Ritz pair's residual is below _LANCZOS_TOL of its value, so an
    eigenvalue lies that close to it (the largest one, which the random
    start reaches first), or when the Krylov space is all of R^(n x n).
    Either way, two eigenvalues of M that sum to zero raise ValueError.
    """
    name = "A - B R^-1 B'"
    if np.array_equal(Mv, Mv.T):
        eigs = np.linalg.eigvalsh(Mv)
        sums = np.abs(eigs[:, None] + eigs[None, :])
        _check_eigenvalue_sums(eigs, sums, name)
        return float(np.min(sums))
    n = Mv.shape[0]
    solve, solve_t = _sylvester_solver(Mv, name), _sylvester_solver(Mv.T, name)
    q = np.random.default_rng(0).standard_normal((n, n))
    basis = [q / np.linalg.norm(q)]
    alpha, beta = [], []
    while True:
        w = solve_t(solve(basis[-1]))
        alpha.append(float(np.vdot(basis[-1], w)))
        for _ in range(2):  # twice is enough to keep the basis orthonormal
            for b in basis:
                w -= np.vdot(b, w) * b
        b_next = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1)
                                    + np.diag(beta, -1))
        if (b_next * abs(vecs[-1, -1]) <= _LANCZOS_TOL * ritz[-1]
                or len(basis) == n * n):
            return float(1.0 / np.sqrt(ritz[-1]))
        beta.append(b_next)
        basis.append(w / b_next)


@dataclass(frozen=True)
class BoundReport:
    """Suboptimality bound data for structured-vs-unstructured objectives.

    g is the spectral norm of B R^-1 B', l the smallest singular value of
    the Lyapunov-type operator V = I (x) M' + M' (x) I with M = A - B R^-1 B',
    and the bound is (l / 2g) * ||x0||^2. l is computed without forming the
    n^2 x n^2 operator (_bound_constant): for a symmetric M in closed form
    from the eigenvalues of M, one O(n^3) eigvalsh, and otherwise by
    Lanczos, O(n^3) per step and O(n^2) memory per Lanczos vector. It
    agrees with the full SVD of V to about 1e-13 relative, defective M
    included (the tests require 1e-8, and 1e-12 for the closed form).
    epsilon = ||L'RL|| / l is logged when a deviation matrix is supplied.
    """

    g: float
    l: float
    bound: float
    gap: float
    within_bound: bool
    epsilon: Optional[float] = None

    def to_dict(self):
        return {**asdict(self), "gap_over_bound":
                self.gap / self.bound if self.bound > 0 else None}


def suboptimality_bound(sys: LtiSystem, weights: CostWeights, x0,
                        cost_structured: float, cost_unstructured: float,
                        deviation=None) -> BoundReport:
    """Bound |J - Jbar| <= (l / 2g) ||x0 (x) x0|| and report the actual gap.

    x0 must be a finite vector of length n and both costs finite numbers.
    Raises ValueError if B is zero, if two eigenvalues of A - B R^-1 B' sum
    to zero, or if its eigenvectors are too ill-conditioned for l to be
    computed to rounding accuracy (see BoundReport).
    """
    x0 = _as_state(x0, sys.n)
    for name, cost in (("cost_structured", cost_structured),
                       ("cost_unstructured", cost_unstructured)):
        if not np.isfinite(cost):
            raise ValueError(f"{name} must be finite, got {cost!r}")
    RinvBt = np.linalg.solve(weights.R, sys.B.T)
    G = sys.B @ RinvBt
    g = float(np.linalg.norm(G, 2))
    if g == 0.0:
        raise ValueError("B is zero; the bound is undefined (g = 0)")

    l = _bound_constant(sys.A - G)

    # ||x0 (x) x0||_2 = ||x0||^2
    bound = (l / (2.0 * g)) * float(x0 @ x0)
    gap = abs(float(cost_structured) - float(cost_unstructured))
    eps = None
    if deviation is not None:
        L = _as_matrix(deviation, rows=sys.m, cols=sys.n, name="deviation")
        eps = float(np.linalg.norm(L.T @ weights.R @ L, 2)) / l
    return BoundReport(g=g, l=l, bound=bound, gap=gap,
                       within_bound=bool(gap <= bound), epsilon=eps)
