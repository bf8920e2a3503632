"""Model-based synthesis: Lyapunov solves, structured policy iteration (on
an all-ones mask, the unstructured baseline), and the bound report."""

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from .structure import SparsityMask, _check_on_mask, on_pattern
from .system import (_SPECTRAL_TOL, CostWeights, LtiSystem, _as_matrix,
                     _as_state, _check_at_least, _check_hurwitz,
                     _check_instance, _check_positive, _check_weights,
                     _is_real)


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
    K: np.ndarray  # the improved gain; only the last P is kept, as result.P
    delta_P: float  # Frobenius distance to the previous value matrix


@dataclass(frozen=True)
class SynthesisResult:
    """Converged value matrix, structured gain and per-iteration history.

    On both routes K and L are the on- and off-pattern parts of R^-1 B' P,
    so K + L = R^-1 B' P exactly; P carries the solve's or the data's error.
    """

    P: np.ndarray
    K: np.ndarray
    L: np.ndarray
    iterations: int
    history: List[IterationRecord]
    converged: bool


def _check_eigenvalue_sums(eigs, name: str) -> float:
    """Return min |conj(lambda_i) + lambda_j| over the eigenvalues eigs of M,
    or raise ValueError, calling M by name, when it is below _SPECTRAL_TOL *
    max(1, max |lambda|): X -> M' X + X M is then singular. For an M with no
    Hurwitz gate."""
    least = float(np.min(np.abs(eigs.conj()[:, None] + eigs[None, :])))
    if least < _SPECTRAL_TOL * max(1.0, float(np.max(np.abs(eigs)))):
        raise ValueError(
            f"two eigenvalues of {name} sum to zero; "
            f"X -> {name}' X + X {name} is singular")
    return least


def _sylvester_solver(M, name: str, unstable: Optional[str] = None):
    """Return solve(Y), the X with M' X + X M = Y: vec(X) = V^-1 vec(Y) for
    V = I (x) M' + M' (x) I, in O(n^3) per call without forming V.

    One decomposition of M gives both the spectrum and the basis, and one
    gate per solve reads that spectrum: _check_hurwitz, raising `unstable`,
    when M must be Hurwitz (which also keeps V nonsingular), otherwise
    _check_eigenvalue_sums. When M equals its transpose exactly (B = R = I
    and a symmetric gain: every ring, every unstructured iterate of a
    symmetric A), the decomposition is one real eigh(M) = W diag(lambda) W'.
    V then has eigenvalues lambda_i + lambda_j (Horn & Johnson, Topics in
    Matrix Analysis, 1991, Thm 4.4.5), so X = W ((W' Y W) / (lambda_i +
    lambda_j)) W', four matrix products. Otherwise it is one eig(M), whose
    eigenvectors _schur_sweep turns into a Schur basis. Each solve is then
    refined against the exact operator until its residual is at rounding
    level; a refinement step that does not halve the residual means the
    basis is unusable and raises ValueError. Error messages call M by name.
    """
    symmetric = np.array_equal(M, M.T)
    eigs, basis = np.linalg.eigh(M) if symmetric else np.linalg.eig(M)
    if unstable is None:
        _check_eigenvalue_sums(eigs, name)
    else:
        _check_hurwitz(eigs, unstable)
    if symmetric:
        inv_sums = 1.0 / (eigs[:, None] + eigs[None, :])

        def sweep(Y):
            return basis @ ((basis.T @ Y @ basis) * inv_sums) @ basis.T
    else:
        # so the peak holds one n x n basis, not two
        basis = np.linalg.qr(basis)[0]
        sweep = _schur_sweep(M, basis)
    norm_M = np.linalg.norm(M)

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


def _schur_sweep(M, U):
    """Return sweep(Y), an unrefined solve of M' X + X M = Y for a general M
    whose spectrum the caller has gated.

    U = qr(eigenvectors of M) is a unitary Schur basis and T = U^H M U is
    upper triangular up to rounding, amplified by the eigenvectors'
    condition. With that lower triangle dropped, T^H Z + Z T = U^H Y U is
    solved one anti-diagonal of Z at a time (Bartels-Stewart style): entry
    (i, j) needs only the entries (k, j), k < i, and (i, k), k < j.
    """
    n = M.shape[0]
    Uh = U.conj().T
    T = Uh @ M @ U
    d = np.diag(T)
    sums = d.conj()[:, None] + d[None, :]
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

    def sweep(Y):
        rhs = (Uh @ Y @ U).ravel()
        lz, rz = left.copy(), right.copy()
        lz_flat, rz_flat = lz.ravel(), rz.ravel()
        for a, b, r, at, at_left, at_right, inv in diagonals:
            z = (rhs.take(at) - (lz[a:b] * rz[r:r + b - a]).sum(1)) * inv
            lz_flat.put(at_left, z)
            rz_flat.put(at_right, z)
        return (U @ lz[:, :n] @ Uh).real

    return sweep


def solve_lyapunov(M, S) -> np.ndarray:
    """Solve M' P + P M + S = 0 for symmetric P, M Hurwitz.

    One refined Sylvester solve (_sylvester_solver), the same one the bound
    constant uses: O(n^3) time and O(n^2) memory, numpy only.
    The result is symmetrized exactly; it agrees with scipy's
    Bartels-Stewart solver and with the dense Kronecker solve to about
    1e-13 relative on random non-normal M up to n = 12 and symmetric M up
    to n = 40 (the tests require 1e-10). The refinement keeps the relative
    residual near 1e-17 even on M with a 100x random strictly upper part,
    where a determinant-scaled Newton sign iteration left residuals up to
    1e-7 and did not converge on 5 of 100 draws. If the refinement stalls
    it raises ValueError. One decomposition per solve, eigh for an exactly
    symmetric M and eig otherwise, and one gate per solve on the spectrum
    that gives the basis: an M that is not Hurwitz, a zero mode whichever
    sign it rounds to included, raises UnstableClosedLoopError
    (system._check_hurwitz).
    """
    M = _as_matrix(M, name="M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got {M.shape}")
    n = M.shape[0]
    S = _as_matrix(S, (n, n), "S")
    if np.max(np.abs(S - S.T)) > 1e-10 * (1.0 + np.max(np.abs(S))):
        raise ValueError("S must be symmetric")
    return _lyapunov(M, S, "M is not Hurwitz")


def _lyapunov(M, S, unstable: str) -> np.ndarray:
    """solve_lyapunov on checked M and S; a non-Hurwitz M raises
    UnstableClosedLoopError saying `unstable`."""
    P = _sylvester_solver(M, "M", unstable)(-S)
    return 0.5 * (P + P.T)


def modified_are_residual(P, L, sys: LtiSystem, weights: CostWeights) -> float:
    """Frobenius residual of A'P + PA - P B R^-1 B' P + Q + L' R L."""
    _check_instance("sys", sys, LtiSystem)
    P = _as_matrix(P, (sys.n, sys.n), "P")
    L = _as_matrix(L, (sys.m, sys.n), "L")
    _check_weights(weights, sys.n, sys.m)
    RinvBt = np.linalg.solve(weights.R, sys.B.T)
    res = (sys.A.T @ P + P @ sys.A - P @ sys.B @ RinvBt @ P
           + weights.Q + L.T @ weights.R @ L)
    return float(np.linalg.norm(res, "fro"))


def _policy_iteration(evaluate, K, RinvBt, mask: SparsityMask, tol: float,
                      max_iter: int) -> SynthesisResult:
    """Policy iteration around one evaluation oracle.

    evaluate(k, K) returns the value matrix P of the gain K in iteration k
    (0-based); the improvement is the masked update K <- (R^-1 B' P) o mask,
    the same on both routes. The loop stops once ||P_k - P_{k-1}||_F < tol;
    L is the off-pattern part of R^-1 B' P.
    """
    history: List[IterationRecord] = []
    P, delta = None, np.inf
    for k in range(max_iter):
        P_prev = P  # the one older value matrix held during the solve
        P = evaluate(k, K)
        G = RinvBt @ P
        K = on_pattern(G, mask)
        if k:
            delta = float(np.linalg.norm(P - P_prev, "fro"))
        history.append(IterationRecord(K=K, delta_P=delta))
        if delta < tol:
            break
    result = SynthesisResult(P=P, K=K, L=G - K, iterations=len(history),
                             history=history, converged=delta < tol)
    if not result.converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(last ||dP|| = {delta:.3g}, tol = {tol:g})", result=result)
    return result


def _check_problem(n: int, m: int, weights, mask, initial_gain, tol,
                   max_iter) -> np.ndarray:
    """The set-up check of both routes and of a ScenarioSpec, for n states
    and m inputs: tol, max_iter, an m x n mask, an initial gain zero off
    it, weights. Returns the gain."""
    _check_positive("tol", tol)
    _check_at_least("max_iter", max_iter, 1)
    _check_instance("mask", mask, SparsityMask)
    if mask.shape != (m, n):
        raise ValueError(f"mask must have shape {(m, n)}, got {mask.shape}")
    K0 = _as_matrix(initial_gain, (m, n), "initial_gain")
    _check_on_mask("initial_gain", K0, mask)
    _check_weights(weights, n, m)
    return K0


def kleinman_structured(sys: LtiSystem, weights: CostWeights, mask: SparsityMask,
                        initial_gain, tol: float = _TOL,
                        max_iter: int = _MAX_ITER) -> SynthesisResult:
    """Structured policy iteration; on an all-ones mask, Kleinman's LQR.

    Alternates the closed-loop Lyapunov solve (policy evaluation) with the
    masked gain update K <- (R^-1 B' P) o mask (policy improvement) until
    ||P_k - P_{k-1}||_F < tol. One decomposition per solve (eigh when the
    closed loop is exactly symmetric, else eig) and one gate per solve,
    system._check_hurwitz on that spectrum; each iterate is checked on the
    solve that uses it, so a K0 or an update that does not keep the loop
    Hurwitz aborts with its index, and the returned gain is checked once
    after the loop by the same rule. The partial result of a
    ConvergenceError carries its last gain unchecked.
    """
    _check_instance("sys", sys, LtiSystem)
    K = _check_problem(sys.n, sys.m, weights, mask, initial_gain, tol,
                       max_iter)
    RinvBt = np.linalg.solve(weights.R, sys.B.T)

    def evaluate(k, K):
        return _lyapunov(sys.A - sys.B @ K, weights.Q + K.T @ weights.R @ K,
                         "initial gain is not stabilizing" if k == 0
                         else f"iterate {k} destabilized the loop")

    result = _policy_iteration(evaluate, K, RinvBt, mask, tol, max_iter)
    _check_hurwitz(np.linalg.eigvals(sys.A - sys.B @ result.K),
                   f"iterate {result.iterations} destabilized the loop")
    return result


def _bound_constant(Mv) -> float:
    """l = sigma_min(V) for V = I (x) M' + M' (x) I, without forming V.

    When M equals its transpose exactly, V is symmetric with eigenvalues
    lambda_i + lambda_j (Horn & Johnson, Topics in Matrix Analysis, 1991,
    Thm 4.4.5), so l = min |lambda_i + lambda_j| from eigvalsh(M). Every
    builtin, ring and benchmark scenario takes this path.

    Otherwise l = 1 / sqrt(lambda_max((V V')^-1)), by three-term Lanczos
    on V^-T V^-1 from a fixed random start (reruns give the same bits),
    each step a solve with V and one with V'. No basis is kept: without
    reorthogonalization orthogonality is lost only as Ritz values converge,
    and a Ritz value with a small residual beta |s| still lies that close
    to an eigenvalue (Paige, Linear Algebra Appl. 34, 1980). It stops once
    the top Ritz value's residual is below _LANCZOS_TOL of that value, or
    after n^2 steps. Two eigenvalues of M that sum to zero raise ValueError.
    """
    name = "A - B R^-1 B'"
    if np.array_equal(Mv, Mv.T):
        return _check_eigenvalue_sums(np.linalg.eigvalsh(Mv), name)
    solve, solve_t = _sylvester_solver(Mv, name), _sylvester_solver(Mv.T, name)
    q = np.random.default_rng(0).standard_normal(Mv.shape)
    q, q_prev, b = q / np.linalg.norm(q), 0.0, 0.0
    alpha, beta = [], []
    while True:
        w = solve_t(solve(q)) - b * q_prev
        alpha.append(float(np.vdot(q, w)))
        w -= alpha[-1] * q
        b = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1)
                                    + np.diag(beta, -1))
        if (b * abs(vecs[-1, -1]) <= _LANCZOS_TOL * ritz[-1]
                or len(alpha) == Mv.size):
            return float(1.0 / np.sqrt(ritz[-1]))
        beta.append(b)
        q, q_prev = w / b, q


@dataclass(frozen=True)
class BoundReport:
    """Suboptimality bound data for structured-vs-unstructured objectives.

    g is the spectral norm of B R^-1 B', l the smallest singular value of
    the Lyapunov-type operator V = I (x) M' + M' (x) I with M = A - B R^-1 B',
    and the bound is (l / 2g) * ||x0||^2. _bound_constant computes l in
    O(n^2) memory without forming the n^2 x n^2 operator; it agrees with
    the full SVD of V to about 1e-13 relative, defective M included (the
    tests require 1e-8, and 1e-12 for the closed form of a symmetric M).
    epsilon = ||L'RL|| / l is logged when a deviation matrix is supplied.
    Both norms are of symmetric PSD matrices, so each is the largest
    eigenvalue from eigvalsh; no SVD is taken.
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

    x0 must be a state _as_state takes and both costs finite numbers.
    Raises ValueError if B is zero, if two eigenvalues of A - B R^-1 B' sum
    to zero, or if its eigenvectors are too ill-conditioned for l to be
    computed to rounding accuracy (see BoundReport).
    """
    _check_instance("sys", sys, LtiSystem)
    x0 = _as_state(x0, sys.n)
    _check_weights(weights, sys.n, sys.m)
    for name, cost in (("cost_structured", cost_structured),
                       ("cost_unstructured", cost_unstructured)):
        if not (_is_real(cost) and np.isfinite(cost)):
            raise ValueError(f"{name} must be finite, got {cost!r}")
    RinvBt = np.linalg.solve(weights.R, sys.B.T)
    G = sys.B @ RinvBt
    g = float(np.linalg.eigvalsh(G)[-1])
    if g == 0.0:
        raise ValueError("B is zero; the bound is undefined (g = 0)")

    l = _bound_constant(sys.A - G)

    # ||x0 (x) x0||_2 = ||x0||^2
    bound = (l / (2.0 * g)) * float(x0 @ x0)
    gap = abs(float(cost_structured) - float(cost_unstructured))
    eps = None
    if deviation is not None:
        L = _as_matrix(deviation, (sys.m, sys.n), "deviation")
        eps = float(np.linalg.eigvalsh(L.T @ weights.R @ L)[-1]) / l
    return BoundReport(g=g, l=l, bound=bound, gap=gap,
                       within_bound=bool(gap <= bound), epsilon=eps)
