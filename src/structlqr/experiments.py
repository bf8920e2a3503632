"""Scenario definitions, benchmark fixtures, pipeline runners and reports."""

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .learning import (SrlConfig, check_rank, collect, hide_state_matrix,
                       make_exploration, srl_synthesize)
from .model_based import (SynthesisResult, _check_stopping_rule,
                          find_stabilizing_gain, kleinman_structured,
                          solve_unstructured_lqr, suboptimality_bound)
from .structure import SparsityMask, check_membership
from .system import (CostWeights, InputPolicy, LtiSystem, Trajectory,
                     TruncationWarning, evaluate_cost, evaluate_cost_analytic,
                     simulate)


class ScenarioError(ValueError):
    """Malformed scenario file or inconsistent scenario data."""


# ---------------------------------------------------------------------------
# consensus-network factory


def make_consensus_network(num_agents: int,
                           couplings: Dict[Tuple[int, int], float]) -> LtiSystem:
    """Diffusive-coupling network: x_i' = sum_j a_ij (x_j - x_i) + u_i.

    couplings maps undirected agent pairs (0-indexed) to positive coupling
    strengths; the resulting state matrix has zero row sums and B = I.
    """
    A = np.zeros((num_agents, num_agents))
    seen = set()
    for (i, j), alpha in couplings.items():
        if i == j:
            raise ValueError(f"self-loop on agent {i} is not allowed")
        if not (0 <= i < num_agents and 0 <= j < num_agents):
            raise ValueError(f"agent pair ({i}, {j}) out of range")
        if alpha <= 0:
            raise ValueError(f"coupling for ({i}, {j}) must be positive")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate coupling for pair {key}")
        seen.add(key)
        A[i, j] += alpha
        A[j, i] += alpha
        A[i, i] -= alpha
        A[j, j] -= alpha
    return LtiSystem(A=A, B=np.eye(num_agents))


# ---------------------------------------------------------------------------
# scenario spec


@dataclass(frozen=True)
class ExplorationConfig:
    seed: int = 0
    duration: float = 1.4
    window: float = 0.01
    num_sinusoids: int = 100
    freq_min: float = 0.5
    freq_max: float = 50.0
    amplitude: float = 1.0
    substeps: int = 1


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iter: int = 50
    rank_tol: float = 1e-12

    def __post_init__(self):
        _check_stopping_rule(self.tol, self.max_iter)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    mask: SparsityMask
    x0: np.ndarray
    dt: float
    exploration: ExplorationConfig
    solver: SolverConfig
    A: Optional[np.ndarray] = None          # ground truth; hidden from the learner
    initial_gain: Optional[np.ndarray] = None  # None -> stabilizing-gain search

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        n, m = B.shape
        for nm, M, shape in (("Q", self.Q, (n, n)), ("R", self.R, (m, m))):
            if np.asarray(M).shape != shape:
                raise ScenarioError(f"{nm} must have shape {shape}")
        if self.A is not None and np.asarray(self.A).shape != (n, n):
            raise ScenarioError(f"A must have shape {(n, n)}")
        if self.mask.shape != (m, n):
            raise ScenarioError(f"mask must have shape {(m, n)}")
        if np.asarray(self.x0).shape != (n,):
            raise ScenarioError(f"x0 must have shape {(n,)}")
        if self.initial_gain is not None and np.asarray(self.initial_gain).shape != (m, n):
            raise ScenarioError(f"K0 must have shape {(m, n)}")

    def system(self) -> LtiSystem:
        if self.A is None:
            raise ScenarioError(
                f"scenario '{self.name}' has no state matrix; simulation "
                "needs the ground truth even though the learner never sees it")
        return LtiSystem(A=self.A, B=self.B)

    def weights(self) -> CostWeights:
        return CostWeights(Q=self.Q, R=self.R)

    def resolve_initial_gain(self) -> np.ndarray:
        if self.initial_gain is not None:
            return np.asarray(self.initial_gain, dtype=float)
        return find_stabilizing_gain(self.system(), self.weights(), self.mask)

    def srl_config(self) -> SrlConfig:
        ex = self.exploration
        num_windows = int(round(ex.duration / ex.window))
        return SrlConfig(mask=self.mask, weights=self.weights(), B=self.B,
                         initial_gain=self.resolve_initial_gain(),
                         window=ex.window, num_windows=num_windows,
                         dt=self.dt, substeps=ex.substeps,
                         tol=self.solver.tol, max_iter=self.solver.max_iter,
                         rank_tol=self.solver.rank_tol)

    def probe(self, seed: Optional[int] = None):
        ex = self.exploration
        return make_exploration(ex.seed if seed is None else seed,
                                num_inputs=self.B.shape[1],
                                num_sinusoids=ex.num_sinusoids,
                                freq_range=(ex.freq_min, ex.freq_max),
                                amplitude=ex.amplitude)


# ---------------------------------------------------------------------------
# built-in fixtures: 6-agent diffusive network, two gain structures

_COUPLINGS_6 = {(0, 1): 2.0, (0, 2): 3.0, (1, 4): 1.0, (1, 5): 3.0,
                (2, 3): 2.0, (4, 5): 3.0}

_ZEROS_A = ((0, 0), (0, 1), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4))
_ZEROS_B_DECLARED = _ZEROS_A + ((3, 0), (3, 1), (4, 2), (4, 3), (5, 0), (5, 3))
# The benchmark gain, cost and closed-loop spectrum for structure B are all
# consistent only with an additional zero at (5, 5); the 13-position variant
# above is kept as consensus-b-declared for the sample-count arithmetic.
_ZEROS_B = _ZEROS_B_DECLARED + ((5, 5),)


def _network_scenario(name: str, zeros) -> ScenarioSpec:
    sys6 = make_consensus_network(6, _COUPLINGS_6)
    mask = SparsityMask.from_zero_positions(6, 6, zeros)
    K0 = 10.0 * (np.eye(6) * mask.indicator)  # 10 * (R^-1 B' o mask), B = R = I
    return ScenarioSpec(
        name=name,
        A=sys6.A, B=sys6.B,
        Q=30.0 * np.eye(6), R=np.eye(6),
        mask=mask,
        x0=np.array([0.3, 0.5, 0.4, 0.8, 0.9, 0.6]),
        dt=5e-5,
        exploration=ExplorationConfig(seed=7, duration=1.4, window=0.01,
                                      num_sinusoids=100, freq_min=0.5,
                                      freq_max=50.0, amplitude=100.0,
                                      substeps=1),
        solver=SolverConfig(tol=1e-3, max_iter=30, rank_tol=1e-12),
        initial_gain=K0,
    )


def builtin_scenario(name: str) -> ScenarioSpec:
    builders = {
        "consensus-a": lambda: _network_scenario("consensus-a", _ZEROS_A),
        "consensus-b": lambda: _network_scenario("consensus-b", _ZEROS_B),
        "consensus-b-declared": lambda: _network_scenario(
            "consensus-b-declared", _ZEROS_B_DECLARED),
    }
    if name not in builders:
        raise ScenarioError(f"unknown builtin scenario '{name}'; "
                            f"available: {', '.join(sorted(builders))}")
    return builders[name]()


BUILTIN_SCENARIOS = ("consensus-a", "consensus-b", "consensus-b-declared")


# ---------------------------------------------------------------------------
# scenario text format


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_block(keyword: str, name: str, M: np.ndarray) -> str:
    rows, cols = M.shape
    head = f"{keyword} {name} {rows} {cols}" if name else f"{keyword} {rows} {cols}"
    body = "\n".join(" ".join(_fmt(v) for v in row) for row in M)
    return head + "\n" + body


def save_scenario(spec: ScenarioSpec, path=None) -> str:
    """Serialize a scenario to the block text format; returns the text."""
    parts = [f"scenario {spec.name}", f"dt {_fmt(spec.dt)}", ""]
    if spec.A is not None:
        parts += [_matrix_block("matrix", "A", np.asarray(spec.A, float)), ""]
    parts += [_matrix_block("matrix", "B", np.asarray(spec.B, float)), ""]
    parts += [_matrix_block("matrix", "Q", np.asarray(spec.Q, float)), ""]
    parts += [_matrix_block("matrix", "R", np.asarray(spec.R, float)), ""]
    mask_rows = "\n".join(" ".join(str(int(v)) for v in row)
                          for row in spec.mask.indicator)
    parts += [f"mask {spec.mask.shape[0]} {spec.mask.shape[1]}\n{mask_rows}", ""]
    x0 = np.asarray(spec.x0, float)
    parts += [f"vector x0 {len(x0)}\n" + " ".join(_fmt(v) for v in x0), ""]
    if spec.initial_gain is not None:
        parts += [_matrix_block("matrix", "K0",
                                np.asarray(spec.initial_gain, float)), ""]
    ex, so = spec.exploration, spec.solver
    parts += [
        f"exploration seed {ex.seed}",
        f"exploration duration {_fmt(ex.duration)}",
        f"exploration window {_fmt(ex.window)}",
        f"exploration sinusoids {ex.num_sinusoids}",
        f"exploration freq-min {_fmt(ex.freq_min)}",
        f"exploration freq-max {_fmt(ex.freq_max)}",
        f"exploration amplitude {_fmt(ex.amplitude)}",
        f"exploration substeps {ex.substeps}",
        f"solver tol {_fmt(so.tol)}",
        f"solver max-iter {so.max_iter}",
        f"solver rank-tol {_fmt(so.rank_tol)}",
    ]
    text = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_content(self):
        while self.pos < len(self.raw):
            line = self.raw[self.pos].strip()
            self.pos += 1
            if line and not line.startswith("#"):
                return line, self.pos
        return None, self.pos


def _parse_value(token: str, lineno: int, what: str, cast=float):
    try:
        return cast(token)
    except ValueError:
        raise ScenarioError(f"line {lineno}: bad {what} value '{token}'") from None


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse the block text scenario format; errors carry line numbers."""
    lines = _Lines(text)
    name = None
    matrices: Dict[str, np.ndarray] = {}
    vectors: Dict[str, np.ndarray] = {}
    mask_arr = None
    scalars: Dict[str, Tuple[str, int]] = {}  # key -> (token, line number)

    def read_rows(rows, cols, lineno, what):
        out = np.empty((rows, cols))
        for r in range(rows):
            line, ln = lines.next_content()
            if line is None:
                raise ScenarioError(f"line {ln}: unexpected end of file in {what}")
            toks = line.split()
            if len(toks) != cols:
                raise ScenarioError(
                    f"line {ln}: expected {cols} values in {what}, got {len(toks)}")
            out[r] = [_parse_value(t, ln, what) for t in toks]
        return out

    while True:
        line, ln = lines.next_content()
        if line is None:
            break
        toks = line.split()
        kw = toks[0]
        if kw == "scenario":
            if len(toks) != 2:
                raise ScenarioError(f"line {ln}: scenario needs a name")
            name = toks[1]
        elif kw == "matrix":
            if len(toks) != 4:
                raise ScenarioError(f"line {ln}: matrix needs name rows cols")
            rows = int(_parse_value(toks[2], ln, "rows"))
            cols = int(_parse_value(toks[3], ln, "cols"))
            matrices[toks[1]] = read_rows(rows, cols, ln, f"matrix {toks[1]}")
        elif kw == "mask":
            if len(toks) != 3:
                raise ScenarioError(f"line {ln}: mask needs rows cols")
            rows = int(_parse_value(toks[1], ln, "rows"))
            cols = int(_parse_value(toks[2], ln, "cols"))
            mask_arr = read_rows(rows, cols, ln, "mask")
            if not np.all((mask_arr == 0) | (mask_arr == 1)):
                raise ScenarioError(f"line {ln}: mask entries must be 0 or 1")
        elif kw == "vector":
            if len(toks) != 3:
                raise ScenarioError(f"line {ln}: vector needs name length")
            length = int(_parse_value(toks[2], ln, "length"))
            vectors[toks[1]] = read_rows(1, length, ln, f"vector {toks[1]}")[0]
        elif kw == "dt":
            if len(toks) != 2:
                raise ScenarioError(f"line {ln}: dt needs one value")
            scalars["dt"] = toks[1], ln
        elif kw in ("exploration", "solver"):
            if len(toks) != 3:
                raise ScenarioError(f"line {ln}: {kw} needs key and value")
            scalars[f"{kw}.{toks[1]}"] = toks[2], ln
        else:
            raise ScenarioError(f"line {ln}: unknown keyword '{kw}'")

    if name is None:
        raise ScenarioError("missing 'scenario <name>' line")
    for required in ("B", "Q", "R"):
        if required not in matrices:
            raise ScenarioError(f"missing matrix {required}")
    if mask_arr is None:
        raise ScenarioError("missing mask block")
    if "x0" not in vectors:
        raise ScenarioError("missing vector x0")
    if "dt" not in scalars:
        raise ScenarioError("missing dt")

    def scal(key, default, cast=float):
        if key not in scalars:
            return default
        token, lineno = scalars[key]
        return _parse_value(token, lineno, key, cast)

    ex = ExplorationConfig(
        seed=scal("exploration.seed", 0, int),
        duration=scal("exploration.duration", 1.4),
        window=scal("exploration.window", 0.01),
        num_sinusoids=scal("exploration.sinusoids", 100, int),
        freq_min=scal("exploration.freq-min", 0.5),
        freq_max=scal("exploration.freq-max", 50.0),
        amplitude=scal("exploration.amplitude", 1.0),
        substeps=scal("exploration.substeps", 1, int),
    )
    solver = dict(
        tol=scal("solver.tol", 1e-6),
        max_iter=scal("solver.max-iter", 50, int),
        rank_tol=scal("solver.rank-tol", 1e-12),
    )
    dt = scal("dt", None)
    try:
        return ScenarioSpec(name=name, A=matrices.get("A"), B=matrices["B"],
                            Q=matrices["Q"], R=matrices["R"],
                            mask=SparsityMask(mask_arr), x0=vectors["x0"],
                            dt=dt, exploration=ex,
                            solver=SolverConfig(**solver),
                            initial_gain=matrices.get("K0"))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(source) -> ScenarioSpec:
    """Load a scenario from a builtin name or a file path."""
    if isinstance(source, str) and source in BUILTIN_SCENARIOS:
        return builtin_scenario(source)
    path = Path(source)
    if not path.exists():
        raise ScenarioError(
            f"'{source}' is neither a builtin scenario nor an existing file")
    return parse_scenario(path.read_text())


# ---------------------------------------------------------------------------
# run reports and CSV emission


def _complex_list(values):
    return [[float(v.real), float(v.imag)] for v in np.sort_complex(values)]


@dataclass
class RunReport:
    scenario: str
    method: str
    converged: bool
    iterations: int
    K: np.ndarray
    P: np.ndarray
    cost_quadrature: float
    cost_analytic: float
    closed_loop_eigenvalues: list
    structure_violation_max: float
    bound: Optional[dict] = None
    comparison: dict = field(default_factory=dict)
    rank: Optional[dict] = None
    exploration_peak_state: Optional[float] = None
    cost_truncated: bool = False

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "gain": self.K.tolist(),
            "value_matrix": self.P.tolist(),
            "cost_quadrature": self.cost_quadrature,
            "cost_analytic": self.cost_analytic,
            "closed_loop_eigenvalues": self.closed_loop_eigenvalues,
            "structure_violation_max": self.structure_violation_max,
            "bound": self.bound,
            "comparison": self.comparison,
            "rank": self.rank,
            "exploration_peak_state": self.exploration_peak_state,
            "cost_truncated": self.cost_truncated,
        }


def write_trajectory_csv(path, times, states, inputs):
    n = states.shape[1]
    m = inputs.shape[1]
    header = "t," + ",".join(f"x{i+1}" for i in range(n)) + "," + \
             ",".join(f"u{j+1}" for j in range(m))
    rows = [header]
    for t, x, u in zip(times, states, inputs):
        rows.append(",".join([_fmt(t)] + [_fmt(v) for v in x] + [_fmt(v) for v in u]))
    Path(path).write_text("\n".join(rows) + "\n")


def write_convergence_csv(path, result: SynthesisResult):
    K_final = result.K
    rows = ["k,delta_P,gain_distance_to_final"]
    for k, rec in enumerate(result.history, start=1):
        dk = float(np.linalg.norm(rec.K - K_final, "fro"))
        dp = "" if not np.isfinite(rec.delta_P) else _fmt(rec.delta_P)
        rows.append(f"{k},{dp},{_fmt(dk)}")
    Path(path).write_text("\n".join(rows) + "\n")


def write_gains_csv(path, gains: Dict[str, np.ndarray]):
    rows = ["matrix,row,col,value"]
    for name in sorted(gains):
        M = gains[name]
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                rows.append(f"{name},{i+1},{j+1},{_fmt(M[i, j])}")
    Path(path).write_text("\n".join(rows) + "\n")


def write_report_json(path, report: RunReport):
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipelines


def _evaluate(spec: ScenarioSpec, result: SynthesisResult):
    sys = spec.system()
    weights = spec.weights()
    analytic = evaluate_cost_analytic(sys, weights, result.K, spec.x0)
    truncated = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        quad = evaluate_cost(sys, weights, result.K, spec.x0)
        truncated = any(issubclass(w.category, TruncationWarning) for w in caught)
    eigs = np.linalg.eigvals(sys.A - sys.B @ result.K)
    membership = check_membership(result.K, spec.mask)
    return analytic, quad, truncated, eigs, membership


def _baselines(spec: ScenarioSpec, K0):
    """Model-based structured + unstructured solutions for comparison."""
    sys = spec.system()
    weights = spec.weights()
    mb = kleinman_structured(sys, weights, spec.mask, K0,
                             tol=spec.solver.tol, max_iter=spec.solver.max_iter)
    unstr = solve_unstructured_lqr(sys, weights, initial_gain=K0,
                                   tol=spec.solver.tol,
                                   max_iter=spec.solver.max_iter)
    return mb, unstr


def _closed_loop_trajectory(spec: ScenarioSpec, gain, x0, horizon=6.0, dt=0.01):
    return simulate(spec.system(), InputPolicy.feedback(gain), x0, horizon,
                    dt=dt, substeps=10)


def _emit(out_dir, report: RunReport, result: SynthesisResult,
          traj_parts, gains: Dict[str, np.ndarray]):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    times = np.concatenate([p[0] for p in traj_parts])
    states = np.vstack([p[1] for p in traj_parts])
    inputs = np.vstack([p[2] for p in traj_parts])
    write_trajectory_csv(out / "trajectory.csv", times, states, inputs)
    write_convergence_csv(out / "convergence.csv", result)
    write_gains_csv(out / "gains.csv", gains)
    write_report_json(out / "report.json", report)


def run_model_based(spec: ScenarioSpec, out_dir=None) -> RunReport:
    """Structured policy iteration on the scenario, with reports and CSVs."""
    K0 = spec.resolve_initial_gain()
    mb, unstr = _baselines(spec, K0)
    analytic, quad, truncated, eigs, membership = _evaluate(spec, mb)
    unstr_cost = evaluate_cost_analytic(spec.system(), spec.weights(),
                                        unstr.K, spec.x0)
    bound = suboptimality_bound(spec.system(), spec.weights(), spec.x0,
                                analytic, unstr_cost, deviation=mb.L)
    report = RunReport(
        scenario=spec.name, method="model-based",
        converged=mb.converged, iterations=mb.iterations,
        K=mb.K, P=mb.P,
        cost_quadrature=quad, cost_analytic=analytic,
        closed_loop_eigenvalues=_complex_list(eigs),
        structure_violation_max=membership.max_violation,
        bound=bound.to_dict(),
        comparison={
            "cost_unstructured": unstr_cost,
            "gain_distance_to_unstructured":
                float(np.linalg.norm(mb.K - unstr.K, "fro")),
        },
        cost_truncated=truncated,
    )
    if out_dir is not None:
        traj = _closed_loop_trajectory(spec, mb.K, spec.x0)
        _emit(out_dir, report, mb,
              [(traj.times, traj.states, traj.inputs)],
              {"structured": mb.K, "unstructured": unstr.K})
    return report


def run_srl(spec: ScenarioSpec, out_dir=None, seed: Optional[int] = None) -> RunReport:
    """Exploration, data-driven synthesis, then closed-loop implementation."""
    config = spec.srl_config()
    probe = spec.probe(seed)
    plant = hide_state_matrix(spec.system())
    policy = InputPolicy.feedback_with_probe(config.initial_gain, probe)
    traj, data = collect(plant, policy, spec.x0, config)
    rank_report = check_rank(data, spec.mask, rank_tol=config.rank_tol)
    learned = srl_synthesize(data, config)

    analytic, quad, truncated, eigs, membership = _evaluate(spec, learned)
    mb, unstr = _baselines(spec, config.initial_gain)
    unstr_cost = evaluate_cost_analytic(spec.system(), spec.weights(),
                                        unstr.K, spec.x0)
    bound = suboptimality_bound(spec.system(), spec.weights(), spec.x0,
                                analytic, unstr_cost, deviation=learned.L)
    report = RunReport(
        scenario=spec.name, method="srl",
        converged=learned.converged, iterations=learned.iterations,
        K=learned.K, P=learned.P,
        cost_quadrature=quad, cost_analytic=analytic,
        closed_loop_eigenvalues=_complex_list(eigs),
        structure_violation_max=membership.max_violation,
        bound=bound.to_dict(),
        comparison={
            "cost_model_based": evaluate_cost_analytic(
                spec.system(), spec.weights(), mb.K, spec.x0),
            "cost_unstructured": unstr_cost,
            "gain_distance_to_model_based":
                float(np.linalg.norm(learned.K - mb.K, "fro")),
            "value_distance_to_model_based":
                float(np.linalg.norm(learned.P - mb.P, "fro")),
            "gain_distance_to_unstructured":
                float(np.linalg.norm(learned.K - unstr.K, "fro")),
        },
        rank=rank_report.to_dict(),
        exploration_peak_state=float(np.max(np.abs(traj.states))),
        cost_truncated=truncated,
    )
    if out_dir is not None:
        # exploration downsampled to the window grid, then the loop is closed
        stride = int(round(config.window / config.dt))
        t_ex = traj.times[::stride]
        x_ex = traj.states[::stride]
        u_ex = traj.inputs[::stride]
        impl = _closed_loop_trajectory(spec, learned.K, traj.states[-1])
        _emit(out_dir, report, learned,
              [(t_ex, x_ex, u_ex),
               (impl.times[1:] + traj.times[-1], impl.states[1:], impl.inputs[1:])],
              {"learned": learned.K, "model_based": mb.K, "unstructured": unstr.K})
    return report


def run_compare(spec: ScenarioSpec, out_dir=None, seed: Optional[int] = None) -> RunReport:
    """Data-driven run with full model-based and unstructured comparison."""
    report = run_srl(spec, out_dir=out_dir, seed=seed)
    report.method = "compare"
    if out_dir is not None:
        write_report_json(Path(out_dir) / "report.json", report)
    return report


def run_simulate(spec: ScenarioSpec, horizon: float = 5.0, out_dir=None,
                 dt: float = 0.01) -> Trajectory:
    """Zero-input simulation of the scenario system from its x0."""
    sys = spec.system()
    traj = simulate(sys, InputPolicy.zero(sys.m), spec.x0, horizon, dt=dt)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states,
                             traj.inputs)
    return traj
