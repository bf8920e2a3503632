"""Scenario definitions, benchmark fixtures, pipeline runners and reports."""

import functools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .learning import (_AMPLITUDE, _FREQ_RANGE, _NUM_SINUSOIDS, _RANK_TOL,
                       SrlConfig, check_rank, collect, hide_state_matrix,
                       make_exploration, required_samples, srl_synthesize)
from .model_based import (_MAX_ITER, _TOL, SynthesisResult,
                          kleinman_structured, solve_unstructured_lqr,
                          suboptimality_bound)
from .structure import (SparsityMask, _check_mask, _check_on_mask,
                        check_membership)
from .system import (_DIVERGENCE_BOUND, CostWeights, InputPolicy, LtiSystem,
                     Trajectory, _as_matrix, _check_at_least, _check_fraction,
                     _check_multiple, _check_positive, _check_step_count,
                     _is_index, evaluate_cost, evaluate_cost_analytic, simulate)


class ScenarioError(ValueError):
    """Malformed scenario file or inconsistent scenario data."""


def _scenario_check(check):
    """A scenario dataclass's __post_init__ that raises ScenarioError for
    every field it rejects, also where a shared check raised ValueError."""
    @functools.wraps(check)
    def wrapper(self):
        try:
            check(self)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    return wrapper


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
        if not (_is_index(i, num_agents) and _is_index(j, num_agents)):
            raise ValueError(f"agent pair ({i}, {j}) must be two integers "
                             f"in [0, {num_agents})")
        if i == j:
            raise ValueError(f"self-loop on agent {i} is not allowed")
        _check_positive(f"coupling for ({i}, {j})", alpha)
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


# The probe stores and evaluates every sinusoid at each RK4 stage time, so
# the count sizes memory and time (100000000 grew a consensus-a run to
# 7.8 GB); 10000 per channel is 100x the default.
_MAX_SINUSOIDS = 10000


@dataclass(frozen=True)
class ExplorationConfig:
    seed: int = 0
    duration: float = 1.4
    window: float = 0.01
    num_sinusoids: int = _NUM_SINUSOIDS
    freq_min: float = _FREQ_RANGE[0]
    freq_max: float = _FREQ_RANGE[1]
    amplitude: float = _AMPLITUDE
    substeps: int = 1

    @_scenario_check
    def __post_init__(self):
        _check_at_least("exploration seed", self.seed, 0)
        _check_at_least("exploration sinusoids", self.num_sinusoids, 1)
        if self.num_sinusoids > _MAX_SINUSOIDS:
            raise ValueError(
                f"exploration sinusoids must be at most {_MAX_SINUSOIDS}, "
                f"got {self.num_sinusoids!r}")
        _check_at_least("exploration substeps", self.substeps, 1)
        _check_positive("exploration duration", self.duration)
        _check_positive("exploration window", self.window)
        _check_positive("exploration freq-min", self.freq_min)
        _check_positive("exploration freq-max", self.freq_max)
        if self.freq_min > self.freq_max:
            raise ValueError(
                f"exploration freq-min {self.freq_min!r} exceeds "
                f"exploration freq-max {self.freq_max!r}")
        _check_positive("exploration amplitude", self.amplitude)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = _TOL
    max_iter: int = _MAX_ITER
    rank_tol: float = _RANK_TOL

    @_scenario_check
    def __post_init__(self):
        _check_positive("tol", self.tol)
        _check_at_least("max_iter", self.max_iter, 1)
        _check_fraction("solver rank-tol", self.rank_tol)


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
    initial_gain: np.ndarray  # K0, a stabilizing structured gain
    A: Optional[np.ndarray] = None  # ground truth; hidden from the learner

    @_scenario_check
    def __post_init__(self):
        if self.initial_gain is None:
            raise ScenarioError("initial_gain is required: the policy "
                                "iterations start from a stabilizing K0")
        _check_positive("dt", self.dt)
        # the exploration grid, here so that every subcommand reads a file alike
        ex = self.exploration
        _check_step_count("exploration duration", ex.duration, self.dt,
                          ex.substeps)
        _check_multiple("exploration window", ex.window, "dt", self.dt,
                        least=2)
        _check_multiple("exploration duration", ex.duration,
                        "exploration window", ex.window)
        _check_mask(self.mask)
        n, m = _as_matrix(self.B, name="B").shape
        for nm, M, shape in (("Q", self.Q, (n, n)), ("R", self.R, (m, m)),
                             ("A", self.A, (n, n)),
                             ("mask", self.mask.indicator, (m, n)),
                             ("x0", self.x0, (n,)),
                             ("initial_gain", self.initial_gain, (m, n))):
            if M is not None and np.shape(M) != shape:
                raise ScenarioError(f"{nm} must have shape {shape}")
        # entries after shapes, so a misshapen block is named by its shape
        peak = float(np.max(np.abs(self.x0)))
        if not peak <= _DIVERGENCE_BOUND:
            raise ScenarioError(
                f"x0 entries must be finite and at most "
                f"{_DIVERGENCE_BOUND:g} in magnitude, got {peak!r}")
        CostWeights(Q=self.Q, R=self.R)
        for name, M in (("A", self.A), ("initial_gain", self.initial_gain)):
            if M is not None:
                _as_matrix(M, name=name)
        _check_on_mask("initial_gain", self.initial_gain, self.mask)

    def system(self) -> LtiSystem:
        if self.A is None:
            raise ScenarioError(
                f"scenario '{self.name}' has no state matrix; simulation "
                "needs the ground truth even though the learner never sees it")
        return LtiSystem(A=self.A, B=self.B)

    def weights(self) -> CostWeights:
        return CostWeights(Q=self.Q, R=self.R)

    def srl_config(self) -> SrlConfig:
        ex = self.exploration
        num_windows = int(round(ex.duration / ex.window))
        need = required_samples(self.B.shape[0], self.mask)
        if num_windows < need:
            raise ScenarioError(
                f"exploration duration must be at least {need * ex.window:g} "
                f"s ({need} windows of {ex.window:g} s), got {ex.duration!r}")
        return SrlConfig(mask=self.mask, weights=self.weights(), B=self.B,
                         initial_gain=self.initial_gain,
                         window=ex.window, num_windows=num_windows,
                         dt=self.dt, substeps=ex.substeps,
                         tol=self.solver.tol, max_iter=self.solver.max_iter,
                         rank_tol=self.solver.rank_tol)

    def probe(self):
        ex = self.exploration
        return make_exploration(ex.seed, num_inputs=self.B.shape[1],
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


# Each builtin scenario and its gain structure's zero positions.
_BUILTIN_ZEROS = {"consensus-a": _ZEROS_A, "consensus-b": _ZEROS_B,
                  "consensus-b-declared": _ZEROS_B_DECLARED}
BUILTIN_SCENARIOS = tuple(_BUILTIN_ZEROS)


def builtin_scenario(name: str) -> ScenarioSpec:
    if name not in _BUILTIN_ZEROS:
        raise ScenarioError(f"unknown builtin scenario '{name}'; "
                            f"available: {', '.join(sorted(_BUILTIN_ZEROS))}")
    return _network_scenario(name, _BUILTIN_ZEROS[name])


def ring_scenario(n: int) -> ScenarioSpec:
    """Consensus ring of n agents, for runs that scale n.

    Couplings are drawn uniformly from [1, 3] and x0 from [0.2, 1] with a
    fixed seed, so each n gives one scenario; B = R = I, Q = 30 I, each
    agent's gain row is free on itself and its two ring neighbours, and
    K0 = 10 I, as in the 6-agent builtins.
    """
    _check_at_least("ring size", n, 3)
    rng = np.random.default_rng(0)
    net = make_consensus_network(
        n, {(i, (i + 1) % n): float(rng.uniform(1.0, 3.0)) for i in range(n)})
    hops = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    mask = SparsityMask((np.minimum(hops, n - hops) <= 1).astype(float))
    return ScenarioSpec(
        name=f"ring{n}", A=net.A, B=net.B, Q=30.0 * np.eye(n), R=np.eye(n),
        mask=mask, x0=rng.uniform(0.2, 1.0, size=n), dt=5e-5,
        exploration=ExplorationConfig(),
        solver=SolverConfig(tol=1e-3, max_iter=30),
        initial_gain=10.0 * np.eye(n))


# ---------------------------------------------------------------------------
# scenario text format


def _fmt(x: float) -> str:
    return repr(float(x))


def _rows(table: np.ndarray, sep: str):
    """Each row of a 2-D table as its entries' shortest round-trip reprs
    joined by sep; a row at a time, so the table is never one Python list."""
    return (sep.join(map(repr, row.tolist())) for row in table)


# The header words after each block keyword.
_HEADERS = {"matrix": ("name", "rows", "cols"), "mask": ("rows", "cols"),
            "vector": ("name", "length")}

# Every block a scenario file may hold, in file order: the ScenarioSpec
# field it fills and whether the file must have it.
_BLOCKS = {"matrix A": ("A", False), "matrix B": ("B", True),
           "matrix Q": ("Q", True), "matrix R": ("R", True),
           "mask": ("mask", True), "vector x0": ("x0", True),
           "matrix K0": ("initial_gain", True)}

# Every knob line, in file order: the config field it sets and its cast.
# The defaults live on ExplorationConfig and SolverConfig alone.
_KNOBS = {
    "exploration seed": ("seed", int),
    "exploration duration": ("duration", float),
    "exploration window": ("window", float),
    "exploration sinusoids": ("num_sinusoids", int),
    "exploration freq-min": ("freq_min", float),
    "exploration freq-max": ("freq_max", float),
    "exploration amplitude": ("amplitude", float),
    "exploration substeps": ("substeps", int),
    "solver tol": ("tol", float),
    "solver max-iter": ("max_iter", int),
    "solver rank-tol": ("rank_tol", float),
}

# Every scenario key and the ScenarioSpec or config field it fills.
_FIELDS = {"dt": "dt",
           **{key: entry[0] for key, entry in {**_BLOCKS, **_KNOBS}.items()}}


def save_scenario(spec: ScenarioSpec, path=None) -> str:
    """Serialize a scenario to the block text format; returns the text."""
    parts = [f"scenario {spec.name}", f"dt {_fmt(spec.dt)}", ""]
    for label, (attr, _) in _BLOCKS.items():
        value = getattr(spec, attr)
        if value is None:
            continue
        value = (value.indicator.astype(int) if label == "mask"
                 else np.asarray(value, float))
        parts += [" ".join([label, *map(str, value.shape)]),
                  *_rows(np.atleast_2d(value), " "), ""]
    for key, (attr, cast) in _KNOBS.items():
        value = getattr(getattr(spec, key.split()[0]), attr)
        parts.append(f"{key} {_fmt(value) if cast is float else value}")
    text = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def _parse_value(token: str, lineno: int, what: str, cast=float):
    try:
        return cast(token)
    except ValueError:
        raise ScenarioError(f"line {lineno}: bad {what} value '{token}'") from None


def _parse_size(token: str, lineno: int, what: str) -> int:
    size = _parse_value(token, lineno, what, cast=int)
    if size < 1:
        raise ScenarioError(f"line {lineno}: {what} must be at least 1, got {size}")
    return size


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse the block text scenario format; errors carry line numbers.
    Keys and blocks outside _BLOCKS and _KNOBS, or given twice, are errors."""
    raw = text.splitlines()
    # (line number, tokens) of each line that is not blank or a comment,
    # drawn lazily by the main loop and by read_block alike
    lines = ((ln, toks) for ln, toks in enumerate(map(str.split, raw), 1)
             if toks and not toks[0].startswith("#"))
    seen: Dict[str, int] = {}  # key or block label -> line it appeared on
    blocks: Dict[str, np.ndarray] = {}
    configs: Dict[str, dict] = {"exploration": {}, "solver": {}}

    def claim(label, lineno):
        if label in seen:
            raise ScenarioError(
                f"line {lineno}: {label} repeats line {seen[label]}")
        seen[label] = lineno

    def read_block(sizes, what):
        # built from the rows actually read, so memory follows the file size
        rows, cols = sizes if len(sizes) == 2 else (1, sizes[0])
        out = []
        for _ in range(rows):
            ln, toks = next(lines, (len(raw), None))
            if toks is None:
                raise ScenarioError(f"line {ln}: unexpected end of file in {what}")
            if len(toks) != cols:
                raise ScenarioError(
                    f"line {ln}: expected {cols} values in {what}, got {len(toks)}")
            out.append([_parse_value(t, ln, what) for t in toks])
        return np.array(out).reshape(sizes)

    for ln, toks in lines:
        kw = toks[0]
        if kw == "scenario":
            if len(toks) != 2:
                raise ScenarioError(f"line {ln}: scenario needs a name")
            claim(kw, ln)
            name = toks[1]
        elif kw in _HEADERS:
            words = _HEADERS[kw]
            if len(toks) != 1 + len(words):
                raise ScenarioError(f"line {ln}: {kw} needs {' '.join(words)}")
            named = words[0] == "name"
            label = " ".join(toks[:1 + named])
            if label not in _BLOCKS:
                raise ScenarioError(f"line {ln}: unknown {kw} '{toks[1]}'")
            claim(label, ln)
            sizes = [_parse_size(t, ln, w)
                     for t, w in zip(toks[1 + named:], words[named:])]
            blocks[_BLOCKS[label][0]] = read_block(sizes, label)
        elif kw == "dt":
            if len(toks) != 2:
                raise ScenarioError(f"line {ln}: dt needs one value")
            claim(kw, ln)
            dt = _parse_value(toks[1], ln, kw)
        elif kw in configs:
            if len(toks) != 3:
                raise ScenarioError(f"line {ln}: {kw} needs key and value")
            key = f"{kw} {toks[1]}"
            if key not in _KNOBS:
                raise ScenarioError(f"line {ln}: unknown {kw} key '{toks[1]}'")
            claim(key, ln)
            attr, cast = _KNOBS[key]
            configs[kw][attr] = _parse_value(toks[2], ln, f"{kw}.{toks[1]}", cast)
        else:
            raise ScenarioError(f"line {ln}: unknown keyword '{kw}'")

    if "scenario" not in seen:
        raise ScenarioError("missing 'scenario <name>' line")
    for label, (attr, required) in _BLOCKS.items():
        if required and attr not in blocks:
            raise ScenarioError(f"missing {label}" + " block" * (label == "mask"))
    if "dt" not in seen:
        raise ScenarioError("missing dt")
    try:
        blocks["mask"] = SparsityMask(blocks["mask"])
        return ScenarioSpec(name=name, dt=dt,
                            exploration=ExplorationConfig(**configs["exploration"]),
                            solver=SolverConfig(**configs["solver"]), **blocks)
    except ValueError as exc:
        raise _keyed(str(exc), seen) from exc


def _keyed(message: str, seen: Dict[str, int]) -> ScenarioError:
    """A validation message starts with the field it rejects, by key or by
    field name; name it by its key and prefix the line the key is on."""
    for key, attr in _FIELDS.items():
        for name in (key, attr):
            if key in seen and message.startswith(name + " "):
                return ScenarioError(
                    f"line {seen[key]}: {key}{message[len(name):]}")
    return ScenarioError(message)


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

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["gain"] = out.pop("K").tolist()
        out["value_matrix"] = out.pop("P").tolist()
        return out


def write_trajectory_csv(path, times, states, inputs):
    header = ",".join(["t", *(f"x{i+1}" for i in range(states.shape[1])),
                       *(f"u{j+1}" for j in range(inputs.shape[1]))])
    table = np.column_stack([times, states, inputs])
    Path(path).write_text("\n".join([header, *_rows(table, ",")]) + "\n")


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
        # Python floats: repr of a numpy scalar is not its number alone
        for i, row in enumerate(np.asarray(gains[name], float).tolist(), 1):
            rows += (f"{name},{i},{j},{v!r}" for j, v in enumerate(row, 1))
    Path(path).write_text("\n".join(rows) + "\n")


def write_report_json(path, report: RunReport):
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipelines


def _report(spec: ScenarioSpec, sys: LtiSystem, weights: CostWeights,
            method: str, result: SynthesisResult,
            unstructured: SynthesisResult, **fields) -> RunReport:
    """Report fields every runner shares: costs, closed-loop spectrum,
    structure check, and the bound against the unstructured optimum."""
    analytic = evaluate_cost_analytic(sys, weights, result.K, spec.x0)
    quad = evaluate_cost(sys, weights, result.K, spec.x0)
    unstr_cost = evaluate_cost_analytic(sys, weights, unstructured.K, spec.x0)
    bound = suboptimality_bound(sys, weights, spec.x0, analytic, unstr_cost,
                                deviation=result.L)
    return RunReport(
        scenario=spec.name, method=method,
        converged=result.converged, iterations=result.iterations,
        K=result.K, P=result.P,
        cost_quadrature=quad, cost_analytic=analytic,
        closed_loop_eigenvalues=_complex_list(
            np.linalg.eigvals(sys.A - sys.B @ result.K)),
        structure_violation_max=check_membership(result.K, spec.mask),
        bound=bound.to_dict(),
        comparison={
            "cost_unstructured": unstr_cost,
            "gain_distance_to_unstructured":
                float(np.linalg.norm(result.K - unstructured.K, "fro")),
        },
        **fields,
    )


def _baselines(spec: ScenarioSpec, sys: LtiSystem, weights: CostWeights,
               K0):
    """Model-based structured + unstructured solutions for comparison."""
    mb = kleinman_structured(sys, weights, spec.mask, K0,
                             tol=spec.solver.tol, max_iter=spec.solver.max_iter)
    unstr = solve_unstructured_lqr(sys, weights, initial_gain=K0,
                                   tol=spec.solver.tol,
                                   max_iter=spec.solver.max_iter)
    return mb, unstr


def _closed_loop_trajectory(sys: LtiSystem, gain, x0):
    return simulate(sys, InputPolicy(gain=gain), x0, 6.0, dt=0.01,
                    substeps=10)


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
    sys, weights = spec.system(), spec.weights()
    mb, unstr = _baselines(spec, sys, weights, spec.initial_gain)
    report = _report(spec, sys, weights, "model-based", mb, unstr)
    if out_dir is not None:
        traj = _closed_loop_trajectory(sys, mb.K, spec.x0)
        _emit(out_dir, report, mb,
              [(traj.times, traj.states, traj.inputs)],
              {"structured": mb.K, "unstructured": unstr.K})
    return report


def run_srl(spec: ScenarioSpec, out_dir=None, method: str = "srl") -> RunReport:
    """Exploration, data-driven synthesis, then closed-loop implementation,
    compared with the model-based and unstructured solutions. The probe
    comes from spec.exploration, seed included."""
    config = spec.srl_config()
    sys, weights = spec.system(), config.weights
    # first, so a K0 that does not stabilize the loop is named as such
    # before the exploration run diverges or yields rank-deficient data
    mb, unstr = _baselines(spec, sys, weights, config.initial_gain)
    probe = spec.probe()
    plant = hide_state_matrix(sys)
    policy = InputPolicy(gain=config.initial_gain, probe=probe)
    traj, data = collect(plant, policy, spec.x0, config)
    rank_report = check_rank(data, spec.mask, rank_tol=config.rank_tol)
    learned = srl_synthesize(data, config)
    report = _report(spec, sys, weights, method, learned, unstr,
                     rank=rank_report.to_dict(),
                     exploration_peak_state=float(np.max(np.abs(traj.states))))
    report.comparison.update({
        "cost_model_based": evaluate_cost_analytic(sys, weights, mb.K,
                                                   spec.x0),
        "gain_distance_to_model_based":
            float(np.linalg.norm(learned.K - mb.K, "fro")),
        "value_distance_to_model_based":
            float(np.linalg.norm(learned.P - mb.P, "fro")),
    })
    if out_dir is not None:
        # exploration downsampled to the window grid, then the loop is closed
        stride = int(round(config.window / config.dt))
        t_ex = traj.times[::stride]
        x_ex = traj.states[::stride]
        u_ex = traj.inputs[::stride]
        impl = _closed_loop_trajectory(sys, learned.K, traj.states[-1])
        _emit(out_dir, report, learned,
              [(t_ex, x_ex, u_ex),
               (impl.times[1:] + traj.times[-1], impl.states[1:], impl.inputs[1:])],
              {"learned": learned.K, "model_based": mb.K, "unstructured": unstr.K})
    return report


def run_simulate(spec: ScenarioSpec, horizon: float = 5.0,
                 out_dir=None) -> Trajectory:
    """Zero-input simulation of the scenario system from its x0."""
    traj = simulate(spec.system(), InputPolicy(), spec.x0, horizon)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(out / "trajectory.csv", traj.times, traj.states,
                             traj.inputs)
    return traj
