"""Scenario definitions, benchmark fixtures, pipeline runners and reports."""

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .learning import (_AMPLITUDE, _FREQ_RANGE, _MAX_SINUSOIDS, _NUM_SINUSOIDS,
                       _RANK_TOL, SrlConfig, check_rank, collect,
                       hide_state_matrix, make_exploration, required_samples,
                       srl_synthesize)
from .model_based import (_MAX_ITER, _TOL, SynthesisResult, _check_problem,
                          kleinman_structured, suboptimality_bound)
from .structure import SparsityMask, check_membership
from .system import (_COST_H_LAMBDA, _DIVERGENCE_BOUND, _MAX_STEPS,
                     CostWeights, InputPolicy, LtiSystem, Trajectory,
                     _as_matrix, _as_pair, _as_state, _check_at_least,
                     _check_fraction, _check_hurwitz, _check_instance,
                     _check_multiple, _check_positive, _freeze, _is_index,
                     _rk4_substeps, evaluate_cost, evaluate_cost_analytic,
                     simulate)


# ---------------------------------------------------------------------------
# consensus-network factory


def make_consensus_network(num_agents: int,
                           couplings: Dict[Tuple[int, int], float]) -> LtiSystem:
    """Diffusive-coupling network: x_i' = sum_j a_ij (x_j - x_i) + u_i.

    couplings maps undirected agent pairs (0-indexed) to positive coupling
    strengths; the resulting state matrix has zero row sums and B = I.
    """
    _check_at_least("num_agents", num_agents, 1)
    _check_instance("couplings", couplings, dict)
    A = np.zeros((num_agents, num_agents))
    seen = set()
    for pair, alpha in couplings.items():
        i, j, text = _as_pair(pair)
        if not (_is_index(i, num_agents) and _is_index(j, num_agents)):
            raise ValueError(f"agent pair {text} must be two integers "
                             f"in [0, {num_agents})")
        if i == j:
            raise ValueError(f"self-loop on agent {i} is not allowed")
        _check_positive(f"coupling for {text}", alpha)
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
    num_sinusoids: int = _NUM_SINUSOIDS
    freq_min: float = _FREQ_RANGE[0]
    freq_max: float = _FREQ_RANGE[1]
    amplitude: float = _AMPLITUDE
    substeps: int = 1  # least RK4 steps per dt; simulate may take more

    def __post_init__(self):
        _check_at_least("exploration seed", self.seed, 0)
        _check_at_least("exploration sinusoids", self.num_sinusoids, 1,
                        _MAX_SINUSOIDS)
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

    def __post_init__(self):
        _check_positive("solver tol", self.tol)
        _check_at_least("solver max-iter", self.max_iter, 1)
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

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name.split() == [self.name]):
            raise ValueError(f"name must be one word, got {self.name!r}")
        if self.initial_gain is None:
            raise ValueError("initial_gain is required: the policy "
                             "iterations start from a stabilizing K0")
        _check_positive("dt", self.dt)
        _check_instance("exploration", self.exploration, ExplorationConfig)
        _check_instance("solver", self.solver, SolverConfig)
        # the grid multiples, here so that every subcommand reads a file alike
        ex = self.exploration
        _check_multiple("exploration window", ex.window, "dt", self.dt,
                        least=2)
        _check_multiple("exploration duration", ex.duration,
                        "exploration window", ex.window)
        # the set-up both synthesis routes check, then the blocks only a run
        # reads; each array is kept as the read-only floats checked
        B = _as_matrix(self.B, name="B")
        n, m = B.shape
        weights = CostWeights(Q=self.Q, R=self.R)
        K0 = _check_problem(n, m, weights, self.mask, self.initial_gain,
                            self.solver.tol, self.solver.max_iter)
        x0 = _as_state(self.x0, n)
        peak = float(np.max(np.abs(x0)))
        if not peak <= _DIVERGENCE_BOUND:
            raise ValueError(
                f"x0 entries must be finite and at most "
                f"{_DIVERGENCE_BOUND:g} in magnitude, got {peak!r}")
        A = None if self.A is None else _as_matrix(self.A, (n, n), "A")
        for name, value in (("B", B), ("Q", weights.Q), ("R", weights.R),
                            ("x0", x0), ("initial_gain", K0), ("A", A)):
            if value is not None:
                object.__setattr__(self, name, _freeze(value))

    def system(self) -> LtiSystem:
        if self.A is None:
            raise ValueError(
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
            raise ValueError(
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


def _consensus_scenario(name: str, net: LtiSystem, mask: SparsityMask,
                        x0: np.ndarray,
                        exploration: ExplorationConfig) -> ScenarioSpec:
    """The paper's network setup on a consensus network (B = I): R = I,
    Q = 30 I, K0 = 10 (R^-1 B' o mask) = 10 (I o mask), dt = 5e-5."""
    n = net.n
    return ScenarioSpec(
        name=name, A=net.A, B=net.B, Q=30.0 * np.eye(n), R=np.eye(n),
        mask=mask, x0=x0, dt=5e-5, exploration=exploration,
        solver=SolverConfig(tol=1e-3, max_iter=30),
        initial_gain=10.0 * (np.eye(n) * mask.indicator))


# Each builtin scenario and its gain structure's zero positions.
_BUILTIN_ZEROS = {"consensus-a": _ZEROS_A, "consensus-b": _ZEROS_B,
                  "consensus-b-declared": _ZEROS_B_DECLARED}
BUILTIN_SCENARIOS = tuple(_BUILTIN_ZEROS)


def builtin_scenario(name: str) -> ScenarioSpec:
    _check_instance("name", name, str)
    if name not in _BUILTIN_ZEROS:
        raise ValueError(f"unknown builtin scenario '{name}'; "
                         f"available: {', '.join(sorted(_BUILTIN_ZEROS))}")
    return _consensus_scenario(
        name, make_consensus_network(6, _COUPLINGS_6),
        SparsityMask.from_zero_positions(6, 6, _BUILTIN_ZEROS[name]),
        np.array([0.3, 0.5, 0.4, 0.8, 0.9, 0.6]),
        ExplorationConfig(seed=7, duration=1.4, window=0.01,
                          num_sinusoids=100, freq_min=0.5, freq_max=50.0,
                          amplitude=100.0, substeps=1))


def ring_scenario(n: int) -> ScenarioSpec:
    """Consensus ring of n agents, for runs that scale n.

    Couplings are drawn uniformly from [1, 3] and x0 from [0.2, 1] with a
    fixed seed, so each n gives one scenario; each agent's gain row is free
    on itself and its two ring neighbours, and the rest is the 6-agent
    builtins' setup.
    """
    _check_at_least("ring size", n, 3)
    rng = np.random.default_rng(0)
    net = make_consensus_network(
        n, {(i, (i + 1) % n): float(rng.uniform(1.0, 3.0)) for i in range(n)})
    hops = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    mask = SparsityMask((np.minimum(hops, n - hops) <= 1).astype(float))
    return _consensus_scenario(f"ring{n}", net, mask,
                               rng.uniform(0.2, 1.0, size=n),
                               ExplorationConfig())


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

# Every block a scenario file may hold, in file order, and the
# ScenarioSpec field it fills.
_BLOCKS = {"matrix A": "A", "matrix B": "B", "matrix Q": "Q", "matrix R": "R",
           "mask": "mask", "vector x0": "x0", "matrix K0": "initial_gain"}

# Every one-value line, in file order: the field it fills and its cast. A
# one-word key fills a ScenarioSpec field, a two-word key one of the config
# its first word names; the defaults live on the config classes alone.
_SCALARS = {
    "scenario": ("name", str),
    "dt": ("dt", float),
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

# Every scenario key and the field it fills.
_FIELDS = {**{key: attr for key, (attr, _) in _SCALARS.items()}, **_BLOCKS}

# The ScenarioSpec fields without a default, whose lines every file needs
# (exploration and solver are built from the knobs, which all have one).
_REQUIRED = {f.name for f in fields(ScenarioSpec) if f.default is MISSING}


def _as_path(name: str, path) -> Path:
    """path as a Path; a ValueError naming it unless a str or os.PathLike,
    or if empty, which Path would read as the working directory."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"{name} must be a str or os.PathLike, "
                         f"got {type(path).__name__}")
    if os.fspath(path) == "":
        raise ValueError(f"{name} must be a non-empty path, got ''")
    return Path(path)


def save_scenario(spec: ScenarioSpec, path=None) -> str:
    """Serialize a scenario to the format parse_scenario reads; returns the
    text: the one-word lines, the blocks, then the knobs, by their tables."""
    _check_instance("spec", spec, ScenarioSpec)
    def line(key):
        attr, cast = _SCALARS[key]
        config = key.rpartition(" ")[0]
        value = getattr(getattr(spec, config) if config else spec, attr)
        return f"{key} {_fmt(value) if cast is float else value}"

    parts = [line(key) for key in _SCALARS if " " not in key] + [""]
    for label, attr in _BLOCKS.items():
        value = getattr(spec, attr)
        if value is None:
            continue
        value = value.indicator.astype(int) if label == "mask" else value
        parts += [" ".join([label, *map(str, value.shape)]),
                  *_rows(np.atleast_2d(value), " "), ""]
    parts += [line(key) for key in _SCALARS if " " in key]
    text = "\n".join(parts) + "\n"
    if path is not None:
        _as_path("path", path).write_text(text, encoding="utf-8")
    return text


def _parse_value(token: str, lineno: int, what: str, cast=float):
    try:
        return cast(token)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {what} value '{token}'") from None


def _parse_size(token: str, lineno: int, what: str) -> int:
    size = _parse_value(token, lineno, what, cast=int)
    if size < 1:
        raise ValueError(f"line {lineno}: {what} must be at least 1, got {size}")
    return size


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse the block text scenario format; errors carry line numbers. A
    line is a block header or a _SCALARS key (all tokens but the last) and
    its value. Other lines, repeats and missing required lines are errors."""
    _check_instance("text", text, str)
    raw = text.splitlines()
    # (line number, tokens) of each line that is not blank or a comment,
    # drawn lazily by the main loop and by read_block alike
    lines = ((ln, toks) for ln, toks in enumerate(map(str.split, raw), 1)
             if toks and not toks[0].startswith("#"))
    seen: Dict[str, int] = {}  # key or block label -> line it appeared on
    # the fields read, ScenarioSpec's under "" and each config's by name
    values: Dict[str, dict] = {"": {}, "exploration": {}, "solver": {}}

    def claim(label, lineno):
        if label in seen:
            raise ValueError(
                f"line {lineno}: {label} repeats line {seen[label]}")
        seen[label] = lineno

    def read_block(sizes, what):
        # built from the rows actually read, so memory follows the file size
        rows, cols = sizes if len(sizes) == 2 else (1, sizes[0])
        out = []
        for _ in range(rows):
            ln, toks = next(lines, (len(raw), None))
            if toks is None:
                raise ValueError(f"line {ln}: unexpected end of file in {what}")
            if len(toks) != cols:
                raise ValueError(
                    f"line {ln}: expected {cols} values in {what}, got {len(toks)}")
            out.append([_parse_value(t, ln, what) for t in toks])
        return np.array(out).reshape(sizes)

    for ln, toks in lines:
        kw = toks[0]
        if kw in _HEADERS:
            words = _HEADERS[kw]
            if len(toks) != 1 + len(words):
                raise ValueError(f"line {ln}: {kw} needs {' '.join(words)}")
            named = words[0] == "name"
            label = " ".join(toks[:1 + named])
            if label not in _BLOCKS:
                raise ValueError(f"line {ln}: unknown {kw} '{toks[1]}'")
            claim(label, ln)
            sizes = [_parse_size(t, ln, w)
                     for t, w in zip(toks[1 + named:], words[named:])]
            values[""][_BLOCKS[label]] = read_block(sizes, label)
        else:
            key, line = " ".join(toks[:-1]), " ".join(toks)
            if line in _SCALARS:
                raise ValueError(f"line {ln}: {line} needs one value")
            if key not in _SCALARS:
                raise ValueError(f"line {ln}: unknown key '{key or line}'")
            claim(key, ln)
            attr, cast = _SCALARS[key]
            values[key.rpartition(" ")[0]][attr] = _parse_value(
                toks[-1], ln, key, cast)

    for key, attr in _FIELDS.items():
        if attr in _REQUIRED and key not in seen:
            raise ValueError(f"missing {key}" + " block" * (key == "mask"))
    spec = values[""]
    try:
        spec["mask"] = SparsityMask(spec["mask"])
        return ScenarioSpec(
            exploration=ExplorationConfig(**values["exploration"]),
            solver=SolverConfig(**values["solver"]), **spec)
    except ValueError as exc:
        raise _keyed(str(exc), seen) from exc


def _keyed(message: str, seen: Dict[str, int]) -> ValueError:
    """A validation message starts with the field it rejects, by key or by
    field name; name it by its key and prefix the line the key is on."""
    for key, attr in _FIELDS.items():
        for name in (key, attr):
            if key in seen and message.startswith(name + " "):
                return ValueError(
                    f"line {seen[key]}: {key}{message[len(name):]}")
    return ValueError(message)


def load_scenario(source) -> ScenarioSpec:
    """Load a scenario from a builtin name or a file path."""
    if isinstance(source, str) and source in BUILTIN_SCENARIOS:
        return builtin_scenario(source)
    path = _as_path("source", source)
    if not path.exists():
        raise ValueError(
            f"'{source}' is neither a builtin scenario nor an existing file")
    if path.is_dir():
        raise ValueError(f"'{source}' is a directory, not a scenario file")
    try:
        text = path.read_text(encoding="utf-8-sig")  # drops a BOM
    except UnicodeDecodeError:
        raise ValueError(f"'{source}' is not a UTF-8 text file") from None
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# run reports and CSV emission


def _complex_list(values):
    return [[float(v.real), float(v.imag)] for v in np.sort_complex(values)]


def _report_text(obj) -> str:
    """The JSON of report.json and of every subcommand's stdout."""
    return json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)


def write_trajectory_csv(path, times, states, inputs):
    header = ",".join(["t", *(f"x{i+1}" for i in range(states.shape[1])),
                       *(f"u{j+1}" for j in range(inputs.shape[1]))])
    table = np.column_stack([times, states, inputs])
    _as_path("path", path).write_text(
        "\n".join([header, *_rows(table, ",")]) + "\n")


def write_convergence_csv(path, result: SynthesisResult):
    K_final = result.K
    rows = ["k,delta_P,gain_distance_to_final"]
    for k, rec in enumerate(result.history, start=1):
        dk = float(np.linalg.norm(rec.K - K_final, "fro"))
        dp = "" if not np.isfinite(rec.delta_P) else _fmt(rec.delta_P)
        rows.append(f"{k},{dp},{_fmt(dk)}")
    _as_path("path", path).write_text("\n".join(rows) + "\n")


def write_gains_csv(path, gains: Dict[str, np.ndarray]):
    rows = ["matrix,row,col,value"]
    for name in sorted(gains):
        # Python floats: repr of a numpy scalar is not its number alone
        for i, row in enumerate(np.asarray(gains[name], float).tolist(), 1):
            rows += (f"{name},{i},{j},{v!r}" for j, v in enumerate(row, 1))
    _as_path("path", path).write_text("\n".join(rows) + "\n")


def write_report_json(path, report: dict):
    _as_path("path", path).write_text(_report_text(report) + "\n")


# ---------------------------------------------------------------------------
# pipelines


def _report(spec: ScenarioSpec, sys: LtiSystem, weights: CostWeights,
            method: str, result: SynthesisResult,
            unstructured: SynthesisResult, **fields) -> dict:
    """The report.json dict (gain and value_matrix as arrays): costs,
    closed-loop spectrum, structure check, bound, then fields. A gain that
    does not stabilize the plant is named as such before any cost."""
    eigs = np.linalg.eigvals(sys.A - sys.B @ result.K)
    _check_hurwitz(eigs, "synthesized gain is not stabilizing")
    analytic = evaluate_cost_analytic(sys, weights, result.K, spec.x0)
    quad = evaluate_cost(sys, weights, result.K, spec.x0)
    unstr_cost = evaluate_cost_analytic(sys, weights, unstructured.K, spec.x0)
    bound = suboptimality_bound(sys, weights, spec.x0, analytic, unstr_cost,
                                deviation=result.L)
    return {
        "scenario": spec.name, "method": method,
        "converged": result.converged, "iterations": result.iterations,
        "gain": result.K, "value_matrix": result.P,
        "cost_quadrature": quad, "cost_analytic": analytic,
        "closed_loop_eigenvalues": _complex_list(eigs),
        "structure_violation_max": check_membership(result.K, spec.mask),
        "bound": bound.to_dict(),
        "comparison": {
            "cost_unstructured": unstr_cost,
            "gain_distance_to_unstructured":
                float(np.linalg.norm(result.K - unstructured.K, "fro")),
        },
        "rank": None, "exploration_peak_state": None,
        "exploration_windows": None,
        **fields,
    }


def _baselines(spec: ScenarioSpec, sys: LtiSystem, weights: CostWeights,
               K0):
    """Model-based solutions on the spec's mask and on an all-ones mask."""
    return tuple(kleinman_structured(sys, weights, mask, K0,
                                     tol=spec.solver.tol,
                                     max_iter=spec.solver.max_iter)
                 for mask in (spec.mask, SparsityMask.all_ones(sys.m, sys.n)))


def _trajectory(sys: LtiSystem, gain, x0, horizon: float) -> Trajectory:
    """A run's feedback-only (gain None: open-loop) trajectory on the 10 ms
    grid, in at least 10 RK4 substeps with h |lambda| <= _COST_H_LAMBDA
    over its matrix's spectrum (max|lambda| <= 13.0, so 10, on every shipped
    scenario). simulate's step cap rejects a 6 s loop faster than about
    3.3e4 per s, and an overflowed spectrum, with ValueError (exit 1)."""
    G = sys.A if gain is None else sys.A - sys.B @ gain
    need = np.max(np.abs(np.linalg.eigvals(G))) * 0.01 / _COST_H_LAMBDA
    substeps = max(10, int(np.ceil(np.fmin(need, _MAX_STEPS))))
    return simulate(sys, InputPolicy(gain=gain), x0, horizon, dt=0.01,
                    substeps=substeps)


def _check_out_dir(out_dir) -> None:
    """Before a run: an out_dir other than None is a path whose nearest
    existing ancestor, itself included, is a directory, so a bad one fails
    before the run, not at its end."""
    if out_dir is not None:
        out = _as_path("out_dir", out_dir)
        taken = next((p for p in (out, *out.parents) if p.exists()), None)
        if taken is not None and not taken.is_dir():
            under = "" if taken == out else f"'{out_dir}' under "
            raise ValueError(f"out_dir must be a directory, got {under}the "
                             f"existing file '{taken}'")


def _emit(out_dir, report: dict, *traj_parts) -> Path:
    """Write what every run writes to out_dir, made if missing:
    report.json, and trajectory.csv from the (times, states, inputs) parts
    end to end. Returns out_dir as a Path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv",
                         *map(np.concatenate, zip(*traj_parts)))
    write_report_json(out / "report.json", report)
    return out


def run_model_based(spec: ScenarioSpec, out_dir=None) -> dict:
    """Structured policy iteration on the scenario; returns the report
    dict that report.json holds, written with the CSVs to out_dir."""
    _check_instance("spec", spec, ScenarioSpec)
    _check_out_dir(out_dir)
    sys, weights = spec.system(), spec.weights()
    mb, unstr = _baselines(spec, sys, weights, spec.initial_gain)
    report = _report(spec, sys, weights, "model-based", mb, unstr)
    if out_dir is not None:
        traj = _trajectory(sys, mb.K, spec.x0, 6.0)
        out = _emit(out_dir, report, (traj.times, traj.states, traj.inputs))
        write_convergence_csv(out / "convergence.csv", mb)
        write_gains_csv(out / "gains.csv",
                        {"structured": mb.K, "unstructured": unstr.K})
    return report


def run_srl(spec: ScenarioSpec, out_dir=None) -> dict:
    """Exploration, data-driven synthesis, then closed-loop implementation,
    compared with the model-based and unstructured solutions, reported as
    by run_model_based. The probe comes from spec.exploration, seed included."""
    _check_instance("spec", spec, ScenarioSpec)
    _check_out_dir(out_dir)
    sys, ex = spec.system(), spec.exploration
    _rk4_substeps("exploration duration", ex.duration, spec.dt, ex.substeps,
                  sys.A - sys.B @ spec.initial_gain)  # before any record
    config = spec.srl_config()
    weights = config.weights
    # first, so a K0 that does not stabilize the loop is named as such
    # before the exploration run diverges or yields rank-deficient data
    mb, unstr = _baselines(spec, sys, weights, config.initial_gain)
    probe = spec.probe()
    plant = hide_state_matrix(sys)
    policy = InputPolicy(gain=config.initial_gain, probe=probe)
    traj, data = collect(plant, policy, spec.x0, config)
    rank_report = check_rank(data, spec.mask, rank_tol=config.rank_tol)
    learned = srl_synthesize(data, config)
    report = _report(spec, sys, weights, "compare", learned, unstr,
                     rank=rank_report.to_dict(),
                     exploration_peak_state=float(np.max(np.abs(traj.states))),
                     exploration_windows=data.num_windows)
    report["comparison"].update({
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
        impl = _trajectory(sys, learned.K, traj.states[-1], 6.0)
        out = _emit(
            out_dir, report,
            (traj.times[::stride], traj.states[::stride], traj.inputs[::stride]),
            (impl.times[1:] + traj.times[-1], impl.states[1:], impl.inputs[1:]))
        write_convergence_csv(out / "convergence.csv", learned)
        write_gains_csv(out / "gains.csv", {
            "learned": learned.K, "model_based": mb.K, "unstructured": unstr.K})
    return report


def run_simulate(spec: ScenarioSpec, horizon: float = 5.0,
                 out_dir=None) -> dict:
    """Zero-input simulation of the scenario system from its x0; returns
    the report dict that report.json holds (scenario, samples and
    final_state), written with trajectory.csv to out_dir."""
    _check_instance("spec", spec, ScenarioSpec)
    _check_out_dir(out_dir)
    traj = _trajectory(spec.system(), None, spec.x0, horizon)
    report = {"scenario": spec.name, "samples": len(traj.times),
              "final_state": traj.states[-1].tolist()}
    if out_dir is not None:
        _emit(out_dir, report, (traj.times, traj.states, traj.inputs))
    return report
