import ast
import contextlib
import inspect
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import structlqr
from structlqr import cli
from structlqr.experiments import (builtin_scenario, load_scenario,
                                   make_consensus_network, parse_scenario,
                                   run_model_based, run_simulate, run_srl,
                                   save_scenario, write_convergence_csv,
                                   write_gains_csv, write_report_json,
                                   write_trajectory_csv)


def test_all_lists_each_imported_public_name_once():
    tree = ast.parse(Path(structlqr.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(structlqr.__all__)) == len(structlqr.__all__)
    assert all(hasattr(structlqr, name) for name in structlqr.__all__)
    assert set(structlqr.__all__) == {name for name in imported
                                      if not name.startswith("_")}


def test_every_private_module_name_is_read():
    # a private name defined at module level is read by its module or
    # imported by another; a private name imported is read where imported
    modules = {path.stem: ast.parse(path.read_text())
               for path in Path(structlqr.__file__).parent.glob("*.py")
               if path.name != "__init__.py"}
    imported = {(node.module, alias.name) for tree in modules.values()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    unread = []
    for module, tree in sorted(modules.items()):
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        exported = {name for mod, name in imported if mod == module}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                names = {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name} - exported
            elif isinstance(node, ast.Assign):
                names = {sub.id for target in node.targets
                         for sub in ast.walk(target)
                         if isinstance(sub, ast.Name)} - exported
            else:
                continue
            unread += [f"{module}.{name}" for name in sorted(names)
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


def test_every_imported_name_is_read():
    # an import, plain or from, binds a name that its module reads
    unread = []
    for path in sorted(Path(structlqr.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names}
        unread += [f"{path.stem}.{name}" for name in sorted(bound - read)]
    assert unread == []


def test_unstable_loop_is_raised_by_the_stability_gate_alone():
    # _check_hurwitz is the one stability check; a copy of it, or any
    # other raiser, would show up here.
    def raisers(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from raisers(child, child.name)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                if getattr(target, "id", None) == "UnstableClosedLoopError":
                    yield owner
            else:
                yield from raisers(child, owner)

    sites = [f"{path.stem}.{owner}"
             for path in sorted(Path(structlqr.__file__).parent.glob("*.py"))
             for owner in raisers(ast.parse(path.read_text()), None)]
    assert sites == ["system._check_hurwitz"]


def test_readme_quickstart_prints_the_value_its_comment_states():
    # the quickstart's closing comment states the printed number to the
    # digits shown; a change that moves the number updates the README
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    stated = re.search(r"^print\(.*\)\s+# (\S+)$", code, re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    digits = len(stated.lower().split("e")[0].replace(".", "").lstrip("0"))
    assert float(f"{float(out.getvalue()):.{digits - 1}e}") == float(stated)


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    # the CLI section's commands, run where its example scenario file is
    # saved as the my_scenario.scn that they name
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()

    def block(section):
        return text.split(f"## {section}\n", 1)[1].split("```\n", 2)[1]

    (tmp_path / "my_scenario.scn").write_text(block("Scenario files"))
    monkeypatch.chdir(tmp_path)
    failed = [line for line in block("CLI").splitlines()
              if cli.main(shlex.split(line)[1:]) != 0]
    assert failed == [], capsys.readouterr().err


# The public names that are results or exceptions, built by the library
# rather than called with a user's arguments.
_RESULT_TYPES = {"BoundReport", "ConvergenceError", "IterationRecord",
                 "RankDeficientError", "RankReport", "SimulationDiverged",
                 "SynthesisResult", "UnstableClosedLoopError"}
_CALLABLES = sorted(set(structlqr.__all__) - _RESULT_TYPES)

# Wrongly typed values, each swapped in for one valid argument at a time.
_WRONG_TYPES = {"str": "x", "None": None, "nan": float("nan"), "True": True,
                "empty": np.zeros(0), "3-D": np.ones((2, 2, 2)),
                "strings": [["a"]], "ragged": [[1.0, 2.0], [3.0]]}
_NONE_ALLOWED = {("InputPolicy", "gain"), ("InputPolicy", "probe"),
                 ("suboptimality_bound", "deviation")}
# the names a message may give an argument by, besides its own
_ALIASES = {("SparsityMask", "indicator"): "mask",
            **{("DataMatrices", block): "data blocks"
               for block in ("delta_xx", "int_xx", "int_xu")}}


@pytest.fixture(scope="module")
def valid_arguments():
    """Every argument of every public callable, valid on consensus-a."""
    spec = builtin_scenario("consensus-a")
    sys, weights, mask = spec.system(), spec.weights(), spec.mask
    K0, x0, config, probe = (spec.initial_gain, spec.x0, spec.srl_config(),
                             spec.probe())
    policy = structlqr.InputPolicy(gain=K0, probe=probe)
    plant = structlqr.hide_state_matrix(sys)
    traj, data = structlqr.collect(plant, policy, x0, config)
    M = sys.A - sys.B @ K0
    P = structlqr.solve_lyapunov(M, weights.Q + K0.T @ weights.R @ K0)
    model = dict(sys=sys, weights=weights)
    return {
        "CostWeights": dict(Q=weights.Q, R=weights.R),
        "DataMatrices": dict(delta_xx=data.delta_xx, int_xx=data.int_xx,
                             int_xu=data.int_xu),
        "ExplorationSignal": dict(frequencies=probe.frequencies,
                                  amplitudes=probe.amplitudes,
                                  phases=probe.phases),
        "InputPolicy": dict(gain=K0, probe=probe),
        "LtiSystem": dict(A=sys.A, B=sys.B),
        "PlantHandle": dict(simulate=plant.simulate),
        "SparsityMask": dict(indicator=mask.indicator),
        "SrlConfig": dict(mask=mask, weights=weights, B=sys.B,
                          initial_gain=K0, window=config.window,
                          num_windows=config.num_windows, dt=config.dt,
                          substeps=config.substeps, tol=config.tol,
                          max_iter=config.max_iter, rank_tol=config.rank_tol),
        "Trajectory": dict(times=traj.times, states=traj.states,
                           inputs=traj.inputs),
        "check_membership": dict(gain=K0, mask=mask),
        "check_rank": dict(data=data, mask=mask, rank_tol=config.rank_tol),
        "collect": dict(plant=plant, policy=policy, x0=x0, config=config),
        "evaluate_cost": dict(model, gain=K0, x0=x0),
        "evaluate_cost_analytic": dict(model, gain=K0, x0=x0),
        "hide_state_matrix": dict(sys=sys),
        "kleinman_structured": dict(model, mask=mask, initial_gain=K0,
                                    tol=config.tol, max_iter=config.max_iter),
        "make_exploration": dict(seed=7, num_inputs=6, num_sinusoids=100,
                                 freq_range=(0.5, 50.0), amplitude=100.0),
        "modified_are_residual": dict(model, P=P, L=np.zeros((6, 6))),
        "off_pattern": dict(gain=K0, mask=mask),
        "on_pattern": dict(gain=K0, mask=mask),
        "required_samples": dict(n=6, mask=mask),
        "simulate": dict(sys=sys, policy=policy, x0=x0, horizon=0.1,
                         dt=0.01, substeps=10),
        "solve_iteration": dict(data=data, gain=K0, config=config),
        "solve_lyapunov": dict(M=M, S=weights.Q),
        "srl_synthesize": dict(data=data, config=config),
        "suboptimality_bound": dict(model, x0=x0, cost_structured=2.0,
                                    cost_unstructured=1.0,
                                    deviation=np.zeros((6, 6))),
    }


@pytest.mark.parametrize("name", _CALLABLES)
def test_wrongly_typed_argument_is_named(name, valid_arguments):
    # each argument in turn gets each wrong type, the others valid; the
    # call raises ValueError naming that argument, never a numpy error,
    # an AttributeError or a TypeError, and never takes the value
    assert name in valid_arguments, f"{name} has no valid arguments here"
    fn, kwargs = getattr(structlqr, name), valid_arguments[name]
    assert set(kwargs) == set(inspect.signature(fn).parameters)
    fn(**kwargs)
    unnamed = []
    for arg in kwargs:
        names = {arg, _ALIASES.get((name, arg), arg)}
        for label, value in _WRONG_TYPES.items():
            if value is None and (name, arg) in _NONE_ALLOWED:
                continue
            try:
                fn(**{**kwargs, arg: value})
            except ValueError as exc:
                if any(_names(n, exc) for n in names):
                    continue
                unnamed.append(f"{arg}={label}: {exc}")
            else:
                unnamed.append(f"{arg}={label}: accepted")
    assert unnamed == []


def _names(arg, exc) -> bool:
    """Whether the exception's message names arg as a whole word."""
    return re.search(rf"(?<!\w){re.escape(arg)}(?!\w)", str(exc)) is not None


# Calls to the scenario entry points with one wrongly typed argument, and
# that argument. A path is a non-empty str or an os.PathLike (None where
# optional), and an output directory is not an existing file such as this
# one.
_SCENARIO_CALLS = {
    "parse_scenario None": (lambda: parse_scenario(None), "text"),
    "parse_scenario int": (lambda: parse_scenario(5), "text"),
    "save_scenario str": (lambda: save_scenario("x"), "spec"),
    "load_scenario None": (lambda: load_scenario(None), "source"),
    "builtin_scenario list": (lambda: builtin_scenario(["a"]), "name"),
    "make_consensus_network None": (
        lambda: make_consensus_network(3, None), "couplings"),
    "make_consensus_network list": (
        lambda: make_consensus_network(3, [(0, 1)]), "couplings"),
    "run_model_based str": (lambda: run_model_based("x"), "spec"),
    "run_srl None": (lambda: run_srl(None), "spec"),
    "run_simulate str": (lambda: run_simulate("x"), "spec"),
    "run_model_based int out_dir": (
        lambda: run_model_based(builtin_scenario("consensus-a"), out_dir=5),
        "out_dir"),
    "run_srl file out_dir": (
        lambda: run_srl(builtin_scenario("consensus-a"), out_dir=__file__),
        "out_dir"),
    "run_simulate bytes out_dir": (
        lambda: run_simulate(builtin_scenario("consensus-a"), out_dir=b"x"),
        "out_dir"),
    "save_scenario int path": (
        lambda: save_scenario(builtin_scenario("consensus-a"), 5), "path"),
    "save_scenario empty path": (
        lambda: save_scenario(builtin_scenario("consensus-a"), ""), "path"),
    "load_scenario empty": (lambda: load_scenario(""), "source"),
    "run_model_based empty out_dir": (
        lambda: run_model_based(builtin_scenario("consensus-a"), out_dir=""),
        "out_dir"),
    "run_srl empty out_dir": (
        lambda: run_srl(builtin_scenario("consensus-a"), out_dir=""),
        "out_dir"),
    "run_simulate empty out_dir": (
        lambda: run_simulate(builtin_scenario("consensus-a"), out_dir=""),
        "out_dir"),
    "write_trajectory_csv empty": (
        lambda: write_trajectory_csv("", np.zeros(1), np.zeros((1, 1)),
                                     np.zeros((1, 1))), "path"),
    "write_report_json empty": (lambda: write_report_json("", {}), "path"),
    "write_trajectory_csv None": (
        lambda: write_trajectory_csv(None, np.zeros(1), np.zeros((1, 1)),
                                     np.zeros((1, 1))), "path"),
    "write_convergence_csv int": (
        lambda: write_convergence_csv(5, structlqr.SynthesisResult(
            P=np.eye(1), K=np.eye(1), L=np.zeros((1, 1)), iterations=0,
            history=[], converged=True)), "path"),
    "write_gains_csv list": (lambda: write_gains_csv(["x"], {}), "path"),
    "write_report_json None": (lambda: write_report_json(None, {}), "path"),
    "SparsityMask.from_zero_positions int": (
        lambda: structlqr.SparsityMask.from_zero_positions(2, 2, 5), "zeros"),
    "ExplorationSignal.sample 2-D": (
        lambda: structlqr.make_exploration(0, 1).sample(np.zeros((2, 2))),
        "times"),
}


@pytest.mark.parametrize("case", _SCENARIO_CALLS)
def test_wrongly_typed_scenario_argument_is_named(case, tmp_path,
                                                  monkeypatch):
    # in an empty working directory, where an empty path would write
    monkeypatch.chdir(tmp_path)
    call, arg = _SCENARIO_CALLS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert _names(arg, info.value), str(info.value)
    assert list(tmp_path.iterdir()) == []
