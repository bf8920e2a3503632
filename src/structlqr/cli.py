"""Command-line entry points for scenario runs: each subcommand loads its
scenario, folds in the overrides it takes, runs its pipeline and prints the
report that the run's report.json holds.

Exit codes: 0 success, 1 usage or scenario errors, 2 data rank failure,
3 trajectory divergence, 4 non-convergence or a closed loop that must be
Hurwitz and is not (a non-stabilizing initial gain included).
"""

import argparse
import dataclasses
import sys

from .experiments import (BUILTIN_SCENARIOS, _report_text, load_scenario,
                          run_model_based, run_simulate, run_srl)
from .learning import RankDeficientError
from .model_based import ConvergenceError
from .system import SimulationDiverged, UnstableClosedLoopError

# Each exception type's exit code, the first match winning:
# UnstableClosedLoopError is a ValueError, so it comes before ValueError.
_EXIT_CODES = {RankDeficientError: 2, SimulationDiverged: 3,
               ConvergenceError: 4, UnstableClosedLoopError: 4,
               ValueError: 1, OSError: 1}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad argument exits as a bad scenario does
        self.print_usage(sys.stderr)
        self.exit(_EXIT_CODES[ValueError], f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="structlqr",
                     description="Structured LQR synthesis, model-based and "
                                 "trajectory-data-driven")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, run, solver=True):
        """A subcommand whose run(spec, args) returns its report."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--scenario", required=True,
                       help=f"builtin name ({', '.join(BUILTIN_SCENARIOS)}) "
                            "or scenario file path")
        p.add_argument("--out", default=None,
                       help="directory for CSV/JSON output")
        if solver:
            p.add_argument("--tol", type=float, default=None,
                           help="override the solver stopping tolerance")
            p.add_argument("--max-iter", type=int, default=None,
                           help="override the solver iteration budget")
        return p

    command("compare", "data-driven run plus baselines",
            lambda spec, args: run_srl(spec, args.out)).add_argument(
        "--seed", type=int, default=None, help="override the exploration seed")
    command("model-based", "structured policy iteration",
            lambda spec, args: run_model_based(spec, args.out))
    command("simulate", "zero-input simulation from x0",
            lambda spec, args: run_simulate(spec, args.horizon, args.out),
            solver=False).add_argument("--horizon", type=float, default=5.0)
    return parser


def _apply_overrides(spec, args):
    """Fold the --seed, --tol and --max-iter a subcommand takes into the
    scenario; each is checked as the scenario field it sets."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    exploration = {k: given[k] for k in ("seed",) if k in given}
    solver = {k: given[k] for k in ("tol", "max_iter") if k in given}
    return dataclasses.replace(
        spec, exploration=dataclasses.replace(spec.exploration, **exploration),
        solver=dataclasses.replace(spec.solver, **solver))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _apply_overrides(load_scenario(args.scenario), args)
        print(_report_text(args.run(spec, args)))
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items()
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
