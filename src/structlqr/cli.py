"""Command-line entry points for scenario runs.

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

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RANK = 2
EXIT_DIVERGED = 3
EXIT_NO_CONVERGENCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="structlqr",
                     description="Structured LQR synthesis, model-based and "
                                 "trajectory-data-driven")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, solver=True):
        p = sub.add_parser(name, help=summary)
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

    command("compare", "data-driven run plus baselines").add_argument(
        "--seed", type=int, default=None, help="override the exploration seed")
    command("model-based", "structured policy iteration")
    sim = command("simulate", "zero-input simulation from x0", solver=False)
    sim.add_argument("--horizon", type=float, default=5.0)
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
        if args.command == "simulate":
            traj = run_simulate(spec, horizon=args.horizon, out_dir=args.out)
            out = {"scenario": spec.name, "samples": len(traj.times),
                   "final_state": traj.states[-1].tolist()}
        elif args.command == "model-based":
            out = run_model_based(spec, out_dir=args.out)
        else:  # compare
            out = run_srl(spec, out_dir=args.out)
        print(_report_text(out))
        return EXIT_OK

    except RankDeficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK
    except SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConvergenceError, UnstableClosedLoopError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
