#!/usr/bin/env python3
"""Reproduce the 6-agent network benchmark end to end.

For each built-in scenario this runs the data-driven synthesis, the
model-based structured synthesis and the unstructured baseline, then
prints the learned gains, objective values, closed-loop spectra and the
suboptimality-bound check side by side.

Usage: python scripts/reproduce_network_results.py [--out DIR] [--seed N]
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from structlqr.experiments import builtin_scenario, run_srl


def print_matrix(name, M):
    print(f"{name} =")
    for row in M:
        print("   " + "  ".join(f"{v: 8.4f}" for v in row))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="write CSV/JSON artifacts under DIR/<scenario>")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the exploration seed")
    args = parser.parse_args()

    for name in ("consensus-a", "consensus-b"):
        spec = builtin_scenario(name)
        if args.seed is not None:
            spec = replace(spec, exploration=replace(spec.exploration,
                                                     seed=args.seed))
        out_dir = Path(args.out) / name if args.out else None
        report = run_srl(spec, out_dir=out_dir, method="compare")

        print("=" * 72)
        comparison = report["comparison"]
        print(f"scenario {name}: converged={report['converged']} "
              f"iterations={report['iterations']}")
        print_matrix("learned structured gain", report["gain"])
        print(f"objective (learned structured):   "
              f"{report['cost_analytic']:.4f}")
        print(f"objective (unstructured optimum): "
              f"{comparison['cost_unstructured']:.4f}")
        print(f"gain distance to model-based:     "
              f"{comparison['gain_distance_to_model_based']:.2e}")
        eigs = [e[0] for e in report["closed_loop_eigenvalues"]]
        print("closed-loop eigenvalues: "
              + ", ".join(f"{e:.2f}" for e in sorted(eigs)))
        b = report["bound"]
        print(f"suboptimality bound: gap {b['gap']:.4f} <= bound "
              f"{b['bound']:.4f} (ratio {b['gap_over_bound']:.3f})")
        print(f"exploration peak |x|: {report['exploration_peak_state']:.3f}")
        if out_dir:
            print(f"artifacts written to {out_dir}")


if __name__ == "__main__":
    main()
