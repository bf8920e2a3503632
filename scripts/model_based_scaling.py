#!/usr/bin/env python3
"""Wall time and peak memory of the model-based pipeline as the network grows.

For each size n this builds ``ring_scenario(n)``, a consensus ring of
n agents, and runs ``run_model_based`` on it: the structured and
unstructured policy iterations, the closed-loop costs and the
suboptimality bound. The wall time is that of one untraced run; the
peak is the ``tracemalloc`` peak of a second run. For scale, the last
column is the size of one dense n^2 x n^2 Lyapunov operator, which the
solver never forms.

Usage: python scripts/model_based_scaling.py [--sizes 40 100 200]
"""

import argparse
import time
import tracemalloc

from structlqr.experiments import ring_scenario, run_model_based


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[40, 100, 200],
                        help="ring sizes n to run")
    args = parser.parse_args()

    print(f"{'n':>5} {'iterations':>10} {'wall_s':>8} {'peak_mb':>8} "
          f"{'l':>10} {'dense_op_mb':>12}")
    for n in args.sizes:
        spec = ring_scenario(n)
        start = time.perf_counter()
        report = run_model_based(spec)
        wall = time.perf_counter() - start
        tracemalloc.start()
        try:
            run_model_based(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"{n:>5} {report['iterations']:>10} {wall:>8.3f} "
              f"{peak / 1e6:>8.2f} {report['bound']['l']:>10.6g} "
              f"{8 * n ** 4 / 1e6:>12.1f}")


if __name__ == "__main__":
    main()
