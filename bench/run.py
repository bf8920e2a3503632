#!/usr/bin/env python3
"""structlqr benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload srl-consensus --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Run from the repository root; structlqr is imported from ./src. Each
workload runs in its own child process (bench/child.py), one at a time.

--trace 0 runs the workload untraced for SECONDS and two more
set-up-only children, and reports the end-to-end metrics: the median op
time, the median of the three set-up times, and the peak RSS of the
measuring child. --trace 1 runs one child whose ops alternate traced and
untraced, and reports the per-layer metrics of the traced ops and the
tracing overhead.

Human-readable lines and an environment record go first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Per-run files go to .bench_runs/ in the root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

WORKLOADS = ("srl-consensus", "model-based-n40", "learn-recorded-n20")
END_TO_END_UNITS = {"wall_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (missing sources, child crash)."""


def _nproc():
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Threads given to BLAS in the children: OPENBLAS_NUM_THREADS if set,
    capped at the CPUs this process may use, else 1.

    One thread by default because OpenBLAS threads spin while waiting: on
    2 CPUs, one competing process slowed a 2-thread model-based-n40 op
    from 2.7 s to 5.2 s and its set-up from 3.7 s to 18.6 s.
    """
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    return max(1, min(_nproc(), int(asked))) if asked.isdigit() else 1


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit():
    """Commit from .git without running git, which would search parent
    directories when the checkout is not a repository."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "structlqr").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed):
    import numpy
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "cpu": cpu or platform.processor() or None, "nproc": _nproc(),
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": blas_threads(), "seed": seed,
        "git_commit": _git_commit(), "source_digest": _source_digest(),
    }


def run_child(workload, seed, seconds, trace, label):
    """Start one child, wait for it, and return its result record."""
    result_path = RUNS / f"{workload}-seed{seed}-{label}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
            str(seconds), str(trace), repr(time.monotonic()), str(result_path)]
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"{workload} child ({label}) exited with "
                             f"code {proc.returncode}")
    shutil.rmtree(result_path.with_suffix(""), ignore_errors=True)
    return json.loads(result_path.read_text())


def measure(workload, seed, seconds, trace):
    """Run a workload; return (attempted, failed, metrics, children)."""
    if trace:
        children = [run_child(workload, seed, seconds, 1, "traced")]
        main = children[0]
        metrics = dict(main["per_layer"])
        by_mode = {mode: [t for t, on in zip(main["op_ref_s"], main["traced"])
                          if on == mode] for mode in (True, False)}
        metrics["trace.overhead_s"] = (statistics.median(by_mode[True])
                                       - statistics.median(by_mode[False]))
        units = PER_LAYER_UNITS
    else:
        children = [run_child(workload, seed, seconds, 0, "run")]
        children += [run_child(workload, seed, 0, 0, f"setup{i}")
                     for i in range(1, SETUP_SAMPLES)]
        main = children[0]
        metrics = {
            "wall_s.p50": statistics.median(main["op_ref_s"]),
            "setup_s": statistics.median(c["setup_ref_s"] for c in children),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return attempted, failed, {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}, children


def report(workload, seed, trace, attempted, failed, metrics, children):
    main = children[0]
    print(f"# {workload} seed={seed} trace={trace}: {len(main['op_s'])} "
          f"timed ops, inputs {main['inputs']}")
    print(f"# fail_ratio {failed}/{attempted} = {failed / attempted:.3g}")
    for failure in (f for c in children for f in c["failures"]):
        print(f"#   FAILED {failure}")
    print(f"# unscaled: op median {statistics.median(main['op_s']):.4g} s, "
          f"set-up {[round(c['setup_s'], 3) for c in children]} s, "
          f"kernel speeds {[c['speed'] for c in children]}")
    if main["gain_err"]:
        print(f"# gain_err median {statistics.median(main['gain_err']):.3e} fro")
    for name, m in metrics.items():
        print(f"{workload:20s} {name:45s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "structlqr" / "__init__.py").is_file():
        print(f"error: no structlqr sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    env = environment(args.seed)
    print(json.dumps({"environment": env}))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    all_metrics = {}
    try:
        for name in names:
            attempted, failed, metrics, children = measure(
                name, args.seed, args.seconds, args.trace)
            report(name, args.seed, args.trace, attempted, failed, metrics,
                   children)
            record = RUNS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(
                {"environment": env, "metrics": metrics, "children": children},
                indent=1))
            total_attempted += attempted
            total_failed += failed
            prefix = "" if len(names) == 1 else f"{name}/"
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": total_failed == 0,
                      "attempted": total_attempted, "failed": total_failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
