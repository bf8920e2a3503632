"""One workload in its own process: set up, warm up, then timed ops.

    python bench/child.py WORKLOAD SEED SECONDS TRACE SPAWNED RESULT_JSON

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, input set-up
and one untimed warm-up op; it is stamped when the warm-up op returns,
before the benchmark computes its reference gains and checks that op.
With SECONDS = 0 the process stops after the warm-up and only reports
``setup_s``. Ops run one after another until SECONDS have passed; each is
checked after its timer stops. An op fails when it raises, when its check
raises, or when a check does not hold.

On a shared host the speed of this CPU drifts by up to 40% over minutes,
and by different amounts for interpreted Python and for memory-bound
numpy work. So after the warm-up and after every op the child also times
fixed calibration kernels of the kind a workload names in its
``calibration`` ({"op" or "setup": kernel}), and reports for each kernel
``speed`` = median kernel time / its reference time. A timing with a
kernel is divided by that speed (the ``*_ref_s`` fields): seconds at the
reference speed. The kernels are the benchmark's own code, so a change
to structlqr cannot move them.
"""

import functools
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def loop_seconds():
    """A fixed pure-Python loop: tracks interpreted code."""
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - start


@functools.cache
def _stream_block():
    return np.random.default_rng(0).standard_normal((1000, 20))


def stream_seconds():
    """Per-row outer products and their running sum, as in window
    assembly, on 40 blocks of 1000 rows: tracks memory-bound numpy code.

    Every block is written to one 3.2 MB array, larger than L2, and summed
    in place, so the kernel adds only about 3 MB to the resident set
    between ops, far below what an op of the program allocates: it does
    not set ``peak_rss_mb``.
    """
    x = _stream_block()
    y = np.empty((len(x), x.shape[1], x.shape[1]))
    start = time.perf_counter()
    for _ in range(40):
        np.multiply(x[:, :, None], x[:, None, :], out=y)
        np.cumsum(y, axis=0, out=y)
    return time.perf_counter() - start


# kernel -> (function, reference seconds, samples after the warm-up,
# samples after each op)
KERNELS = {"loop": (loop_seconds, 0.003, 10, 3),
           "stream": (stream_seconds, 0.08, 3, 1)}


def calibrate(samples, kernels, first):
    for name in kernels:
        fn, _, n_first, n_op = KERNELS[name]
        samples.setdefault(name, []).extend(
            fn() for _ in range(n_first if first else n_op))


def attempt(fn, *args):
    """``(fn(*args), None)``, or ``(None, traceback)`` if it raised."""
    try:
        return fn(*args), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def checked(wl, outcome, error):
    """Failed checks and gain error of one op; ``error`` is the op's
    traceback if it raised."""
    if error is None:
        result, error = attempt(wl.check, outcome)
        if error is None:
            return result
    return [error], None


def main(argv):
    workload, seed, seconds, trace, spawned, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    result_path = Path(result_path)
    workdir = result_path.with_suffix("")
    workdir.mkdir(parents=True, exist_ok=True)

    from workloads import WORKLOADS
    wl = WORKLOADS[workload](workdir, seed)
    warm = attempt(wl.op, 0)
    setup_s = time.monotonic() - float(spawned)
    wl.prepare_checks()
    warm_failures, _ = checked(wl, *warm)
    failures = [f"warm-up: {f}" for f in warm_failures]
    failed, gain_errs = int(bool(warm_failures)), {}
    kernels = set(wl.calibration.values())
    samples = {}
    calibrate(samples, kernels, first=True)

    # With TRACE = 1, odd ops run traced and even ops untraced, so the two
    # halves see the same machine state and their difference is the
    # tracing overhead.
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    op_s, traced, k = [], [], 1
    min_ops = 2 if trace else 1
    start = time.perf_counter()
    while seconds > 0 and (k <= min_ops or time.perf_counter() - start < seconds):
        traced.append(bool(tracer) and k % 2 == 1)
        if traced[-1]:
            tracer.install()
            tracer.op = k
            span = tracer.begin("op")
        t0 = time.perf_counter()
        outcome = attempt(wl.op, k)
        op_s.append(time.perf_counter() - t0)
        if traced[-1]:
            tracer.end(span)
            tracer.op = None
            tracer.uninstall()
        errs, gain_err = checked(wl, *outcome)
        if gain_err is not None:
            gain_errs[k] = gain_err
        failures += [f"op {k}: {e}" for e in errs]
        failed += int(bool(errs))
        calibrate(samples, kernels, first=False)
        k += 1

    speed = {name: statistics.median(v) / KERNELS[name][1]
             for name, v in samples.items()}
    op_speed = speed.get(wl.calibration.get("op"), 1.0)
    setup_speed = speed.get(wl.calibration.get("setup"), 1.0)
    result = {
        "workload": workload, "seed": seed, "inputs": wl.inputs,
        "setup_s": setup_s, "op_s": op_s, "speed": speed, "kernel_s": samples,
        "setup_ref_s": setup_s / setup_speed,
        "op_ref_s": [t / op_speed for t in op_s], "traced": traced,
        "attempted": 1 + len(op_s), "failed": failed, "failures": failures,
        "gain_err": list(gain_errs.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        from tracer import per_layer_metrics
        tracer.write(workdir.with_name(workdir.name + "-spans.json"))
        result["per_layer"] = per_layer_metrics(
            tracer.spans, tracer.counters,
            {k: {"learning.gain_err": e} for k, e in gain_errs.items()})
    result_path.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
