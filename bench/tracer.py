"""Spans around calls into structlqr, installed from outside the package.

``Tracer.install`` replaces each public function of the package at every
name a caller looks it up by: the module attribute, the re-exports in
``structlqr/__init__`` and the ``from .x import f`` copies in sibling
modules. Each call then records a span (name, op id, parent span, start,
end) in memory; ``write`` dumps them when the run ends.

Per-sample calls of the exploration probe are too frequent for spans, so
they feed an aggregated counter instead and their time is charged to the
enclosing span as hidden child time. A span's self time is its duration
minus its child spans and that hidden time.
"""

import functools
import inspect
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("system", "learning", "model_based", "structure", "experiments",
          "cli")

# Byte and step counts marked "computed" come from argument and array
# shapes, not from a measurement.
PER_LAYER_UNITS = {
    "system.simulate.self_s": "s",
    "system.simulate.calls": "count",
    "system.simulate.rk4_steps": "steps_computed",
    "system.evaluate_cost.s": "s",
    "system.evaluate_cost_analytic.s": "s",
    "system.self_s": "s",
    "learning.probe.s": "s",
    "learning.probe.calls": "count",
    "learning.probe.samples": "count",
    "learning.collect.s": "s",
    "learning.assemble_data.s": "s",
    "learning.assemble_data.samples": "count",
    "learning.assemble_data.windows": "count",
    "learning.assemble_data.bytes": "B_computed",
    "learning.check_rank.s": "s",
    "learning.check_rank.calls": "count",
    "learning.rank_margin": "count",
    "learning.solve_iteration.s": "s",
    "learning.solve_iteration.calls": "count",
    "learning.solve_iteration.rows": "count",
    "learning.solve_iteration.unknowns": "count",
    "learning.srl_synthesize.self_s": "s",
    "learning.gain_err": "fro",
    "learning.self_s": "s",
    "model_based.solve_lyapunov.s": "s",
    "model_based.solve_lyapunov.calls": "count",
    "model_based.solve_lyapunov.op_bytes": "B_computed",
    "model_based.suboptimality_bound.s": "s",
    "model_based.kleinman_structured.s": "s",
    "model_based.kleinman_structured.iterations": "count",
    "model_based.self_s": "s",
    "structure.s": "s",
    "experiments.parse_scenario.s": "s",
    "experiments.write.s": "s",
    "experiments.output_bytes": "B",
    "experiments.run.self_s": "s",
    "experiments.self_s": "s",
    "cli.main.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}

_WRITERS = ("write_trajectory_csv", "write_convergence_csv",
            "write_gains_csv", "write_report_json")


def _simulate_attrs(args, result):
    steps = math.floor(args["horizon"] / args["dt"] + 1e-9)
    return {"rk4_steps": steps * args["substeps"]}


def _assemble_attrs(args, result):
    traj = args["traj"]
    samples, n = traj.states.shape
    m = traj.inputs.shape[1]
    # per-sample kron(x,x) and kron(x,u) rows plus their running integrals
    return {"samples": samples, "windows": result.num_windows,
            "bytes": 2 * 8 * samples * (n * n + n * m)}


def _solve_iteration_attrs(args, result):
    data = args["data"]
    n, m = data.n, data.m
    return {"rows": data.num_windows, "unknowns": n * (n + 1) // 2 + n * m}


def _lyapunov_attrs(args, result):
    n = len(args["M"])
    return {"op_bytes": 8 * n ** 4}


def _writer_attrs(args, result):
    return {"output_bytes": os.path.getsize(args["path"])}


# Attributes recorded on a span, computed from the call's bound arguments
# and its result after the call returns.
_ATTRS = {
    "system.simulate": _simulate_attrs,
    "learning.assemble_data": _assemble_attrs,
    "learning.check_rank": lambda a, r: {"rank_margin": r.margin},
    "learning.solve_iteration": _solve_iteration_attrs,
    "model_based.solve_lyapunov": _lyapunov_attrs,
    "model_based.kleinman_structured": lambda a, r: {"iterations": r.iterations},
    **{f"experiments.{w}": _writer_attrs for w in _WRITERS},
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}  # op id -> [probe calls, probe seconds, samples]
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        span = {"id": len(self.spans), "op": self.op,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": self.clock(), "end": None,
                "hidden_s": 0.0, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = self.clock()
        self._stack.pop()

    def probe(self, seconds, samples):
        """Aggregate one probe call, too small for a span; its time is
        hidden child time of the enclosing span."""
        c = self.counters.get(self.op)
        if c is None:
            c = self.counters[self.op] = [0, 0.0, 0]
        c[0] += 1
        c[1] += seconds
        c[2] += samples
        if self._stack:
            self._stack[-1]["hidden_s"] += seconds

    # -- installation ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        attrs = _ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = attrs(bound.arguments, result)
            return result
        return wrapper

    def _probe_wrapper(self, fn, vectorised):
        clock, record = self.clock, self.probe

        @functools.wraps(fn)
        def wrapper(probe, t):
            start = clock()
            result = fn(probe, t)
            record(clock() - start, len(t) if vectorised else 1)
            return result
        return wrapper

    def install(self):
        """Wrap every public function of the structlqr modules in place."""
        import structlqr.cli  # noqa: F401  (load every module first)
        from structlqr.learning import ExplorationSignal

        modules = [m for k, m in sys.modules.items()
                   if k == "structlqr" or k.startswith("structlqr.")]
        replace = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[fn] = self._span_wrapper(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replace[value])
        for attr, vectorised in (("__call__", False), ("sample", True)):
            fn = getattr(ExplorationSignal, attr)
            self._undo.append((ExplorationSignal, attr, fn))
            setattr(ExplorationSignal, attr, self._probe_wrapper(fn, vectorised))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counters": {str(k): v for k, v in self.counters.items()}},
                      fh)


def self_times(spans):
    """Span id -> duration minus direct child spans and hidden time."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] - s["hidden_s"]
            for s in spans}


def op_metrics(spans, counters):
    """Per-layer metrics of one op from its spans and counters."""
    selfs = self_times(spans)
    out = defaultdict(float)
    (out["learning.probe.calls"], out["learning.probe.s"],
     out["learning.probe.samples"]) = counters or (0, 0.0, 0)
    for s in spans:
        name, dur, own = s["name"], s["end"] - s["start"], selfs[s["id"]]
        layer, _, func = name.partition(".")
        if name == "op":
            out["trace.op_s"] += dur
            continue
        out[f"{layer}.self_s"] += own
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
        if func in _WRITERS:
            out["experiments.write.s"] += dur
        if func.startswith("run_"):
            out["experiments.run.self_s"] += own
        for key, value in s["attrs"].items():
            if key in ("rows", "unknowns", "op_bytes", "windows", "samples",
                       "bytes"):
                out[f"{name}.{key}"] = max(out[f"{name}.{key}"], value)
            elif key == "rank_margin":
                out["learning.rank_margin"] = value
            elif key == "output_bytes":
                out["experiments.output_bytes"] += value
            else:
                out[f"{name}.{key}"] += value
    out["learning.self_s"] += out["learning.probe.s"]
    out["structure.s"] = out["structure.self_s"]
    return out


def per_layer_metrics(spans, counters, extra_by_op=None):
    """Median over ops of every per-layer metric in PER_LAYER_UNITS.

    ``extra_by_op`` maps op id to metrics measured outside the spans (for
    example the gain error); trace.overhead_s is filled in by the caller.
    """
    by_op = defaultdict(list)
    for s in spans:
        if s["op"] is not None:
            by_op[s["op"]].append(s)
    per_op = []
    for op, op_spans in sorted(by_op.items()):
        values = op_metrics(op_spans, counters.get(op))
        values.update((extra_by_op or {}).get(op, {}))
        per_op.append(values)
    return {name: statistics.median(v.get(name, 0.0) for v in per_op)
            for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
