"""Tests of the benchmark itself: tracer arithmetic, input determinism and
the metric names against BENCHMARK.json.

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import structlqr
import structlqr.cli
import structlqr.experiments
import structlqr.system
from structlqr.experiments import parse_scenario, save_scenario
from family import digest, ring_network_scenario
from run import END_TO_END_UNITS, WORKLOADS
from tracer import (PER_LAYER_UNITS, Tracer, op_metrics, per_layer_metrics,
                    self_times)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_and_hidden_probe_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.op = 1
    op = tr.begin("op")                                  # 0 .. 10
    clock.now = 1.0
    run = tr.begin("experiments.run_srl")                # 1 .. 9
    clock.now = 2.0
    sim = tr.begin("system.simulate")                    # 2 .. 6
    tr.probe(1.5, 1)                                     # hidden in simulate
    clock.now = 6.0
    tr.end(sim)
    lyap = tr.begin("model_based.solve_lyapunov")        # 6 .. 7
    clock.now = 7.0
    tr.end(lyap)
    clock.now = 9.0
    tr.end(run)
    clock.now = 10.0
    tr.end(op)

    selfs = self_times(tr.spans)
    assert selfs[sim["id"]] == pytest.approx(4.0 - 1.5)
    assert selfs[lyap["id"]] == pytest.approx(1.0)
    assert selfs[run["id"]] == pytest.approx(8.0 - 4.0 - 1.0)
    assert selfs[op["id"]] == pytest.approx(10.0 - 8.0)

    m = per_layer_metrics(tr.spans, tr.counters)
    assert m["system.simulate.self_s"] == pytest.approx(2.5)
    assert m["learning.probe.s"] == pytest.approx(1.5)
    assert m["learning.probe.calls"] == 1
    assert m["experiments.run.self_s"] == pytest.approx(3.0)
    assert m["model_based.self_s"] == pytest.approx(1.0)
    assert m["trace.op_s"] == pytest.approx(10.0)
    # self times of all layers plus the op's own remainder cover the op
    layers = sum(m[f"{layer}.self_s"] for layer in
                 ("system", "learning", "model_based", "experiments"))
    assert layers + selfs[op["id"]] == pytest.approx(m["trace.op_s"])


def test_generator_is_deterministic_per_seed():
    texts = [save_scenario(ring_network_scenario(
                 "ring12", 12, 0, seed, chords=6, half_bandwidth=2))
             for seed in (5, 5, 6)]
    assert texts[0] == texts[1]
    assert digest(texts[0]) == digest(texts[1])
    assert digest(texts[0]) != digest(texts[2])


def test_generated_scenario_round_trips_through_the_cli_parser():
    spec = ring_network_scenario("ring8", 8, 3, 4, chords=2, half_bandwidth=1)
    back = parse_scenario(save_scenario(spec))
    assert save_scenario(back) == save_scenario(spec)
    assert (back.mask.indicator == spec.mask.indicator).all()


def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS


def traced_cli_ops(*argvs):
    """Run ``cli.main(argvs[k - 1])`` as traced op k, as child.py does;
    return the tracer."""
    tr = Tracer()
    original = structlqr.system.simulate
    tr.install()
    try:
        assert structlqr.experiments.simulate is not original
        for k, argv in enumerate(argvs, 1):
            tr.op = k
            span = tr.begin("op")
            with contextlib.redirect_stdout(io.StringIO()):
                assert structlqr.cli.main(argv) == 0
            tr.end(span)
        tr.op = None
    finally:
        tr.uninstall()
    assert structlqr.system.simulate is original
    assert structlqr.simulate is original
    return tr


def test_traced_ops_produce_every_per_layer_metric(tmp_path):
    scenario = tmp_path / "ring8.scn"
    save_scenario(ring_network_scenario("ring8", 8, 3, 4, chords=2), scenario)
    tr = traced_cli_ops(
        ["compare", "--scenario", "consensus-a", "--out", str(tmp_path / "a")],
        ["model-based", "--scenario", str(scenario),
         "--out", str(tmp_path / "b")])
    compare, model_based = (
        op_metrics([s for s in tr.spans if s["op"] == k], tr.counters.get(k))
        for k in (1, 2))

    # Every name must come from the spans themselves, not from a default:
    # only the gain error (added by child.py) and the overhead (run.py)
    # are filled in outside the tracer.
    produced = set(compare) | set(model_based)
    assert (set(PER_LAYER_UNITS) - {"learning.gain_err", "trace.overhead_s"}
            <= produced)
    assert model_based["experiments.parse_scenario.s"] > 0
    assert compare["learning.check_rank.calls"] == 2
    assert compare["learning.probe.calls"] == compare["learning.probe.samples"] > 0
    assert compare["system.simulate.calls"] > 0
    assert compare["experiments.output_bytes"] > 0
    assert compare["structure.s"] > 0
    assert compare["model_based.solve_lyapunov.op_bytes"] == 8 * 6 ** 4
    assert compare["learning.solve_iteration.unknowns"] == 21 + 36

    m = per_layer_metrics(tr.spans, tr.counters)
    assert set(m) | {"trace.overhead_s"} == set(PER_LAYER_UNITS)
