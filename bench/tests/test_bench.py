"""Tests of the benchmark's own code: span arithmetic, rebinding, output checks, BENCHMARK.json.

Run with: python3 -m pytest bench/tests
"""

import copy
import importlib
import itertools
import json
import sys
from pathlib import Path

import pytest

import layers
import run_bench
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=ticking_clock())
    leaf = tracer.wrap("m.leaf", lambda: None)
    inner = tracer.wrap("m.inner", lambda: leaf())
    outer = tracer.wrap("m.outer", lambda: (inner(), inner(), leaf()))
    outer()
    # clock ticks: outer 0, inner 1, leaf 2-3, inner end 4, inner 5, leaf 6-7,
    # inner end 8, leaf 9-10, outer end 11
    spans = tracer.summary()
    assert spans["m.leaf"] == {"calls": 3, "self_s": 3.0, "inclusive_s": 3.0}
    assert spans["m.inner"] == {"calls": 2, "self_s": 4.0, "inclusive_s": 6.0}
    assert spans["m.outer"] == {"calls": 1, "self_s": 4.0, "inclusive_s": 11.0}
    assert sum(row["self_s"] for row in spans.values()) == spans["m.outer"]["inclusive_s"]


def test_span_closes_and_counts_when_the_call_raises():
    tracer = Tracer(clock=ticking_clock())

    def fail():
        raise KeyError("x")

    failing = tracer.wrap("m.fail", fail, on_raise={KeyError: "m.fail.errors"})
    outer = tracer.wrap("m.outer", lambda: pytest.raises(KeyError, failing))
    outer()
    spans = tracer.summary()
    assert spans["m.fail"]["calls"] == 1
    assert tracer.counters == {"m.fail.errors": 1}
    assert sum(row["self_s"] for row in spans.values()) == spans["m.outer"]["inclusive_s"]


def _bindings():
    return {
        (name, key): value
        for name, mod in sys.modules.items() if name == "otbec" or name.startswith("otbec.")
        for key, value in vars(mod).items() if callable(value)
    }


def test_traced_run_rebinds_imports_and_restores_every_binding(tmp_path):
    modules = {name: importlib.import_module(f"otbec.{name}") for name, _ in layers.TRACED}
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer, modules)
    # as_bits is defined in channel and imported by name into hashing and protocol_core
    assert modules["channel"].as_bits is not before[("otbec.channel", "as_bits")]
    assert modules["hashing"].as_bits is modules["channel"].as_bits
    assert modules["protocol_core"].as_bits is modules["channel"].as_bits
    try:
        argv = ["simulate", "--n", "64", "--r1", "1/8", "--r2", "1/8", "--lambda-prime", "1/16",
                "--trials", "20", "--seed", "3", "--out", str(tmp_path / "r.json")]
        assert modules["cli"].main(argv) == 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    values = layers.metrics(tracer)
    assert values["cli.main.calls"] == 1
    assert values["protocol_noncolluding.run_protocol1.calls"] == 20
    assert values["channel.transmit_bec.symbols"] == 20 * 2 * 64
    self_sum = sum(values[f"{m}.{f}.self_s"] for m, f in layers.TRACED)
    assert self_sum == pytest.approx(values["trace.wall_s"], rel=1e-9)


@pytest.fixture(scope="module")
def campaign_report(tmp_path_factory):
    from otbec.cli import main

    workload = WORKLOADS["campaign-p1-n256"]
    out = tmp_path_factory.mktemp("report") / "campaign.json"
    assert main([*workload.argv, "--seed", "11", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_campaign_check_accepts_the_real_report(campaign_report):
    assert WORKLOADS["campaign-p1-n256"].check(campaign_report, 11) == ([], [])


def test_campaign_check_rejects_a_decode_error(campaign_report):
    altered = copy.deepcopy(campaign_report)
    counts = altered["results"]["per_link"]["1"]["counts"]
    counts["completed"] -= 1
    counts["decode-error"] += 1
    workload = WORKLOADS["campaign-p1-n256"]
    exact, statistical = workload.check(altered, 11)
    assert exact == ["link 1 has 1 decode errors",
                     f"link 1 completed + aborted = {workload.trials - 1} != {workload.trials}"]
    assert statistical == []


def test_campaign_check_rejects_a_report_for_another_seed(campaign_report):
    exact, _ = WORKLOADS["campaign-p1-n256"].check(campaign_report, 12)
    assert exact == ["report seed 11 != 12"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        list(run_bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.per_layer_metrics()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def _fake_invocations(monkeypatch, statistical_by_seed):
    calls = []

    def invoke(workload, seed, mode, report):
        calls.append((seed, mode))
        return {"mode": mode, "seed": seed, "elapsed_s": 1.0, "setup_s": 1.0, "wall_s": 1.0,
                "digest": f"d{seed}", "failures": [],
                "statistical": list(statistical_by_seed.get(seed, []))}

    monkeypatch.setattr(run_bench, "invoke", invoke)
    return calls


def test_statistical_failure_confirmed_on_every_seed_fails_the_run(monkeypatch):
    stride = run_bench.CONFIRMATION_STRIDE
    calls = _fake_invocations(monkeypatch, {5: ["ci"], 5 + stride: ["ci"], 5 + 2 * stride: ["ci"]})
    runs = run_bench.measure(WORKLOADS["audit-p2-pooled"], 5, 0, trace=False)
    assert [seed for seed, mode in calls if seed != 5] == [5 + stride, 5 + 2 * stride]
    assert all(inv["failures"] == ["ci"] for inv in runs["work"] + runs["confirmations"])


def test_statistical_false_alarm_cleared_by_a_confirmation_seed(monkeypatch):
    stride = run_bench.CONFIRMATION_STRIDE
    _fake_invocations(monkeypatch, {5: ["ci"]})
    runs = run_bench.measure(WORKLOADS["audit-p2-pooled"], 5, 0, trace=False)
    assert [inv["seed"] for inv in runs["confirmations"]] == [5 + stride]
    assert not any(inv["failures"] for inv in runs["work"] + runs["probes"])
