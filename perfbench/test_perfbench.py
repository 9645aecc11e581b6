"""Tests of the benchmark harness itself.

Run from the root of the checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path)
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, count_failures  # noqa: E402

import pytest  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())


@pytest.fixture(scope="module")
def gk():
    return run.import_gyrokit()


def traced_pass(gk, workload, inputs):
    tracer = Tracer()
    tracer.install()
    try:
        results = workload.run_pass(gk, inputs)
    finally:
        tracer.uninstall()
    return results, layer_metrics(tracer.spans, tracer.pass_counts())


def test_self_time_arithmetic():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 6.5, 3],
        ["e", 7.0, 8.0, 3],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])


def test_layer_metrics_sum_self_time_per_name():
    spans = [
        ["sweep.sweep_table", 0.0, 4.0, -1],
        ["prime_index.is_prime", 0.5, 1.0, 0],
        ["prime_index.equivalence_report", 1.0, 3.0, 0],
        ["prime_index.check_condition_p", 1.5, 2.0, 2],
        ["search.run_search", 4.0, 8.0, -1],
        ["search.canonical_form", 5.0, 6.0, 4],
        ["core.verify_axioms", 6.0, 7.0, 4],
    ]
    m = layer_metrics(spans, Counter({"search.nodes": 6}))
    assert m["sweep.sweep_table.self_s"] == pytest.approx(1.5)
    assert m["prime_index.calls"] == 3
    assert m["prime_index.self_s"] == pytest.approx(2.5)
    assert m["search.dfs_s"] == pytest.approx(2.0)
    assert m["search.node_rate"] == pytest.approx(3.0)


def test_every_reference_is_rebound_and_restored(gk):
    modules = {k: m for k, m in sys.modules.items() if k == "gyrokit" or k.startswith("gyrokit.")}
    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(fn) for fn in tracer.originals.values()}
        assert "normality.try_quotient" in tracer.originals
        leftover = [
            f"{name}.{attr}"
            for name, module in modules.items()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
        assert leftover == []
        assert gk.core.GyroTable.gyr is not tracer.originals["core.GyroTable.gyr"]
        for name in ("normality", "sweep", "cli", "commutator"):
            assert modules[f"gyrokit.{name}"].try_quotient.__wrapped__ is tracer.originals["normality.try_quotient"]
    finally:
        tracer.uninstall()
    assert gk.normality.try_quotient is tracer.originals["normality.try_quotient"]
    assert gk.sweep.try_quotient is tracer.originals["normality.try_quotient"]
    assert gk.core.GyroTable.gyr is tracer.originals["core.GyroTable.gyr"]


def test_traced_and_untraced_answers_identical(gk):
    workload = WORKLOADS["sweep-corpus"]
    inputs = [i for i in workload.make_inputs(gk, 7)[0] if i[0] in ("z4", "s3", "na8")]
    plain = workload.answers(inputs, workload.run_pass(gk, inputs))
    traced, _ = traced_pass(gk, workload, inputs)
    assert workload.answers(inputs, traced) == plain


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_answers_match_reference(gk, seed):
    for name in ("analyze-products", "verify-64"):
        workload = WORKLOADS[name]
        inputs = [i for i in workload.make_inputs(gk, seed)[seed] if not i[0].startswith("na8xV4")]
        results = workload.run_pass(gk, inputs[:2])
        assert count_failures(workload, inputs[:2], results, REFERENCE[name]) == (len(inputs[:2]), 0)


def test_wrong_answer_counts_as_failure(gk):
    workload = WORKLOADS["verify-64"]
    inputs = workload.make_inputs(gk, 3)[0][:2]
    results = workload.run_pass(gk, inputs)
    assert count_failures(workload, inputs, results[::-1], REFERENCE["verify-64"]) == (2, 2)


def test_census_ignores_seed(gk):
    workload = WORKLOADS["census"]
    assert workload.make_inputs(gk, 1) == workload.make_inputs(gk, 2) == [list(range(1, 9))]


def test_sweep_pass_cross_check(gk):
    workload = WORKLOADS["sweep-corpus"]
    inputs = workload.make_inputs(gk, 11)[0]
    results, m = traced_pass(gk, workload, inputs)
    assert count_failures(workload, inputs, results, REFERENCE["sweep-corpus"]) == (15, 0)
    assert m["normality.try_quotient.calls"] == 2789
    assert round(m["normality.try_quotient.reject_ratio"] * 2789) == 22
    assert m["sweep.checks"] == 757


def test_analyze_pass_cross_check(gk):
    workload = WORKLOADS["analyze-products"]
    inputs = workload.make_inputs(gk, 11)[5]
    results, m = traced_pass(gk, workload, inputs)
    assert count_failures(workload, inputs, results, REFERENCE["analyze-products"]) == (2, 0)
    assert m["normality.try_quotient.calls"] == 282
    assert round(m["normality.try_quotient.reject_ratio"] * 282) == 96


def test_benchmark_json_names_every_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    names = list(layer_metrics([], Counter())) + ["trace_overhead"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {n: run.layer_unit(n) for n in names}
