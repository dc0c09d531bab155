"""Tests of the benchmark's own arithmetic: self time, layer metrics, wrapping.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import Tracer, covered_length, hot_wrapper, patch_everywhere, self_times, span_wrapper  # noqa: E402


def span(name, start, end, parent=None, hot=None, counts=None):
    return [name, start, end, parent, hot, counts]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(8.0, 12.0), (-2.0, 1.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([(4.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_children_and_hot_time_once():
    spans = [
        span("root", 0.0, 10.0, hot={"h": [3, 1.0, 3]}),
        span("a", 1.0, 4.0, parent=0, hot={"h": [1, 0.5, 1]}),
        span("c", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    # The grandchild c is covered by a, so it is not subtracted from root again.
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 3.0 - 1.0 - 0.5, 1.0, 1.0])


def test_self_times_partition_a_traced_call_tree():
    tracer = Tracer()

    def leaf(x):
        return sum(range(2000)) + x

    hot_leaf = hot_wrapper(tracer, leaf, "hot", operand=0)
    traced_leaf = span_wrapper(tracer, leaf, "leaf")

    def middle():
        return traced_leaf(1) + hot_leaf(2) + hot_leaf(3)

    traced_middle = span_wrapper(tracer, middle, "middle")
    span_wrapper(tracer, lambda: [traced_middle() for _ in range(3)], "root")()

    spans = tracer.dump()["spans"]
    assert [s[0] for s in spans].count("leaf") == 3
    assert spans[0][0] == "root" and spans[0][3] is None
    hot = sum(entry[1] for s in spans for entry in (s[4] or {}).values())
    total = spans[0][2] - spans[0][1]
    assert sum(self_times(spans)) + hot == pytest.approx(total, rel=1e-9, abs=1e-12)
    middles = [s for s in spans if s[0] == "middle"]
    assert all(s[4]["hot"][0] == 2 for s in middles)


def test_counts_go_to_innermost_open_span():
    tracer = Tracer()
    tracer.count("outside", 1)
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.count("k", 2)
    tracer.close(inner)
    tracer.count("k", 5)
    tracer.close(outer)
    dump = tracer.dump()
    assert dump["root_counts"] == {"outside": 1}
    assert dump["spans"][1][5] == {"k": 2}
    assert dump["spans"][0][5] == {"k": 5}


def test_layer_metrics_count_outermost_calls_of_nested_same_name_spans():
    spans = [
        span("cli", 0.0, 10.0),
        span("propagate.evolve", 1.0, 5.0, parent=0),
        span("propagate.evolve", 1.5, 4.5, parent=1,
             hot={"operators.gen_apply": [10, 2.0, 40]}),
        span("operators.norm", 6.0, 8.0, parent=0,
             counts={"operators.norm.iters": 7, "operators.norm.nonconverged": 1}),
        span("verify.suite.filter-linearity", 8.0, 9.0, parent=0),
    ]
    trace = {"spans": spans, "root_hot": {"operators.gen_apply": [1, 0.25, 1]},
             "root_counts": {}}
    metrics, attributed = run.layer_metrics(trace)
    assert metrics["propagate.evolve.calls"] == 1
    assert metrics["propagate.evolve.self_s"] == pytest.approx((4.0 - 3.0) + (3.0 - 2.0))
    assert metrics["operators.gen_apply.calls"] == 11
    assert metrics["operators.gen_apply.vectors"] == 41
    assert metrics["operators.gen_apply.s"] == pytest.approx(2.25)
    assert metrics["operators.norm.calls"] == 1
    assert metrics["operators.norm.iters"] == 7
    assert metrics["operators.norm.nonconverged"] == 1
    assert metrics["operators.norm.s"] == pytest.approx(2.0)
    assert metrics["verify.suite.filter-linearity.s"] == pytest.approx(1.0)
    assert metrics["verify.self_s"] == pytest.approx(1.0)
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 4.0 - 2.0 - 1.0)
    assert set(metrics) | {"proc.cpu_s", "trace.overhead_s", "trace.attributed_frac"} == set(
        run.PER_LAYER)
    assert attributed == pytest.approx(2.0 + 2.0 + 1.0 + 2.25)


def test_patch_everywhere_rebinds_each_importing_module(monkeypatch):
    def original():
        return 1

    def replacement():
        return 2

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    other = types.ModuleType("otherpkg")
    pkg.f, sub.alias, other.f = original, original, original
    for mod in (pkg, sub, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    assert patch_everywhere("fakepkg", original, replacement) == 2
    assert pkg.f is replacement and sub.alias is replacement and other.f is original


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
