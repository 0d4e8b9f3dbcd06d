import json
import sys
from pathlib import Path

import pytest

from perfbench import trace, workloads
from perfbench.run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_is_span_time_minus_children():
    spans = [
        ("op", 0, 100, -1, 1, 0),
        ("a", 10, 40, 0, 1, 2),
        ("a.child", 15, 25, 1, 1, 0),
        ("b", 50, 90, 0, 1, 3),
    ]
    # op: 100 - (30 + 2) - (40 + 3); a: 30 - 10; leaves keep their duration.
    assert trace.self_times(spans) == [25, 20, 10, 40]


def test_a_failing_counter_hook_is_counted_and_the_call_still_runs():
    tracer = trace.Tracer()

    def pre(counters, args):
        return args[0].renamed_internal

    def post(counters, ctx, args, result):
        pytest.fail("post hook ran after its pre hook failed")

    traced = tracer.wrap("x.f", lambda value: value + 1, pre, post)
    tracer.begin_op(0)
    assert traced(1) == 2
    tracer.end_op()
    assert tracer.hook_failures == {
        "x.f: AttributeError: 'int' object has no attribute 'renamed_internal'": 1}
    assert [span[0] for span in tracer.spans] == ["op", "x.f"]


def _attributes():
    """Every module attribute and class-dict entry a target could touch."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "cloudrerun" or name.startswith("cloudrerun."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for key, raw in vars(value).items():
                        snapshot[(name, f"{attr}.{key}")] = raw
    return snapshot


def test_traced_run_restores_every_original(cr, tmp_path):
    before = _attributes()
    workload = workloads.LongLived(cr, 5, tmp_path)
    workload.epoch_ops = 40
    workload.setup()
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert cr.runtime.parse_abstract_request is not before[("cloudrerun.runtime", "parse_abstract_request")]
        assert cr.reproducer.find_record_table is not before[("cloudrerun.reproducer", "find_record_table")]
        rec = workloads.Recorder()
        workload.run_epoch(0, rec, tracer, None)
    finally:
        tracer.uninstall()
    after = _attributes()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert rec.failed == 0 and tracer.ops == rec.attempted == 40
    names = {span[0] for span in tracer.spans}
    assert {"config_model.parse_abstract_request", "runtime.EventBus.dispatch",
            "history.find_record_table", "reproducer.reproduce"} <= names
    assert all(span[4] is not None for span in tracer.spans)
    assert tracer.hook_failures == {}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END.values())
    layer = {**{k: v[:2] for k, v in trace.LAYER_METRICS.items()}, **trace.OVERHEAD_METRICS}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
