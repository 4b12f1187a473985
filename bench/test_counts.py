"""Self-test of the benchmark: counts repeat exactly, tracing restores every
binding, and the printed metrics are the ones BENCHMARK.json names.

    PYTHONPATH=src python -m pytest -q bench/test_counts.py
"""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import pipeline  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The workloads' shapes and modes with tiny splits, so a traced run takes
# about a second.
TINY = dict(train_segments=24, val_segments=4, test_segments=6, epochs=1)
EXACT_UNITS = {"count", "bytes", "GFLOP-computed", "fraction"}


def tiny(name):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, config={**workload.config, **TINY},
                               eval_repeats=1, acc_gate=False)


def traced(workload, seed, work_dir):
    bench = pipeline.Bench(workload, seed, work_dir)
    metrics = pipeline.trace(bench, Tracer())
    assert bench.correct, bench.failures
    return metrics


@pytest.mark.parametrize("name", ["small-full", "small-dvsa"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = traced(tiny(name), 3, tmp_path / "a")
    second = traced(tiny(name), 3, tmp_path / "b")
    exact = {k for k, (_, unit) in first.items() if unit in EXACT_UNITS}
    assert {"tensor.nodes_per_seg", "tensor.nodes.matmul",
            "tensor.matmul_gflop_per_seg", "encoders.proposal_rows_per_seg",
            "grounding.cubes_per_seg", "data.neg_sample_calls_per_seg",
            "data.bytes_written", "train.seg_ms.n"} <= exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["tensor.nodes_per_seg"][0] > 0
    uses_attention = WORKLOADS[name].config["mode"] == "full"
    assert (first["attention.calls_per_seg"][0] > 0) == uses_attention


def test_tracing_restores_every_binding(tmp_path):
    tracer = Tracer()
    bindings = [(owner, attr, vars(owner)[attr])
                for owner, attr, _ in tracer._replacements()]
    with tracer.installed():
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in bindings)
    assert all(vars(owner)[attr] is original for owner, attr, original in bindings)


def test_metrics_match_benchmark_json(tmp_path):
    workload = tiny("small-full")
    end_to_end = pipeline.measure(pipeline.Bench(workload, 0, tmp_path / "m"), 0.01)
    per_layer = traced(workload, 0, tmp_path / "t")
    for printed, declared in ((end_to_end, SPEC["end_to_end"]),
                              (per_layer, SPEC["per_layer"])):
        assert {k: unit for k, (_, unit) in printed.items()} == \
            {m["name"]: m["unit"] for m in declared}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
