"""Tests of the benchmark itself: span arithmetic, trace transparency, steady counts.

Run with `python -m pytest perfbench` from the repository root.
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# cells per workload kept short enough for a unit test
CELLS = {"filter_1d": 8, "boundary_1d": 2, "tensor_2d": 1}


def _span(name, start, end, parent):
    return [name, start, end, parent, "c"]


def test_self_and_busy_times_on_a_synthetic_tree():
    tree = [
        _span("bench.cell", 0.0, 10.0, -1),
        _span("postproc.filter", 1.0, 6.0, 0),
        _span("postproc.kernel_weights", 1.5, 2.5, 1),
        _span("filtercore.build_filter", 3.0, 5.0, 1),
        _span("basisfn.basis", 3.5, 4.0, 3),
        _span("postproc.convolve_point", 7.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 1.5, 0.5, 2.0]
    self_s, calls = spans.totals(tree)
    assert self_s == {
        "bench.cell": 3.0,
        "postproc.filter": 2.0,
        "postproc.kernel_weights": 1.0,
        "filtercore.build_filter": 1.5,
        "basisfn.basis": 0.5,
        "postproc.convolve_point": 2.0,
    }
    assert sum(self_s.values()) == 10.0
    assert calls["postproc.filter"] == 1
    # nested postproc spans count once; filtercore nested in postproc still counts
    assert spans.busy_times(tree) == {
        "bench": 10.0, "postproc": 7.0, "filtercore": 2.0, "basisfn": 0.5,
    }
    self_s, calls = spans.totals(tree, first=5)
    assert self_s == {"postproc.convolve_point": 2.0} and calls["postproc.convolve_point"] == 1


def test_tracer_restores_the_wrapped_attributes():
    from siac import filtercore, postproc

    before = (filtercore.build_filter, postproc.FilteredField.__dict__["l2_error"])
    tracer, counts = spans.Tracer(), layers.LayerCounts()
    with tracer.installed(lambda t: layers.install(t, counts)):
        assert filtercore.build_filter is not before[0]
    assert (filtercore.build_filter, postproc.FilteredField.__dict__["l2_error"]) == before


def _traced_run(name, seed):
    workload = workloads.setup(name, seed)
    workload.cells = workload.cells[: CELLS[name]]
    plain = run.run_pass(workload)
    tracer, counts = spans.Tracer(), layers.LayerCounts()
    with tracer.installed(lambda t: layers.install(t, counts)):
        traced = run.run_pass(workload, tracer)
    return workload, plain, traced, layers.pass_metrics(tracer, 0, counts)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_trace_is_transparent_and_counts_repeat_across_seeds(name):
    per_seed = []
    for seed in (3, 4):
        workload, plain, traced, metrics = _traced_run(name, seed)
        assert not plain["errors"] and not traced["errors"]
        assert traced["outputs"] == plain["outputs"]  # bit for bit
        per_seed.append({k: metrics[k] for k in layers.EXACT_COUNTS})
        # the self times of all spans account for the traced pass exactly
        layer_self = sum(metrics[f"{m}.self_s"] for m in layers.MODULES)
        assert layer_self == pytest.approx(metrics["trace.sweep_s"], rel=1e-9)
    assert per_seed[0] == per_seed[1]
    assert per_seed[0]["harness.filtered_error_calls"] > 0


def test_gate_fails_outputs_off_the_reference():
    workload = workloads.setup("boundary_1d", 5)
    (cell_id, fn), = workload.cells[:1]
    outputs = {cell_id: fn()}
    assert all(c.ok for c in workload.gate(outputs) if c.cell == cell_id)
    off = {cell_id: {col: 4.0 * v for col, v in outputs[cell_id].items()}}
    assert not all(c.ok for c in workload.gate(off) if c.cell == cell_id)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert spec["command"][1] == os.path.relpath(HERE / "run.py", HERE.parent)
