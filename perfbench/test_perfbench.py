"""Tests of the benchmark itself: metric names, span arithmetic, tracing and
failure counting.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run
import spans
from checks import check_records, reference_monotones, report_records
from workloads import Op, haar_amplitudes

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tk():
    return run.load_tanglekit()


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_on_synthetic_span_tree():
    tree = [
        _span("a", 0, 100, -1),
        _span("b", 10, 30, 0),
        _span("c", 40, 90, 0),
        _span("d", 50, 60, 2),
        _span("d", 70, 75, 2),
        _span("b", 120, 130, -1),
    ]
    assert spans.self_times(tree) == [30, 20, 35, 10, 5, 10]
    table = spans.summarize(tree)
    assert table["b"]["calls"] == 2
    assert table["b"]["self_s"] == pytest.approx(30e-9)
    assert table["d"]["total_s"] == pytest.approx(15e-9)


def test_self_time_counts_overlapping_children_once():
    tree = [_span("a", 0, 100, -1), _span("b", 10, 40, 0), _span("c", 30, 60, 0)]
    assert spans.self_times(tree)[0] == 50


class _FakeWorkload:
    def __init__(self, ops):
        self.ops = ops

    def round(self, r):
        return self.ops


def _metric_names(specs):
    return {m["name"]: m["unit"] for m in specs}


def test_end_to_end_metric_names_match_benchmark_json():
    ops = [Op("x", lambda: 1, lambda result: None, partitions=1)]
    metrics, _ = run.end_to_end(run.run_rounds(_FakeWorkload(ops), seconds=1e-6), [0.1, 0.2])
    assert {name: run.END_TO_END[name] for name in metrics} == _metric_names(
        BENCHMARK["end_to_end"]
    )


def test_per_layer_metric_names_match_benchmark_json(tk):
    state = tk.PureState(4, haar_amplitudes(4, np.random.default_rng(0)))
    ops = [Op("report", lambda: tk.all_partitions_report(state), lambda result: None,
              partitions=7)]
    tracer = spans.Tracer()
    result = run.run_rounds(_FakeWorkload(ops), seconds=1e-6, tracer=tracer)
    metrics, details = run.per_layer(tracer, result)
    units = run.per_layer_units()
    assert {name: units[name] for name in metrics} == _metric_names(BENCHMARK["per_layer"])
    assert metrics["monotones.all_partitions_report.calls"] == 1
    assert metrics["ratio.partition_reports_base"] == 7
    assert metrics["ratio.reshape_per_partition"] > 1
    assert details["traced_rounds"] == details["untraced_rounds"] == 1


def test_tracer_wraps_every_binding_and_restores_them(tk):
    import tanglekit.local_ops
    import tanglekit.monotones

    original = tk.d_monotone
    state = tk.PureState(4, haar_amplitudes(4, np.random.default_rng(1)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tanglekit.monotones.d_monotone is not original
        assert tanglekit.local_ops._MONOTONES["d"] is not original
        value = tk.monotonicity_trial(
            state, 1, tk.random_povm_pair(0), "d", tk.Partition(4, (1,))
        )
    finally:
        tracer.uninstall()
    assert tk.d_monotone is original
    assert tanglekit.monotones.d_monotone is original
    assert tanglekit.local_ops._MONOTONES["d"] is original
    assert tanglekit.monotones.np is np
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("monotones.d_monotone") == 3
    det_parents = {names[s[spans.PARENT]] for s in tracer.spans if s[spans.NAME] == "kernel.det"}
    assert det_parents == {"monotones.d_monotone"}
    assert value == tk.monotonicity_trial(
        state, 1, tk.random_povm_pair(0), "d", tk.Partition(4, (1,))
    )


def test_wrong_output_is_counted_in_failed_frac(tk):
    state = tk.PureState(4, haar_amplitudes(4, np.random.default_rng(2)))
    reports = tk.all_partitions_report(state)
    wrong = list(reports)
    wrong[3] = dataclasses.replace(wrong[3], d_value=wrong[3].d_value * (1 + 1e-4))
    refs = reference_monotones(state.amplitudes, 4, [r.partition.selected for r in reports])

    def check(result):
        return check_records(report_records(result), refs, 4)

    def raises():
        raise ValueError("boom")

    ops = [Op("right", lambda: reports, check), Op("wrong", lambda: wrong, check),
           Op("raises", raises, check)]
    result = run.run_rounds(_FakeWorkload(ops), seconds=1e-6)
    metrics, _ = run.end_to_end(result, [0.1])
    line = run.result_line(result, metrics, run.END_TO_END)
    # A warm-up round and one timed round, each with one wrong and one raising op.
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 6, 4)
    assert any("slogdet reference" in f for f in result.failures)
    assert any("ValueError: boom" in f for f in result.failures)
