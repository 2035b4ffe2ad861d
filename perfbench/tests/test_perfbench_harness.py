"""Arithmetic of the benchmark harness: tail percentile, self time, totals, config.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, aggregate, self_times  # noqa: E402


def test_tail_reports_highest_percentile_with_ten_ops_above():
    times = [float(i) for i in range(1, 101)]
    value, pct, above = run.tail_percentile(times)
    assert (value, pct, above) == (90.0, 90.0, 10)


def test_tail_with_eleven_ops_is_the_smallest():
    times = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
    value, pct, above = run.tail_percentile(times)
    assert value == 1.0
    assert above == 10
    assert pct == 100.0 / 11


def test_tail_with_too_few_ops_reports_the_shortfall():
    value, pct, above = run.tail_percentile([3.0, 1.0, 2.0])
    assert (value, pct, above) == (3.0, 100.0, 0)


def _span(name, parent, start, end, pad=0.1, caller="bench", **counts):
    return Span(name, caller, parent, "op0", start, end, start - pad, end + pad, **counts)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        _span("a.root", None, 0.0, 10.0),
        _span("b.first", 0, 1.0, 3.0),
        _span("c.inner", 1, 1.5, 2.0),
        _span("b.second", 0, 4.0, 6.0),
    ]
    own = self_times(spans)
    # each child also covers the tracer's counting around it (pad 0.1 per side)
    assert own[0] == 10.0 - 2.2 - 2.2
    assert abs(own[1] - (2.0 - 0.7)) < 1e-12
    assert own[2] == 0.5
    assert own[3] == 2.0


def test_totals_split_by_caller_and_track_largest_state():
    spans = [
        _span("elements.apply_bs", None, 0.0, 1.0, caller="scissors", keys_in=10, keys_out=30, max_keys=30),
        _span("elements.apply_bs", None, 2.0, 4.0, caller="sources", keys_in=5, keys_out=7, max_keys=7),
        _span("elements.apply_bs", None, 5.0, 6.0, caller="scissors", keys_in=1, keys_out=2, max_keys=2),
    ]
    totals, max_keys = aggregate(spans)
    assert max_keys == 30
    assert totals["elements.apply_bs"].calls == 3
    assert totals["elements.apply_bs.by_scissors"].calls == 2
    assert totals["elements.apply_bs.by_scissors"].keys_in == 11
    assert totals["elements.apply_bs.by_sources"].self_s == 2.0
    metrics = layers.per_layer_metrics(totals, max_keys, None, overhead_frac=0.5)
    assert set(metrics) == set(layers.NAMES)
    assert metrics["elements.apply_bs.by_scissors.keys_out"] == 32
    assert metrics["fock.max_keys"] == 30
    assert metrics["fock.herald_survival"] == 0.0


def test_speed_factor_scales_to_reference_calibration_time():
    assert run.speed_factor("small", [2 * run.REF_CAL_S["small"]] * 3) == 0.5


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WORKLOADS[n].why for n in run.WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == [layers.spec(name) for name in layers.NAMES]


def test_each_op_is_scaled_by_the_calibration_passes_around_it():
    ref = run.REF_CAL_S["small"]
    record = {
        "calibration": "small",
        "op_start_s": [0.0, 10.0],
        "op_times_s": [1.0, 1.0],
        # passes around the first op ran at reference speed, around the second at half speed
        "cal_at_s": [-0.1, 1.1, 9.9, 11.1],
        "cal_times_s": [ref, ref, 2 * ref, 2 * ref],
    }
    assert run.op_factors(record, window=0.5) == [1.0, 0.5]
