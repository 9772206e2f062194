"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
from checks import hypervolume_2d, oracle_gap_check, study_check
from tracer import Site, Tracer, covered_length, self_times, span_totals


def test_hypervolume_hand_computed():
    # staircase (1,3), (2,2), (3,1) under reference (4,4), column by column:
    # x in [1,2) has height 4-3=1, [2,3) has 4-2=2, [3,4) has 4-1=3; total 6
    points = np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 2.0]])
    assert hypervolume_2d(points, (4.0, 4.0)) == pytest.approx(6.0)


def test_hypervolume_ignores_dominated_and_out_of_reference_points():
    points = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0], [2.5, 2.5], [5.0, 0.5]])
    assert hypervolume_2d(points, (4.0, 4.0)) == pytest.approx(6.0)
    assert hypervolume_2d(np.empty((0, 2)), (4.0, 4.0)) == 0.0


def test_self_time_subtracts_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: union of children is [1, 6]
        ("c", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
        ("leaf", 2.0, 3.0, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_span_totals_count_outermost_spans_of_a_name():
    spans = [("f", 0.0, 4.0, -1), ("f", 1.0, 2.0, 0), ("g", 5.0, 6.0, -1)]
    assert span_totals(spans) == {"f": (4.0, 1), "g": (1.0, 1)}


def test_oracle_gap_check_passes_matching_front_and_fails_a_poor_one():
    oracle = np.array([[1.0, 10.0], [2.0, 5.0], [4.0, 2.0]])
    ok, detail = oracle_gap_check(oracle.copy(), oracle)
    assert ok and detail["beaten"] == 0

    # extremes within 2 %, but the middle point is beaten by >1 % in both objectives
    poor = np.array([[1.01, 10.0], [2.5, 6.0], [4.0, 2.01]])
    ok, detail = oracle_gap_check(poor, oracle)
    assert not ok and detail["beaten"] == 1

    # minimal mass 5 % above the oracle's
    short = np.array([[1.05, 9.0], [4.0, 2.0]])
    ok, detail = oracle_gap_check(short, oracle)
    assert not ok and detail["mass_gap"] == pytest.approx(0.05)


def test_study_check_flags_divergence_missing_cells_and_large_error():
    cells = [
        {"key": "1x10", "test_mean": 1.5, "trials": 4, "divergences": 0},
        {"key": "2x20", "test_mean": 5.5, "trials": 3, "divergences": 1},
    ]
    ok, detail = study_check({"cells": cells}, 4, ["1x10", "2x20", "2x10"])
    assert not ok
    assert len(detail["problems"]) == 3
    ok, _ = study_check({"cells": cells[:1]}, 4, ["1x10"])
    assert ok


def test_tracer_wraps_lookup_sites_and_reports_missing_ones(tmp_path):
    module = types.ModuleType("perfbench_fake_layer")
    module.inner = lambda x: x * 2
    module.outer = lambda x: module.inner(x) + 1
    sys.modules[module.__name__] = module
    try:
        sites = [
            Site(module.__name__, "outer", "fake.outer"),
            Site(module.__name__, "inner", "fake.inner",
                 lambda counts, args, result: counts.__setitem__("n", counts["n"] + args[0])),
            Site(module.__name__, "gone", "fake.gone"),
        ]
        with Tracer(sites) as tracer:
            assert module.outer(3) == 7
        assert module.outer(3) == 7  # originals restored
        names = [s[0] for s in tracer.spans]
        assert names == ["fake.outer", "fake.inner"]
        assert tracer.spans[1][3] == 0
        assert tracer.counts["n"] == 3
        assert tracer.missing == [f"{module.__name__}.gone"]
        assert not tracer.measured("fake.gone") and tracer.measured("fake.inner")
        tracer.write(tmp_path / "spans.jsonl")
        assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2
    finally:
        del sys.modules[module.__name__]


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "work_per_s", "peak_rss_mb"
    }
