"""The A/B driver's summary, on synthetic run records (no subprocesses)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

_E2E = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "quality", "better": "higher", "bound": 0.1},
]


def _run(seed, side, wall, quality=0.5, workload="solve-large", exit_code=0, failed=0):
    result = {
        "attempted": 10,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall}, "quality": {"value": quality}},
    }
    return {"workload": workload, "seed": seed, "side": side,
            "exit_code": exit_code, "result": result}


def test_parse_seeds():
    assert ab_bench.parse_seeds("501-503,510") == [501, 502, 503, 510]
    assert ab_bench.parse_seeds("7") == [7]


@pytest.mark.parametrize("text", ["", "5-3", "1-3,", "1-3,2"])
def test_parse_seeds_rejects_an_empty_or_repeated_range(text):
    with pytest.raises(ValueError):
        ab_bench.parse_seeds(text)


def test_machine_records_the_blas_pool_environment(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    info = ab_bench.machine()
    assert info["OPENBLAS_NUM_THREADS"] == "1"
    assert "OMP_NUM_THREADS" in info and info["OMP_NUM_THREADS"] is None


def test_summary_counts_pairs_medians_and_the_gain_rule():
    runs = []
    for i, seed in enumerate(range(101, 111)):
        runs.append(_run(seed, "parent", 1.0 + 0.01 * i))
        # the change is faster in 9 of 10 pairs and slower in the last
        runs.append(_run(seed, "change", 0.8 + 0.01 * i if i < 9 else 2.0))
    s = ab_bench.summarize(runs, _E2E)["solve-large"]
    assert s["seeds"] == list(range(101, 111)) and s["pairs"] == 10
    assert s["failed"] == {"parent": 0, "change": 0}
    assert s["attempted"] == {"parent": 100, "change": 100}
    assert s["exit_codes"]["change"] == [0] * 10
    wall = s["metrics"]["wall_s"]
    assert wall["change_better_pairs"] == 9 and wall["tied_pairs"] == 0
    assert wall["parent"]["median"] == pytest.approx(1.045)
    assert wall["parent"]["quartiles"] == pytest.approx([1.0225, 1.045, 1.0675])
    assert wall["change"]["runs"][-1] == 2.0
    assert wall["median_change_rel"] == pytest.approx(0.845 / 1.045 - 1, abs=1e-4)
    assert wall["gain_shown"]
    quality = s["metrics"]["quality"]
    assert quality["tied_pairs"] == 10 and quality["change_better_pairs"] == 0
    assert not quality["gain_shown"]


def test_gain_needs_nine_tenths_and_a_gap_beyond_the_spread():
    runs = []
    for i, seed in enumerate(range(1, 11)):
        runs.append(_run(seed, "parent", 1.0 + 0.1 * i))
        # better in every pair, by less than the parent's quartile spread
        runs.append(_run(seed, "change", 0.99 + 0.1 * i))
    wall = ab_bench.summarize(runs, _E2E)["solve-large"]["metrics"]["wall_s"]
    assert wall["change_better_pairs"] == 10 and not wall["gain_shown"]


def test_a_run_without_result_leaves_its_seed_unpaired():
    runs = [_run(1, "parent", 1.0), _run(1, "change", 0.5),
            _run(2, "parent", 1.0), dict(_run(2, "change", 0.5), exit_code=2, result=None),
            _run(3, "parent", 1.0, workload="suite-small", failed=2),
            _run(3, "change", 1.0, workload="suite-small")]
    out = ab_bench.summarize(runs, _E2E)
    s = out["solve-large"]
    assert s["seeds"] == [1, 2] and s["pairs"] == 1
    assert s["exit_codes"] == {"parent": [0, 0], "change": [0, 2]}
    assert s["attempted"] == {"parent": 20, "change": 10}
    assert s["metrics"]["wall_s"]["parent"]["runs"] == [1.0]
    assert out["suite-small"]["failed"] == {"parent": 2, "change": 0}
    assert out["suite-small"]["metrics"]["wall_s"]["tied_pairs"] == 1


def test_compare_decisions_counts_cases_and_names_the_ones_that_differ():
    parent = "a/x 111\nb/y 222\n# 15.8 s\nc/z 333\nold 444\n"
    change = "\na/x 111\nb/y 999\nc/z 333\nnew 555\n# 12.7 s\n"
    assert ab_bench.compare_decisions(parent, change) == {
        "cases": 5, "identical": 2, "differ": ["b/y", "new", "old"],
    }
    same = ab_bench.compare_decisions(parent, parent)
    assert same == {"cases": 4, "identical": 4, "differ": []}
    # a side that printed nothing differs on every case
    assert ab_bench.compare_decisions("", change)["identical"] == 0
