"""The pair script's statistics: quartiles and the per-metric comparison.

Only the pure functions of ``tools/bench_pairs.py`` run here; nothing
exports a revision or starts a benchmark.
"""

import importlib.util
from pathlib import Path

import pytest


def _load_bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_bench_pairs()


def runs(**metrics):
    """One run summary per position of the value lists, as ``run_once`` returns."""
    count = len(next(iter(metrics.values())))
    return [
        {"metrics": {name: {"value": values[i], "unit": "u"} for name, values in metrics.items()}}
        for i in range(count)
    ]


BASE = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
# six less in every pair but the first, which the change loses
CHANGE = [30.0] + [b - 6.0 for b in BASE[1:]]


def test_quartiles_are_inclusive():
    q = bench_pairs.quartiles(BASE)
    assert (q["q1"], q["median"], q["q3"]) == (12.25, 14.5, 16.75)
    assert q["values"] == BASE


def test_wins_counted_in_both_directions():
    result = bench_pairs.compare(
        runs(t=BASE, rate=BASE), runs(t=CHANGE, rate=CHANGE), {"t": "lower", "rate": "higher"}
    )
    lower, higher = result["t"], result["rate"]
    assert (lower["change_wins"], higher["change_wins"]) == (9, 1)
    assert lower["pairs"] == higher["pairs"] == 10
    assert (lower["better"], higher["better"], lower["unit"]) == ("lower", "higher", "u")
    assert lower["base"]["median"] == 14.5 and lower["change"]["median"] == 9.5
    # the median gap of 5 exceeds the base's spread of 4.5 only where lower is better
    assert lower["gap_exceeds_base_iqr"] is True
    assert higher["gap_exceeds_base_iqr"] is False


def test_change_rel_is_the_median_ratio_less_one():
    result = bench_pairs.compare(runs(t=BASE), runs(t=CHANGE), {"t": "lower"})
    assert result["t"]["change_rel"] == pytest.approx(9.5 / 14.5 - 1, abs=1e-15)


def test_ties_are_no_wins_and_a_gap_equal_to_the_spread_does_not_exceed_it():
    base = [float(v) for v in range(10)]  # median 4.5, quartiles 2.25 and 6.75
    result = bench_pairs.compare(runs(t=base), runs(t=base), {"t": "lower"})
    assert result["t"]["change_wins"] == 0
    assert result["t"]["change_rel"] == 0.0
    shifted = [v - 4.5 for v in base]
    result = bench_pairs.compare(runs(t=base), runs(t=shifted), {"t": "lower"})
    assert result["t"]["change_wins"] == 10
    assert result["t"]["gap_exceeds_base_iqr"] is False
