"""The pair script's statistics: quartiles and the per-metric comparison,
for a claimed gain and for the no-regression rule.

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
# BASE's quartile spread, 4.5, is 0.31 of its median, 14.5
WIDE = 0.25


def compare(base, change, better, bound=WIDE):
    return bench_pairs.compare(base, change, better, {name: bound for name in better})


def test_quartiles_are_inclusive():
    q = bench_pairs.quartiles(BASE)
    assert (q["q1"], q["median"], q["q3"]) == (12.25, 14.5, 16.75)
    assert q["values"] == BASE


def test_wins_counted_in_both_directions():
    result = compare(
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
    result = compare(runs(t=BASE), runs(t=CHANGE), {"t": "lower"})
    assert result["t"]["change_rel"] == pytest.approx(9.5 / 14.5 - 1, abs=1e-15)


def test_ties_are_no_wins_and_a_gap_equal_to_the_spread_does_not_exceed_it():
    base = [float(v) for v in range(10)]  # median 4.5, quartiles 2.25 and 6.75
    result = compare(runs(t=base), runs(t=base), {"t": "lower"})
    assert result["t"]["change_wins"] == 0
    assert result["t"]["change_rel"] == 0.0
    shifted = [v - 4.5 for v in base]
    result = compare(runs(t=base), runs(t=shifted), {"t": "lower"})
    assert result["t"]["change_wins"] == 10
    assert result["t"]["gap_exceeds_base_iqr"] is False


def test_bound_is_read_per_metric():
    result = bench_pairs.compare(
        runs(t=BASE, rate=BASE), runs(t=CHANGE, rate=CHANGE),
        {"t": "lower", "rate": "higher"}, {"t": 0.25, "rate": 0.1},
    )
    assert (result["t"]["bound"], result["rate"]["bound"]) == (0.25, 0.1)


def test_within_bound_is_signed_by_direction():
    # the median falls by 34.5%: a gain where lower is better, a loss where higher is
    result = compare(runs(t=BASE, rate=BASE), runs(t=CHANGE, rate=CHANGE),
                     {"t": "lower", "rate": "higher"})
    assert result["t"]["within_bound"] is True
    assert result["rate"]["within_bound"] is False
    result = compare(runs(rate=BASE), runs(rate=CHANGE), {"rate": "higher"}, bound=0.35)
    assert result["rate"]["within_bound"] is True


def test_a_change_of_exactly_the_bound_is_within_it():
    base, worse = [8.0] * 10, [10.0] * 10  # +25%
    assert compare(runs(t=base), runs(t=worse), {"t": "lower"})["t"]["within_bound"] is True
    result = compare(runs(t=base), runs(t=worse), {"t": "lower"}, bound=0.2)
    assert result["t"]["within_bound"] is False


def test_unresolved_when_the_base_spreads_wider_than_the_bound():
    # CHANGE loses its first pair, so a base spread of 0.31 hides a 25% move
    result = compare(runs(t=BASE), runs(t=CHANGE), {"t": "lower"})
    assert result["t"]["unresolved"] is True
    assert compare(runs(t=BASE), runs(t=CHANGE), {"t": "lower"}, bound=0.35)["t"][
        "unresolved"] is False


def test_only_a_change_better_than_every_base_run_resolves_a_wide_base():
    every_pair = [b - 6.0 for b in BASE]  # wins each pair, yet 13 > 10
    result = compare(runs(t=BASE), runs(t=every_pair), {"t": "lower"})
    assert result["t"]["change_wins"] == 10
    assert result["t"]["unresolved"] is True
    below = [b - 10.0 for b in BASE]  # 9 < 10
    assert compare(runs(t=BASE), runs(t=below), {"t": "lower"})["t"]["unresolved"] is False
    above = [b + 10.0 for b in BASE]
    assert compare(runs(t=BASE), runs(t=above), {"t": "higher"})["t"]["unresolved"] is False


def test_a_narrow_base_is_resolved_even_when_the_change_loses():
    base = [100.0 + v for v in range(10)]  # spread 4.5 of median 104.5
    worse = [v + 50.0 for v in base]
    result = compare(runs(t=base), runs(t=worse), {"t": "lower"})
    assert result["t"]["change_wins"] == 0
    assert result["t"]["unresolved"] is False
    assert result["t"]["within_bound"] is False
