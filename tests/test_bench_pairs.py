"""The statistics of ``scripts/bench_pairs.py``: the paired parent/change
comparison a claimed gain is held to (wins of all pairs, medians further
apart than the parent's interquartile range)."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [135.6, 135.7, 135.8, 135.7, 135.9, 135.6, 135.7, 135.8, 135.7, 135.6]


def test_a_clear_gain_on_a_lower_is_better_metric():
    change = [value - 60.0 for value in PARENT]
    row = bench_pairs.compare(PARENT, change, "lower")
    assert (row["pairs"], row["wins"], row["ties"]) == (10, 10, 0)
    assert row["parent"]["median"] == 135.7
    assert row["parent"]["q1"] <= 135.7 <= row["parent"]["q3"]
    assert abs(row["gain"] - 60.0) < 1e-9 and row["resolved"]
    assert abs(row["gain_share"] - 60.0 / 135.7) < 1e-9
    # The same numbers on a higher-is-better metric are ten losses.
    worse = bench_pairs.compare(PARENT, change, "higher")
    assert worse["wins"] == 0 and worse["gain"] < 0 and not worse["resolved"]


def test_a_gain_inside_the_parents_spread_is_unresolved():
    parent = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0]
    change = [99.0, 109.0, 89.0, 104.0, 94.0, 100.0]
    row = bench_pairs.compare(parent, change, "lower")
    assert (row["wins"], row["ties"]) == (5, 1)  # a tie counts for neither
    assert row["gain"] == 0.5 and not row["resolved"]


def test_simulated_metrics_are_compared_to_the_bit():
    values = [11767.040849838555, 11790.5]
    assert bench_pairs.compare(values, list(values), "higher")["identical"]
    off = [values[0], values[1] + 1e-9]
    assert not bench_pairs.compare(values, off, "higher")["identical"]


def test_a_simulated_metric_that_moved_is_held_to_the_gain_rule():
    parent = [9751.69, 9818.94, 9751.57, 9750.71]
    change = [10936.35, 10208.35, 10578.07, 10524.40]
    moved = bench_pairs.compare(parent, change, "higher")
    assert bench_pairs.verdict("sim_tx_per_s", moved) == (
        "DIFFERS per seed  wins 4/4 ties 0  medians further apart than "
        "the parent IQR")
    same = bench_pairs.compare(parent, list(parent), "higher")
    assert bench_pairs.verdict("sim_tx_per_s", same) == \
        "bit-identical per seed"
    assert bench_pairs.verdict("peak_rss_mb", same).startswith("wins 0/4")


def test_one_pair_and_seed_lists():
    row = bench_pairs.compare([5.0], [4.0], "lower")
    assert row["parent"] == {"q1": 5.0, "median": 5.0, "q3": 5.0}
    assert row["wins"] == 1 and row["resolved"]
    assert bench_pairs.parse_seeds("11-20") == list(range(11, 21))
    assert bench_pairs.parse_seeds("3,5-7,9") == [3, 5, 6, 7, 9]
