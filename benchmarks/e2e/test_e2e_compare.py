"""compare.py verdicts on synthetic report sets."""

import json

import pytest

import compare

STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.1, 9.9]


def test_identical_runs_are_unchanged():
    assert compare.verdict(STEADY, list(STEADY), "lower", 0.1) == compare.UNCHANGED


def test_gain_needs_ten_pairs_nine_wins_and_more_than_the_spread():
    faster = [value * 0.8 for value in STEADY]
    assert compare.verdict(STEADY, faster, "lower", 0.1) == compare.IMPROVED
    # Higher-is-better metrics win the other way round.
    assert compare.verdict(faster, STEADY, "higher", 0.1) == compare.IMPROVED
    # Nine pairs are not enough to claim a gain.
    assert compare.verdict(STEADY[:9], faster[:9], "lower", 0.1) == compare.UNCHANGED


def test_gain_rejected_when_too_many_pairs_lose():
    mixed = [value * 0.8 for value in STEADY]
    mixed[0], mixed[1] = 11.0, 11.0  # two of ten pairs lose
    assert compare.verdict(STEADY, mixed, "lower", 0.3) == compare.UNCHANGED


def test_gain_rejected_within_the_parents_spread():
    parent = [8.0, 12.0] * 5
    change = [value - 0.1 for value in parent]
    # Every pair wins, but by far less than the parent's quartile distance.
    assert compare.verdict(parent, change, "lower", 1.0) == compare.UNCHANGED


def test_regression_beyond_the_bound():
    slower = [value * 1.2 for value in STEADY]
    assert compare.verdict(STEADY, slower, "lower", 0.1) == compare.REGRESSED
    assert compare.verdict(STEADY, slower, "lower", 0.25) == compare.UNCHANGED
    assert compare.verdict(STEADY, [v * 0.8 for v in STEADY], "higher", 0.1) == compare.REGRESSED


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [5.0, 15.0, 8.0, 12.0]
    assert compare.verdict(noisy, [6.0, 14.0, 9.0, 11.0], "lower", 0.1) == compare.UNRESOLVED
    assert compare.verdict(noisy, [1.0, 2.0, 1.5, 1.2], "lower", 0.1) == compare.UNCHANGED


def test_noise_does_not_hide_a_clear_regression():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    # Spread far wider than the bound, yet every change run is slower
    # than every parent run, and the median by 60%.
    slower = [value + 6.0 for value in noisy]
    assert compare.verdict(noisy, slower, "lower", 0.1) == compare.REGRESSED
    assert compare.verdict(noisy, [v / 1.6 for v in noisy], "higher", 0.1) == compare.REGRESSED


def test_exit_status_flags_regressed_then_unresolved():
    def rows(*verdicts):
        return [{"verdict": verdict} for verdict in verdicts]

    assert compare.exit_status(rows(compare.UNCHANGED, compare.IMPROVED)) == 0
    assert compare.exit_status(rows(compare.UNCHANGED, compare.UNRESOLVED)) == 2
    assert compare.exit_status(rows(compare.UNRESOLVED, compare.REGRESSED)) == 1


def test_exact_metrics_must_be_identical():
    assert compare.verdict([47.6] * 3, [47.6] * 3, "exact", 0) == compare.UNCHANGED
    assert compare.verdict([47.6] * 3, [47.6, 47.7, 47.6], "exact", 0) == compare.REGRESSED


def test_failed_fraction_may_not_rise_from_zero():
    assert compare.verdict([0.0] * 3, [0.0] * 3, "lower", 0) == compare.UNCHANGED
    assert compare.verdict([0.0] * 3, [0.0, 0.01, 0.0], "lower", 0) == compare.REGRESSED


def _report(path, workloads):
    path.write_text(
        json.dumps(
            {
                "workloads": {
                    workload: {"metrics": {name: {"value": value} for name, value in metrics.items()}}
                    for workload, metrics in workloads.items()
                }
            }
        )
    )
    return str(path)


@pytest.fixture
def bounds():
    return {
        "wall_s": ("lower", 0.1),
        "postdoms_speedup_pct": ("exact", 0),
        "memo_p50_ms": ("lower", 0.2),
    }


def test_one_row_per_metric_and_workload(tmp_path, bounds):
    parent, change = [], []
    for run, wall in enumerate([10.0, 10.2, 9.9]):
        parent.append(
            _report(
                tmp_path / "p{}.json".format(run),
                {
                    "figures-cold": {"wall_s": wall, "postdoms_speedup_pct": 47.6},
                    "synth-sweep": {"wall_s": wall / 2, "latency_p97.5_ms": 1.0},
                },
            )
        )
        change.append(
            _report(
                tmp_path / "c{}.json".format(run),
                {
                    "figures-cold": {"wall_s": wall * 1.5, "postdoms_speedup_pct": 47.6},
                    "synth-sweep": {"wall_s": wall / 2, "latency_p97.5_ms": 2.0},
                },
            )
        )
    rows = compare.compare(parent, change, bounds)
    verdicts = {(row["workload"], row["metric"]): row["verdict"] for row in rows}
    # Metrics without a bound (a run's tail percentile) are not compared.
    assert verdicts == {
        ("figures-cold", "postdoms_speedup_pct"): compare.UNCHANGED,
        ("figures-cold", "wall_s"): compare.REGRESSED,
        ("synth-sweep", "wall_s"): compare.UNCHANGED,
    }
    assert all(row["pairs"] == 3 for row in rows)
    assert compare.render(rows).splitlines()[-1] == (
        "1 regressed, 0 unresolved, 0 improved, 2 unchanged"
    )
