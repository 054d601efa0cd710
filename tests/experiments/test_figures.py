"""Tests for the experiment harness and figure generators.

These run the full pipeline at a small workload scale so they stay
fast; the shape assertions are correspondingly loose.  The full-scale
shape checks live in benchmarks/.
"""

import pytest

from repro.experiments import (
    ExperimentRunner,
    figure5,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
)
from repro.experiments.reporting import format_percent, format_table
from repro.workloads import clear_cache

#: One shared runner at small scale for the whole module.
_SCALE = 0.1
_NAMES = ("gzip", "twolf", "vortex")


@pytest.fixture(scope="module")
def runner():
    clear_cache()
    return ExperimentRunner(scale=_SCALE, workload_names=_NAMES)


def test_baseline_and_policy_runs_cached(runner):
    first = runner.baseline("gzip")
    second = runner.baseline("gzip")
    assert first is second
    first = runner.run_policy("gzip", "postdoms")
    second = runner.run_policy("gzip", "postdoms")
    assert first is second


def test_speedup_is_symmetric_for_identical_runs(runner):
    baseline = runner.baseline("gzip")
    assert baseline.retired_instructions == runner.run_policy(
        "gzip", "postdoms"
    ).retired_instructions


def test_figure5_result(runner):
    result = figure5(runner)
    for name in _NAMES:
        assert result.total(name) > 0
        percentages = result.percentages(name)
        assert abs(sum(percentages.values()) - 100.0) < 1e-6
    rendered = result.render()
    assert "Figure 5" in rendered
    assert "twolf" in rendered


def test_warm_figure5_reads_no_trace(tmp_path):
    """Figure 5 is a static result: on a filled analysis cache it loads
    each program's static part from disk and no trace part."""
    from repro.analysis.pipeline import configure_disk_cache, shared_cache
    from repro.experiments import ParallelExperimentRunner

    def figure5_render():
        clear_cache()
        runner = ParallelExperimentRunner(
            scale=_SCALE, workload_names=_NAMES, jobs=1, cache_dir=str(tmp_path)
        )
        return figure5(runner).render()

    cache = shared_cache()
    try:
        expected = figure5_render()
        disk_hits, trace_loads = cache.disk_hits, cache.trace_loads
        assert figure5_render() == expected
        assert cache.disk_hits - disk_hits == len(_NAMES)
        assert cache.trace_loads == trace_loads
    finally:
        configure_disk_cache(None)
        clear_cache()


def test_figure8_table():
    rendered = figure8()
    assert "512 entries" in rendered
    assert "16Kbit gshare" in rendered
    assert "Divert Queue" in rendered


def test_figure9_result(runner):
    result = figure9(runner)
    assert result.specs[-1] == "postdoms"
    # postdoms is competitive with the best individual heuristic for
    # the covered benchmarks (tolerance is wide: at this tiny workload
    # scale the restricted-policy effect the paper notes in Section 4.3
    # can be pronounced).
    for name in _NAMES:
        best = max(result.speedups[name][spec] for spec in result.specs[:-1])
        postdoms = result.speedups[name]["postdoms"]
        assert postdoms >= best - max(15.0, 0.4 * abs(best))
    assert "Average" in result.speedups
    assert result.superscalar_ipc
    rendered = result.render()
    assert "base IPC" in rendered


def test_figure10_result(runner):
    result = figure10(runner)
    assert "loop+loopFT" in result.specs
    average = result.speedups["Average"]
    assert average["postdoms"] >= max(
        average[spec] for spec in result.specs if spec != "postdoms"
    ) - 5.0


def test_figure11_result(runner):
    result = figure11(runner)
    # vortex relies on procFT: excluding it must hurt clearly.
    assert result.losses["vortex"]["postdoms-procFT"] > 5.0
    rendered = result.render()
    assert "-procFT" in rendered


def test_figure12_result(runner):
    result = figure12(runner)
    for name in _NAMES:
        assert "rec_pred" in result.speedups[name]
    # rec_pred never beats postdoms by a large margin on average.
    average = result.speedups["Average"]
    assert average["rec_pred"] <= average["postdoms"] + 15.0


def test_reporting_helpers():
    table = format_table(["a", "b"], [["x", 1], ["longer", 22]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "longer" in table
    assert format_percent(3.14159) == "+3.1"
    assert format_percent(-2.5) == "-2.5"


def test_cli_main_runs_fig8(capsys):
    from repro.experiments.__main__ import main

    assert main(["fig8"]) == 0
    captured = capsys.readouterr()
    assert "Figure 8" in captured.out
