"""Tests for the parallel runner and the on-disk result cache."""

import dataclasses
import os
import pickle

import pytest

from repro.experiments import figures
from repro.experiments.parallel import (
    ANALYSIS_CACHE_SUBDIR,
    Incident,
    ParallelExperimentRunner,
    ResultCache,
    RunSummary,
)
from repro.experiments.runner import (
    SUPERSCALAR_SPEC,
    Cell,
    ExperimentRunner,
    Outcome,
    simulate_job,
)
from repro.experiments.scheduler import GridSchedule
from repro.polyflow import PAPER_CONFIG
from repro.workloads import clear_cache
from tests.helpers import force_pool

_SCALE = 0.1
_NAMES = ("gzip", "twolf")


@pytest.fixture(scope="module", autouse=True)
def _fresh_workloads():
    clear_cache()


@pytest.fixture()
def serial():
    return ExperimentRunner(scale=_SCALE, workload_names=_NAMES)


def _parallel(tmp_path, jobs=2, cache=True):
    return ParallelExperimentRunner(
        scale=_SCALE,
        workload_names=_NAMES,
        jobs=jobs,
        cache_dir=str(tmp_path / "cache") if cache else None,
    )


# -- parallel == serial -----------------------------------------------------------


def test_fig9_parallel_matches_serial(serial, tmp_path):
    parallel = _parallel(tmp_path, jobs=2)
    grid = len(parallel.normalize_jobs(figures.figure_jobs("fig9", parallel)))
    parallel.prefetch(figures.figure_jobs("fig9", parallel))
    assert figures.figure9(parallel).render() == figures.figure9(serial).render()
    # The whole grid ran in the pool; rendering added no serial sims.
    assert parallel.summary.jobs_run == grid
    assert parallel.normalize_jobs(figures.figure_jobs("fig9", parallel)) == []


def test_fig12_parallel_matches_serial(serial, tmp_path):
    parallel = _parallel(tmp_path, jobs=2)
    parallel.prefetch(figures.figure_jobs("fig12", parallel))
    assert figures.figure12(parallel).render() == figures.figure12(serial).render()


def test_jobs_1_uses_serial_path(tmp_path, monkeypatch):
    from repro.experiments import scheduler

    def _no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 must never create a process pool")

    monkeypatch.setattr(scheduler, "warm_pool", _no_pool)
    runner = _parallel(tmp_path, jobs=1)
    ran = runner.prefetch([("gzip", "postdoms"), ("gzip", SUPERSCALAR_SPEC)])
    assert ran == 2
    assert runner.speedup("gzip", "postdoms") == pytest.approx(
        ExperimentRunner(scale=_SCALE, workload_names=_NAMES).speedup(
            "gzip", "postdoms"
        )
    )


# -- the on-disk cache ------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    first = _parallel(tmp_path, jobs=1)
    first.prefetch([("gzip", "postdoms")])
    assert first.summary.jobs_run == 1
    assert first.summary.cache_hits == 0
    assert len(first.cache) == 1

    second = _parallel(tmp_path, jobs=1)
    ran = second.prefetch([("gzip", "postdoms")])
    assert ran == 0
    assert second.summary.jobs_run == 0
    assert second.summary.cache_hits == 1
    assert (
        second.run_policy("gzip", "postdoms").cycles
        == first.run_policy("gzip", "postdoms").cycles
    )


def test_cache_misses_on_config_change(tmp_path):
    runner = _parallel(tmp_path, jobs=1)
    runner.prefetch([("gzip", "postdoms")])

    modified = dataclasses.replace(PAPER_CONFIG, rob_entries=256)
    changed = ParallelExperimentRunner(
        scale=_SCALE,
        config=modified,
        workload_names=_NAMES,
        jobs=1,
        cache_dir=str(tmp_path / "cache"),
    )
    ran = changed.prefetch([("gzip", "postdoms")])
    assert ran == 1
    assert changed.summary.cache_hits == 0


def test_cache_survives_corrupt_entry(tmp_path):
    runner = _parallel(tmp_path, jobs=1)
    runner.prefetch([("gzip", "postdoms")])
    cell = Cell("gzip", "postdoms", PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
    digest = cell.digest(_SCALE)
    # "garbage\n" makes pickle raise ValueError (not UnpicklingError):
    # any exception type must count as a miss.
    with open(runner.cache.path(digest), "wb") as handle:
        handle.write(b"garbage\n")

    recovered = _parallel(tmp_path, jobs=1)
    ran = recovered.prefetch([("gzip", "postdoms")])
    assert ran == 1  # corrupt entry treated as a miss and rewritten
    reader = ResultCache(recovered.cache.root)
    assert reader.load(digest) is not None
    assert (reader.hits, reader.corrupt) == (1, 0)


def test_cache_load_distinguishes_missing_from_corrupt(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest = "ab" + "0" * 62
    assert cache.load(digest) is None
    assert (cache.misses, cache.corrupt) == (1, 0)

    os.makedirs(os.path.dirname(cache.path(digest)), exist_ok=True)
    with open(cache.path(digest), "wb") as handle:
        handle.write(b"garbage\n")
    assert cache.load(digest) is None
    assert (cache.misses, cache.corrupt) == (1, 1)
    assert cache.corrupt_paths == [cache.path(digest)]


def test_cache_less_runner_writes_no_earlier_runners_analyses(tmp_path):
    """The analysis disk root is process-global: a runner without a
    cache directory turns it off instead of inheriting the last
    runner's ``<cache-dir>/analysis``."""
    cache_dir = tmp_path / "cache"
    ParallelExperimentRunner(scale=_SCALE, jobs=1, cache_dir=str(cache_dir))
    analysis_dir = cache_dir / ANALYSIS_CACHE_SUBDIR

    def listing():
        return sorted(str(path) for path in analysis_dir.rglob("*"))

    before = listing()
    clear_cache()  # gzip's analyses must be computed, not memo hits
    runner = ParallelExperimentRunner(scale=_SCALE, jobs=1)
    assert runner.prefetch([("gzip", "postdoms")]) == 1
    assert listing() == before


def test_corrupt_entry_surfaced_in_run_summary(tmp_path):
    runner = _parallel(tmp_path, jobs=1)
    runner.prefetch([("gzip", "postdoms")])
    cell = Cell("gzip", "postdoms", PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
    digest = cell.digest(_SCALE)
    with open(runner.cache.path(digest), "wb") as handle:
        handle.write(b"garbage\n")

    recovered = _parallel(tmp_path, jobs=1)
    assert recovered.prefetch([("gzip", "postdoms")]) == 1
    assert recovered.summary.corrupt_entries == [recovered.cache.path(digest)]
    rendered = recovered.summary.render()
    assert "1 corrupt cache entries re-simulated" in rendered
    assert recovered.cache.path(digest) in rendered


def test_cell_digest_sensitivity():
    base = Cell("gzip", "postdoms", PAPER_CONFIG, 512).digest(0.1)
    assert base == Cell("gzip", "postdoms", PAPER_CONFIG, 512).digest(0.1)
    assert base != Cell("twolf", "postdoms", PAPER_CONFIG, 512).digest(0.1)
    assert base != Cell("gzip", "loop", PAPER_CONFIG, 512).digest(0.1)
    assert base != Cell("gzip", "postdoms", PAPER_CONFIG, 512).digest(0.2)
    assert base != Cell("gzip", "postdoms", PAPER_CONFIG, 256).digest(0.1)
    modified = dataclasses.replace(PAPER_CONFIG, width=4)
    assert base != Cell("gzip", "postdoms", modified, 512).digest(0.1)


def test_cell_digest_pins_the_content_address():
    """Entries already on disk in result caches must keep being found:
    the digest payload may not drift."""
    postdoms = "42cf03fe9640ff3c5c84077e6b91cbd9d571b8d131526ca1d53d006a96cba70e"
    superscalar = "dfacb08c180497e9f1e213d46f1f62839843157b4a019c5c675f6d36943a6076"
    assert Cell("gzip", "postdoms", PAPER_CONFIG, 512).digest(0.25) == postdoms
    alias = Cell("gzip", "control-equivalent", PAPER_CONFIG, 512)
    assert alias.spec == "postdoms"
    assert alias.digest(0.25) == postdoms
    assert Cell("gzip", SUPERSCALAR_SPEC, PAPER_CONFIG, 512).digest(0.25) == superscalar


# -- runner plumbing --------------------------------------------------------------


def test_workload_is_memoized(serial, monkeypatch):
    from repro.experiments import runner as runner_module

    calls = []
    real_prepare = runner_module.prepare_workload

    def counting_prepare(name, scale):
        calls.append(name)
        return real_prepare(name, scale)

    monkeypatch.setattr(runner_module, "prepare_workload", counting_prepare)
    runner = ExperimentRunner(scale=_SCALE, workload_names=_NAMES)
    first = runner.workload("gzip")
    second = runner.workload("gzip")
    assert first is second
    assert calls == ["gzip"]


def test_normalize_jobs_deduplicates_and_orders(serial):
    jobs = serial.normalize_jobs(
        [
            ("twolf", "postdoms"),
            ("gzip", "postdoms"),
            ("gzip", "postdoms"),
            ("gzip", "postdoms", serial.config),
        ]
    )
    assert [(name, spec) for name, spec, _, _ in jobs] == [
        ("gzip", "postdoms"),
        ("twolf", "postdoms"),
    ]


def test_normalize_jobs_skips_memoized(serial):
    serial.run_policy("gzip", "postdoms")
    assert serial.normalize_jobs([("gzip", "postdoms")]) == []


def test_simulate_job_is_picklable_and_deterministic():
    first = simulate_job("gzip", "postdoms", _SCALE, PAPER_CONFIG)
    second = pickle.loads(pickle.dumps(first))
    assert second.cycles == first.cycles
    assert second.ipc == first.ipc
    assert second.spawns_by_category == first.spawns_by_category


def _cell(name, spec, config=PAPER_CONFIG):
    return Cell(name, spec, config, PAPER_CONFIG.max_spawn_distance)


def test_run_summary_render():
    booked = {
        _cell("gzip", "postdoms"): Outcome(None, seconds=1.25),
        _cell("twolf", "loop"): Outcome(None, seconds=0.5),
        _cell("mcf", "loop"): Outcome(None, source="cache"),
    }
    summary = RunSummary(booked)
    summary.wall_seconds = 1.5
    rendered = summary.render()
    assert "2 simulated" in rendered
    assert "1 cache hits" in rendered
    assert summary.total_sim_seconds == pytest.approx(1.75)
    assert summary.slowest(1) == [("gzip", "postdoms", 1.25)]
    # The summary folds over the ledger it was given, so a cell booked
    # later is counted without telling the summary anything.
    booked[_cell("vpr.route", "loop")] = Outcome(None, seconds=2.0, shared=True)
    assert summary.jobs_run == 3
    assert summary.shared_cells == 1
    assert summary.slowest(1) == [("vpr.route", "loop", 2.0)]
    # A swept configuration is told apart by its fingerprint.
    swept = dataclasses.replace(PAPER_CONFIG, max_spawn_distance=8)
    booked[_cell("gzip", "postdoms", swept)] = Outcome(None, seconds=0.1)
    assert summary.job_timings[-1][1].startswith("postdoms @")


def test_run_summary_reports_block_cache_counters():
    booked = {}
    summary = RunSummary(booked)
    # Zero movement renders no block-cache line.
    assert "block cache" not in summary.render()
    booked[_cell("gzip", "postdoms")] = Outcome(
        None,
        blocks={
            "table_hits": 2,
            "table_misses": 1,
            "program_misses": 1,
        },
    )
    booked[_cell("gzip", "loop")] = Outcome(None, blocks={"table_hits": 1})
    booked[_cell("gzip", "hammock")] = Outcome(None)  # no movement reported
    assert summary.block_cache["table_hits"] == 3
    assert summary.block_cache["table_misses"] == 1
    assert summary.block_cache["program_misses"] == 1
    rendered = summary.render()
    assert "  block cache: 3 table hits / 1 compiles\n" in rendered + "\n"
    # Programs run before any cell's window opens, so the count is not
    # rendered.
    assert "program builds" not in rendered


def test_prefetch_surfaces_block_cache_in_summary(tmp_path):
    """A cold prefetch records the block-table compiles it paid and the
    hits later jobs get from the memoized tables."""
    runner = ParallelExperimentRunner(
        scale=0.05, workload_names=("gzip",), jobs=1, cache_dir=str(tmp_path / "c")
    )
    runner.prefetch([("gzip", "postdoms"), ("gzip", "hammock")])
    block_cache = runner.summary.block_cache
    assert sum(block_cache.values()) > 0
    assert block_cache["table_hits"] >= 1


def test_run_summary_as_dict_exposes_structured_fields(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    digest = "aa" + "0" * 62
    os.makedirs(os.path.dirname(cache.path(digest)))
    with open(cache.path(digest), "wb") as handle:
        handle.write(b"garbage")
    # Probed twice before a rewrite: one corrupt entry, listed once.
    assert cache.load(digest) is None
    assert cache.load(digest) is None
    booked = {
        _cell("gzip", "postdoms"): Outcome(
            None, seconds=1.25, blocks={"table_hits": 2}
        ),
        _cell("gzip", "loop"): Outcome(None, source="cache"),
    }
    summary = RunSummary(booked, caches=[cache])
    summary.incidents.append(Incident(1))
    payload = summary.as_dict()
    assert payload["jobs_run"] == 1
    assert payload["cache_hits"] == 1
    assert payload["pool_restarts"] == 1
    assert payload["corrupt_cache_entries"] == 1
    assert payload["corrupt_cache_paths"] == [cache.path(digest)]
    assert payload["block_cache"]["table_hits"] == 2
    # The payload is pure JSON (the service serves it from /healthz).
    import json

    assert json.loads(json.dumps(payload)) == payload
    assert "1 worker-pool restart(s)" in summary.render()


#: Policies that keep the same spawn points at scale 0.25: one machine
#: per workload, so a cold grid of them runs one kernel per workload.
_SHARING_GRID = [
    (name, spec)
    for name in ("mcf", "gzip")
    for spec in ("loopFT", "loopFT+procFT", "loop+loopFT", "loop+procFT+loopFT")
]


def _sharing_runner(tmp_path, **options):
    return ParallelExperimentRunner(
        scale=0.25,
        workload_names=("mcf", "gzip"),
        cache_dir=str(tmp_path / "cache"),
        **options,
    )


def test_cold_duplicate_grid_reports_shared_cells(tmp_path):
    cold = _sharing_runner(tmp_path, jobs=1)
    cold.prefetch(_SHARING_GRID)
    assert cold.summary.jobs_run == len(_SHARING_GRID)
    assert cold.summary.shared_cells == 6
    assert cold.summary.as_dict()["shared_cells"] == 6
    rendered = cold.summary.render()
    assert rendered.splitlines()[0].startswith("run summary: 8 simulated, 0 cache hits")
    assert (
        "  shared: 6 of 8 simulated cells reused an identical cell's run "
        "(2 kernel runs)" in rendered
    )
    # Every cell has its own cache entry, so a warm re-run simulates
    # and shares nothing.
    warm = _sharing_runner(tmp_path, jobs=1)
    warm.prefetch(_SHARING_GRID)
    assert warm.summary.jobs_run == 0
    assert warm.summary.shared_cells == 0
    assert warm.summary.cache_hits == len(_SHARING_GRID)
    assert "shared:" not in warm.summary.render()
    for name, spec in _SHARING_GRID:
        assert warm.run_policy(name, spec).as_dict() == cold.run_policy(name, spec).as_dict()


def test_pooled_chunks_report_shared_cells(tmp_path, monkeypatch):
    # One chunk per machine keeps each workload's identical cells in
    # one chunk; the sharing is counted from the workers' outcomes.
    force_pool(monkeypatch)
    pooled = _sharing_runner(tmp_path, jobs=2)
    pooled.prefetch(_SHARING_GRID)
    assert pooled.summary.chunks_shipped == 2
    assert pooled.summary.jobs_run == len(_SHARING_GRID)
    assert pooled.summary.shared_cells == 6
    for name, spec in _SHARING_GRID:
        expected = simulate_job(name, spec, 0.25, PAPER_CONFIG)
        assert pooled.run_policy(name, spec).as_dict() == expected.as_dict()


def test_schedule_line_counts_the_transport_that_ran_the_chunks():
    def rendered(*workers_per_dispatch):
        summary = RunSummary({_cell("gzip", "loop"): Outcome(None, seconds=1.0)})
        chunks = [[_cell("gzip", "loop")], [_cell("gzip", "hammock")]]
        for workers in workers_per_dispatch:
            summary.dispatches.append(GridSchedule([], chunks, workers))
        return [line for line in summary.render().splitlines() if "schedule:" in line]

    assert rendered() == ["  schedule: 0 inline, 0 chunks across 0 pool workers"]
    assert rendered(2) == ["  schedule: 0 inline, 2 chunks across 2 pool workers"]
    assert rendered(2, 1) == ["  schedule: 0 inline, 4 chunks across 2 pool workers"]


def test_merged_summaries_concatenate_their_records():
    """Two runners sharing one 2-worker pool: counts add up, the worker
    count takes the larger, nothing is double-counted."""
    parts = []
    for name, inline in (("gzip", 1), ("twolf", 0)):
        summary = RunSummary({_cell(name, "loop"): Outcome(None, seconds=1.0)})
        chunks = [[_cell(name, "loop")], [_cell(name, "hammock")]]
        plan = GridSchedule([_cell(name, "postdoms")] * inline, chunks, 2)
        summary.dispatches.append(plan)
        summary.incidents.append(Incident(1))
        parts.append(summary)
    merged = RunSummary.merged(parts).as_dict()
    assert merged["jobs_run"] == 2
    assert merged["total_sim_seconds"] == pytest.approx(2.0)
    assert merged["pool_workers"] == 2
    assert merged["chunks_shipped"] == 4
    assert merged["inline_jobs"] == 1
    assert merged["pool_restarts"] == 2


def test_broken_pool_is_restarted_and_grid_replanned(tmp_path, monkeypatch):
    from tests.faults import broken_pool

    force_pool(monkeypatch, cpus=4)
    runner = ParallelExperimentRunner(
        scale=_SCALE,
        workload_names=_NAMES,
        jobs=2,
        cache_dir=str(tmp_path / "cache"),
    )
    with broken_pool(fail_submits={0}) as plan:
        ran = runner.prefetch([("gzip", "postdoms"), ("twolf", "postdoms")])
    assert plan.broken == 1
    assert ran == 2
    assert runner.summary.pool_restarts == 1
    serial = ExperimentRunner(scale=_SCALE, workload_names=_NAMES)
    for name in _NAMES:
        assert runner.run_policy(name, "postdoms").cycles == serial.run_policy(
            name, "postdoms"
        ).cycles


def test_broken_pool_raises_after_retry_budget(tmp_path, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    from repro.experiments.parallel import POOL_RETRIES
    from tests.faults import broken_pool

    force_pool(monkeypatch, cpus=4)
    runner = ParallelExperimentRunner(
        scale=_SCALE,
        workload_names=_NAMES,
        jobs=2,
        cache_dir=str(tmp_path / "cache"),
    )
    with broken_pool(fail_submits=set(range(64))):
        with pytest.raises(BrokenProcessPool):
            runner.prefetch([("gzip", "postdoms"), ("twolf", "postdoms")])
    # The first attempt and every retry each met a dead worker.
    assert runner.summary.pool_restarts == POOL_RETRIES + 1


def test_result_cache_len_counts_entries(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    assert len(cache) == 0
    cache.store("ab" + "0" * 62, object(), {"meta": True})
    cache.store("cd" + "0" * 62, object(), {"meta": True})
    assert len(cache) == 2


def test_cli_flags(tmp_path, capsys):
    from repro.experiments.__main__ import main

    assert (
        main(
            [
                "fig8",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cli-cache"),
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "Figure 8" in captured.out
    assert "run summary" in captured.err


def test_cold_run_renders_the_block_cache_line():
    """A cold serial run compiles one block table per workload and hits
    it for every other cell; the line names table hits and compiles
    only."""
    clear_cache()
    runner = ParallelExperimentRunner(scale=_SCALE, workload_names=_NAMES, jobs=1)
    runner.prefetch(
        [(name, spec) for name in _NAMES for spec in ("postdoms", "loop", "hammock")]
    )
    lines = [
        line for line in runner.summary.render().splitlines() if "block cache" in line
    ]
    assert lines == ["  block cache: 4 table hits / 2 compiles"]
