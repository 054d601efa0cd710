"""Tests for the batched grid scheduler.

Covers the pure planning functions (cost ordering, chunk packing,
inline split), the slim stat transport, and the integrated runner
behaviour: bit-identical results across ``--jobs`` values and chunk
sizes, warm-pool reuse across consecutive ``prefetch`` calls, and the
inline short-circuit for cheap and cache-hit-only grids.

The pool-path tests pass ``cpus=4`` so they exercise real worker
processes even on single-core CI machines (where the scheduler would
otherwise — correctly — short-circuit the pool).
"""

import pytest

from repro.experiments import scheduler
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import SUPERSCALAR_SPEC, Cell, ExperimentRunner
from repro.experiments.scheduler import trace_path
from repro.polyflow import PAPER_CONFIG
from repro.workloads import clear_cache, workload_trace_length

_SCALE = 0.1
_NAMES = ("gzip", "twolf")
_GRID = [
    ("gzip", "postdoms"),
    ("gzip", "loop"),
    ("gzip", SUPERSCALAR_SPEC),
    ("twolf", "postdoms"),
    ("twolf", SUPERSCALAR_SPEC),
]


@pytest.fixture(scope="module", autouse=True)
def _fresh_workloads():
    clear_cache()
    yield
    scheduler.shutdown_pool()


def _runner(**kwargs):
    return ParallelExperimentRunner(
        scale=_SCALE, workload_names=_NAMES, **kwargs
    )


def _grid_stats(runner):
    runner.prefetch(_GRID)
    return {
        (name, spec): runner.run_policy(name, spec).as_dict()
        if spec != SUPERSCALAR_SPEC
        else runner.baseline(name).as_dict()
        for name, spec in _GRID
    }


# -- cost model -------------------------------------------------------------------


def test_job_cost_is_trace_length():
    assert scheduler.job_cost("gzip", _SCALE) == workload_trace_length(
        "gzip", _SCALE
    )
    assert scheduler.job_cost("gzip", _SCALE) > 0


def test_job_cost_uses_the_estimator_on_a_cold_catalog_cell():
    """Tier 2: a catalog scenario nobody has prepared is costed by the
    closed-form length estimate, not by running the pipeline."""
    from repro.analysis.estimate import estimated_trace_length
    from repro.workloads.suite import peek_workload_trace_length

    name = "synth/L2H1C1I1P1S1V0"
    clear_cache()
    assert peek_workload_trace_length(name, _SCALE) is None
    assert scheduler.job_cost(name, _SCALE) == estimated_trace_length(
        name, _SCALE
    )
    # Costing alone must not have prepared the workload.
    assert peek_workload_trace_length(name, _SCALE) is None


def test_job_cost_prefers_the_exact_length_once_cached():
    """Tier 1 beats tier 2: after preparation the cost is the exact
    committed length, even for catalog scenarios."""
    name = "synth/L2H1C1I1P1S1V0"
    exact = workload_trace_length(name, _SCALE)
    assert scheduler.job_cost(name, _SCALE) == exact


def test_job_cost_falls_back_to_preparing_named_workloads():
    """Tier 3: named workloads have no closed form; a cold cache
    prepares them and returns the exact length."""
    clear_cache()
    assert scheduler.job_cost("twolf", _SCALE) == workload_trace_length(
        "twolf", _SCALE
    )


# -- chunk planning (pure) --------------------------------------------------------


def _jobs(costs):
    return [("job{}".format(i),) for i in range(len(costs))]


def test_plan_chunks_orders_longest_first():
    costs = [10, 500, 20, 400, 30]
    chunks = scheduler.plan_chunks(_jobs(costs), costs, workers=2)
    cost_of = dict(zip(_jobs(costs), costs))
    chunk_costs = [sum(cost_of[job] for job in chunk) for chunk in chunks]
    assert chunk_costs == sorted(chunk_costs, reverse=True)
    # The most expensive cell is in the first chunk shipped.
    assert ("job1",) in chunks[0]


def test_plan_chunks_is_deterministic_and_complete():
    costs = [7, 7, 7, 100, 3, 50, 50]
    first = scheduler.plan_chunks(_jobs(costs), costs, workers=2)
    second = scheduler.plan_chunks(_jobs(costs), costs, workers=2)
    assert first == second
    flattened = [job for chunk in first for job in chunk]
    assert sorted(flattened) == sorted(_jobs(costs))


def test_plan_chunks_coalesces_cheap_cells():
    # 8 equal cheap cells, 2 workers -> budget is total/8, so cells stay
    # separate; with 1 worker budget doubles and pairs coalesce.
    costs = [10] * 8
    wide = scheduler.plan_chunks(_jobs(costs), costs, workers=2)
    narrow = scheduler.plan_chunks(_jobs(costs), costs, workers=1)
    assert len(wide) == 8
    assert len(narrow) == 4
    assert all(len(chunk) == 2 for chunk in narrow)


def test_plan_chunks_respects_cap():
    costs = [10] * 8
    chunks = scheduler.plan_chunks(
        _jobs(costs), costs, workers=1, max_chunk_jobs=3
    )
    assert max(len(chunk) for chunk in chunks) <= 3


def test_plan_chunks_ignores_vacuous_cap():
    """A --chunk at or above the grid size must not collapse the grid
    into one chunk: the cap is vacuous and the cost budget still
    partitions the cells across workers."""
    costs = [10] * 8
    uncapped = scheduler.plan_chunks(_jobs(costs), costs, workers=2)
    for cap in (len(costs), len(costs) + 1, 1000):
        capped = scheduler.plan_chunks(
            _jobs(costs), costs, workers=2, max_chunk_jobs=cap
        )
        assert capped == uncapped
        assert len(capped) > 1


def test_plan_chunks_empty_grid():
    assert scheduler.plan_chunks([], [], workers=4) == []
    assert scheduler.plan_chunks([], [], workers=4, max_chunk_jobs=2) == []


def test_split_inline_thresholds():
    jobs = _jobs([10, 5000, 6000, 20])
    costs = [10, 5000, 6000, 20]
    inline, pooled, pooled_costs = scheduler.split_inline(
        jobs, costs, workers=4, inline_threshold=100
    )
    assert inline == [("job0",), ("job3",)]
    assert pooled == [("job1",), ("job2",)]
    assert pooled_costs == [5000, 6000]


def test_split_inline_short_circuits_single_worker_and_tiny_grids():
    jobs = _jobs([5000, 6000])
    # One worker: pooling can only add overhead.
    inline, pooled, _ = scheduler.split_inline(jobs, [5000, 6000], workers=1)
    assert (inline, pooled) == (jobs, [])
    # Only one pool-worthy cell: not worth a pool either.
    jobs3 = _jobs([5000, 10, 20])
    inline, pooled, _ = scheduler.split_inline(
        jobs3, [5000, 10, 20], workers=4, inline_threshold=100
    )
    assert (inline, pooled) == (jobs3, [])


def test_plan_grid_empty_grid_yields_clean_empty_plan():
    """An empty grid plans to nothing: no inline cells, no chunks, zero
    workers, and telemetry that says so (not a degenerate one-chunk
    plan)."""
    plan = scheduler.plan_grid([], [], 8, cpus=4)
    assert plan.inline == []
    assert plan.chunks == []
    assert plan.workers == 0
    assert plan.pooled_jobs == 0
    description = plan.describe()
    assert "0" in description


def test_plan_grid_oversized_chunk_cap_does_not_collapse_grid():
    jobs = _jobs([6000, 6000, 6000, 6000])
    costs = [6000, 6000, 6000, 6000]
    plan = scheduler.plan_grid(jobs, costs, 4, max_chunk_jobs=100, cpus=4)
    uncapped = scheduler.plan_grid(jobs, costs, 4, cpus=4)
    assert plan.chunks == uncapped.chunks
    assert len(plan.chunks) > 1
    assert plan.workers == uncapped.workers > 1


def test_plan_grid_caps_workers_at_cpus():
    jobs = _jobs([5000, 6000, 7000])
    plan = scheduler.plan_grid(jobs, [5000, 6000, 7000], 8, cpus=1)
    assert plan.chunks == [] and plan.inline == jobs and plan.workers == 0
    plan = scheduler.plan_grid(jobs, [5000, 6000, 7000], 8, cpus=4)
    assert plan.pooled_jobs == 3
    assert plan.workers <= 4
    assert "pooled" in plan.describe()


# -- slim transport ---------------------------------------------------------------


def test_pack_unpack_round_trips_stats():
    from repro.experiments.runner import simulate_job

    stats = simulate_job("gzip", "postdoms", _SCALE, PAPER_CONFIG)
    clone = scheduler.unpack_stats(scheduler.pack_stats(stats))
    assert clone.as_dict() == stats.as_dict()
    assert vars(clone).keys() == vars(stats).keys()
    # The reconstructed counter dict keeps defaultdict semantics.
    assert clone.spawns_by_category[object()] == 0


# -- integrated runner behaviour --------------------------------------------------


def test_results_bit_identical_across_jobs_and_chunks():
    serial = _grid_stats(ExperimentRunner(scale=_SCALE, workload_names=_NAMES))
    for jobs, chunk in ((4, None), (4, 1), (2, 2)):
        runner = _runner(jobs=jobs, chunk=chunk, cpus=4, inline_threshold=1)
        assert _grid_stats(runner) == serial, (jobs, chunk)
        assert runner.summary.chunks_shipped > 0, (jobs, chunk)


def test_warm_pool_reused_across_prefetch_calls_and_runners():
    scheduler.shutdown_pool()
    starts_before = scheduler.pool_starts()
    runner = _runner(jobs=2, cpus=4, inline_threshold=1)
    runner.prefetch(_GRID[:3])
    runner.prefetch(_GRID)
    second = _runner(jobs=2, cpus=4, inline_threshold=1)
    second.prefetch([("twolf", "loop"), ("gzip", "hammock")])
    assert scheduler.pool_starts() == starts_before + 1


def test_cheap_grid_never_touches_the_pool(monkeypatch):
    def _no_pool(*args, **kwargs):
        raise AssertionError("cheap grids must run inline")

    monkeypatch.setattr(scheduler, "warm_pool", _no_pool)
    # scale-0.1 traces are a few thousand instructions: below the
    # default inline threshold, so even jobs=4 with 4 CPUs stays inline.
    runner = _runner(jobs=4, cpus=4)
    ran = runner.prefetch(_GRID)
    assert ran == len(_GRID)
    assert runner.summary.inline_jobs == len(_GRID)
    assert runner.summary.chunks_shipped == 0


def test_cache_hit_only_grid_short_circuits(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    warm = _runner(jobs=1, cache_dir=cache_dir)
    warm.prefetch(_GRID)

    def _no_pool(*args, **kwargs):
        raise AssertionError("cache-hit-only grids must not spin up a pool")

    monkeypatch.setattr(scheduler, "warm_pool", _no_pool)
    replay = _runner(jobs=4, cpus=4, inline_threshold=1, cache_dir=cache_dir)
    ran = replay.prefetch(_GRID)
    assert ran == 0
    assert replay.summary.cache_hits == len(_GRID)
    assert replay.summary.jobs_run == 0


def test_pooled_traces_byte_identical_to_inline(tmp_path):
    serial_dir = tmp_path / "serial"
    pooled_dir = tmp_path / "pooled"
    cases = [("gzip", "postdoms")]
    serial = _runner(jobs=1, trace_dir=str(serial_dir))
    serial.prefetch(cases)
    pooled = _runner(
        jobs=4, cpus=4, inline_threshold=1, chunk=1, trace_dir=str(pooled_dir)
    )
    pooled.prefetch(cases)
    for name, spec in cases:
        cell = Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
        digest = cell.digest(_SCALE)
        with open(trace_path(str(serial_dir), name, spec, digest)) as handle:
            expected = handle.read()
        with open(trace_path(str(pooled_dir), name, spec, digest)) as handle:
            assert handle.read() == expected



def test_pool_workers_compile_block_tables_inside_cell_windows():
    """Fresh pool workers prepare nothing ahead of their chunks: every
    block table a worker compiles is compiled inside a cell's counter
    window, so the pooled run books as many table lookups as the serial
    run and at least one compile per workload."""
    clear_cache()
    scheduler.shutdown_pool()
    pooled = _runner(jobs=2, cpus=2, inline_threshold=1)
    pooled.prefetch(_GRID)
    assert pooled.summary.chunks_shipped > 0
    assert pooled.summary.inline_jobs == 0
    clear_cache()
    serial = _runner(jobs=1)
    serial.prefetch(_GRID)
    pooled_blocks = pooled.summary.block_cache
    serial_blocks = serial.summary.block_cache
    assert pooled_blocks["table_misses"] >= len({name for name, _ in _GRID})
    assert (
        pooled_blocks["table_hits"] + pooled_blocks["table_misses"]
        == serial_blocks["table_hits"] + serial_blocks["table_misses"]
    )
