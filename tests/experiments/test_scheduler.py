"""Tests for the batched grid scheduler.

Covers the pure planning functions (cost ordering, one chunk per
machine, inline split), the slim stat transport, and the integrated
runner behaviour: bit-identical results across ``--jobs`` values,
warm-pool reuse across consecutive ``prefetch`` calls, and the
inline short-circuit for cheap and cache-hit-only grids.

The pool-path tests patch the scheduler's CPU count and inline
threshold (``tests.helpers.force_pool``) so they exercise real worker
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
from tests.helpers import force_pool

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


def _cells(*pairs, config=PAPER_CONFIG):
    return [
        Cell(name, spec, config, config.max_spawn_distance) for name, spec in pairs
    ]


def _plan(cells, costs, monkeypatch, workers=2):
    """Plan ``cells`` for ``workers`` pool workers, every cell pooled."""
    force_pool(monkeypatch, cpus=workers)
    return scheduler.plan_grid(cells, costs, workers, _SCALE)


def test_plan_chunks_orders_longest_first(monkeypatch):
    cells = _cells(
        ("gzip", "loop"), ("mcf", "loop"), ("twolf", "loop"), ("mcf", "postdoms")
    )
    costs = [10, 300, 400, 300]
    plan = _plan(cells, costs, monkeypatch)
    cost_of = dict(zip(cells, costs))
    chunk_costs = [sum(cost_of[cell] for cell in chunk) for chunk in plan.chunks]
    assert chunk_costs == [600, 400, 10]
    # The costliest machine ships first.
    assert plan.chunks[0] == [cells[1], cells[3]]


def test_plan_chunks_is_deterministic_and_complete(monkeypatch):
    """The chunks partition the pooled cells: each one in exactly one
    chunk, and the same grid plans the same way twice."""
    specs = ("postdoms", "loop", SUPERSCALAR_SPEC)
    cells = _cells(*((name, spec) for name in ("gzip", "twolf") for spec in specs))
    costs = [7, 7, 7, 100, 100, 100]
    first = _plan(cells, costs, monkeypatch, workers=4)
    second = _plan(cells, costs, monkeypatch, workers=4)
    assert first.chunks == second.chunks
    flattened = [cell for chunk in first.chunks for cell in chunk]
    assert sorted(flattened) == sorted(cells)
    assert first.inline == []


def test_plan_chunks_empty_grid(monkeypatch):
    """An empty grid plans no chunks without consulting the CPU count."""

    def _no_cpus():
        raise AssertionError("an empty grid must not look at the CPUs")

    monkeypatch.setattr(scheduler, "usable_cpus", _no_cpus)
    assert scheduler.plan_grid([], [], 4, _SCALE).chunks == []


def test_plan_grid_keeps_one_machine_in_one_chunk(monkeypatch):
    """Cells of one workload on one machine configuration share a
    chunk, so they can share kernel runs; the baseline runs on its own
    (superscalar) machine."""
    cells = _cells(
        ("gzip", "postdoms"),
        ("twolf", "loop"),
        ("gzip", "loop"),
        ("gzip", SUPERSCALAR_SPEC),
        ("twolf", "postdoms"),
    )
    plan = _plan(cells, [100] * len(cells), monkeypatch)
    assert sorted(map(sorted, plan.chunks)) == sorted(
        [
            sorted([cells[0], cells[2]]),
            sorted([cells[1], cells[4]]),
            [cells[3]],
        ]
    )


def test_plan_grid_groups_baselines_by_the_machine_they_run_on(monkeypatch):
    """Two configurations that differ only in ``max_tasks`` restrict to
    one superscalar machine, so their baseline cells share a chunk;
    their PolyFlow cells run on two machines."""
    import dataclasses

    other = dataclasses.replace(PAPER_CONFIG, max_tasks=4)
    cells = _cells(("gzip", SUPERSCALAR_SPEC), ("gzip", "loop")) + _cells(
        ("gzip", SUPERSCALAR_SPEC), ("gzip", "loop"), config=other
    )
    plan = _plan(cells, [100] * len(cells), monkeypatch)
    assert len(plan.chunks) == 3
    assert [cells[0], cells[2]] in plan.chunks


def test_plan_grid_halves_a_lone_machine_across_workers(monkeypatch):
    cells = _cells(*(("gzip", spec) for spec in ("postdoms", "loop", "hammock", "loopFT")))
    plan = _plan(cells, [100] * len(cells), monkeypatch)
    assert plan.chunks == [cells[:2], cells[2:]]
    assert plan.workers == 2


#: Four mcf policies that keep the same spawn points: one run group.
_MCF_GROUP = ("loopFT", "loopFT+procFT", "loop+loopFT", "loop+procFT+loopFT")


def test_plan_grid_never_halves_one_run_group(monkeypatch):
    """A machine whose cells form one run group ships whole, even with
    a worker idle: halving it would run its kernel run twice."""
    cells = _cells(*(("mcf", spec) for spec in _MCF_GROUP))
    plan = _plan(cells, [100] * len(cells), monkeypatch)
    assert plan.chunks == [cells]
    assert plan.workers == 1


def test_plan_grid_halves_a_machine_at_a_group_boundary(monkeypatch):
    """A machine of two run groups halves between them, never inside
    one; each group is costed once."""
    specs = ("loopFT", "postdoms") + _MCF_GROUP[1:]
    cells = _cells(*(("mcf", spec) for spec in specs))
    plan = _plan(cells, [100] * len(cells), monkeypatch)
    assert plan.chunks == [[cells[0]] + cells[2:], [cells[1]]]
    assert plan.workers == 2


def test_pooled_grid_shares_one_run_group_as_serial_does(monkeypatch):
    """Two pool workers share the four mcf cells' one kernel run
    exactly as ``jobs=1`` does: 3 of 4 cells shared."""
    grid = [("mcf", spec) for spec in _MCF_GROUP]
    serial = ParallelExperimentRunner(scale=0.25)
    serial.prefetch(grid)
    force_pool(monkeypatch)
    pooled = ParallelExperimentRunner(scale=0.25, jobs=2)
    try:
        pooled.prefetch(grid)
    finally:
        pooled.close()
    assert pooled.summary.shared_cells == serial.summary.shared_cells == 3
    assert pooled.summary.chunks_shipped == 1
    assert pooled.summary.jobs_run - pooled.summary.shared_cells == 1
    for name, spec in grid:
        assert (
            pooled.run_policy(name, spec).as_dict()
            == serial.run_policy(name, spec).as_dict()
        )


def test_plan_grid_empty_grid_yields_clean_empty_plan(monkeypatch):
    """An empty grid plans to nothing: no inline cells, no chunks, zero
    workers (not a degenerate one-chunk plan)."""
    force_pool(monkeypatch, cpus=4)
    plan = scheduler.plan_grid([], [], 8, _SCALE)
    assert plan.inline == []
    assert plan.chunks == []
    assert plan.workers == 0
    assert plan.pooled_jobs == 0


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


def test_plan_grid_caps_workers_at_cpus(monkeypatch):
    cells = _cells(("gzip", "loop"), ("mcf", "loop"), ("twolf", "loop"))
    costs = [5000, 6000, 7000]
    monkeypatch.setattr(scheduler, "usable_cpus", lambda: 1)
    plan = scheduler.plan_grid(cells, costs, 8, _SCALE)
    assert plan.chunks == [] and plan.inline == cells and plan.workers == 0
    monkeypatch.setattr(scheduler, "usable_cpus", lambda: 4)
    plan = scheduler.plan_grid(cells, costs, 8, _SCALE)
    assert plan.pooled_jobs == 3
    assert plan.workers == 3


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


def test_results_bit_identical_across_jobs_and_chunks(monkeypatch):
    serial = _grid_stats(ExperimentRunner(scale=_SCALE, workload_names=_NAMES))
    force_pool(monkeypatch, cpus=4)
    for jobs in (4, 2):
        runner = _runner(jobs=jobs)
        assert _grid_stats(runner) == serial, jobs
        assert runner.summary.chunks_shipped > 0, jobs


def test_warm_pool_reused_across_prefetch_calls_and_runners(monkeypatch):
    force_pool(monkeypatch, cpus=4)
    scheduler.shutdown_pool()
    starts_before = scheduler.pool_starts()
    runner = _runner(jobs=2)
    runner.prefetch(_GRID[:3])
    runner.prefetch(_GRID)
    second = _runner(jobs=2)
    second.prefetch([("twolf", "loop"), ("gzip", "hammock")])
    assert scheduler.pool_starts() == starts_before + 1


def test_cheap_grid_never_touches_the_pool(monkeypatch):
    def _no_pool(*args, **kwargs):
        raise AssertionError("cheap grids must run inline")

    monkeypatch.setattr(scheduler, "warm_pool", _no_pool)
    monkeypatch.setattr(scheduler, "usable_cpus", lambda: 4)
    # scale-0.1 traces are a few thousand instructions: below the
    # default inline threshold, so even jobs=4 with 4 CPUs stays inline.
    runner = _runner(jobs=4)
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
    force_pool(monkeypatch, cpus=4)
    replay = _runner(jobs=4, cache_dir=cache_dir)
    ran = replay.prefetch(_GRID)
    assert ran == 0
    assert replay.summary.cache_hits == len(_GRID)
    assert replay.summary.jobs_run == 0


def test_pooled_traces_byte_identical_to_inline(tmp_path, monkeypatch):
    serial_dir = tmp_path / "serial"
    pooled_dir = tmp_path / "pooled"
    cases = [("gzip", "postdoms"), ("gzip", "loop")]
    serial = _runner(jobs=1, trace_dir=str(serial_dir))
    serial.prefetch(cases)
    force_pool(monkeypatch, cpus=4)
    pooled = _runner(jobs=4, trace_dir=str(pooled_dir))
    pooled.prefetch(cases)
    # One machine, halved across two workers.
    assert pooled.summary.chunks_shipped == 2
    for name, spec in cases:
        cell = Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
        digest = cell.digest(_SCALE)
        with open(trace_path(str(serial_dir), name, spec, digest)) as handle:
            expected = handle.read()
        with open(trace_path(str(pooled_dir), name, spec, digest)) as handle:
            assert handle.read() == expected



def test_pool_workers_compile_block_tables_inside_cell_windows(monkeypatch):
    """Fresh pool workers prepare nothing ahead of their chunks: every
    block table a worker compiles is compiled inside a cell's counter
    window, so the pooled run books as many table lookups as the serial
    run and at least one compile per workload."""
    clear_cache()
    scheduler.shutdown_pool()
    force_pool(monkeypatch)
    pooled = _runner(jobs=2)
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
