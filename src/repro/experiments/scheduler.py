"""Batched grid scheduler: warm pools, one chunk per machine.

PR 3's fast-path kernel made individual simulations cheap enough that
the original one-future-per-cell fan-out lost to serial execution: each
grid cell paid a pool ``submit``, a per-worker analysis load, and a
full pickled :class:`~repro.polyflow.stats.SimStats` round-trip.  This
module replaces that with a scheduler that treats the grid as a batch:

* **Warm worker pool** — one module-level
  :class:`~concurrent.futures.ProcessPoolExecutor` (fork start method
  where available) reused across ``prefetch`` calls within a process.
  A fork start inherits the parent's memoized analyses for free; a
  worker prepares anything else the first time one of its cells needs
  it, inside that cell's counter window.

* **Cost model** — a grid cell's estimated cost is its workload's
  committed-trace length, which the content-keyed
  :class:`~repro.analysis.pipeline.AnalysisCache` has already computed
  by the time the cell is scheduled (estimating the cost of a cache
  miss prepares the program the simulation needs anyway).  A run
  group — the pooled cells of one
  :func:`~repro.experiments.runner.run_key` — costs one trace, however
  many cells share it: its later cells are charged only their key and
  their copy.

* **One chunk per machine, split by run group** — only pooled cells
  are keyed, from the cell alone and after the inline split.  Cells of
  one key form a run group, and the groups of one machine (the key's
  workload and machine fingerprint) form one chunk, so every cell that
  could share a kernel run lands in one
  :func:`~repro.sim.gridbatch.run_batch` call, exactly as in a serial
  run.  Each chunk ships as *one* pickle, longest-expected-first; a
  grid of fewer machines than workers has its costliest chunks halved
  at a group boundary until every worker has one, and a chunk of one
  group is never halved.

* **Cheap-cell short-circuit** — cells whose estimated cost falls
  below :data:`INLINE_COST_THRESHOLD` run inline in the parent, so
  tiny grids (and single-core machines, where a process pool can only
  add overhead) never pay pool spin-up at all.

* **Slim transport** — workers return compact stat tuples
  (:func:`pack_stats`) rather than full pickled ``SimStats`` objects;
  the parent reconstructs bit-identical stats with
  :func:`unpack_stats`.

* **One executor** — :func:`~repro.sim.gridbatch.run_batch` runs
  every cell, wherever it lands: the parent calls it for its inline
  cells, pool workers through :func:`execute_chunk`, which
  :func:`stream_chunks` submits.
  Cells carry no instruments: metrics emission, a trace directory and
  a bus factory are arguments of the call.  It reports one
  :class:`~repro.experiments.runner.Outcome` per cell.

Scheduling never changes results: every cell is a deterministic
simulation keyed by its :class:`~repro.experiments.runner.Cell`, and
the parent merges outcomes into a cell-keyed memo, so output is
bit-identical to serial under every ``--jobs`` value and completion
order.
"""

import atexit
import os
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.analysis.pipeline import configure_disk_cache
from repro.experiments.runner import run_key
from repro.spawn import canonical_spec

#: Cells whose estimated cost (committed-trace instructions) falls
#: below this run inline in the parent: at fast-path kernel speed such
#: a simulation finishes in tens of milliseconds, below what a pool
#: round-trip can amortize.
INLINE_COST_THRESHOLD = 5000


def usable_cpus():
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- cost model -------------------------------------------------------------------


def job_cost(name, scale):
    """Estimated cost of one grid cell: its committed-trace length.

    Simulation time is linear in committed instructions (the kernel
    retires the whole trace), so the trace length is the cost unit.
    The policy spec does not enter: every policy retires the same
    trace.  Only cells left to run are costed (cached ones were booked
    before planning).  Three tiers, cheapest sufficient one wins:

    1. a cached exact length (preparation memo, or the analysis
       cache's memory/disk layers) — free and exact;
    2. the closed-form structural estimate of
       :func:`repro.analysis.estimate.estimated_trace_length` for
       synthesized catalog scenarios — ~20% relative error, which
       only orders chunks, and it spares a cold sweep from preparing
       every cell up front just to cost it;
    3. preparing the workload (named workloads on a cold cache only —
       the handful of paper benchmarks, never the 2592-cell catalog).
    """
    from repro.analysis.estimate import estimated_trace_length
    from repro.workloads.suite import (
        peek_workload_trace_length,
        workload_trace_length,
    )

    cached = peek_workload_trace_length(name, scale)
    if cached is not None:
        return cached
    estimated = estimated_trace_length(name, scale)
    if estimated is not None:
        return estimated
    return workload_trace_length(name, scale)


# -- slim result transport --------------------------------------------------------

#: ``SimStats`` attributes that need container-aware packing.
_PACK_CONTAINERS = ("spawns_by_category", "cache_stats")


def pack_stats(stats):
    """Compact picklable payload of one ``SimStats`` (see ``unpack_stats``).

    Plain counters are shipped as a sorted attribute tuple and the two
    container attributes as item tuples — no class instance, no
    defaultdict machinery — one flat pickle per result.  Packing is
    attribute-generic, so counters added to ``SimStats.__init__`` are
    carried automatically.
    """
    plain = tuple(
        sorted(
            (
                (name, value)
                for name, value in vars(stats).items()
                if name not in _PACK_CONTAINERS
            ),
            key=lambda item: item[0],
        )
    )
    spawns = tuple(
        sorted(stats.spawns_by_category.items(), key=lambda item: str(item[0]))
    )
    cache = tuple(sorted(stats.cache_stats.items(), key=lambda item: str(item[0])))
    return plain, spawns, cache


def unpack_stats(payload):
    """Reconstruct the exact ``SimStats`` :func:`pack_stats` flattened."""
    from repro.polyflow.stats import SimStats

    plain, spawns, cache = payload
    stats = SimStats()
    for name, value in plain:
        setattr(stats, name, value)
    stats.spawns_by_category.update(dict(spawns))
    stats.cache_stats = dict(cache)
    return stats


# -- chunk planning ---------------------------------------------------------------


class GridSchedule:
    """The executable plan for one pending grid.

    ``inline`` cells run in the parent (cheap cells and any grid the
    pool cannot help); ``chunks`` is a longest-expected-first list of
    job lists for the warm pool of ``workers`` workers.
    """

    __slots__ = ("inline", "chunks", "workers")

    def __init__(self, inline, chunks, workers):
        self.inline = inline
        self.chunks = chunks
        self.workers = workers

    @property
    def pooled_jobs(self):
        return sum(len(chunk) for chunk in self.chunks)


def split_inline(jobs, costs, workers, inline_threshold=INLINE_COST_THRESHOLD):
    """Partition cells into parent-inline and pool-worthy lists.

    Cells cheaper than ``inline_threshold`` stay in the parent.  When
    fewer than two cells remain for the pool — or fewer than two
    workers are available (a single-core machine, or ``--jobs 1``) —
    everything runs inline: a pool could only add overhead.

    Returns ``(inline_jobs, pooled_jobs, pooled_costs)``.
    """
    inline, pooled, pooled_costs = [], [], []
    for job, cost in zip(jobs, costs):
        if cost < inline_threshold:
            inline.append(job)
        else:
            pooled.append(job)
            pooled_costs.append(cost)
    if workers < 2 or len(pooled) < 2:
        return list(jobs), [], []
    return inline, pooled, pooled_costs


def _machine_chunks(cells, costs, workers, scale):
    """One chunk per machine, costliest first: a list of run groups,
    each costed once, halved between groups while workers are idle."""
    machines = {}
    for cell, cost in zip(cells, costs):
        key = run_key(cell, scale)
        groups = machines.setdefault((key.workload, key.machine), {})
        groups.setdefault(key, [cost, []])[1].append(cell)
    chunks = [list(groups.values()) for groups in machines.values()]

    def chunk_cost(chunk):
        return sum(cost for cost, _ in chunk)

    while len(chunks) < workers:
        splittable = [index for index, chunk in enumerate(chunks) if len(chunk) > 1]
        if not splittable:
            break
        index = max(splittable, key=lambda i: chunk_cost(chunks[i]))
        chunk = chunks[index]
        half = len(chunk) // 2
        chunks[index : index + 1] = [chunk[:half], chunk[half:]]
    chunks.sort(key=lambda chunk: -chunk_cost(chunk))
    return [[cell for _, group in chunk for cell in group] for chunk in chunks]


def plan_grid(jobs, costs, jobs_requested, scale):
    """Plan one pending grid at ``scale``: inline split plus one chunk
    per machine, split only between run groups (see the module notes).

    The worker count is capped at the process's usable CPUs, so
    ``--jobs 4`` on a one-core container degrades to the inline path
    instead of forking workers that can only time-slice.
    :func:`usable_cpus` and the threshold are read per call (tests
    patch them to force the pool); an empty grid yields an empty plan
    without consulting either.
    """
    if not jobs:
        return GridSchedule([], [], 0)
    workers = max(1, min(jobs_requested, usable_cpus()))
    inline, pooled, pooled_costs = split_inline(
        jobs, costs, workers, INLINE_COST_THRESHOLD
    )
    chunks = _machine_chunks(pooled, pooled_costs, workers, scale)
    workers = min(workers, len(chunks)) if chunks else 0
    return GridSchedule(inline, chunks, workers)


# -- the warm worker pool ---------------------------------------------------------

_POOL = None
_POOL_WORKERS = 0
_POOL_STARTS = 0


def _fork_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None  # pragma: no cover - non-fork platforms


def warm_pool(workers):
    """The persistent worker pool, creating or growing it as needed.

    The pool is module-level and reused across ``prefetch`` calls (and
    across runners): a pool with at least ``workers`` workers is
    returned as-is, a smaller one is replaced.  Worker state stays
    valid across grids because chunks re-assert their disk-cache
    configuration and workloads are content-keyed.
    """
    global _POOL, _POOL_WORKERS, _POOL_STARTS
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    shutdown_pool()
    keyword_arguments = {}
    context = _fork_context()
    if context is not None:
        keyword_arguments["mp_context"] = context
    _POOL = ProcessPoolExecutor(max_workers=workers, **keyword_arguments)
    _POOL_WORKERS = workers
    _POOL_STARTS += 1
    return _POOL


def pool_starts():
    """How many pools this process has created (warm-reuse telemetry)."""
    return _POOL_STARTS


def shutdown_pool():
    """Tear down the warm pool (tests; registered atexit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def stream_chunks(plan, scale, analysis_dir, emit_metrics, trace_dir):
    """Submit every chunk of ``plan`` to the warm pool; yield
    ``(chunk_index, outcomes)`` as chunks finish.

    The outcomes are :func:`execute_chunk`'s, stats still packed.  A
    dead worker surfaces as ``BrokenProcessPool`` from the chunk that
    hit it; outcomes already yielded stay with the caller.
    """
    pool = warm_pool(plan.workers)
    futures = {
        pool.submit(
            execute_chunk, analysis_dir, scale, emit_metrics, trace_dir, chunk
        ): index
        for index, chunk in enumerate(plan.chunks)
    }
    for future in as_completed(futures):
        yield futures[future], future.result()


# -- worker-side execution --------------------------------------------------------


def trace_path(trace_dir, name, spec, digest):
    """The lifecycle-trace filename for one cell under ``--trace-dir``.

    The digest prefix disambiguates identical (workload, spec) pairs
    run under different machine configurations (the ablation sweeps).
    """
    filename = "{}.{}.{}.events.jsonl".format(
        name, canonical_spec(spec).replace("/", "_"), digest[:8]
    )
    return os.path.join(trace_dir, filename)


def execute_chunk(analysis_dir, scale, emit_metrics, trace_dir, cells):
    """Worker entry point: run one chunk of cells, one pickle each way.

    Returns the aligned outcomes of
    :func:`~repro.sim.gridbatch.run_batch` with their stats packed by
    :func:`pack_stats`.  The disk-cache configuration is re-asserted
    per chunk, ``None`` included, because the warm pool outlives any
    single runner (whose cache directory may differ).
    """
    from repro.sim import gridbatch

    configure_disk_cache(analysis_dir)
    return [
        outcome._replace(stats=pack_stats(outcome.stats))
        for outcome in gridbatch.run_batch(cells, scale, emit_metrics, trace_dir)
    ]
