"""The one cell executor: every simulated grid cell runs through here.

Each grid cell is one deterministic PolyFlow simulation over one
committed trace.  :func:`run_batch` runs a list of cells in order, one
machine at a time, wherever the call lands: inline in the parent
(:class:`~repro.experiments.parallel.ParallelExperimentRunner`) or in a
warm-pool worker (through
:func:`~repro.experiments.scheduler.execute_chunk`), for one cell or
thousands, plain or instrumented.  It

* **simulates each distinct kernel run once** — in a plain call, each
  cell is keyed from the cell alone, before any core is built, with
  :func:`~repro.experiments.runner.run_key` (workload, machine
  configuration, spawn-unit kind, hint-table contents; e.g.
  ``loopFT`` and ``loopFT+procFT`` on a program without procedure
  fall-through points).  Only the first cell of each run group builds
  a core, from the hint table its key came from; every later cell
  builds none and gets a deep copy of the first one's stats and an
  outcome marked ``shared``;
* **shares warm state per trace** — the post-warm cache hierarchy
  depends on the trace alone (every core builds the default
  :class:`~repro.memory.hierarchy.CacheHierarchy`, and the replay reads
  only trace columns), so it is memoized on the trace object like its
  block table: the first core over a trace of at least
  :data:`WARM_SHARE_MIN_TRACE` instructions runs the O(trace) replay
  via :meth:`~repro.polyflow.core.PolyFlowCore.prewarm`, and every
  later core over it in this process — any policy, machine or call —
  adopts the snapshot with
  :meth:`~repro.polyflow.core.PolyFlowCore.install_warm_state`, which
  is byte-identical to replaying on its own;
* **instruments cells one by one** — with ``emit_metrics``,
  ``trace_dir`` or ``bus_for`` every cell builds its own core on its
  own bus and never shares a kernel run; its trace file is closed and
  its metrics snapshot taken right after its own run;
* **keeps one core alive at a time** — each core is built, run
  to completion with :meth:`~repro.polyflow.core.PolyFlowCore.run` and
  dropped before the next one is built;
* **keeps per-cell accounting exact** — wall-clock seconds and
  block-cache counter movement are measured around each cell's own
  key, build and run (a cell that shares a run is charged only its
  key and its copy).

Statistics are **byte-identical** to
:func:`~repro.experiments.runner.simulate_job`, which builds and warms
every cell on its own and stays the reference the property tests in
``tests/properties/test_gridbatch_identity.py`` compare against.
"""

import copy
import os
import time

#: Traces shorter than this warm lazily inside each run: the warm-cache
#: replay is O(trace) but a snapshot restore is O(cache geometry)
#: (~0.4ms on the paper configuration), so sharing only wins once the
#: replay dwarfs the restore.  Measured crossover on the paper geometry
#: is in the low thousands of instructions.
WARM_SHARE_MIN_TRACE = 4096


def _run(core):
    """Run ``core`` to completion from its trace's post-warm state.

    On a trace of at least :data:`WARM_SHARE_MIN_TRACE` instructions
    the first core replays the warm-up and memoizes its snapshot on
    the trace; every later core installs it.  A shorter trace (or a
    machine without warm caches) warms inside its own run.
    """
    trace = core.trace
    if core.config.warm_caches and len(trace) >= WARM_SHARE_MIN_TRACE:
        snapshot = getattr(trace, "_warm_state", None)
        if snapshot is None:
            trace._warm_state = core.prewarm()
        else:
            core.install_warm_state(snapshot)
    return core.run()


def _instruments(cell, scale, emit_metrics, trace_dir, bus_for):
    """``(bus, aggregator, writer)`` for one instrumented cell: its own
    bus (``bus_for(cell)`` or a fresh one), a metrics aggregator with
    ``emit_metrics``, and with ``trace_dir`` a lifecycle-events JSONL
    writer at :func:`~repro.experiments.scheduler.trace_path`."""
    from repro.experiments.scheduler import trace_path
    from repro.obs import LIFECYCLE_KINDS, EventBus, JsonlTraceWriter, MetricsAggregator

    bus = EventBus() if bus_for is None else bus_for(cell)
    aggregator = (
        bus.attach(MetricsAggregator(), verbose=False) if emit_metrics else None
    )
    writer = None
    if trace_dir is not None:
        os.makedirs(trace_dir or ".", exist_ok=True)
        path = trace_path(trace_dir, cell.workload, cell.spec, cell.digest(scale))
        # Lifecycle kinds only: figure-scale runs stay compact, and the
        # filter needs no verbose (per-instruction) emission.
        writer = bus.attach(
            JsonlTraceWriter(path, kinds=LIFECYCLE_KINDS), verbose=False
        )
    return bus, aggregator, writer


def run_batch(jobs, scale, emit_metrics=False, trace_dir=None, bus_for=None):
    """Run cells one at a time; one outcome per job, aligned.

    ``jobs`` is a list of :class:`~repro.experiments.runner.Cell`\\ s
    (or plain ``(name, spec, config, profile_distance)`` tuples); the
    return value is the aligned list of their
    :class:`~repro.experiments.runner.Outcome`\\ s, ``shared`` when a
    cell's stats are a copy of an identical cell's run.  The
    instruments apply to every cell of the call: ``emit_metrics``
    attaches a metrics aggregator, ``trace_dir`` writes one lifecycle
    trace per cell, and ``bus_for(cell)`` returns a fresh event bus for
    it.  Stats are identical with and without them — the sinks only
    observe.
    """
    from repro.experiments import runner
    from repro.sim.blocks import cache_counters, counters_delta

    instrumented = emit_metrics or trace_dir is not None or bus_for is not None
    runs = {}
    outcomes = []
    for job in jobs:
        cell = runner.Cell(*job)
        name, spec, config, profile_distance = cell
        started = time.perf_counter()
        before = cache_counters()
        metrics = twin = None
        if instrumented:
            bus, aggregator, writer = _instruments(
                cell, scale, emit_metrics, trace_dir, bus_for
            )
            try:
                stats = _run(
                    runner.build_core(
                        name, spec, scale, config, profile_distance, bus=bus
                    )
                )
            finally:
                if writer is not None:
                    writer.close()
            if aggregator is not None:
                metrics = aggregator.as_dict()
        else:
            key = runner.run_key(cell, scale)
            twin = runs.get(key)
            if twin is None:
                core = runner.build_core(
                    name, spec, scale, config, profile_distance, hints=key.hints
                )
                stats = runs[key] = _run(core)
                core = None  # one machine alive at a time
            else:
                stats = copy.deepcopy(twin)
        outcomes.append(
            runner.Outcome(
                stats,
                metrics,
                time.perf_counter() - started,
                counters_delta(before),
                shared=twin is not None,
            )
        )
    return outcomes
