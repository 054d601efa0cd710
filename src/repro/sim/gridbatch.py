"""Tier B of the grid execution stack: the grid-batch lockstep runner.

The per-cell dispatch path pays fixed costs once per grid cell: a
``build_core`` (hint-table materialization, block-table binding), a
warm-cache replay over the whole trace, and — on the pooled path — a
pickle round-trip per chunk.  For the synthesized catalog those fixed
costs rival the simulations themselves: thousands of *same-scale*
cells, each retiring a few thousand instructions.

This module batches them.  :func:`run_batch` takes one chunk of plain
cells (no metrics, no trace file, no event bus — exactly the cells the
event-calendar kernel accepts) and:

* **simulates each distinct machine once** — cells whose cores have
  the same :func:`~repro.experiments.runner.simulation_key` (workload,
  machine configuration, spawn-unit class, hint-table contents; e.g.
  ``loopFT`` and ``loopFT+procFT`` on a program without procedure
  fall-through points) share one kernel run, and each later cell gets
  a deep copy of the first one's stats;
* **shares warm state per trace** — the first cell of each
  (workload, machine geometry) group runs the O(trace) warm-cache
  replay via :meth:`~repro.polyflow.core.PolyFlowCore.prewarm`; its
  siblings adopt the resulting hierarchy snapshot with
  :meth:`~repro.polyflow.core.PolyFlowCore.install_warm_state`, which
  is byte-identical to replaying on their own;
* **advances live cells in lockstep** — every cell's
  :meth:`~repro.polyflow.core.PolyFlowCore.run_incremental` generator
  is stepped round-robin, :data:`DEFAULT_STRIDE` calendar events at a
  time, and finished cells retire from the rotation immediately (a
  straggler never holds idle siblings' memory live longer than its own
  run);
* **keeps per-cell accounting exact** — each generator step advances
  exactly one cell, so wall-clock seconds and block-cache counter
  movement are measured around the steps themselves rather than
  apportioned from a batch total (a cell that shares a run is charged
  only its own ``build_core``).

Statistics are **byte-identical** to the per-cell path: the lockstep
driver only changes *when* each cell's next slice of work runs, never
what it computes, and sharing only skips runs that would repeat an
identical machine (pinned by the property tests in
``tests/properties/test_gridbatch_identity.py``).

Every chunk of two or more plain cells runs here; cells that carry
observability instruments always take the per-cell path of
:func:`~repro.experiments.scheduler.execute_job`, which stays the
reference the identity tests compare against.
"""

import copy
import time

#: Event-calendar steps each cell advances per lockstep turn.  Large
#: enough that generator suspension cost is noise, small enough that a
#: 50-cell batch rotates several times per typical catalog trace.
DEFAULT_STRIDE = 4096

#: Fewer plain cells than this run per-cell: batching cannot amortize
#: anything over a single simulation.
MIN_BATCH_CELLS = 2

#: Traces shorter than this warm lazily even when siblings share the
#: trace: the warm-cache replay is O(trace) but a snapshot restore is
#: O(cache geometry) (~0.4ms on the paper configuration), so sharing
#: only wins once the replay dwarfs the restore.  Measured crossover
#: on the paper geometry is in the low thousands of instructions.
WARM_SHARE_MIN_TRACE = 4096

#: ``blocks`` key marking a cell whose stats were copied from an
#: identical cell's run in the same batch (see :func:`run_batch`).
SHARED_RUN = "shared_run"


def batchable(emit_metrics, trace_file=None, bus=None):
    """Whether one cell may join a lockstep batch.

    Instrumented cells (metrics aggregators, lifecycle trace files,
    caller-provided buses) keep the per-cell path: their sinks assume
    one simulation owns the process-global observability stream at a
    time.
    """
    return not emit_metrics and trace_file is None and bus is None


class _BatchCell:
    """One cell: its core, generator and accounting — or, when an earlier
    cell runs the same machine, just the ``twin`` whose run answers it."""

    __slots__ = ("core", "generator", "seconds", "blocks", "stats", "twin")

    def __init__(self, core, seconds, blocks):
        self.core = core
        self.generator = None
        self.seconds = seconds
        self.blocks = blocks
        self.stats = None
        self.twin = None


def _merge_blocks(into, delta):
    for key, value in delta.items():
        into[key] = into.get(key, 0) + value


def run_batch(jobs, scale, stride=DEFAULT_STRIDE):
    """Run plain cells in lockstep; one outcome tuple per job, aligned.

    ``jobs`` is a list of ``(name, spec, config, profile_distance)``
    tuples; the return value is the aligned list of
    ``(stats, None, seconds, blocks)`` outcomes —  the same shape
    :func:`repro.experiments.scheduler.execute_job` reports for a
    plain cell, so callers book batch results through the exact same
    path.  A cell whose stats are a copy of an identical cell's run
    has ``blocks[SHARED_RUN] == 1``.
    """
    from repro.experiments.runner import build_core, simulation_key
    from repro.sim.blocks import cache_counters, counters_delta

    # One kernel run per distinct machine: the first cell of each
    # simulation key runs, later cells with the same key only pay
    # their own build_core and copy the first cell's stats at the end.
    cells = []
    runs = {}
    for name, spec, config, profile_distance in jobs:
        started = time.perf_counter()
        before = cache_counters()
        core = build_core(name, spec, scale, config, profile_distance)
        cell = _BatchCell(core, time.perf_counter() - started, counters_delta(before))
        key = simulation_key(name, core)
        if key in runs:
            cell.core = None
            cell.twin = runs[key]
            cell.blocks[SHARED_RUN] = 1
        else:
            runs[key] = cell
            cell.generator = core.run_incremental(stride)
        cells.append(cell)

    # One warm-cache replay per (trace, machine geometry) *group*: the
    # first cell replays via prewarm and its siblings adopt the LRU
    # snapshot, which restores byte-identical state.  A cell with no
    # sibling — or one whose trace is too short for the replay to cost
    # more than a snapshot restore — warms lazily inside its first
    # lockstep step instead: snapshotting a hierarchy nobody reuses
    # (or one cheaper to rebuild than restore) is pure overhead.
    group_counts = {}
    for key in runs:
        group_counts[key[:2]] = group_counts.get(key[:2], 0) + 1
    warm_snapshots = {}
    for key, cell in runs.items():
        group = key[:2]  # (workload, config fingerprint)
        if group_counts[group] < 2 or len(cell.core.trace) < WARM_SHARE_MIN_TRACE:
            continue
        started = time.perf_counter()
        snapshot = warm_snapshots.get(group)
        if snapshot is None:
            warm_snapshots[group] = cell.core.prewarm()
        else:
            cell.core.install_warm_state(snapshot)
        cell.seconds += time.perf_counter() - started

    # Lockstep rotation: pop, advance one stride, re-append while live.
    # Steps are sequential, so measuring around each step attributes
    # seconds and block-counter movement to exactly one cell.
    live = list(runs.values())
    while live:
        still_running = []
        for cell in live:
            started = time.perf_counter()
            before = cache_counters()
            try:
                next(cell.generator)
            except StopIteration:
                cell.stats = cell.core.stats
            else:
                still_running.append(cell)
            cell.seconds += time.perf_counter() - started
            _merge_blocks(cell.blocks, counters_delta(before))
        live = still_running
    for cell in cells:
        if cell.twin is not None:
            cell.stats = copy.deepcopy(cell.twin.stats)
    return [(cell.stats, None, cell.seconds, cell.blocks) for cell in cells]
