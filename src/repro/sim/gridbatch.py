"""Tier B of the grid execution stack: the grid-batch runner.

The per-cell dispatch path pays fixed costs once per grid cell: a
``build_core`` (hint-table materialization, block-table binding), a
warm-cache replay over the whole trace, and — on the pooled path — a
pickle round-trip per chunk.  For the synthesized catalog those fixed
costs rival the simulations themselves: thousands of *same-scale*
cells, each retiring a few thousand instructions.

This module batches them.  :func:`run_batch` takes one chunk of plain
cells (run with no metrics, no trace directory and no event bus —
exactly the runs the event-calendar kernel accepts) and walks it in
order, one machine at a time:

* **simulates each distinct machine once** — cells whose cores have
  the same :func:`~repro.experiments.runner.simulation_key` (workload,
  machine configuration, spawn-unit class, hint-table contents; e.g.
  ``loopFT`` and ``loopFT+procFT`` on a program without procedure
  fall-through points) share one kernel run, and each later cell gets
  a deep copy of the first one's stats and an outcome marked
  ``shared``;
* **shares warm state per trace** — the first cell of each
  (workload, machine geometry) group runs the O(trace) warm-cache
  replay via :meth:`~repro.polyflow.core.PolyFlowCore.prewarm`; its
  siblings adopt the resulting hierarchy snapshot with
  :meth:`~repro.polyflow.core.PolyFlowCore.install_warm_state`, which
  is byte-identical to replaying on their own;
* **keeps one core alive at a time** — each cell's core is built, run
  to completion with :meth:`~repro.polyflow.core.PolyFlowCore.run` and
  dropped before the next cell's is built, so a batch's footprint is
  one machine plus the warm snapshots its remaining cells still need;
* **keeps per-cell accounting exact** — wall-clock seconds and
  block-cache counter movement are measured around each cell's own
  build and run (a cell that shares a run is charged only its own
  ``build_core``).

Statistics are **byte-identical** to the per-cell path: sharing only
skips runs that would repeat an identical machine or warm-up (pinned
by the property tests in ``tests/properties/test_gridbatch_identity.py``).

:func:`~repro.experiments.scheduler.run_cells` sends every call of
two or more cells here when it runs them without instruments,
wherever it runs (the parent, a pool worker or a fabric worker);
instrumented calls always take the per-cell path of
:func:`~repro.experiments.scheduler.execute_job`, which stays the
reference the identity tests compare against.
"""

import collections
import copy
import time

#: Fewer plain cells than this run per-cell: batching cannot amortize
#: anything over a single simulation.
MIN_BATCH_CELLS = 2

#: Traces shorter than this warm lazily even when siblings share the
#: trace: the warm-cache replay is O(trace) but a snapshot restore is
#: O(cache geometry) (~0.4ms on the paper configuration), so sharing
#: only wins once the replay dwarfs the restore.  Measured crossover
#: on the paper geometry is in the low thousands of instructions.
WARM_SHARE_MIN_TRACE = 4096

def _warm_group(name, spec, config):
    """The (workload, config fingerprint) a cell's core will carry:
    ``simulation_key(...)[:2]``, known before the core is built."""
    from repro.experiments.runner import SUPERSCALAR_SPEC
    from repro.polyflow import superscalar_config
    from repro.polyflow.config import config_fingerprint
    from repro.spawn import canonical_spec

    if canonical_spec(spec) == SUPERSCALAR_SPEC:
        config = superscalar_config(config)
    return name, config_fingerprint(config)


def run_batch(jobs, scale):
    """Run plain cells one at a time; one outcome per job, aligned.

    ``jobs`` is a list of :class:`~repro.experiments.runner.Cell`\\ s
    (or plain ``(name, spec, config, profile_distance)`` tuples); the
    return value is the aligned list of
    :class:`~repro.experiments.runner.Outcome`\\ s, each ``batched``,
    and ``shared`` when its stats are a copy of an identical cell's run.
    """
    from repro.experiments.runner import Outcome, build_core, simulation_key
    from repro.sim.blocks import cache_counters, counters_delta

    # Cells still to come per warm group: a group's first cell
    # snapshots its warm hierarchy only when siblings follow, and the
    # snapshot is dropped once the last of them has been built.  A lone
    # cell — or one whose trace is too short for the replay to cost
    # more than a snapshot restore — warms lazily inside its own run.
    pending = collections.Counter(_warm_group(*job[:3]) for job in jobs)
    warm_snapshots = {}
    runs = {}
    outcomes = []
    for name, spec, config, profile_distance in jobs:
        started = time.perf_counter()
        before = cache_counters()
        core = build_core(name, spec, scale, config, profile_distance)
        key = simulation_key(name, core)
        group = key[:2]  # (workload, config fingerprint)
        twin = runs.get(key)
        if twin is None:
            if len(core.trace) >= WARM_SHARE_MIN_TRACE:
                snapshot = warm_snapshots.get(group)
                if snapshot is not None:
                    core.install_warm_state(snapshot)
                elif pending[group] > 1:
                    warm_snapshots[group] = core.prewarm()
            runs[key] = core.run()
        core = None  # one machine alive at a time
        pending[group] -= 1
        if pending[group] <= 0:
            warm_snapshots.pop(group, None)
        seconds = time.perf_counter() - started
        stats = runs[key] if twin is None else copy.deepcopy(twin)
        outcomes.append(
            Outcome(
                stats,
                seconds=seconds,
                blocks=counters_delta(before),
                batched=True,
                shared=twin is not None,
            )
        )
    return outcomes
