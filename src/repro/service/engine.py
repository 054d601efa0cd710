"""The exploration engine: batched grids over shared hot caches.

One :class:`ExplorationEngine` owns the service's entire simulation
state: a :class:`~repro.experiments.parallel.ParallelExperimentRunner`
per workload scale (all sharing one on-disk result/analysis cache
directory and the process-wide warm worker pool), plus the counters
``/healthz`` reports.  The batch executor thread calls
:meth:`execute_batch` with one admission batch at a time, so runner
state is never touched concurrently.

Execution of a batch is tiered, cheapest first:

1. **Memo** — cells already in a runner's in-memory result memo are
   answered immediately (the always-on process *is* the hot cache).
2. **Disk cache** — content-addressed, sha256-verified
   ``ResultCache`` hits in the cache directory are loaded in the
   parent, never touching the pool.  A damaged entry is never served: it is
   re-simulated and reported as a ``corrupt_cache_entry`` incident.
3. **Simulation** — only genuinely missing cells reach
   ``prefetch``, which cost-schedules them inline or onto the warm
   worker pool.  Duplicate cells across the batch's queries collapse
   to one simulation.

The engine turns each wire cell into a runner
:class:`~repro.experiments.runner.Cell` once, at batch entry.  A cell
memoized before ``prefetch`` is labelled ``memo``; every other label
is the booked outcome's own ``source``, so an answer is labelled by
the tier that actually produced it.

Fault handling is two-layered: the parallel runner itself retries a
broken worker pool once (restarting the pool), and if a *batch-level*
prefetch still fails, the engine degrades to per-cell inline execution
so one poisoned cell (or a dead pool) cannot fail unrelated queries in
the same batch.  Every incident — a corrupt entry, or a dead pool
worker — is surfaced in ``/healthz`` and as an ``incident`` progress
event.
"""

import threading
import time

from repro.experiments import scheduler
from repro.experiments.parallel import ParallelExperimentRunner, RunSummary
from repro.experiments.runner import Cell
from repro.obs import EventBus, CallbackSink, service_event
from repro.service import wire

#: Per-simulation cap on bridged lifecycle events.  Inline simulations
#: stream their bus lifecycle events into the journal; past the cap a
#: single ``sim.truncated`` marker is published instead, keeping the
#: /events stream bounded for long workloads.
DEFAULT_SIM_EVENT_LIMIT = 64


class _ServiceRunner(ParallelExperimentRunner):
    """A parallel runner that bridges inline-simulation bus events.

    Its ``bus_for`` factory gives every *inline* simulation a fresh
    non-verbose :class:`EventBus` whose lifecycle events are forwarded
    (bounded, cell-tagged) into the service journal; a cell with a bus
    never shares a kernel run.  Pooled chunks run in
    worker processes and are reported at chunk granularity instead.
    A non-verbose bridge keeps ``bus.verbose`` False, so engine
    selection — and therefore the stats — is untouched.
    """

    def __init__(self, *args, journal=None, sim_event_limit=0, **kwargs):
        super().__init__(*args, **kwargs)
        self._journal = journal
        self._sim_event_limit = sim_event_limit
        if journal is not None and sim_event_limit > 0:
            self.bus_for = self._bridge_bus

    def _bridge_bus(self, cell):
        name, spec = cell.workload, cell.spec
        bus = EventBus()
        budget = [self._sim_event_limit]

        def forward(event):
            if budget[0] == 0:
                return
            budget[0] -= 1
            payload = event.as_dict()
            if budget[0] == 0:
                payload = service_event(
                    "sim.truncated",
                    workload=name,
                    spec=spec,
                    limit=self._sim_event_limit,
                )
            else:
                payload = dict(payload)
                payload["kind"] = "sim." + payload["kind"]
                payload["workload"] = name
                payload["spec"] = spec
            self._journal.publish(payload)

        bus.attach(CallbackSink(forward), verbose=False)
        return bus


class ExplorationEngine:
    """Owns the per-scale runner fleet and executes admission batches."""

    def __init__(
        self,
        jobs=1,
        cache_dir=None,
        journal=None,
        sim_event_limit=DEFAULT_SIM_EVENT_LIMIT,
    ):
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.journal = journal
        self.sim_event_limit = sim_event_limit
        self._runners = {}
        self._lock = threading.Lock()
        #: Batch/query/cell telemetry for ``/healthz``.
        self.batches_executed = 0
        self.queries_served = 0
        self.queries_failed = 0
        self.cells_served = 0
        self.cells_deduped = 0
        #: Unique per-batch cell outcomes by source; duplicates of a
        #: cell *within* one batch collapse to a single outcome, so the
        #: counts total ``cells_served - cells_deduped`` (the work the
        #: engine actually performed, not the answers it handed out).
        self.cells_by_source = {
            wire.SOURCE_MEMO: 0,
            wire.SOURCE_CACHE: 0,
            wire.SOURCE_SIMULATED: 0,
            wire.SOURCE_ESTIMATED: 0,
            wire.SOURCE_ERROR: 0,
        }
        self.batches_degraded = 0

    def _publish(self, event):
        if self.journal is not None:
            self.journal.publish(event)

    def runner_for(self, scale):
        """The (created-on-demand) runner serving ``scale``."""
        with self._lock:
            runner = self._runners.get(scale)
            if runner is None:
                runner = _ServiceRunner(
                    scale=scale,
                    jobs=self.jobs,
                    cache_dir=self.cache_dir,
                    journal=self.journal,
                    sim_event_limit=self.sim_event_limit,
                )
                self._runners[scale] = runner
            return runner

    # -- batch execution ----------------------------------------------------------

    def execute_batch(self, batch):
        """Run one admission batch and resolve every query future.

        Cells are deduplicated across the whole batch per scale, then
        executed tier-by-tier (memo, disk cache, simulation).  Every
        future is resolved — with a response, or with the error that
        made its query unanswerable.
        """
        started = time.perf_counter()
        self.batches_executed += 1
        groups = {}
        cells = {}
        total_cells = 0
        for index, query in enumerate(batch):
            if query.estimate:
                # Estimate-mode queries never join the simulation
                # tiers; they are answered analytically below.
                continue
            distance = self.runner_for(query.scale).config.max_spawn_distance
            cells[index] = [
                Cell(cell.workload, cell.spec, cell.config, distance)
                for cell in query.cells
            ]
            total_cells += len(cells[index])
            groups.setdefault(query.scale, {}).update(dict.fromkeys(cells[index]))
        unique_cells = sum(len(group) for group in groups.values())
        self.cells_deduped += total_cells - unique_cells
        self._publish(
            service_event(
                "batch_start",
                queries=len(batch),
                cells=total_cells,
                unique_cells=unique_cells,
                scales=sorted(groups),
            )
        )

        outcomes = {}
        for scale, group in sorted(groups.items()):
            outcomes[scale] = self._execute_group(scale, group)

        # Counters and the batch_done event must be final before any
        # client unblocks: a client that answers and immediately reads
        # /events or /healthz sees its own batch accounted for.
        responses = {}
        failures = {}
        for index, query in enumerate(batch):
            if query.future.done():
                continue
            try:
                if query.estimate:
                    responses[index] = self._build_estimate_response(
                        query, batch_size=len(batch)
                    )
                else:
                    responses[index] = self._build_response(
                        query, cells[index], outcomes[query.scale], len(batch)
                    )
                self.queries_served += 1
                self.cells_served += len(query.cells)
            except Exception as error:  # pragma: no cover - defensive
                self.queries_failed += 1
                failures[index] = error

        self._publish(
            service_event(
                "batch_done",
                queries=len(batch),
                unique_cells=unique_cells,
                wall_seconds=round(time.perf_counter() - started, 6),
            )
        )

        for index, query in enumerate(batch):
            if index in responses:
                query.future.set_result(responses[index])
            elif index in failures:
                query.future.set_exception(failures[index])

    def _execute_group(self, scale, group):
        """Execute one scale's deduplicated cells; returns per-cell outcome.

        The outcome maps each cell to ``(source, stats_or_error)``.  A
        batch-level prefetch failure degrades to per-cell inline
        execution so independent cells still succeed.
        """
        runner = self.runner_for(scale)
        memo = {cell for cell in group if cell in runner._results}
        corrupt_before = set(runner.summary.corrupt_entries)
        incidents_before = len(runner.summary.incidents)
        errors = {}
        try:
            runner.prefetch([cell for cell in group if cell not in memo])
        except Exception as error:
            self.batches_degraded += 1
            self._publish(
                service_event(
                    "batch_degraded", scale=scale, reason=str(error)
                )
            )
            for cell in group:
                if cell in runner._results:
                    continue
                try:
                    runner.run_with_config(*cell)
                except Exception as cell_error:
                    errors[cell] = str(cell_error)

        self._report_incidents(runner, scale, corrupt_before, incidents_before)

        outcome = {}
        for cell in group:
            if cell in errors or cell not in runner._results:
                message = errors.get(cell, "cell was not materialized")
                outcome[cell] = (wire.SOURCE_ERROR, message)
                self.cells_by_source[wire.SOURCE_ERROR] += 1
                self._publish(
                    service_event(
                        "cell_error",
                        workload=cell.workload,
                        spec=cell.spec,
                        scale=scale,
                        error=message,
                    )
                )
                continue
            booked = runner._results[cell]
            source = wire.SOURCE_MEMO if cell in memo else booked.source
            outcome[cell] = (source, booked.stats)
            self.cells_by_source[source] += 1
        return outcome

    def _report_incidents(self, runner, scale, corrupt_before, incidents_before):
        for path in runner.summary.corrupt_entries:
            if path not in corrupt_before:
                self._publish(
                    service_event(
                        "incident", type="corrupt_cache_entry", scale=scale, path=path
                    )
                )
        for _ in runner.summary.incidents[incidents_before:]:
            self._publish(
                service_event("incident", type="pool_restart", scale=scale)
            )

    def _build_response(self, query, cells, outcome, batch_size):
        results = []
        counts = {
            wire.SOURCE_MEMO: 0,
            wire.SOURCE_CACHE: 0,
            wire.SOURCE_SIMULATED: 0,
            wire.SOURCE_ERROR: 0,
        }
        from repro.polyflow.config import config_fingerprint

        for cell, key in zip(query.cells, cells):
            source, payload = outcome[key]
            counts[source] += 1
            entry = {
                "workload": cell.workload,
                "spec": cell.spec,
                "config_fingerprint": config_fingerprint(cell.config),
                "source": source,
            }
            if source == wire.SOURCE_ERROR:
                entry["error"] = payload
            else:
                entry["stats"] = wire.encode_stats(payload)
            results.append(entry)
        return {
            "schema": wire.WIRE_SCHEMA_VERSION,
            "scale": query.scale,
            "results": results,
            "batch": {
                "queries": batch_size,
                "cells": len(query.cells),
                "memo_hits": counts[wire.SOURCE_MEMO],
                "cache_hits": counts[wire.SOURCE_CACHE],
                "simulated": counts[wire.SOURCE_SIMULATED],
                "estimated": 0,
                "errors": counts[wire.SOURCE_ERROR],
            },
        }

    def _build_estimate_response(self, query, batch_size):
        """Answer one estimate-mode query analytically (no simulation)."""
        from repro.analysis.estimate import estimate_speedup
        from repro.polyflow.config import config_fingerprint

        runner = self.runner_for(query.scale)
        results = []
        estimated = errors = 0
        for cell in query.cells:
            entry = {
                "workload": cell.workload,
                "spec": cell.spec,
                "config_fingerprint": config_fingerprint(cell.config),
            }
            try:
                estimate = estimate_speedup(
                    cell.workload, cell.spec, query.scale, cell.config
                )
            except Exception as error:
                entry["source"] = wire.SOURCE_ERROR
                entry["error"] = str(error)
                errors += 1
                self.cells_by_source[wire.SOURCE_ERROR] += 1
            else:
                entry["source"] = wire.SOURCE_ESTIMATED
                entry["estimate"] = wire.encode_estimate(estimate)
                estimated += 1
                self.cells_by_source[wire.SOURCE_ESTIMATED] += 1
            results.append(entry)
        if estimated:
            runner.summary.record_estimated(estimated)
        return {
            "schema": wire.WIRE_SCHEMA_VERSION,
            "scale": query.scale,
            "results": results,
            "batch": {
                "queries": batch_size,
                "cells": len(query.cells),
                "memo_hits": 0,
                "cache_hits": 0,
                "simulated": 0,
                "estimated": estimated,
                "errors": errors,
            },
        }

    def close(self):
        """Shut the warm pool down (the next batch would fork a fresh
        one)."""
        with self._lock:
            runners = list(self._runners.values())
        for runner in runners:
            runner.close()

    # -- telemetry ----------------------------------------------------------------

    def summary(self):
        """One :class:`RunSummary` over every scale runner's records."""
        with self._lock:
            runners = list(self._runners.values())
        return RunSummary.merged(runner.summary for runner in runners)

    def summary_dict(self):
        """The merged summary's ``as_dict()``; empty before the first
        batch creates a runner."""
        return self.summary().as_dict() if self._runners else {}

    def snapshot(self):
        """The engine fragment of ``/healthz``.  ``pool_restarts``
        counts dead pool workers."""
        summary = self.summary_dict()
        return {
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "scales": sorted(self._runners),
            "batches": {
                "executed": self.batches_executed,
                "degraded": self.batches_degraded,
            },
            "queries": {
                "served": self.queries_served,
                "failed": self.queries_failed,
            },
            "cells": {
                "served": self.cells_served,
                "deduped": self.cells_deduped,
                "by_source": dict(self.cells_by_source),
            },
            "incidents": {
                "corrupt_cache_entries": summary.get("corrupt_cache_entries", 0),
                "pool_restarts": len(self.summary().incidents),
            },
            "pool_starts": scheduler.pool_starts(),
            "summary": summary,
        }
