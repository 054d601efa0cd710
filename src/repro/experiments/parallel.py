"""Parallel experiment execution with an on-disk result cache.

The paper's evaluation sweeps 12 benchmarks across ~14 policy specs
plus a superscalar baseline — an embarrassingly parallel grid of
independent cycle-level simulations.
:meth:`ParallelExperimentRunner.prefetch` runs every pending cell of
such a grid, one or many, through one dispatch loop:

1. **load or pend** each cell with
   :meth:`~ParallelExperimentRunner.pending`: a usable cache entry is
   booked at once, every other cell is pending;
2. **cost** the pending cells with
   :func:`~repro.experiments.scheduler.job_cost` and **plan** them once
   with :func:`~repro.experiments.scheduler.plan_grid`: cheap cells
   inline in the parent, the rest keyed by kernel run and shipped as
   one chunk per machine, costliest first, halved only between run
   groups, so a pooled run shares as many kernel runs as a serial one;
3. **run** the inline cells in the parent and stream the chunks
   through the warm fork pool (``--jobs N``,
   :func:`~repro.experiments.scheduler.stream_chunks`).  Everywhere the
   same executor, :func:`~repro.sim.gridbatch.run_batch`, runs the
   cells;
4. **book** every :class:`~repro.experiments.runner.Outcome` through
   one function, :meth:`~ParallelExperimentRunner._book`, as it
   arrives — cache hits included, told apart by their ``source``.
   The :class:`RunSummary` is a fold over what was booked, plus one
   record per plan and per dead worker.

Every pending cell is a :class:`~repro.experiments.runner.Cell`; the
parent computes its digest once per dispatch and uses it for the
cache lookup and the write-back.  A dead pool worker reaches one retry
loop, which shuts the pool down and replans only the cells whose
outcomes never arrived, :data:`POOL_RETRIES` times.

Results are also written to a content-addressed on-disk cache keyed by
:meth:`Cell.digest <repro.experiments.runner.Cell.digest>` (workload,
spec, scale, machine-config fingerprint, profile distance), so
repeated figure generation and CI smoke runs skip simulations that
already ran — under *any* runner, serial or parallel.
One class, :class:`ResultCache`, owns the result entries: each is a
sha256-verified envelope in the format of :mod:`repro.sealed`, so a
damaged entry is counted and re-simulated, never served.  One root
(``--cache-dir``) serves the parent and the warm pool alike, and the
parent is its only writer: workers only run cells and send outcomes
back.  Runs on several machines share results by pointing
``--cache-dir`` at one shared directory, each running its own
``--slice``.

Parallel output is bit-identical to serial output: every simulation is
deterministic given its job key (workloads are built from seeded RNGs),
and results are merged into the same keyed memo the serial runner
reads, so table generation never depends on scheduling decisions or
completion order.
"""

import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple

from repro import sealed
from repro.analysis.pipeline import configure_disk_cache
from repro.experiments import scheduler
from repro.experiments.runner import CACHE_FORMAT_VERSION, ExperimentRunner, Outcome
from repro.polyflow import PAPER_CONFIG
from repro.polyflow.config import config_fingerprint
from repro.sim import gridbatch
from repro.sim.blocks import BLOCK_CACHE_KEYS

#: First field of every entry's header line.  The leading ``V`` makes
#: the header a pickle ``UNICODE`` opcode, so a plain ``pickle.load``
#: of an entry file still returns the (unverified) body dict; the
#: verifying reader is :meth:`ResultCache.load`.
_MAGIC = b"Vpolyflow-result"

#: Default cache directory used by the CLI (gitignored).
DEFAULT_CACHE_DIR = ".polyflow-cache"

#: Subdirectory of the cache directory holding persisted program
#: analyses (see :mod:`repro.analysis.pipeline`).
ANALYSIS_CACHE_SUBDIR = "analysis"

#: Times a grid is retried after a dead worker (each retry starts a
#: fresh pool and replans only unfinished cells).
POOL_RETRIES = 1


class ResultCache:
    """Content-addressed on-disk store of pickled simulation stats.

    Entries are sharded by the first two digest characters.  Each one
    is the pickled ``{"meta", "stats", "metrics"}`` body sealed by
    :mod:`repro.sealed` (a ``magic version sha256`` header line, then
    the body).  Its atomic writer lets concurrent writers of one digest
    (runs sharing a cache directory) race harmlessly, and readers never
    observe a torn entry.  ``stores`` counts the entries this instance
    wrote.

    Lookups distinguish a *clean* miss (no entry on disk, counted in
    ``misses``) from a *corrupt* one (present but failing its envelope
    check or its unpickle, counted in ``corrupt`` and listed in
    ``corrupt_paths``): both re-simulate, but a corrupt entry means
    something damaged the cache and is surfaced in the run summary
    rather than silently absorbed.  It is never served.
    """

    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.corrupt_paths = []
        self.stores = 0

    def path(self, digest):
        return os.path.join(self.root, digest[:2], digest + ".pkl")

    def load(self, digest):
        """The cached ``(stats, metrics)`` for ``digest``, or ``None``.

        ``metrics`` is the per-spawn-point aggregator snapshot if the
        entry was produced by a metrics-emitting run, else ``None``.
        A missing entry is a clean miss.  An entry that exists but
        fails its envelope check (bad header, version skew, digest
        mismatch; checked before anything is unpickled) or cannot be
        unpickled is counted as corrupt.  Either way the caller
        re-simulates and overwrites it.
        """
        path = self.path(digest)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            entry = pickle.loads(sealed.unseal(data, _MAGIC, CACHE_FORMAT_VERSION))
            stats = entry["stats"]
            metrics = entry.get("metrics")
        except Exception:
            self.corrupt += 1
            self.corrupt_paths.append(path)
            return None
        self.hits += 1
        return stats, metrics

    def store(self, digest, stats, meta, metrics=None):
        """Atomically persist ``stats`` (with a metadata header and an
        optional metrics snapshot) under ``digest``."""
        body = pickle.dumps({"meta": meta, "stats": stats, "metrics": metrics})
        sealed.write(
            self.path(digest), sealed.seal(body, _MAGIC, CACHE_FORMAT_VERSION)
        )
        self.stores += 1

    def __len__(self):
        if not os.path.isdir(self.root):
            return 0
        count = 0
        for shard in os.listdir(self.root):
            shard_path = os.path.join(self.root, shard)
            if os.path.isdir(shard_path):
                count += sum(
                    1 for entry in os.listdir(shard_path) if entry.endswith(".pkl")
                )
        return count

    def gc(self, max_bytes=None):
        """Size-capped LRU sweep (:func:`repro.sealed.sweep`): corrupt
        entries and stale temporary files first, oldest entries next.

        Caches grow unbounded across sweeps; long-lived shared roots
        and CI caches call this (or the ``cache-gc`` CLI) to stay
        under a byte budget.  Eviction is mtime-based — entries are
        content-addressed and immutable, so write time is the recency
        signal.  Only the two-hex-shard entry tree is touched; the
        ``analysis/`` subdirectory living alongside it is not.
        """
        return sealed.sweep(self.root, _MAGIC, CACHE_FORMAT_VERSION, max_bytes)


class Incident(NamedTuple):
    """One dead-worker incident: how many cells were replanned after
    it."""

    replanned_cells: int


def _label(config, cell):
    """Spec label for the run summary; swept configurations (the
    ablations) are disambiguated by their fingerprint."""
    fingerprint = config_fingerprint(cell.config)
    if fingerprint == config_fingerprint(config):
        return cell.spec
    return "{} @{}".format(cell.spec, fingerprint[:6])


class RunSummary:
    """Where the time went, folded from what a run booked.

    A summary keeps records, not counters.  Its ledger is the runner's
    ``Cell → Outcome`` memo, so every per-cell counter — cells
    simulated, cache hits, shared cells, timings, block-cache
    movement, metrics snapshots — is a fold over the booked
    :class:`~repro.experiments.runner.Outcome`\\ s, and the corrupt
    entries are the result cache's own ``corrupt_paths``.  The
    runner adds one :class:`~repro.experiments.scheduler.GridSchedule`
    per dispatch and one :class:`Incident` per dead worker.  The wall
    clock and the estimator's cells are plain snapshots.
    :meth:`merged` concatenates the records of several summaries, so a
    merged summary folds exactly like a single one.
    """

    def __init__(self, booked=None, config=PAPER_CONFIG, caches=()):
        #: ``[(config, ledger), ...]``: each ledger maps a cell to its
        #: booked outcome; ``config`` is its runner's, for the labels.
        self._ledgers = [] if booked is None else [(config, booked)]
        #: The result caches whose corrupt entries this run met.
        self._caches = list(caches)
        #: The plan of every dispatch.
        self.dispatches = []
        self.incidents = []
        #: Cells answered from the analytic estimator alone — no
        #: simulation ran, the consumer saw ``source=estimated``.
        self.estimated_cells = 0
        self.wall_seconds = 0.0

    @classmethod
    def merged(cls, summaries):
        """One summary over several: records concatenate, and the
        snapshots of separate runners add up."""
        merged = cls()
        for summary in summaries:
            merged._ledgers += summary._ledgers
            merged._caches += summary._caches
            merged.dispatches += summary.dispatches
            merged.incidents += summary.incidents
            merged.estimated_cells += summary.estimated_cells
            merged.wall_seconds += summary.wall_seconds
        return merged

    def record_estimated(self, count=1):
        """Note cells served analytically (``source=estimated``)."""
        self.estimated_cells += count

    # -- folds over the booked outcomes -------------------------------------------

    def _booked(self, source=None):
        """``(config, cell, outcome)`` for every booked outcome (from
        ``source`` only, when given), in booking order."""
        for config, ledger in self._ledgers:
            # A copy: the service books on its executor thread while
            # ``/healthz`` folds on another.
            for cell, outcome in list(ledger.items()):
                if source is None or outcome.source == source:
                    yield config, cell, outcome

    def _simulated(self):
        return [outcome for _, _, outcome in self._booked("simulated")]

    @property
    def jobs_run(self):
        return len(self._simulated())

    @property
    def cache_hits(self):
        return sum(1 for _ in self._booked("cache"))

    @property
    def shared_cells(self):
        """Simulated cells whose stats came from an identical cell's
        kernel run in the same batch."""
        return sum(outcome.shared for outcome in self._simulated())

    @property
    def job_timings(self):
        """``[(workload, spec label, seconds), ...]`` per simulation."""
        return [
            (cell.workload, _label(config, cell), outcome.seconds)
            for config, cell, outcome in self._booked("simulated")
        ]

    @property
    def total_sim_seconds(self):
        """Summed per-job simulation time (exceeds wall time when
        jobs overlap across workers)."""
        return sum(outcome.seconds for outcome in self._simulated())

    @property
    def block_cache(self):
        """Block-cache counter movement summed over every simulation
        (parent and workers alike).

        ``program_misses`` counts only the program runs made inside a
        cell's window: a disk-loaded program re-run for its trace.
        Programs that run while the grid is costed, before any window
        opens, are not in it, so :meth:`render` leaves it out.
        """
        totals = dict.fromkeys(BLOCK_CACHE_KEYS, 0)
        for outcome in self._simulated():
            for key, value in (outcome.blocks or {}).items():
                if key in totals:
                    totals[key] += value
        return totals

    @property
    def metrics_snapshots(self):
        """``{spec label: [aggregator snapshot, ...]}`` of every outcome
        that carries metrics (fresh runs and usable cache hits)."""
        snapshots = {}
        for config, cell, outcome in self._booked():
            if outcome.metrics is not None:
                snapshots.setdefault(_label(config, cell), []).append(outcome.metrics)
        return snapshots

    def merged_metrics(self):
        """Per-policy merged attribution metrics (``{spec: snapshot}``)."""
        from repro.obs import merge_metrics

        return {
            spec: merge_metrics(snapshots)
            for spec, snapshots in sorted(self.metrics_snapshots.items())
        }

    @property
    def corrupt_entries(self):
        """Damaged entries the caches met (re-simulated, but surfaced);
        an entry probed twice before its rewrite is listed once."""
        return list(
            dict.fromkeys(
                path for cache in self._caches for path in cache.corrupt_paths
            )
        )

    # -- folds over the dispatch records ------------------------------------------

    @property
    def inline_jobs(self):
        """Cells the scheduler ran inline in the parent."""
        return sum(len(plan.inline) for plan in self.dispatches)

    @property
    def chunks_shipped(self):
        """Chunks shipped to the warm pool."""
        return sum(len(plan.chunks) for plan in self.dispatches)

    @property
    def pool_workers(self):
        """Worker count of the largest pool this summary used."""
        return max((plan.workers for plan in self.dispatches), default=0)

    @property
    def pool_restarts(self):
        """Warm-pool restarts after a dead worker."""
        return len(self.incidents)

    def as_dict(self):
        """Every counter as structured fields (JSON-able).

        The stderr :meth:`render` is for humans; this is the machine
        surface the exploration service's ``/healthz`` endpoint and the
        fault-injection tests assert on.  Incidents — corrupt cache
        entries and pool restarts — are first-class fields here, not
        just lines in the rendered summary.
        """
        corrupt = self.corrupt_entries
        return {
            "jobs_run": self.jobs_run,
            "cache_hits": self.cache_hits,
            "inline_jobs": self.inline_jobs,
            "chunks_shipped": self.chunks_shipped,
            "pool_workers": self.pool_workers,
            "pool_restarts": self.pool_restarts,
            "corrupt_cache_entries": len(corrupt),
            "corrupt_cache_paths": corrupt,
            "block_cache": self.block_cache,
            "shared_cells": self.shared_cells,
            "estimated_cells": self.estimated_cells,
            "wall_seconds": self.wall_seconds,
            "total_sim_seconds": self.total_sim_seconds,
        }

    def slowest(self, count=5):
        """The ``count`` slowest jobs, slowest first."""
        return sorted(self.job_timings, key=lambda item: -item[2])[:count]

    def render(self):
        jobs_run = self.jobs_run
        shared = self.shared_cells
        block_cache = self.block_cache
        corrupt = self.corrupt_entries
        lines = [
            "run summary: {} simulated, {} cache hits, "
            "{:.1f}s total sim time, {:.1f}s wall".format(
                jobs_run,
                self.cache_hits,
                self.total_sim_seconds,
                self.wall_seconds,
            )
        ]
        if jobs_run:
            lines.append(
                "  schedule: {} inline, {} chunks across {} pool workers".format(
                    self.inline_jobs, self.chunks_shipped, self.pool_workers
                )
            )
        if shared:
            lines.append(
                "  shared: {} of {} simulated cells reused an identical cell's "
                "run ({} kernel runs)".format(shared, jobs_run, jobs_run - shared)
            )
        if self.estimated_cells:
            lines.append(
                "  estimator: {} cells served analytically (no simulation)".format(
                    self.estimated_cells
                )
            )
        if self.pool_restarts:
            lines.append(
                "  {} worker-pool restart(s) after dead workers".format(
                    self.pool_restarts
                )
            )
        if any(block_cache.values()):
            lines.append(
                "  block cache: {table_hits} table hits / {table_misses} "
                "compiles".format(**block_cache)
            )
        if corrupt:
            lines.append(
                "  {} corrupt cache entries re-simulated:".format(len(corrupt))
            )
            for path in corrupt[:5]:
                lines.append("    {}".format(path))
        for name, spec, seconds in self.slowest():
            lines.append("  {:>6.1f}s  {} / {}".format(seconds, name, spec))
        return "\n".join(lines)


class ParallelExperimentRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` with a grid scheduler and disk cache.

    With ``jobs=1`` and no cache directory it behaves exactly like the
    serial runner (no pool is ever touched).  ``prefetch`` is where the
    parallelism lives; the individual accessors (``baseline``,
    ``run_policy`` …) stay serial but consult the disk cache.

    Chunks run on the warm pool of ``jobs`` workers (see
    :func:`~repro.experiments.scheduler.plan_grid`); :meth:`close`
    shuts it down.

    :attr:`summary` is a :class:`RunSummary` over this runner's memo:
    :meth:`_book` writes the memo and the caches only, and the runner
    records every plan and one :class:`Incident` per dead worker.
    """

    def __init__(
        self,
        scale=1.0,
        config=None,
        workload_names=None,
        jobs=1,
        cache_dir=None,
        emit_metrics=False,
        trace_dir=None,
    ):
        keyword_arguments = {}
        if config is not None:
            keyword_arguments["config"] = config
        if workload_names is not None:
            keyword_arguments["workload_names"] = workload_names
        super().__init__(scale=scale, **keyword_arguments)
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: Where persisted program analyses live; points the shared
        #: analysis cache's disk layer here in this process and in
        #: workers (``None`` turns it off, so no earlier runner's
        #: directory keeps receiving this runner's analyses).
        self.analysis_dir = (
            os.path.join(cache_dir, ANALYSIS_CACHE_SUBDIR) if cache_dir else None
        )
        configure_disk_cache(self.analysis_dir)
        #: Attach a verbose MetricsAggregator to every simulation; the
        #: snapshots reach :attr:`summary` with the outcomes.
        self.emit_metrics = bool(emit_metrics)
        #: Write a compact lifecycle-events JSONL per simulation here.
        self.trace_dir = trace_dir
        #: Optional ``bus_for(cell)`` factory of a fresh, non-verbose
        #: :class:`~repro.obs.EventBus` per *inline* simulation.  The
        #: exploration service's runner sets one to bridge lifecycle
        #: events into its progress journal; a cell run with a bus
        #: never shares a kernel run.
        self.bus_for = None
        self.summary = RunSummary(
            self._results, self.config, [] if self.cache is None else [self.cache]
        )

    # -- cache plumbing -----------------------------------------------------------

    def _digest(self, cell):
        """``cell``'s digest, or ``None`` when this runner has no
        result cache to address."""
        if self.cache is None:
            return None
        return cell.digest(self.scale)

    def _load_cached(self, digest):
        """A usable cached :class:`~repro.experiments.runner.Outcome`
        (``source`` ``"cache"``), or ``None`` when the cell must run.

        A hit is unusable when the run must produce side channels the
        cache cannot replay: a requested trace file, or metrics the
        entry does not carry.  A hit carries its metrics only when the
        run emits metrics, and they then flow into the run summary
        exactly as a fresh simulation's would.
        """
        if digest is None or self.trace_dir is not None:
            return None
        entry = self.cache.load(digest)
        if entry is None or (self.emit_metrics and not entry[1]):
            return None
        metrics = entry[1] if self.emit_metrics else None
        return Outcome(entry[0], metrics, source="cache")

    def _book(self, cell, outcome, digest=None):
        """Book one outcome, wherever it came from: memo and cache.

        The memo entry is all :attr:`summary` needs.  A ``"simulated"``
        outcome is also written to the result cache — here, in the
        parent, wherever it ran, so the parent is the root's only
        writer.  ``digest`` is the cell's, when the caller already
        has it.
        """
        if outcome.source == "simulated" and self.cache is not None:
            self.cache.store(
                digest or self._digest(cell),
                outcome.stats,
                cell.meta(self.scale),
                metrics=outcome.metrics,
            )
        super()._book(cell, outcome)

    def _run_cells(self, cells):
        """Run ``cells`` in the parent with this runner's instruments."""
        return gridbatch.run_batch(
            cells, self.scale, self.emit_metrics, self.trace_dir, self.bus_for
        )

    def _simulate(self, cell):
        digest = self._digest(cell)
        outcome = self._load_cached(digest)
        if outcome is None:
            (outcome,) = self._run_cells([cell])
        self._book(cell, outcome, digest)

    # -- fan-out ------------------------------------------------------------------

    def pending(self, jobs):
        """Load or pend every job: the one lookup loop of a dispatch.

        Each not-yet-memoized cell with a usable cache entry is booked
        at once; the rest are returned as ``{cell: digest}`` in
        scheduling order, for :meth:`prefetch` to plan and run.
        """
        digests = {}
        for cell in self.normalize_jobs(jobs):
            digest = self._digest(cell)
            outcome = self._load_cached(digest)
            if outcome is None:
                digests[cell] = digest
            else:
                self._book(cell, outcome, digest)
        return digests

    def prefetch(self, jobs):
        """Materialize every job's stats through the grid scheduler.

        Disk-cached results are loaded in the parent; only genuinely
        missing simulations are planned — cheap ones inline, the rest
        as one chunk per machine on the warm pool.  Results land in the
        same cell-keyed memo the serial path reads, so downstream table
        generation is identical regardless of scheduling decisions or
        completion order.  Returns the number of simulations actually
        run.
        """
        started = time.perf_counter()
        digests = self.pending(jobs)
        if digests:
            self._fan_out(list(digests), digests)
        self.summary.wall_seconds += time.perf_counter() - started
        return len(digests)

    def _fan_out(self, pending, digests):
        """Dispatch ``pending`` cells, replanning after a dead worker.

        A worker death poisons the whole pool (``BrokenProcessPool``).
        Instead of failing the grid, the pool is shut down, one
        :class:`Incident` is recorded, and the still-unfinished cells
        are replanned onto a fresh pool up to :data:`POOL_RETRIES`
        times before the error propagates.
        """
        remaining = list(pending)
        retries = POOL_RETRIES
        while True:
            try:
                self._dispatch(remaining, digests)
                return
            except BrokenProcessPool:
                self.close()
                remaining = [cell for cell in remaining if cell not in self._results]
                self.summary.incidents.append(Incident(len(remaining)))
                if retries <= 0:
                    raise
                retries -= 1
                if not remaining:
                    return

    def close(self):
        """Shut the warm pool down (the next dispatch forks a fresh
        one)."""
        scheduler.shutdown_pool()

    def _dispatch(self, pending, digests):
        """One attempt: cost and plan ``pending`` for the warm pool of
        ``jobs`` workers, run the inline cells, stream the chunks.

        Every outcome is booked as it arrives, so a mid-grid worker
        death loses only the outcomes that never came back.
        """
        costs = [scheduler.job_cost(cell.workload, self.scale) for cell in pending]
        plan = scheduler.plan_grid(pending, costs, self.jobs, self.scale)
        self.summary.dispatches.append(plan)
        for cell, outcome in zip(plan.inline, self._run_cells(plan.inline)):
            self._book(cell, outcome, digests[cell])
        if not plan.chunks:
            return
        stream = scheduler.stream_chunks(
            plan, self.scale, self.analysis_dir, self.emit_metrics, self.trace_dir
        )
        for index, outcomes in stream:
            for cell, outcome in zip(plan.chunks[index], outcomes):
                stats = scheduler.unpack_stats(outcome.stats)
                self._book(cell, outcome._replace(stats=stats), digests[cell])
