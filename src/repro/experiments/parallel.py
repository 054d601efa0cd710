"""Parallel experiment execution with an on-disk result cache.

The paper's evaluation sweeps 12 benchmarks across ~14 policy specs
plus a superscalar baseline — an embarrassingly parallel grid of
independent cycle-level simulations.
:meth:`ParallelExperimentRunner.prefetch` runs every pending cell of
such a grid, one or many, through one dispatch loop:

1. **cost** each cell with
   :func:`~repro.experiments.scheduler.job_cost` (probing the shared
   store when one is set);
2. **plan** once with :func:`~repro.experiments.scheduler.plan_grid`:
   cheap cells inline in the parent, the rest as
   longest-expected-first chunks;
3. **run** the inline cells in the parent and stream the chunks
   through the runner's transport — the warm fork pool (``--jobs N``)
   or subprocess workers (``--fabric-workers N``, see
   :mod:`repro.experiments.fabric`).  Everywhere the same executor,
   :func:`~repro.experiments.scheduler.run_cells`, runs the cells;
4. **book** every :class:`~repro.experiments.runner.Outcome` through
   one function, :meth:`~ParallelExperimentRunner._book`, as it
   arrives — cache and store hits included, told apart by their
   ``source``.

Every pending cell is a :class:`~repro.experiments.runner.Cell`; the
parent computes its digest once per dispatch and uses it for the
cache lookup, the store-probing cost and the write-back.  A dead
worker on either transport reaches one retry loop, which closes the
transport and replans only the cells whose outcomes never arrived.

Results are also written to a content-addressed on-disk cache keyed by
:meth:`Cell.digest <repro.experiments.runner.Cell.digest>` (workload,
spec, scale, machine-config fingerprint, profile distance), so
repeated figure generation and CI smoke runs skip simulations that
already ran — under *any* runner, serial or parallel.
One class, :class:`ResultCache`, owns the result entries: each is a
sha256-verified envelope in the format of :mod:`repro.sealed`, so a
damaged entry is counted and re-simulated, never served.  The same
class backs the local cache directory and the fabric's shared store
root (``--fabric-store``), so a filled cache directory *is* a valid
store.

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

from repro import sealed
from repro.analysis.pipeline import configure_disk_cache
from repro.errors import ConfigurationError
from repro.experiments import scheduler
from repro.experiments.fabric.transport import (
    FabricWorkerDied,
    LocalPoolTransport,
    SubprocessWorkerTransport,
)
from repro.experiments.runner import CACHE_FORMAT_VERSION, ExperimentRunner, Outcome
from repro.polyflow.config import config_fingerprint
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


def sweep_entries(root, max_bytes=None):
    """Size-capped LRU sweep of one :class:`ResultCache` tree.

    Walks the two-hex-character shard directories under ``root``,
    removing entries in two passes:

    1. **corrupt first** — every entry failing its envelope check (a
       damaged entry, or one left by an older cache format) is pruned
       unconditionally;
    2. **oldest next** — while the surviving entries exceed
       ``max_bytes``, the least-recently-written (smallest mtime) are
       evicted.  ``max_bytes=None`` skips this pass.

    Emptied shard directories are removed.  Returns a report dict
    (``removed_corrupt``, ``removed_lru``, ``removed_bytes``,
    ``kept_entries``, ``kept_bytes``).
    """
    survivors = []
    removed_corrupt = removed_lru = removed_bytes = 0
    if os.path.isdir(root):
        for shard in sorted(os.listdir(root)):
            shard_path = os.path.join(root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_path):
                continue
            for entry in sorted(os.listdir(shard_path)):
                if not entry.endswith(".pkl"):
                    continue
                path = os.path.join(shard_path, entry)
                try:
                    status = os.stat(path)
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError:
                    continue
                try:
                    sealed.unseal(data, _MAGIC, CACHE_FORMAT_VERSION)
                except ValueError:
                    os.unlink(path)
                    removed_corrupt += 1
                    removed_bytes += status.st_size
                    continue
                survivors.append((status.st_mtime, path, status.st_size))
    if max_bytes is not None:
        survivors.sort()
        total = sum(size for _, _, size in survivors)
        evicted = 0
        while survivors and total > max_bytes:
            _, path, size = survivors[evicted]
            try:
                os.unlink(path)
            except OSError:
                pass
            total -= size
            removed_lru += 1
            removed_bytes += size
            evicted += 1
        survivors = survivors[evicted:]
    if os.path.isdir(root):
        for shard in os.listdir(root):
            shard_path = os.path.join(root, shard)
            if len(shard) == 2 and os.path.isdir(shard_path):
                try:
                    os.rmdir(shard_path)
                except OSError:
                    pass
    return {
        "removed_corrupt": removed_corrupt,
        "removed_lru": removed_lru,
        "removed_bytes": removed_bytes,
        "kept_entries": len(survivors),
        "kept_bytes": sum(size for _, _, size in survivors),
    }


class ResultCache:
    """Content-addressed on-disk store of pickled simulation stats.

    Entries are sharded by the first two digest characters.  Each one
    is the pickled ``{"meta", "stats", "metrics"}`` body sealed by
    :mod:`repro.sealed` (a ``magic version sha256`` header line, then
    the body).  Its atomic writer lets concurrent writers of one digest
    (runs sharing a cache directory, fabric workers sharing a store
    root) race harmlessly, and readers never observe a torn entry.

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

    def contains(self, digest):
        """Whether an entry exists (a cheap probe — no verification).

        The cost model uses this to price held cells (see
        :func:`repro.experiments.scheduler.job_cost`); actual reads
        always go through the verifying :meth:`load`.
        """
        return os.path.exists(self.path(digest))

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
        self._write(digest, sealed.seal(body, _MAGIC, CACHE_FORMAT_VERSION))

    def copy_from(self, other, digest):
        """Copy ``other``'s entry for ``digest`` into this root as is.

        Both roots share one format, so the copy is the verified bytes,
        not a re-encoding.  A missing or damaged entry is not copied.
        """
        try:
            with open(other.path(digest), "rb") as handle:
                data = handle.read()
            sealed.unseal(data, _MAGIC, CACHE_FORMAT_VERSION)
        except (OSError, ValueError):
            return
        self._write(digest, data)

    def _write(self, digest, data):
        sealed.write(self.path(digest), data)
        self.stores += 1

    def counters(self):
        """Cumulative traffic as ``fetches``/``hits``/``misses``/
        ``publishes``/``corrupt_rejected`` (the fabric store counters
        of the run summary).  A corrupt entry counts as a miss too."""
        return {
            "fetches": self.hits + self.misses + self.corrupt,
            "hits": self.hits,
            "misses": self.misses + self.corrupt,
            "publishes": self.stores,
            "corrupt_rejected": self.corrupt,
        }

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
        """Size-capped LRU sweep: corrupt entries first, oldest next.

        Caches grow unbounded across sweeps; long-lived fabric stores
        and CI caches call this (or the ``cache-gc`` CLI) to stay
        under a byte budget.  Eviction is mtime-based — entries are
        content-addressed and immutable, so write time is the recency
        signal.  Only the two-hex-shard entry tree is touched; the
        ``analysis/`` subdirectory living alongside it is not.
        """
        return sweep_entries(self.root, max_bytes)


class RunSummary:
    """Where the time went: jobs simulated, cache hits, wall clock.

    When metrics emission is enabled the per-job aggregator snapshots
    shipped back from the workers are collected here too, so one
    summary object carries everything a run produced besides the
    stats themselves.  Scheduling telemetry (inline cells, chunks
    shipped, pool workers) and corrupt cache entries accumulate here
    as well and show up in :meth:`render`.
    """

    def __init__(self):
        self.jobs_run = 0
        self.cache_hits = 0
        #: ``[(workload, spec, seconds), ...]`` for every simulation run.
        self.job_timings = []
        self.wall_seconds = 0.0
        #: ``{spec: [aggregator snapshot, ...]}`` from metrics-emitting runs.
        self.metrics_snapshots = {}
        #: Cells the scheduler ran inline in the parent.
        self.inline_jobs = 0
        #: Chunks shipped to the worker pool.
        self.chunks_shipped = 0
        #: Worker count of the largest pool this summary used.
        self.pool_workers = 0
        #: Corrupt cache entries encountered (re-simulated, but surfaced).
        self.corrupt_entries = []
        #: Warm-pool restarts after a ``BrokenProcessPool`` (each one is
        #: an incident: a worker died and the grid was retried).
        self.pool_restarts = 0
        #: Accumulated block-cache counter movement across every
        #: simulation this summary booked (parent and workers alike).
        self.block_cache = {key: 0 for key in BLOCK_CACHE_KEYS}
        #: Cells executed through the grid-batch runner
        #: (a subset of ``jobs_run``; the rest ran per-cell).
        self.batched_jobs = 0
        #: Simulated cells whose stats came from an identical cell's
        #: kernel run in the same batch (a subset of ``jobs_run``).
        self.shared_cells = 0
        #: Cells answered from the analytic estimator alone — no
        #: simulation ran, the consumer saw ``source=estimated``.
        self.estimated_cells = 0
        #: Fabric telemetry: placement, store traffic, incidents.
        #: Flat numerics only (the service merges summaries by summing
        #: one dict level); per-worker vectors live in
        #: :attr:`fabric_placement` for rendering and tests.
        self.fabric = {
            "workers": 0,
            "chunks": 0,
            "cells": 0,
            "store_cells": 0,
            "replanned_cells": 0,
            "restarts": 0,
            "straggler_seconds": 0.0,
            "store_fetches": 0,
            "store_hits": 0,
            "store_misses": 0,
            "store_publishes": 0,
            "store_corrupt_rejected": 0,
        }
        #: The latest transport placement snapshot (per-worker cell and
        #: wall-clock vectors; not part of :meth:`as_dict`).
        self.fabric_placement = None

    def record_job(self, name, spec, seconds):
        self.jobs_run += 1
        self.job_timings.append((name, spec, seconds))

    def record_hit(self):
        self.cache_hits += 1

    def record_corrupt(self, path):
        """Note one unreadable cache entry (it will be re-simulated).

        The same entry can be probed twice before the re-simulation
        overwrites it (prefetch's parent-side load, then a degraded
        service batch's per-cell retry), so paths are deduplicated.
        """
        if path not in self.corrupt_entries:
            self.corrupt_entries.append(path)

    def record_pool_restart(self):
        """Note one dead-pool incident (the pool was torn down)."""
        self.pool_restarts += 1

    def record_batched(self, count):
        """Note ``count`` cells that ran through the grid batch."""
        self.batched_jobs += count

    def record_estimated(self, count=1):
        """Note cells served analytically (``source=estimated``)."""
        self.estimated_cells += count

    def record_fabric_schedule(self, workers, chunks, cells):
        """Accumulate one fabric dispatch's shape."""
        self.fabric["workers"] = max(self.fabric["workers"], workers)
        self.fabric["chunks"] += chunks
        self.fabric["cells"] += cells

    def record_fabric_store_cells(self, count):
        """Note ``count`` cells answered from the shared store."""
        self.fabric["store_cells"] += count

    def record_fabric_replan(self, cells):
        """Note one dead-worker incident and the cells it replanned."""
        self.fabric["restarts"] += 1
        self.fabric["replanned_cells"] += cells

    def record_fabric_placement(self, placement):
        """Absorb one transport placement snapshot (straggler wall,
        per-worker vectors for :meth:`render`)."""
        self.fabric_placement = placement
        self.fabric["straggler_seconds"] = max(
            self.fabric["straggler_seconds"],
            placement.get("straggler_seconds", 0.0),
        )

    def set_fabric_store(self, stats):
        """Overwrite the store counters with a cumulative snapshot.

        Store objects count cumulatively across a run, so the latest
        snapshot *is* the total — adding would double-book.
        """
        for key, value in stats.items():
            self.fabric["store_" + key] = value

    def record_schedule(self, plan):
        """Accumulate one :class:`~repro.experiments.scheduler.GridSchedule`."""
        self.inline_jobs += len(plan.inline)
        self.chunks_shipped += len(plan.chunks)
        self.pool_workers = max(self.pool_workers, plan.workers)

    def record_metrics(self, spec, snapshot):
        """Collect one worker's aggregator snapshot under its policy spec."""
        self.metrics_snapshots.setdefault(spec, []).append(snapshot)

    def record_block_cache(self, delta):
        """Accumulate one job's block-cache counter movement."""
        if not delta:
            return
        for key, value in delta.items():
            if key in self.block_cache:
                self.block_cache[key] += value

    def merged_metrics(self):
        """Per-policy merged attribution metrics (``{spec: snapshot}``)."""
        from repro.obs import merge_metrics

        return {
            spec: merge_metrics(snapshots)
            for spec, snapshots in sorted(self.metrics_snapshots.items())
        }

    @property
    def total_sim_seconds(self):
        """Summed per-job simulation time (exceeds wall time when
        jobs overlap across workers)."""
        return sum(seconds for _, _, seconds in self.job_timings)

    def as_dict(self):
        """Every counter as structured fields (JSON-able).

        The stderr :meth:`render` is for humans; this is the machine
        surface the exploration service's ``/healthz`` endpoint and the
        fault-injection tests assert on.  Incidents — corrupt cache
        entries and pool restarts — are first-class fields here, not
        just lines in the rendered summary.
        """
        return {
            "jobs_run": self.jobs_run,
            "cache_hits": self.cache_hits,
            "inline_jobs": self.inline_jobs,
            "chunks_shipped": self.chunks_shipped,
            "pool_workers": self.pool_workers,
            "pool_restarts": self.pool_restarts,
            "corrupt_cache_entries": len(self.corrupt_entries),
            "corrupt_cache_paths": list(self.corrupt_entries),
            "block_cache": dict(self.block_cache),
            "batched_jobs": self.batched_jobs,
            "shared_cells": self.shared_cells,
            "estimated_cells": self.estimated_cells,
            "fabric": dict(self.fabric),
            "wall_seconds": self.wall_seconds,
            "total_sim_seconds": self.total_sim_seconds,
        }

    def slowest(self, count=5):
        """The ``count`` slowest jobs, slowest first."""
        return sorted(self.job_timings, key=lambda item: -item[2])[:count]

    def render(self):
        lines = [
            "run summary: {} simulated, {} cache hits, "
            "{:.1f}s total sim time, {:.1f}s wall".format(
                self.jobs_run,
                self.cache_hits,
                self.total_sim_seconds,
                self.wall_seconds,
            )
        ]
        if self.jobs_run:
            lines.append(
                "  schedule: {} inline, {} chunks across {} pool workers".format(
                    self.inline_jobs, self.chunks_shipped, self.pool_workers
                )
            )
        if self.batched_jobs:
            lines.append(
                "  grid-batch: {} of {} simulated cells ran batched".format(
                    self.batched_jobs, self.jobs_run
                )
            )
        if self.shared_cells:
            lines.append(
                "  shared: {} of {} simulated cells reused an identical cell's "
                "run ({} kernel runs)".format(
                    self.shared_cells, self.jobs_run, self.jobs_run - self.shared_cells
                )
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
        if self.fabric["cells"]:
            lines.append(
                "  fabric: {} cells in {} chunks across {} workers "
                "({} from store), straggler {:.1f}s".format(
                    self.fabric["cells"],
                    self.fabric["chunks"],
                    self.fabric["workers"],
                    self.fabric["store_cells"],
                    self.fabric["straggler_seconds"],
                )
            )
            if self.fabric_placement:
                lines.append(
                    "    cells by worker: {}".format(
                        self.fabric_placement.get("cells_by_worker")
                    )
                )
        if self.fabric["store_fetches"] or self.fabric["store_publishes"]:
            lines.append(
                "  fabric store: {} hits / {} misses, {} published, "
                "{} corrupt rejected".format(
                    self.fabric["store_hits"],
                    self.fabric["store_misses"],
                    self.fabric["store_publishes"],
                    self.fabric["store_corrupt_rejected"],
                )
            )
        if self.fabric.get("worker_store_fetches") or self.fabric.get(
            "worker_store_publishes"
        ):
            lines.append(
                "  worker store traffic: {} hits / {} misses, "
                "{} published".format(
                    self.fabric.get("worker_store_hits", 0),
                    self.fabric.get("worker_store_misses", 0),
                    self.fabric.get("worker_store_publishes", 0),
                )
            )
        if self.fabric["restarts"]:
            lines.append(
                "  {} fabric worker restart(s); {} cells replanned".format(
                    self.fabric["restarts"], self.fabric["replanned_cells"]
                )
            )
        if any(self.block_cache.values()):
            lines.append(
                "  block cache: {table_hits} table hits / {table_misses} compiles, "
                "{program_hits} program hits / {program_misses} builds".format(
                    **self.block_cache
                )
            )
        if self.corrupt_entries:
            lines.append(
                "  {} corrupt cache entries re-simulated:".format(
                    len(self.corrupt_entries)
                )
            )
            for path in self.corrupt_entries[:5]:
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

    Scheduler knobs: ``chunk`` caps grid cells per chunk (``None``
    sizes chunks by estimated cost), ``schedule`` picks cost-ordered or
    FIFO chunking, ``inline_threshold`` is the trace-length floor below
    which a cell runs inline in the parent (``None`` takes the
    transport's default), and ``cpus`` overrides CPU detection (tests
    force the pool path on single-core machines).  Chunks run on the
    warm pool of ``jobs`` workers, or on ``fabric_workers`` subprocess
    workers when that is set.
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
        chunk=None,
        schedule=scheduler.SCHEDULE_COST,
        inline_threshold=None,
        cpus=None,
        pool_retries=1,
        fabric_workers=0,
        fabric_store=None,
        fabric_command=None,
        fabric_chunk_timeout=None,
        fabric_throughputs=None,
        fabric_extra_env=None,
    ):
        keyword_arguments = {}
        if config is not None:
            keyword_arguments["config"] = config
        if workload_names is not None:
            keyword_arguments["workload_names"] = workload_names
        super().__init__(scale=scale, **keyword_arguments)
        if schedule not in scheduler.SCHEDULES:
            raise ConfigurationError(
                "unknown schedule {!r}; choose from {}".format(
                    schedule, scheduler.SCHEDULES
                )
            )
        self.jobs = max(1, int(jobs))
        self.chunk = chunk
        self.schedule = schedule
        self.inline_threshold = inline_threshold
        self.cpus = cpus
        #: Times a grid is retried after a dead worker (each retry
        #: starts a fresh transport and replans only unfinished cells).
        self.pool_retries = max(0, int(pool_retries))
        self.cache = ResultCache(cache_dir) if cache_dir else None
        #: Where persisted program analyses live; enables the shared
        #: analysis cache's disk layer in this process and in workers.
        self.analysis_dir = (
            os.path.join(cache_dir, ANALYSIS_CACHE_SUBDIR) if cache_dir else None
        )
        if self.analysis_dir is not None:
            configure_disk_cache(self.analysis_dir)
        self.summary = RunSummary()
        #: Attach a verbose MetricsAggregator to every simulation and
        #: collect the per-policy snapshots in :attr:`summary`.
        self.emit_metrics = bool(emit_metrics)
        #: Write a compact lifecycle-events JSONL per simulation here.
        self.trace_dir = trace_dir
        #: Optional ``bus_for(cell)`` factory of a fresh, non-verbose
        #: :class:`~repro.obs.EventBus` per *inline* simulation.  The
        #: exploration service's runner sets one to bridge lifecycle
        #: events into its progress journal; cells run with a bus run
        #: per-cell, never batched.
        self.bus_for = None
        #: Subprocess workers for the chunks (0 = the warm pool).
        #: Unlike ``jobs``, this is *not* capped at the local CPU count
        #: — fabric workers may be other machines.
        self.fabric_workers = max(0, int(fabric_workers))
        if self.fabric_workers and (self.emit_metrics or trace_dir is not None):
            raise ConfigurationError(
                "the fabric ships plain cells only; metrics emission and "
                "trace files keep the local warm-pool path (drop "
                "--fabric-workers or the instrumentation flag)"
            )
        self.fabric_command = fabric_command
        self.fabric_chunk_timeout = fabric_chunk_timeout
        self.fabric_throughputs = fabric_throughputs
        self.fabric_extra_env = fabric_extra_env
        if isinstance(fabric_store, str):
            fabric_store = ResultCache(fabric_store)
        #: The shared result store (a :class:`ResultCache` root, or
        #: ``None``).  Read through in the parent (see
        #: :meth:`_load_cached`) and passed to fabric workers, which
        #: load from and store into the same root.
        self.fabric_store = fabric_store
        self._transport = None

    # -- cache plumbing -----------------------------------------------------------

    def _digest(self, cell):
        """``cell``'s digest, or ``None`` when this runner has no
        result cache or store to address."""
        if self.cache is None and self.fabric_store is None:
            return None
        return cell.digest(self.scale)

    def _job_label(self, cell):
        """Spec label for the run summary; swept configurations (the
        ablations) are disambiguated by their fingerprint."""
        fingerprint = config_fingerprint(cell.config)
        if fingerprint == config_fingerprint(self.config):
            return cell.spec
        return "{} @{}".format(cell.spec, fingerprint[:6])

    def _load_entry(self, cache, digest):
        """``cache.load(digest)``, booking a corrupt entry on the summary."""
        corrupt_before = cache.corrupt
        entry = cache.load(digest)
        if cache.corrupt > corrupt_before:
            self.summary.record_corrupt(cache.path(digest))
        return entry

    def _load_cached(self, digest):
        """A usable cached :class:`~repro.experiments.runner.Outcome`
        (``source`` ``"cache"`` or ``"store"``), or ``None`` when the
        cell must run.

        A hit is unusable when the run must produce side channels the
        cache cannot replay: a requested trace file, or metrics the
        entry does not carry.  Metrics a usable hit *does* carry flow
        into the run summary exactly as a fresh simulation's would.
        """
        if digest is None or self.trace_dir is not None:
            return None
        if self.cache is not None:
            entry = self._load_entry(self.cache, digest)
            if entry is not None and (entry[1] or not self.emit_metrics):
                return Outcome(entry[0], entry[1], source="cache")
        # Shared-store read-through: an entry some other fabric
        # participant stored (copied into the local cache by ``_book``).
        if self.fabric_store is not None and not self.emit_metrics:
            entry = self._load_entry(self.fabric_store, digest)
            if entry is not None:
                return Outcome(entry[0], source="store")
        return None

    def _store_cached(self, cell, digest, outcome):
        meta = cell.meta(self.scale)
        if self.cache is not None:
            self.cache.store(digest, outcome.stats, meta, metrics=outcome.metrics)
        # Store fresh results in the shared root so other fabric
        # participants reuse them.  Subprocess workers already stored
        # theirs, which the ``contains`` probe skips; an entry this
        # run found corrupt is overwritten.
        store = self.fabric_store
        if store is not None and (
            not store.contains(digest) or store.path(digest) in store.corrupt_paths
        ):
            store.store(digest, outcome.stats, meta, metrics=outcome.metrics)

    def _book(self, cell, outcome, digest=None):
        """Book one outcome, wherever it came from: memo, summary, caches.

        A ``"cache"`` outcome is a local cache hit.  A ``"store"``
        outcome is a fabric-store hit — the parent's read-through or a
        worker's — and is copied into the local result cache.  Only a
        ``"simulated"`` outcome counts as a job and is written to the
        cache and the store.  ``digest`` is the cell's, when the caller
        already has it.
        """
        summary = self.summary
        if outcome.source == "cache":
            summary.record_hit()
            if self.emit_metrics:
                summary.record_metrics(self._job_label(cell), outcome.metrics)
        elif outcome.source == "store":
            summary.record_fabric_store_cells(1)
            if self.cache is not None:
                self.cache.copy_from(self.fabric_store, digest or self._digest(cell))
        else:
            label = self._job_label(cell)
            summary.record_job(cell.workload, label, outcome.seconds)
            summary.record_block_cache(outcome.blocks)
            if outcome.batched:
                summary.record_batched(1)
            if outcome.shared:
                summary.shared_cells += 1
            if outcome.metrics is not None:
                summary.record_metrics(label, outcome.metrics)
            if self.cache is not None or self.fabric_store is not None:
                self._store_cached(cell, digest or self._digest(cell), outcome)
        super()._book(cell, outcome)

    def _run_cells(self, cells):
        """Run ``cells`` in the parent with this runner's instruments."""
        return scheduler.run_cells(
            self.scale, cells, self.emit_metrics, self.trace_dir, self.bus_for
        )

    def _simulate(self, cell):
        digest = self._digest(cell)
        outcome = self._load_cached(digest)
        if outcome is None:
            (outcome,) = self._run_cells([cell])
        self._book(cell, outcome, digest)

    # -- fan-out ------------------------------------------------------------------

    def prefetch(self, jobs):
        """Materialize every job's stats through the grid scheduler.

        Disk-cached results are loaded in the parent; only genuinely
        missing simulations are planned — cheap ones inline, the rest
        as cost-ordered chunks on the transport.  Results land in the
        same cell-keyed memo the serial path reads, so downstream table
        generation is identical regardless of scheduling decisions or
        completion order.  Returns the number of simulations actually
        run.
        """
        started = time.perf_counter()
        digests = {}
        pending = []
        for cell in self.normalize_jobs(jobs):
            digest = self._digest(cell)
            outcome = self._load_cached(digest)
            if outcome is None:
                pending.append(cell)
                digests[cell] = digest
            else:
                self._book(cell, outcome, digest)
        if pending:
            self._fan_out(pending, digests)
        if self.fabric_store is not None:
            self.summary.set_fabric_store(self.fabric_store.counters())
        self.summary.wall_seconds += time.perf_counter() - started
        return len(pending)

    def _fan_out(self, pending, digests):
        """Dispatch ``pending`` cells, replanning after a dead worker.

        A worker death poisons the whole transport — the pool raises
        ``BrokenProcessPool``, subprocess workers
        :class:`FabricWorkerDied`.  Instead of failing the grid, the
        transport is closed, the incident is booked on the summary, and
        the still-unfinished cells are replanned onto a fresh transport
        up to ``pool_retries`` times before the error propagates.
        """
        remaining = list(pending)
        retries = self.pool_retries
        while True:
            try:
                self._dispatch(remaining, digests)
                return
            except (BrokenProcessPool, FabricWorkerDied) as incident:
                self.shutdown_fabric()
                remaining = [cell for cell in remaining if cell not in self._results]
                if self.fabric_workers:
                    self.summary.record_fabric_replan(len(remaining))
                    self._fabric_event(
                        "worker_died",
                        worker=incident.worker,
                        replanned_cells=len(remaining),
                    )
                else:
                    self.summary.record_pool_restart()
                if retries <= 0:
                    raise
                retries -= 1
                if not remaining:
                    return

    def _ensure_transport(self):
        """This runner's transport (created on first use): subprocess
        workers when ``fabric_workers`` is set, else the warm pool."""
        if self._transport is None:
            if self.fabric_workers:
                keyword_arguments = {}
                if self.fabric_chunk_timeout is not None:
                    keyword_arguments["chunk_timeout"] = self.fabric_chunk_timeout
                self._transport = SubprocessWorkerTransport(
                    self.fabric_workers,
                    store_root=(
                        self.fabric_store.root
                        if self.fabric_store is not None
                        else None
                    ),
                    analysis_dir=self.analysis_dir,
                    command_template=self.fabric_command,
                    throughputs=self.fabric_throughputs,
                    extra_env=self.fabric_extra_env,
                    **keyword_arguments,
                )
            else:
                self._transport = LocalPoolTransport(
                    self.jobs,
                    cpus=self.cpus,
                    analysis_dir=self.analysis_dir,
                    emit_metrics=self.emit_metrics,
                    trace_dir=self.trace_dir,
                )
        return self._transport

    def shutdown_fabric(self):
        """Close the transport (the next dispatch creates a fresh one)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def warm_fabric(self):
        """Spawn the fabric fleet ahead of the first dispatch.

        Subprocess workers pay interpreter startup and handshake once;
        warming moves that out of the first grid's wall clock (the
        benchmark harness uses it to time steady-state dispatch).
        """
        if self.fabric_workers:
            self._ensure_transport().ensure_workers()

    def plan(self, pending, digests):
        """Cost ``pending`` and plan it for this runner's transport.

        ``digests`` maps each cell to its :meth:`_digest`.  Costing
        probes the shared store when one is set (tier 2 of
        :func:`~repro.experiments.scheduler.job_cost`), so store-held
        cells are priced as fetches.  The inline floor is
        ``inline_threshold`` when given, else the transport's own.  The
        ``fabric`` dry-run prints this plan without running it.
        """
        transport = self._ensure_transport()
        store = self.fabric_store
        costs = [
            scheduler.job_cost(
                cell.workload, self.scale, store=store, digest=digests[cell]
            )
            for cell in pending
        ]
        # The transport's worker count is already capped where it must
        # be (the pool at the local CPUs, subprocess workers never).
        return scheduler.plan_grid(
            pending,
            costs,
            transport.workers,
            max_chunk_jobs=self.chunk,
            schedule=self.schedule,
            inline_threshold=(
                transport.inline_threshold
                if self.inline_threshold is None
                else self.inline_threshold
            ),
            cpus=transport.workers,
        )

    def _dispatch(self, pending, digests):
        """One attempt: plan, run the inline cells, stream the chunks.

        Every outcome is booked as it arrives, so a mid-grid worker
        death loses only the outcomes that never came back.
        """
        plan = self.plan(pending, digests)
        transport = self._transport
        if self.fabric_workers:
            self.summary.inline_jobs += len(plan.inline)
            self.summary.record_fabric_schedule(
                transport.workers if plan.chunks else 0,
                len(plan.chunks),
                plan.pooled_jobs,
            )
        else:
            self.summary.record_schedule(plan)
        for cell, outcome in zip(plan.inline, self._run_cells(plan.inline)):
            self._book(cell, outcome, digests[cell])
        if not plan.chunks:
            return
        stream = transport.execute(self.scale, plan.chunks, plan.chunk_costs)
        for index, outcomes in stream:
            for cell, outcome in zip(plan.chunks[index], outcomes):
                stats = scheduler.unpack_stats(outcome.stats)
                self._book(cell, outcome._replace(stats=stats), digests[cell])
        if self.fabric_workers:
            placement = transport.placement()
            self.summary.record_fabric_placement(placement)
            for key, value in placement["worker_store"].items():
                self.summary.fabric["worker_store_" + key] = value
            self._fabric_event(
                "placement",
                workers=placement["workers"],
                cells_by_worker=placement["cells_by_worker"],
                straggler_seconds=placement["straggler_seconds"],
            )

    def _fabric_event(self, kind, **fields):
        """Optional fabric telemetry hook.

        The base runner drops the event; the exploration service's
        runner overrides this to publish ``fabric.*`` events into its
        progress journal.
        """
