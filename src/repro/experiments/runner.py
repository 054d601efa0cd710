"""Experiment runner: sweeps (workload, policy) pairs with caching.

One :class:`ExperimentRunner` prepares each workload once (program,
trace, CFGs, spawn analysis, profile) and then materializes any spawn
policy on demand.  The superscalar baseline and every policy run are
cached, so the per-figure generators share work.

All simulations funnel through the module-level :func:`simulate_job`,
which depends only on picklable inputs (workload name, policy spec,
scale, :class:`~repro.polyflow.config.MachineConfig`).  That makes the
same code path usable from worker processes — see
:mod:`repro.experiments.parallel` for the ``ProcessPoolExecutor``
fan-out and the on-disk result cache layered on top.

Two values cross every layer of that stack: a :class:`Cell` names one
grid cell (its digest addresses the cell's cache entry), and an
:class:`Outcome` carries what running or fetching it produced.  One
function, :func:`run_key`, says from a cell alone which kernel run it
makes; the executor and the pool planner both group cells by it.
"""

import hashlib
import json
from typing import NamedTuple

from repro.polyflow import PAPER_CONFIG, PolyFlowCore, superscalar_config
from repro.polyflow.config import config_fingerprint
from repro.polyflow.stats import speedup_percent
from repro.spawn import canonical_spec
from repro.spawn.hints import HintTable
from repro.workloads import WORKLOAD_NAMES, prepare_workload

#: Policy spec used for the dynamic reconvergence predictor (Figure 12).
REC_PRED_SPEC = "rec_pred"

#: Pseudo-spec naming the superscalar baseline run.  ``simulate_job``
#: restricts the machine itself (``superscalar_config``), so callers
#: always pass the *PolyFlow* configuration alongside this spec.
SUPERSCALAR_SPEC = "superscalar"

#: Bump to invalidate every existing result-cache entry (e.g. when the
#: simulator's timing model changes in a way the config cannot see).
#: v2: entries grew an optional per-spawn-point metrics snapshot.
#: v3: entries are sha256-verified envelopes (see
#: :class:`~repro.experiments.parallel.ResultCache`).
CACHE_FORMAT_VERSION = 3


class _CellFields(NamedTuple):
    workload: str
    spec: str
    config: object
    profile_distance: object


class Cell(_CellFields):
    """One grid cell: a workload under a policy spec on one machine.

    The spec is canonicalized at construction, so an alias and its
    canonical spec name the same cell.  The cell is the runner's memo
    key; with the runner's scale, :meth:`digest` is the content address
    of its result-cache entry.  ``profile_distance`` is the maximum
    spawn distance the profile was taken at (see :func:`build_core`).
    """

    __slots__ = ()

    def __new__(cls, workload, spec, config, profile_distance):
        return super().__new__(
            cls, workload, canonical_spec(spec), config, profile_distance
        )

    def digest(self, scale):
        """Content address of this cell's result at ``scale``: a sha256
        over every input that can change the stats, plus the cache
        format version."""
        payload = json.dumps(
            {
                "version": CACHE_FORMAT_VERSION,
                "workload": self.workload,
                "spec": self.spec,
                "scale": repr(scale),
                "config": config_fingerprint(self.config),
                "profile_distance": self.profile_distance,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def meta(self, scale):
        """The metadata header stored beside this cell's stats."""
        return {
            "workload": self.workload,
            "spec": self.spec,
            "scale": scale,
            "config_fingerprint": config_fingerprint(self.config),
            "profile_distance": self.profile_distance,
            "version": CACHE_FORMAT_VERSION,
        }


class Outcome(NamedTuple):
    """What running, or fetching, one cell produced.

    ``stats`` comes first, so ``outcome[0]`` is the stats.  ``blocks``
    is the cell's block-cache counter movement.  ``source`` is
    ``"simulated"`` or ``"cache"`` (the result cache).  ``shared``
    marks a cell whose stats were copied from an identical cell's
    kernel run.
    """

    stats: object
    metrics: object = None
    seconds: float = 0.0
    blocks: object = None
    source: str = "simulated"
    shared: bool = False


def machine_config(spec, config):
    """The configuration a core for ``spec`` is built with: the
    superscalar restriction of ``config`` for the baseline spec, else
    ``config`` itself.  Cells of one workload whose machine
    configurations fingerprint alike run on one machine."""
    if canonical_spec(spec) == SUPERSCALAR_SPEC:
        return superscalar_config(config)
    return config


class RunKey(NamedTuple):
    """What makes a cell a distinct kernel run (see :func:`run_key`)."""

    workload: str
    machine: str
    kind: str
    hints: object


def _hint_table(cell, scale):
    """The hint table a core of ``cell`` reads: empty for the
    superscalar baseline, ``None`` for ``rec_pred`` (its spawner builds
    a table from the trace and the machine)."""
    if cell.spec == SUPERSCALAR_SPEC:
        return HintTable()
    if cell.spec == REC_PRED_SPEC:
        return None
    distance = cell.profile_distance
    if distance is None:
        distance = cell.config.max_spawn_distance
    prepared = prepare_workload(cell.workload, scale)
    policy = prepared.spawn_analysis.policy(cell.spec)
    return prepared.spawn_profile(distance).hint_table(policy)


def run_key(cell, scale):
    """The kernel run ``cell`` makes at ``scale``, known before any
    core is built: cells with equal keys run the same simulation.

    The key holds the workload, the fingerprint of the machine the core
    runs on (:func:`machine_config`), the spawn-unit kind (``static``,
    ``rec_pred`` or ``superscalar``) and the hint table the unit reads,
    compared by contents.  A ``rec_pred`` table is a function of the
    trace and the machine, already in the key, so it is left out.
    """
    spec = cell.spec
    return RunKey(
        cell.workload,
        config_fingerprint(machine_config(spec, cell.config)),
        spec if spec in (SUPERSCALAR_SPEC, REC_PRED_SPEC) else "static",
        _hint_table(cell, scale),
    )


def build_core(name, spec, scale, config, profile_distance=None, bus=None, hints=None):
    """Construct the :class:`PolyFlowCore` for one (workload, policy) job.

    This is the single place the experiment harness turns a picklable
    job description into a runnable core, so every caller — the serial
    runner, the process-pool workers, and the ``trace`` CLI — gets the
    identical machine.  Pass ``bus`` to attach observability sinks
    before the run starts (see :mod:`repro.obs`).

    Args:
        name: Workload name (see :data:`~repro.workloads.WORKLOAD_NAMES`).
        spec: Policy spec (aliases like ``control-equivalent`` are
            resolved), :data:`REC_PRED_SPEC`, or
            :data:`SUPERSCALAR_SPEC` for the baseline.
        scale: Workload scale factor.
        config: The PolyFlow :class:`MachineConfig`
            (:func:`machine_config` restricts it for the baseline
            spec).
        profile_distance: Maximum spawn distance used when *profiling*
            spawn points (defaults to ``config.max_spawn_distance``).
            Ablations sweep the machine's distance cap while keeping
            the profile fixed; this keeps those runs reproducible.
        bus: Optional :class:`~repro.obs.EventBus` carrying trace or
            metrics sinks.
        hints: The hint table of the job's :func:`run_key`, if
            already derived.
    """
    cell = Cell(name, spec, config, profile_distance)
    if hints is None:
        hints = _hint_table(cell, scale)
    prepared = prepare_workload(name, scale)
    core = PolyFlowCore(prepared.trace, machine_config(cell.spec, config), hints, bus=bus)
    if cell.spec == REC_PRED_SPEC:
        from repro.reconvergence import build_reconvergence_spawner

        core.spawn_unit = build_reconvergence_spawner(prepared, config)
    return core


def simulate_job(name, spec, scale, config, profile_distance=None):
    """Run one (workload, policy) cycle-level simulation.

    This is the single entry point for every simulation the experiment
    harness performs; serial and parallel execution differ only in
    where it runs.  All arguments and the returned
    :class:`~repro.polyflow.stats.SimStats` are picklable.  See
    :func:`build_core` for the argument semantics.
    """
    return build_core(name, spec, scale, config, profile_distance).run()


class ExperimentRunner:
    """The non-sharing serial reference: one :func:`simulate_job` per
    cell, memoized.

    Simulation outcomes live in an in-memory memo keyed by
    :class:`Cell`; the cell's digest addresses the on-disk cache of
    :class:`~repro.experiments.parallel.ParallelExperimentRunner`,
    which runs every cell through :func:`~repro.sim.gridbatch.run_batch`
    and shares kernel runs by :func:`run_key`.  This runner shares
    nothing on purpose: ``query --serial``, the service suites and the
    e2e service checks diff the sharing paths against it, so a fault
    in keying or sharing cannot hide in both sides of the diff.
    """

    def __init__(self, scale=1.0, config=PAPER_CONFIG, workload_names=WORKLOAD_NAMES):
        self.scale = scale
        self.config = config
        self.workload_names = tuple(workload_names)
        self._workloads = {}
        self._results = {}

    # -- preparation -----------------------------------------------------------

    def workload(self, name):
        """The :class:`~repro.workloads.suite.PreparedWorkload` (memoized)."""
        if name not in self._workloads:
            self._workloads[name] = prepare_workload(name, self.scale)
        return self._workloads[name]

    # -- simulation ---------------------------------------------------------------

    def _book(self, cell, outcome):
        """Memoize one cell's outcome (the memo's only writer; the
        parallel runner also books it on its summary and caches)."""
        self._results[cell] = outcome

    def _simulate(self, cell):
        """Run one cell in-process and book it (overridden by the
        parallel runner to consult the on-disk cache)."""
        name, spec, config, profile_distance = cell
        stats = simulate_job(name, spec, self.scale, config, profile_distance)
        self._book(cell, Outcome(stats))

    def run_with_config(self, name, spec, config, profile_distance=None):
        """Stats for ``name`` under ``spec`` and an arbitrary machine
        configuration (cached).

        ``profile_distance`` defaults to the *runner's* configured
        ``max_spawn_distance`` so that configuration sweeps reuse one
        profile, matching the serial harness's historical behaviour.
        """
        if profile_distance is None:
            profile_distance = self.config.max_spawn_distance
        cell = Cell(name, spec, config, profile_distance)
        outcome = self._results.get(cell)
        if outcome is None:
            self._simulate(cell)
            outcome = self._results[cell]
        return outcome.stats

    def baseline(self, name):
        """Superscalar stats for ``name`` (cached)."""
        return self.run_with_config(name, SUPERSCALAR_SPEC, self.config)

    def run_policy(self, name, spec):
        """PolyFlow stats for ``name`` under policy ``spec`` (cached)."""
        return self.run_with_config(name, spec, self.config)

    def speedup(self, name, spec):
        """Speedup (%) of policy ``spec`` over the superscalar baseline."""
        return speedup_percent(self.run_policy(name, spec), self.baseline(name))

    def speedups_for_specs(self, specs):
        """Mapping ``{workload: {spec: speedup%}}`` plus an Average row."""
        self.prefetch(
            [(name, spec) for name in self.workload_names for spec in specs]
            + [(name, SUPERSCALAR_SPEC) for name in self.workload_names]
        )
        table = {}
        for name in self.workload_names:
            table[name] = {spec: self.speedup(name, spec) for spec in specs}
        table["Average"] = {
            spec: sum(table[name][spec] for name in self.workload_names)
            / len(self.workload_names)
            for spec in specs
        }
        return table

    # -- batched execution --------------------------------------------------------

    def normalize_jobs(self, jobs):
        """Deduplicated, deterministically ordered :class:`Cell` list.

        Accepts ``(name, spec)`` pairs (run under the runner's config),
        ``(name, spec, config)`` triples or :class:`Cell`\\ s, and
        returns the cells not yet memoized, sorted by workload then the
        spec as first given (profiled at the runner's
        ``max_spawn_distance``).
        """
        normalized = {}
        for job in jobs:
            if isinstance(job, Cell):
                cell = job
            else:
                name, spec, *config = job
                config = config[0] if config else self.config
                cell = Cell(name, spec, config, self.config.max_spawn_distance)
            if cell not in self._results:
                normalized.setdefault(cell, job[:2])
        ordered = sorted(normalized.items(), key=lambda item: item[1])
        return [cell for cell, _ in ordered]

    def prefetch(self, jobs):
        """Ensure every job's stats are memoized (serially, in order).

        The parallel runner overrides this with a process-pool fan-out;
        the serial implementation exists so call sites never need to
        care which runner they hold.  Returns the number of
        simulations actually run.
        """
        pending = self.normalize_jobs(jobs)
        for cell in pending:
            self._simulate(cell)
        return len(pending)
