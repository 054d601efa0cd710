"""Machine configuration (the paper's Figure 8 pipeline parameters)."""

import dataclasses
import functools
import hashlib
import json

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Configuration of the PolyFlow core and its superscalar baseline.

    Defaults reproduce Figure 8.  The superscalar baseline is the same
    machine restricted to one task (see :func:`superscalar_config`).
    """

    #: Pipeline width (fetch/dispatch/issue/retire per cycle).
    width: int = 8
    #: Reorder buffer entries, dynamically shared among tasks.
    rob_entries: int = 512
    #: Scheduler entries, dynamically shared.
    scheduler_entries: int = 64
    #: Divert queue entries, dynamically shared.
    divert_queue_entries: int = 128
    #: Maximum concurrently active tasks.
    max_tasks: int = 8
    #: Tasks that may fetch in one cycle (PolyFlow: 2; superscalar: 1).
    fetch_tasks_per_cycle: int = 2
    #: Minimum branch misprediction penalty in cycles ("at least 8").
    mispredict_penalty: int = 8
    #: Front-end depth: cycles between fetch and earliest issue.
    frontend_latency: int = 4
    #: Number of identical general-purpose functional units.
    functional_units: int = 8
    #: Integer multiply latency.
    mul_latency: int = 3
    #: gshare predictor size in 2-bit counters (16Kbit total).
    gshare_counters: int = 8192
    #: gshare global history bits.
    gshare_history_bits: int = 8
    #: Biased-ICount fetch priority bonus for the head task.
    head_bias: int = 16
    #: Spawn targets closer than this are not worth a task context.
    min_spawn_distance: int = 4
    #: Spawn targets further than this are "too far into the future".
    max_spawn_distance: int = 512
    #: Restart delay after a task squash.
    squash_restart_penalty: int = 3
    #: When a diverted consumer may enter the scheduler: after its
    #: producers complete ("complete"), or after they have merely been
    #: dispatched ("dispatch", the paper's wording; the wakeup network
    #: covers the remaining wait).
    divert_release: str = "dispatch"
    #: Maximum scheduler entries one speculative task may hold (the
    #: head task is exempt).  Stops a young task's far-future dependence
    #: chains from starving near-retirement work out of the scheduler.
    scheduler_per_task_quota: int = 24
    #: The paper's future-work extension: let non-tail tasks spawn by
    #: splitting their own segment ("the current system allows each
    #: thread to spawn only a single successor, so PolyFlow ... is
    #: unable to spawn past the branch in the inner hammock.  We hope
    #: to address both of these limitations in future work").
    nested_spawns: bool = False
    #: Warm the caches by replaying the trace's footprint before timing
    #: (models the paper's fast-forward through program initialization).
    warm_caches: bool = True
    #: Suppress a spawn point after this many violation squashes ...
    spawn_feedback_threshold: int = 4
    #: ... when its squash/spawn ratio exceeds this fraction.
    spawn_feedback_ratio: float = 0.5

    def __post_init__(self):
        if self.max_tasks < 1:
            raise ConfigurationError("max_tasks must be at least 1")
        if self.fetch_tasks_per_cycle < 1:
            raise ConfigurationError("fetch_tasks_per_cycle must be at least 1")
        if self.fetch_tasks_per_cycle > self.max_tasks:
            raise ConfigurationError(
                "cannot fetch from more tasks per cycle than can exist"
            )
        if (
            self.width < 1
            or self.rob_entries < 1
            or self.scheduler_entries < 1
            or self.functional_units < 1
            or self.gshare_counters < 1
        ):
            raise ConfigurationError("pipeline resources must be positive")
        if self.width < self.fetch_tasks_per_cycle:
            # Each fetching task gets width // ports slots: zero here.
            raise ConfigurationError(
                "width must be at least fetch_tasks_per_cycle"
            )
        if self.mul_latency < 1:
            # A completion due the cycle of its issue is never processed.
            raise ConfigurationError("mul_latency must be at least 1")
        if self.divert_release not in ("dispatch", "complete"):
            raise ConfigurationError(
                "divert_release must be 'dispatch' or 'complete'"
            )


#: PolyFlow as evaluated in the paper (Figure 8).
PAPER_CONFIG = MachineConfig()


@functools.lru_cache(maxsize=None)
def config_fingerprint(config):
    """A stable hex digest of every field of a :class:`MachineConfig`.

    Field names are included and sorted, so the fingerprint survives
    field reordering but changes whenever any parameter (or a field's
    name) changes.  Used to key simulation results — both the in-memory
    memo and the on-disk cache in :mod:`repro.experiments.parallel` —
    so stale results can never be served for a different machine.

    Memoized on the (frozen, hashable) config value: every grid cell
    consults the fingerprint several times per dispatch — memo keys,
    job digests, job labels, wire responses — and the asdict/json walk
    dominated grid-planning profiles before the cache.
    """
    fields = dataclasses.asdict(config)
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def superscalar_config(base=PAPER_CONFIG):
    """The baseline: same resources, one task, one fetch stream.

    "Both PolyFlow's underlying SMT and the baseline superscalar use the
    same hardware resources.  The superscalar is capable of fetching a
    maximum of one taken branch per cycle."
    """
    return dataclasses.replace(base, max_tasks=1, fetch_tasks_per_cycle=1)


def figure8_rows():
    """The Figure 8 parameter table as (parameter, value) rows."""
    return [
        ("Pipeline Width", "8 instrs/cycle"),
        ("Branch Predictor", "16Kbit gshare, 8 bits of global history"),
        ("Misprediction Penalty", "At least 8 cycles"),
        ("Reorder Buffer", "512 entries, dynamically shared"),
        ("Scheduler", "64 entries, dynamically shared"),
        ("Functional Units", "8 identical general purpose units"),
        ("L1 I-Cache", "8Kbytes, 2-way set assoc., 128 byte lines, 10 cycle miss"),
        ("L1 D-Cache", "16Kbytes, 4-way set assoc., 64 byte lines, 10 cycle miss"),
        ("L2 Cache", "512Kbytes, 8-way set assoc., 128 byte lines, 100 cycle miss"),
        ("Divert Queue", "128 entries, dynamically shared"),
        ("Tasks", "8"),
    ]
