"""Observability for the PolyFlow simulator: event bus, traces, metrics.

Event schema — version 1
========================

Every event carries ``kind, cycle, task, index (trace index), pc,
origin`` where ``origin`` is the trigger PC of the spawn point that
created the event's task (``null`` for the initial task).  Kinds and
their extra fields:

=================  ==========================================================
kind               extra fields
=================  ==========================================================
``task_start``     —  (``index`` is the task's segment start)
``hint``           ``hit`` — the hint table lookup produced a usable target
``spawn_requested``  ``target_index``
``spawn_accepted``   ``target_index, new_task_id, category, nested``
``spawn_rejected``   ``target_index, reason`` (``no-target``, ``not-tail``,
                   ``task-limit``, ``outside-segment``)
``fetch``          —  one per fetched instruction (including re-fetches)
``commit``         —  one per architecturally retired instruction
``violation``      ``store_index, store_pc`` — load speculated past a store
``squash``         ``cause, chain_depth, squashed_instructions``
``task_commit``    ``start_index, end_index, length`` — task merge/commit
=================  ==========================================================

A ``squash`` rewinds its task (fetch restarts at the task's segment
start after the restart penalty) rather than destroying it, so every
started task emits exactly one ``task_commit`` and may emit any number
of ``squash`` events before it.

Lifecycle kinds (``task_start``, ``spawn_accepted``, ``violation``,
``squash``, ``task_commit``) are emitted on every run and drive
:class:`~repro.polyflow.stats.SimStats`.  The remaining high-frequency
kinds are emitted only when a *verbose* sink is attached
(``bus.attach(sink)``; pass ``verbose=False`` to opt out), so untraced
simulations pay nothing for the instrumentation.

Usage::

    from repro.obs import EventBus, JsonlTraceWriter, MetricsAggregator

    bus = EventBus()
    writer = bus.attach(JsonlTraceWriter("run.jsonl"))
    metrics = bus.attach(MetricsAggregator(), verbose=False)
    stats = PolyFlowCore(trace, config, hints, bus=bus).run()
    writer.close()
    print(metrics.render())
"""

from repro.obs.bus import EVENT_SCHEMA_VERSION, EventBus
from repro.obs.events import (
    ALL_KINDS,
    LIFECYCLE_KINDS,
    DependenceViolation,
    Event,
    HintLookup,
    InstructionCommitted,
    InstructionFetched,
    SpawnAccepted,
    SpawnRejected,
    SpawnRequested,
    TaskCommitted,
    TaskSquashed,
    TaskStarted,
)
from repro.obs.bridge import (
    SERVICE_EVENT_SCHEMA_VERSION,
    CallbackSink,
    EventJournal,
    service_event,
)
from repro.obs.metrics import TOTAL_KEYS, MetricsAggregator, merge_metrics
from repro.obs.sinks import ChromeTraceExporter, JsonlTraceWriter

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EventBus",
    "Event",
    "ALL_KINDS",
    "LIFECYCLE_KINDS",
    "TaskStarted",
    "HintLookup",
    "SpawnRequested",
    "SpawnAccepted",
    "SpawnRejected",
    "InstructionFetched",
    "InstructionCommitted",
    "DependenceViolation",
    "TaskSquashed",
    "TaskCommitted",
    "JsonlTraceWriter",
    "ChromeTraceExporter",
    "MetricsAggregator",
    "merge_metrics",
    "TOTAL_KEYS",
    "SERVICE_EVENT_SCHEMA_VERSION",
    "CallbackSink",
    "EventJournal",
    "service_event",
]
