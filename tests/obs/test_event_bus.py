"""Unit tests for the event bus, the typed events, and the sinks."""

import io
import json

from repro.obs import (
    ALL_KINDS,
    EVENT_SCHEMA_VERSION,
    LIFECYCLE_KINDS,
    ChromeTraceExporter,
    EventBus,
    InstructionFetched,
    JsonlTraceWriter,
    MetricsAggregator,
    SpawnAccepted,
    TaskCommitted,
    TaskStarted,
    merge_metrics,
)
from repro.polyflow import PAPER_CONFIG, PolyFlowCore
from repro.spawn import profile_spawn_points
from repro.workloads import prepare_workload

_SCALE = 0.1


def _run(name="twolf", spec="postdoms", bus=None):
    prepared = prepare_workload(name, _SCALE)
    policy = prepared.spawn_analysis.policy(spec)
    profile = profile_spawn_points(prepared.trace, policy.points)
    core = PolyFlowCore(
        prepared.trace, PAPER_CONFIG, profile.hint_table(policy), bus=bus
    )
    return core.run()


class _Recorder:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# -- bus dispatch -----------------------------------------------------------------


def test_bus_not_verbose_without_sinks():
    bus = EventBus()
    assert not bus.verbose
    bus.attach(_Recorder(), verbose=False)
    assert not bus.verbose
    bus.attach(_Recorder())
    assert bus.verbose


def test_non_verbose_sink_sees_only_lifecycle_events():
    bus = EventBus()
    quiet = bus.attach(_Recorder(), verbose=False)
    _run(bus=bus)
    kinds = {event.kind for event in quiet.events}
    assert kinds  # lifecycle events always flow
    assert kinds <= set(LIFECYCLE_KINDS)


def test_verbose_sink_sees_per_instruction_events():
    bus = EventBus()
    recorder = bus.attach(_Recorder())
    stats = _run(bus=bus)
    kinds = {event.kind for event in recorder.events}
    assert "fetch" in kinds and "commit" in kinds
    fetches = sum(1 for event in recorder.events if event.kind == "fetch")
    commits = sum(1 for event in recorder.events if event.kind == "commit")
    assert fetches == stats.fetched_instructions
    assert commits == stats.retired_instructions


def test_stats_identical_with_and_without_sinks():
    plain = _run()
    bus = EventBus()
    bus.attach(_Recorder())
    bus.attach(MetricsAggregator())
    observed = _run(bus=bus)
    assert plain.as_dict() == observed.as_dict()


def test_event_as_dict_covers_schema_fields():
    event = SpawnAccepted(7, 1, 100, 0x9000, None, 140, 2, None, False)
    payload = event.as_dict()
    for field in ("kind", "cycle", "task", "index", "pc", "origin"):
        assert field in payload
    assert payload["kind"] in ALL_KINDS
    assert payload["new_task_id"] == 2


# -- JSONL writer -----------------------------------------------------------------


def test_jsonl_writer_output_is_valid_and_deterministic():
    def render():
        buffer = io.StringIO()
        bus = EventBus()
        writer = bus.attach(JsonlTraceWriter(buffer))
        _run(bus=bus)
        writer.close()
        return buffer.getvalue()

    first = render()
    assert first == render()
    lines = first.splitlines()
    header = json.loads(lines[0])
    assert header == {"kind": "header", "schema": EVENT_SCHEMA_VERSION}
    for line in lines[1:]:
        payload = json.loads(line)
        assert payload["kind"] in ALL_KINDS
        # Deterministic serialization: compact separators, sorted keys.
        assert line == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_jsonl_writer_kind_filter():
    buffer = io.StringIO()
    bus = EventBus()
    writer = bus.attach(JsonlTraceWriter(buffer, kinds=("task_start",)))
    bus.emit(TaskStarted(0, 0, 0, 0x9000, None))
    bus.emit(InstructionFetched(1, 0, 0, 0x9000, None))
    writer.close()
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 2  # header + the one task_start
    assert json.loads(lines[1])["kind"] == "task_start"
    assert writer.events_written == 1


# -- Chrome trace exporter --------------------------------------------------------


def test_chrome_trace_is_loadable_and_balanced(tmp_path):
    path = str(tmp_path / "trace.json")
    bus = EventBus()
    exporter = bus.attach(ChromeTraceExporter(path))
    _run(bus=bus)
    exporter.close()
    with open(path) as handle:
        document = json.load(handle)
    events = document["traceEvents"]
    assert events, "empty Chrome trace"
    begins = [event for event in events if event["ph"] == "B"]
    ends = [event for event in events if event["ph"] == "E"]
    assert len(begins) == len(ends)
    for event in events:
        assert event["ph"] in ("B", "E", "M", "i")
        if event["ph"] != "M":
            assert isinstance(event["ts"], (int, float))


# -- metrics aggregation ----------------------------------------------------------


def test_merge_metrics_matches_single_aggregation():
    bus = EventBus()
    aggregator = bus.attach(MetricsAggregator())
    _run(bus=bus)
    whole = aggregator.as_dict()

    # Merging a snapshot with an empty one is the identity.
    assert merge_metrics([whole, None, {}]) == whole

    # Merging a snapshot with itself doubles every raw counter but
    # keeps the derived ratios consistent.
    doubled = merge_metrics([whole, whole])
    assert doubled["totals"]["committed"] == 2 * whole["totals"]["committed"]
    assert doubled["totals"]["spawns"] == 2 * whole["totals"]["spawns"]
    assert (
        doubled["totals"]["useful_commit_ratio"]
        == whole["totals"]["useful_commit_ratio"]
    )


def test_metrics_snapshot_is_json_roundtrippable():
    bus = EventBus()
    aggregator = bus.attach(MetricsAggregator())
    _run(bus=bus)
    snapshot = aggregator.as_dict()
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_task_commit_lengths_cover_the_trace():
    bus = EventBus()
    recorder = bus.attach(_Recorder(), verbose=False)
    stats = _run(bus=bus)
    lengths = sum(
        event.length for event in recorder.events if event.kind == "task_commit"
    )
    assert lengths == stats.retired_instructions
