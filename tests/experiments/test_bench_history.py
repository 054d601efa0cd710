"""Unit tests for the benchmark-history series helper.

CI appends one line per run and renders the last-N trajectory into the
step summary; these tests pin the entry shape (normalized by the
machine index), the append/load round-trip, tolerance of corrupt
lines, and the rendering window.
"""

import importlib.util
import json
import os

_HISTORY_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "bench_history.py"
)
_spec = importlib.util.spec_from_file_location("bench_history", _HISTORY_PATH)
history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(history)


def _report(serial_ips=500.0, machine_index=1000.0, **channels):
    report = {
        "schema": 7,
        "scale": 0.5,
        "machine_index": machine_index,
        "serial": {"aggregate_ips": serial_ips},
    }
    for name, ips in channels.items():
        report[name] = {"aggregate_ips": ips}
    return report


def test_entry_normalizes_by_machine_index():
    entry = history.history_entry(
        _report(serial_ips=500.0, machine_index=1000.0), sha="a" * 40
    )
    assert entry["serial"] == 0.5
    assert entry["sha"] == "a" * 12
    assert entry["schema"] == 7


def test_entry_ignores_engine_channels_of_older_schemas():
    """Schema-6 reports carried ``blocks``/``event_kernel`` channels
    timing engine variants that no longer exist; they are not tracked."""
    entry = history.history_entry(_report(blocks=550.0, event_kernel=600.0))
    assert "blocks" not in entry
    assert "event_kernel" not in entry


def test_entry_includes_efficiency_when_present():
    report = _report()
    report["efficiency"] = {"ratio": 1.8, "mode": "pool", "cpus": 4}
    assert history.history_entry(report)["efficiency"] == 1.8
    assert history.history_entry(_report()).get("efficiency") is None


def test_append_and_load_round_trip(tmp_path):
    path = str(tmp_path / "nested" / "history.jsonl")
    history.append_entry(path, history.history_entry(_report(), sha="abc123def456"))
    history.append_entry(path, history.history_entry(_report(serial_ips=550.0)))
    entries = history.load_history(path)
    assert len(entries) == 2
    assert entries[0]["sha"] == "abc123def456"
    assert entries[1]["serial"] == 0.55


def test_load_skips_corrupt_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text(
        json.dumps({"serial": 0.5}) + "\nnot json\n\n" + json.dumps({"serial": 0.6}) + "\n"
    )
    assert [entry["serial"] for entry in history.load_history(str(path))] == [0.5, 0.6]


def test_load_missing_file_is_empty(tmp_path):
    assert history.load_history(str(tmp_path / "absent.jsonl")) == []


def test_render_windows_to_last_n():
    entries = [
        {"sha": "run{:02d}".format(i), "serial": 0.5 + i / 100.0} for i in range(30)
    ]
    rendered = history.render_markdown(entries, last=5)
    assert "last 5 of 30 runs" in rendered
    assert "run29" in rendered and "run25" in rendered
    assert "run24" not in rendered
    # absolute run numbering, not window-relative
    assert "| 26 | run25 |" in rendered
    assert "| 30 | run29 |" in rendered


def test_render_tolerates_missing_channels():
    rendered = history.render_markdown([{"sha": None, "serial": 0.5}], last=10)
    assert "| 1 | — | 0.500000 | — | — | — |" in rendered
