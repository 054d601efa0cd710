"""Fault injection against the running service.

Three production failure modes, injected deterministically via
:mod:`tests.faults`:

* one worker death mid-grid — the runner restarts the pool and
  replans, the client still gets correct stats, ``/healthz`` counts
  the restart;
* worker deaths past the retry budget — the engine degrades the batch
  to per-cell inline execution and still answers correctly;
* a corrupt on-disk cache entry — detected (not served), re-simulated,
  rewritten clean, and surfaced in the incident counters.
"""

from repro.experiments.parallel import ResultCache
from repro.experiments.runner import Cell, ExperimentRunner
from repro.polyflow import PAPER_CONFIG
from repro.service import wire
from tests.faults import broken_pool, corrupt_cache_entry
from tests.helpers import force_pool

_SCALE = 0.1
_CELLS = [
    {"workload": "gzip", "spec": "postdoms"},
    {"workload": "twolf", "spec": "postdoms"},
]


def _assert_serial_identical(response, cells=_CELLS):
    serial = ExperimentRunner(scale=_SCALE)
    assert len(response["results"]) == len(cells)
    for cell, result in zip(cells, response["results"]):
        truth = wire.encode_stats(serial.run_policy(cell["workload"], cell["spec"]))
        assert wire.canonical_json(result["stats"]) == wire.canonical_json(truth)


def _pooled_service(service_factory, monkeypatch, **kwargs):
    force_pool(monkeypatch, cpus=4)
    return service_factory(jobs=2, window_seconds=0.0, **kwargs)


def test_worker_death_is_retried_on_a_fresh_pool(service_factory, monkeypatch):
    running = _pooled_service(service_factory, monkeypatch)
    client = running.client()
    with broken_pool(fail_submits={0}) as plan:
        response = client.query(_CELLS, scale=_SCALE)
    assert plan.broken == 1

    _assert_serial_identical(response)
    assert all(r["source"] != wire.SOURCE_ERROR for r in response["results"])

    health = client.healthz()
    assert health["engine"]["incidents"]["pool_restarts"] == 1
    assert health["engine"]["cells"]["by_source"]["error"] == 0
    kinds = [
        event
        for event in client.events(follow=False)
        if event["kind"] == "incident"
    ]
    assert any(event["type"] == "pool_restart" for event in kinds)


def test_persistent_worker_deaths_degrade_to_inline(
    service_factory, monkeypatch
):
    running = _pooled_service(service_factory, monkeypatch)
    client = running.client()
    # Kill every pool submission: the retry pool dies too, so the
    # engine must fall back to per-cell inline execution.
    with broken_pool(fail_submits=set(range(64))) as plan:
        response = client.query(_CELLS, scale=_SCALE)
    assert plan.broken >= 2

    _assert_serial_identical(response)
    health = client.healthz()
    assert health["engine"]["batches"]["degraded"] == 1
    assert health["engine"]["incidents"]["pool_restarts"] == 2
    assert health["engine"]["cells"]["by_source"]["error"] == 0
    kinds = {event["kind"] for event in client.events(follow=False)}
    assert "batch_degraded" in kinds


def test_corrupt_cache_entry_is_resimulated_and_rewritten(
    service_factory, tmp_path
):
    cache_dir = str(tmp_path / "shared-cache")
    first = service_factory(window_seconds=0.0, cache_dir=cache_dir)
    warmed = first.client().query(_CELLS, scale=_SCALE)
    first.stop()

    damaged = corrupt_cache_entry(
        cache_dir, "gzip", "postdoms", _SCALE, PAPER_CONFIG
    )

    second = service_factory(window_seconds=0.0, cache_dir=cache_dir)
    client = second.client()
    response = client.query(_CELLS, scale=_SCALE)

    # The damaged entry was re-simulated (and labelled honestly); the
    # intact one was served from disk.  Stats match the warm run.
    sources = {r["workload"]: r["source"] for r in response["results"]}
    assert sources == {"gzip": "simulated", "twolf": "cache"}
    for before, after in zip(warmed["results"], response["results"]):
        assert wire.canonical_json(before["stats"]) == wire.canonical_json(
            after["stats"]
        )

    health = client.healthz()
    assert health["engine"]["incidents"]["corrupt_cache_entries"] == 1
    assert health["engine"]["summary"]["corrupt_cache_paths"] == [damaged]
    incidents = [
        event
        for event in client.events(follow=False)
        if event["kind"] == "incident"
    ]
    assert any(
        event["type"] == "corrupt_cache_entry" and event["path"] == damaged
        for event in incidents
    )

    # The re-simulation rewrote the entry; it now passes verification.
    reader = ResultCache(cache_dir)
    cell = Cell("gzip", "postdoms", PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
    digest = cell.digest(_SCALE)
    assert reader.path(digest) == damaged
    assert reader.load(digest) is not None
    assert (reader.hits, reader.corrupt) == (1, 0)
