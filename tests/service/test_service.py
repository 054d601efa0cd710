"""End-to-end service tests: byte identity, caching tiers, telemetry."""

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.polyflow import PAPER_CONFIG
from repro.service import wire
from repro.service.client import ServiceQueryError, ServiceResponseError

_SCALE = 0.1
_CELLS = [
    {"workload": "gzip", "spec": "postdoms"},
    {"workload": "synth/L1H1C0I0P0S0V0", "spec": "postdoms"},
]


def _serial_stats(cells, scale=_SCALE):
    """Ground truth: the direct serial runner, fresh memo, no caches."""
    runner = ExperimentRunner(scale=scale)
    encoded = []
    for cell in cells:
        stats = runner.run_policy(cell["workload"], cell["spec"])
        encoded.append(wire.encode_stats(stats))
    return encoded


def test_query_results_are_byte_identical_to_serial(service_factory):
    client = service_factory(window_seconds=0.0).client()
    response = client.query(_CELLS, scale=_SCALE)

    assert response["schema"] == wire.WIRE_SCHEMA_VERSION
    assert response["scale"] == _SCALE
    assert [r["workload"] for r in response["results"]] == [
        c["workload"] for c in _CELLS
    ]
    assert [r["source"] for r in response["results"]] == ["simulated", "simulated"]

    for result, truth in zip(response["results"], _serial_stats(_CELLS)):
        assert wire.canonical_json(result["stats"]) == wire.canonical_json(truth)


def test_repeat_query_is_answered_from_memo(service_factory):
    running = service_factory(window_seconds=0.0)
    client = running.client()
    first = client.query(_CELLS, scale=_SCALE)
    second = client.query(_CELLS, scale=_SCALE)

    assert [r["source"] for r in second["results"]] == ["memo", "memo"]
    for before, after in zip(first["results"], second["results"]):
        assert wire.canonical_json(before["stats"]) == wire.canonical_json(
            after["stats"]
        )

    health = client.healthz()
    by_source = health["engine"]["cells"]["by_source"]
    assert by_source["simulated"] == 2
    assert by_source["memo"] == 2
    assert health["engine"]["summary"]["jobs_run"] == 2


def test_disk_cache_hits_skip_simulation_across_restarts(service_factory, tmp_path):
    cache_dir = str(tmp_path / "shared-cache")
    first = service_factory(window_seconds=0.0, cache_dir=cache_dir)
    warmed = first.client().query(_CELLS, scale=_SCALE)
    first.stop()

    second = service_factory(window_seconds=0.0, cache_dir=cache_dir)
    client = second.client()
    response = client.query(_CELLS, scale=_SCALE)
    assert [r["source"] for r in response["results"]] == ["cache", "cache"]
    for before, after in zip(warmed["results"], response["results"]):
        assert wire.canonical_json(before["stats"]) == wire.canonical_json(
            after["stats"]
        )
    assert client.healthz()["engine"]["summary"]["jobs_run"] == 0


def test_malformed_queries_answer_400(service_factory):
    client = service_factory(window_seconds=0.0).client()
    status, _, payload = client.query_raw(
        [{"workload": "nonesuch", "spec": "postdoms"}], scale=_SCALE
    )
    assert status == 400
    assert "unknown workload" in payload["error"]

    with pytest.raises(ServiceResponseError) as excinfo:
        client.query([{"workload": "gzip", "spec": "postdoms"}], scale=-2)
    assert excinfo.value.status == 400


def test_bad_policy_cell_fails_alone(service_factory):
    """A cell whose policy spec fails to build answers ``error`` while
    the other cells in the same query still return correct stats."""
    client = service_factory(window_seconds=0.0).client()
    cells = [
        {"workload": "gzip", "spec": "postdoms"},
        {"workload": "gzip", "spec": "postdoms(bogus-knob=1)"},
    ]
    with pytest.raises(ServiceQueryError):
        client.query(cells, scale=_SCALE)

    response = client.query(cells, scale=_SCALE, allow_errors=True)
    good, bad = response["results"]
    assert good["source"] != wire.SOURCE_ERROR
    assert bad["source"] == wire.SOURCE_ERROR
    assert bad["error"]
    (truth,) = _serial_stats([cells[0]])
    assert wire.canonical_json(good["stats"]) == wire.canonical_json(truth)

    health = client.healthz()
    assert health["engine"]["cells"]["by_source"]["error"] >= 1


def test_config_override_cells_simulate_the_override(service_factory):
    client = service_factory(window_seconds=0.0).client()
    cell = {"workload": "gzip", "spec": "postdoms", "config": {"rob_entries": 64}}
    response = client.query([cell], scale=_SCALE)

    import dataclasses

    runner = ExperimentRunner(scale=_SCALE)
    truth = runner.run_with_config(
        "gzip", "postdoms", dataclasses.replace(PAPER_CONFIG, rob_entries=64)
    )
    assert wire.canonical_json(
        response["results"][0]["stats"]
    ) == wire.canonical_json(wire.encode_stats(truth))


def test_events_stream_records_the_query_lifecycle(service_factory):
    running = service_factory(window_seconds=0.0)
    client = running.client()
    client.query(_CELLS, scale=_SCALE)

    kinds = {event["kind"] for event in client.events(follow=False)}
    assert "service_start" in kinds
    assert "query_admitted" in kinds
    assert "batch_start" in kinds
    assert "batch_done" in kinds
    # Inline simulations bridge their lifecycle events into the stream.
    assert any(kind.startswith("sim.") for kind in kinds)


def test_healthz_shape(service_factory):
    client = service_factory(window_seconds=0.0).client()
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["schema"] == wire.WIRE_SCHEMA_VERSION
    assert health["admission"]["queue_depth_limit"] >= 1
    engine = health["engine"]
    assert set(engine["cells"]["by_source"]) == {
        "memo",
        "cache",
        "simulated",
        "estimated",
        "error",
    }
    assert set(engine["incidents"]) == {"corrupt_cache_entries", "pool_restarts"}


# -- estimate mode ----------------------------------------------------------------


def test_estimate_queries_answer_analytically(service_factory):
    """``estimate: true`` answers every cell from the Tier A estimator:
    no simulation, ``source=estimated``, and the prediction matches a
    direct ``estimate_speedup`` call byte for byte."""
    from repro.analysis.estimate import estimate_speedup

    running = service_factory(window_seconds=0.0)
    client = running.client()
    response = client.query(_CELLS, scale=_SCALE, estimate=True)

    assert response["schema"] == wire.WIRE_SCHEMA_VERSION
    assert [r["source"] for r in response["results"]] == [
        "estimated",
        "estimated",
    ]
    for result, cell in zip(response["results"], _CELLS):
        assert "stats" not in result
        direct = estimate_speedup(cell["workload"], cell["spec"], _SCALE)
        assert wire.canonical_json(result["estimate"]) == wire.canonical_json(
            wire.encode_estimate(direct)
        )

    health = client.healthz()
    assert health["engine"]["cells"]["by_source"]["estimated"] == 2
    assert health["engine"]["cells"]["by_source"]["simulated"] == 0
    assert health["engine"]["summary"]["jobs_run"] == 0


def test_estimate_mode_does_not_poison_the_memo(service_factory):
    """An estimate query then the same cells exactly: the exact pass
    must simulate (no memo hit from the analytic answers) and report
    true stats."""
    client = service_factory(window_seconds=0.0).client()
    client.query(_CELLS, scale=_SCALE, estimate=True)
    exact = client.query(_CELLS, scale=_SCALE)
    assert [r["source"] for r in exact["results"]] == [
        "simulated",
        "simulated",
    ]
    for result, truth in zip(exact["results"], _serial_stats(_CELLS)):
        assert wire.canonical_json(result["stats"]) == wire.canonical_json(truth)


def test_cold_prefetch_probes_the_cache_once_per_cell(tmp_path):
    """Inline cells with a bridging bus run straight from the plan: a
    cold prefetch looks each cell up once, not again per cell."""
    from repro.service.engine import _ServiceRunner

    class Journal:
        def __init__(self):
            self.events = []

        def publish(self, event):
            self.events.append(event)

    journal = Journal()
    runner = _ServiceRunner(
        scale=_SCALE,
        jobs=1,
        cache_dir=str(tmp_path / "cache"),
        journal=journal,
        sim_event_limit=4,
    )
    cells = [("gzip", "postdoms"), ("gzip", "loop"), ("twolf", "postdoms")]
    assert runner.prefetch(cells) == 3
    assert runner.cache.misses == 3
    assert runner.cache.stores == 3
    # Every cell kept its own bus: none shared a kernel run.
    assert runner.summary.shared_cells == 0
    assert any(event["kind"].startswith("sim.") for event in journal.events)


def test_store_held_cell_is_labelled_cache(tmp_path):
    """A cell another run already stored in the shared cache root is
    labelled by the tier that produced it: ``cache``, not
    ``simulated``, with no simulation run."""
    from repro.experiments.parallel import ResultCache
    from repro.experiments.runner import Cell
    from repro.service.admission import QueuedQuery
    from repro.service.engine import ExplorationEngine

    cache_dir = str(tmp_path / "shared")
    cell = Cell("gzip", "postdoms", PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
    stats = ExperimentRunner(scale=_SCALE).run_policy("gzip", "postdoms")
    ResultCache(cache_dir).store(cell.digest(_SCALE), stats, cell.meta(_SCALE))

    engine = ExplorationEngine(cache_dir=cache_dir)
    query = QueuedQuery([wire.Cell("gzip", "postdoms", PAPER_CONFIG)], _SCALE)
    engine.execute_batch([query])
    response = query.future.result(timeout=0)

    assert [r["source"] for r in response["results"]] == ["cache"]
    assert response["batch"]["cache_hits"] == 1
    assert wire.canonical_json(response["results"][0]["stats"]) == (
        wire.canonical_json(wire.encode_stats(stats))
    )
    assert engine.cells_by_source["cache"] == 1
    assert engine.cells_by_source["simulated"] == 0
    summary = engine.summary_dict()
    assert summary["jobs_run"] == 0
    assert summary["cache_hits"] == 1
