"""Concurrency property: N clients, overlapping cells, one grid.

The service's core promises under concurrency:

* every client's answer is byte-identical to a direct serial
  :class:`ExperimentRunner` run of its cells;
* overlapping cells across concurrent queries are simulated **at most
  once** (proved by the runner's ``jobs_run`` counter);
* a repeat wave re-simulates nothing and starts no new pool.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.experiments import scheduler
from repro.experiments.runner import ExperimentRunner
from repro.service import wire
from tests.helpers import force_pool

_SCALE = 0.1

#: Four overlapping query sets over three unique cells.  Real SPEC
#: workloads force the pool path; the synth cell stays inline-cheap.
_QUERIES = [
    [("gzip", "postdoms"), ("twolf", "postdoms")],
    [("twolf", "postdoms"), ("synth/L1H1C0I0P0S0V0", "postdoms")],
    [("gzip", "postdoms"), ("synth/L1H1C0I0P0S0V0", "postdoms")],
    [("gzip", "postdoms"), ("twolf", "postdoms"), ("synth/L1H1C0I0P0S0V0", "postdoms")],
]
_UNIQUE = sorted({cell for cells in _QUERIES for cell in cells})


def _query_wave(client):
    """All queries concurrently; returns responses in query order."""
    with ThreadPoolExecutor(max_workers=len(_QUERIES)) as pool:
        futures = [
            pool.submit(client.query, cells, _SCALE) for cells in _QUERIES
        ]
        return [future.result() for future in futures]


def test_concurrent_overlapping_queries(service_factory, monkeypatch):
    force_pool(monkeypatch, cpus=4)
    running = service_factory(jobs=2, window_seconds=0.05)
    client = running.client()
    responses = _query_wave(client)

    # Byte identity per client against an independent serial run.
    serial = ExperimentRunner(scale=_SCALE)
    for cells, response in zip(_QUERIES, responses):
        assert [r["workload"] for r in response["results"]] == [
            name for name, _ in cells
        ]
        for (name, spec), result in zip(cells, response["results"]):
            truth = wire.encode_stats(serial.run_policy(name, spec))
            assert wire.canonical_json(result["stats"]) == wire.canonical_json(
                truth
            ), "{}:{} diverged from serial".format(name, spec)

    # At most one simulation per unique cell, ever.
    health = client.healthz()
    summary = health["engine"]["summary"]
    assert summary["jobs_run"] == len(_UNIQUE)
    total_cells = sum(len(cells) for cells in _QUERIES)
    assert health["engine"]["cells"]["served"] == total_cells
    # by_source counts unique per-batch outcomes: every unique cell
    # was simulated exactly once, later appearances were memo answers,
    # and nothing errored.
    by_source = health["engine"]["cells"]["by_source"]
    assert by_source["error"] == 0
    assert by_source["simulated"] == len(_UNIQUE)
    assert (
        sum(by_source.values())
        == total_cells - health["engine"]["cells"]["deduped"]
    )

    # A repeat wave is pure memo: no new simulations, no new chunks,
    # no new pool.
    starts_before = scheduler.pool_starts()
    chunks_before = summary["chunks_shipped"]
    repeat = _query_wave(client)
    for response, again in zip(responses, repeat):
        for before, after in zip(response["results"], again["results"]):
            assert after["source"] == wire.SOURCE_MEMO
            assert wire.canonical_json(before["stats"]) == wire.canonical_json(
                after["stats"]
            )
    summary_after = client.healthz()["engine"]["summary"]
    assert summary_after["jobs_run"] == len(_UNIQUE)
    assert summary_after["chunks_shipped"] == chunks_before
    assert scheduler.pool_starts() == starts_before


def test_admission_window_coalesces_concurrent_queries(
    service_factory, monkeypatch
):
    """With a generous window, the wave lands in few batches and the
    batch telemetry proves cross-query dedup happened."""
    force_pool(monkeypatch, cpus=4)
    running = service_factory(jobs=2, window_seconds=0.25)
    client = running.client()
    _query_wave(client)

    health = client.healthz()
    assert health["admission"]["admitted"] == len(_QUERIES)
    batches = health["admission"]["batches_formed"]
    assert batches < len(_QUERIES)
    # Dedup only happens for cells that shared a batch; with any
    # coalescing at all some duplicates must have collapsed.
    assert health["engine"]["cells"]["deduped"] > 0
    assert health["engine"]["summary"]["jobs_run"] == len(_UNIQUE)
