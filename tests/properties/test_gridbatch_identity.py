"""Byte-identity of the grid-batch runner.

The batch runner may only skip work that would repeat, never change
what a cell computes: on any subset of the synthesized catalog crossed
with any policy column, :func:`gridbatch.run_batch` must report the
same :class:`SimStats` as :func:`runner.simulate_job`, which builds and
warms every cell on its own, cell for cell.  It runs one machine at a
time, so no two cores of one batch are ever alive together, and it
replays a trace's warm caches once per process.

Cells whose policies resolve to the same hint table on one workload
share a single kernel run (:func:`repro.experiments.runner.run_key`);
the SPEC pool below draws specs that collapse that way, so sharing
cells are held to the same cell-for-cell identity, and the
deterministic tests pin which cells may share.
"""

import dataclasses
import hashlib
import json
import os
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import examples

from repro.experiments import runner
from repro.polyflow import PAPER_CONFIG, PolyFlowCore
from repro.sim import gridbatch
from repro.spawn import canonical_spec
from repro.workloads import clear_cache, prepare_workload
from repro.workloads.synth import stratified_sample

_SCALE = 0.3
_NAME_POOL = stratified_sample(10, "gridbatch-identity-v1")
_SPEC_POOL = ("postdoms", "loop+procFT+loopFT", "superscalar")

_SPEC_SCALE = 0.25
_SPEC_NAME_POOL = ("mcf", "gzip", "vpr.route")
#: Specs several of which keep the same spawn points on the SPEC pool
#: at ``_SPEC_SCALE``: loopFT, loopFT+procFT and loop+loopFT on mcf;
#: those and postdoms-hammock on gzip; loopFT, loopFT+procFT, postdoms
#: and postdoms-hammock on vpr.route.
_SHARING_SPEC_POOL = (
    "loopFT",
    "loopFT+procFT",
    "loop+loopFT",
    "postdoms",
    "postdoms-hammock",
    "rec_pred",
    "superscalar",
)

#: Known to resolve to one hint table on mcf at ``_SPEC_SCALE``.
_MCF_GROUP = ("loop+loopFT", "loop+procFT+loopFT", "loopFT", "loopFT+procFT")


def _cells(names, specs):
    return st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(specs)),
        min_size=1,
        max_size=6,
        unique=True,
    )


def _assert_batch_matches_per_cell(cells, scale):
    jobs = [
        (name, canonical_spec(spec), PAPER_CONFIG, None)
        for name, spec in cells
    ]
    per_cell = [
        runner.simulate_job(name, spec, scale, config, distance)
        for name, spec, config, distance in jobs
    ]
    batched = gridbatch.run_batch(jobs, scale)
    assert len(batched) == len(per_cell)
    for expected, actual in zip(per_cell, batched):
        assert actual.stats.as_dict() == expected.as_dict()
        assert actual.metrics is None
        assert actual.seconds >= 0.0
        assert isinstance(actual.blocks, dict)


@given(cells=_cells(_NAME_POOL, _SPEC_POOL))
@settings(max_examples=examples(12), deadline=None)
def test_batch_stats_match_per_cell_path(cells):
    _assert_batch_matches_per_cell(cells, _SCALE)


@given(cells=_cells(_SPEC_NAME_POOL, _SHARING_SPEC_POOL))
@settings(max_examples=examples(8), deadline=None)
def test_shared_runs_match_per_cell_path(cells):
    _assert_batch_matches_per_cell(cells, _SPEC_SCALE)


def _counting(monkeypatch, method):
    """Count calls of ``PolyFlowCore.<method>``."""
    calls = []
    original = getattr(PolyFlowCore, method)

    def counted(core, *args, **kwargs):
        calls.append(core)
        return original(core, *args, **kwargs)

    monkeypatch.setattr(PolyFlowCore, method, counted)
    return calls


def _shared(outcomes):
    return [outcome.shared for outcome in outcomes]


def test_identical_machines_share_one_kernel_run(monkeypatch):
    calls = _counting(monkeypatch, "run_incremental")
    builds = []
    build_core = runner.build_core
    monkeypatch.setattr(
        runner,
        "build_core",
        lambda *args, **kwargs: builds.append(args) or build_core(*args, **kwargs),
    )
    jobs = [("mcf", spec, PAPER_CONFIG, None) for spec in _MCF_GROUP]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    assert len(calls) == 1
    assert len(builds) == 1  # shared cells build no core
    assert _shared(outcomes) == [False, True, True, True]
    stats = [outcome[0] for outcome in outcomes]
    first = stats[0].as_dict()
    assert all(item.as_dict() == first for item in stats)
    assert len({id(item) for item in stats}) == len(stats)
    assert len({id(item.spawns_by_category) for item in stats}) == len(stats)
    stats[1].cycles += 1
    stats[1].spawns_by_category["mutated"] += 1
    assert stats[0].as_dict() == first
    assert stats[2].as_dict() == first
    assert stats[3].as_dict() == first


def test_rec_pred_and_superscalar_never_share_with_empty_policy(monkeypatch):
    # On mcf both ``procFT`` and ``loop`` resolve to an empty hint table.
    calls = _counting(monkeypatch, "run_incremental")
    specs = ("procFT", "rec_pred", "superscalar", "loop")
    jobs = [("mcf", spec, PAPER_CONFIG, None) for spec in specs]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    assert len(calls) == 3
    assert _shared(outcomes) == [False, False, False, True]


def test_same_spec_under_two_configs_never_shares(monkeypatch):
    calls = _counting(monkeypatch, "run_incremental")
    narrow = dataclasses.replace(PAPER_CONFIG, rob_entries=128)
    jobs = [("mcf", "loopFT", config, None) for config in (PAPER_CONFIG, narrow)]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    assert len(calls) == 2
    assert _shared(outcomes) == [False, False]
    expected = runner.simulate_job("mcf", "loopFT", _SPEC_SCALE, narrow, None)
    assert outcomes[1][0].as_dict() == expected.as_dict()


def test_batch_keeps_one_core_alive_at_a_time(monkeypatch):
    # Every cell of this batch runs its own machine (no two share a
    # simulation key), so each builds a core that must be gone before
    # the next is built.
    alive = []
    alive_at_build = []
    original = runner.build_core

    def tracked(*args, **kwargs):
        alive_at_build.append(len(alive) + 1)
        core = original(*args, **kwargs)
        token = object()
        alive.append(token)
        weakref.finalize(core, alive.remove, token)
        return core

    monkeypatch.setattr(runner, "build_core", tracked)
    jobs = [
        (name, canonical_spec(spec), PAPER_CONFIG, None)
        for name in ("mcf", "gzip")
        for spec in ("postdoms", "superscalar", "rec_pred")
    ]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    assert _shared(outcomes) == [False] * len(jobs)
    assert alive_at_build == [1] * len(jobs)
    assert alive == []


@pytest.mark.parametrize("instrument", ["emit_metrics", "trace_dir", "bus_for"])
def test_run_cells_never_batches_instrumented_calls(instrument, tmp_path):
    """A call with any instrument runs every cell on its own machine,
    however many cells could share one; the same call without one
    shares them."""
    from repro.obs import EventBus

    cells = [
        runner.Cell("mcf", spec, PAPER_CONFIG, None) for spec in _MCF_GROUP[:2]
    ]
    instruments = {
        "emit_metrics": True,
        "trace_dir": str(tmp_path),
        "bus_for": lambda cell: EventBus(),
    }
    plain = gridbatch.run_batch(cells, _SPEC_SCALE)
    assert _shared(plain) == [False, True]
    outcomes = gridbatch.run_batch(
        cells, _SPEC_SCALE, **{instrument: instruments[instrument]}
    )
    assert _shared(outcomes) == [False, False]
    for expected, actual in zip(plain, outcomes):
        assert actual.stats.as_dict() == expected.stats.as_dict()


def test_warm_state_replays_once_per_trace(monkeypatch):
    """Cells over one trace replay its warm caches once per process:
    across calls, and across the superscalar and PolyFlow machines.
    Their stats equal simulate_job's on a fresh, never-memoized trace."""
    specs = ("superscalar", "postdoms", "loopFT")
    fresh = prepare_workload("mcf", _SPEC_SCALE, use_cache=False)
    assert len(fresh.trace) >= gridbatch.WARM_SHARE_MIN_TRACE
    with monkeypatch.context() as patch:
        patch.setattr(runner, "prepare_workload", lambda name, scale: fresh)
        expected = [
            runner.simulate_job("mcf", spec, _SPEC_SCALE, PAPER_CONFIG)
            for spec in specs
        ]
    clear_cache()  # the memoized trace starts without warm state
    replays = _counting(monkeypatch, "_warm_caches")
    installs = _counting(monkeypatch, "install_warm_state")
    jobs = [("mcf", spec, PAPER_CONFIG, None) for spec in specs]
    outcomes = gridbatch.run_batch(jobs[:1], _SPEC_SCALE)
    outcomes += gridbatch.run_batch(jobs[1:], _SPEC_SCALE)
    assert len(replays) == 1
    assert len(installs) == 2
    for reference, outcome in zip(expected, outcomes):
        assert outcome.stats.as_dict() == reference.as_dict()



def test_cold_cache_machine_never_feeds_the_warm_memo():
    """A machine with ``warm_caches`` off (a service query may turn it
    off) neither memoizes its cold hierarchy nor reads the memo."""
    cold = dataclasses.replace(PAPER_CONFIG, warm_caches=False)
    clear_cache()  # the memoized trace starts without warm state
    jobs = [("mcf", "postdoms", cold, None), ("mcf", "postdoms", PAPER_CONFIG, None)]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    for (name, spec, config, distance), outcome in zip(jobs, outcomes):
        expected = runner.simulate_job(name, spec, _SPEC_SCALE, config, distance)
        assert outcome.stats.as_dict() == expected.as_dict()
    assert outcomes[0].stats.as_dict() != outcomes[1].stats.as_dict()

#: Four mcf cells, the first two of one simulation key (see _MCF_GROUP).
_INSTRUMENTED_SPECS = ("loop+loopFT", "loopFT", "postdoms", "superscalar")

#: sha256 of the instrumented call's stats, metrics snapshots and
#: ``--trace-dir`` files, as the per-cell executor produced them before
#: every cell ran through ``run_batch``.
_INSTRUMENTED_SHA256 = {
    "stats": "be7fe9b43b177ec13961af6b8dfe143faafe73b8135bb08e8dd1d02802550652",
    "metrics": "14fe216675f58c7a4b1df772a9877570dcf0ad418a4485e8a62267086e29a954",
    "files": "53de5e7e38b36dcca9180f660569fc7841ab8da917f7b398a495a0bdc407cd14",
}


def test_instrumented_call_is_byte_identical_and_never_shares(tmp_path):
    cells = [
        runner.Cell("mcf", spec, PAPER_CONFIG, None) for spec in _INSTRUMENTED_SPECS
    ]
    outcomes = gridbatch.run_batch(
        cells, _SPEC_SCALE, emit_metrics=True, trace_dir=str(tmp_path)
    )
    assert _shared(outcomes) == [False] * len(cells)
    digests = {key: hashlib.sha256() for key in _INSTRUMENTED_SHA256}
    for outcome in outcomes:
        digests["stats"].update(
            json.dumps(outcome.stats.as_dict(), sort_keys=True).encode()
        )
        digests["metrics"].update(json.dumps(outcome.metrics, sort_keys=True).encode())
    files = sorted(os.listdir(tmp_path))
    assert len(files) == len(cells)
    for filename in files:
        digests["files"].update(filename.encode())
        digests["files"].update((tmp_path / filename).read_bytes())
    assert {
        key: digest.hexdigest() for key, digest in digests.items()
    } == _INSTRUMENTED_SHA256
