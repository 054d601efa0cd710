"""Byte-identity of the grid-batch lockstep runner.

The lockstep driver may only change *when* each cell's next slice of
work runs, never what it computes: on any subset of the synthesized
catalog crossed with any policy column, :func:`gridbatch.run_batch`
must report the same :class:`SimStats` the per-cell
``scheduler.execute_job`` path reports, cell for cell.  Stride is part
of the property — a stride of 1 interleaves maximally, a huge stride
degenerates to sequential execution, and neither may move a single
counter.

Cells whose policies resolve to the same hint table on one workload
share a single kernel run (:func:`repro.experiments.runner.simulation_key`);
the SPEC pool below draws specs that collapse that way, so sharing
cells are held to the same cell-for-cell identity, and the
deterministic tests pin which cells may share.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import examples

from repro.experiments import scheduler
from repro.polyflow import PAPER_CONFIG, PolyFlowCore
from repro.sim import gridbatch
from repro.spawn import canonical_spec
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


_strides = st.sampled_from((1, 7, gridbatch.DEFAULT_STRIDE, 10**9))


def _assert_batch_matches_per_cell(cells, scale, stride):
    jobs = [
        (name, canonical_spec(spec), PAPER_CONFIG, None)
        for name, spec in cells
    ]
    per_cell = [
        scheduler.execute_job(name, spec, scale, config, distance)
        for name, spec, config, distance in jobs
    ]
    batched = gridbatch.run_batch(jobs, scale, stride=stride)
    assert len(batched) == len(per_cell)
    for (expected, *_), (actual, metrics, seconds, blocks) in zip(
        per_cell, batched
    ):
        assert actual.as_dict() == expected.as_dict()
        assert metrics is None
        assert seconds >= 0.0
        assert isinstance(blocks, dict)


@given(cells=_cells(_NAME_POOL, _SPEC_POOL), stride=_strides)
@settings(max_examples=examples(12), deadline=None)
def test_lockstep_stats_match_per_cell_path(cells, stride):
    _assert_batch_matches_per_cell(cells, _SCALE, stride)


@given(cells=_cells(_SPEC_NAME_POOL, _SHARING_SPEC_POOL), stride=_strides)
@settings(max_examples=examples(8), deadline=None)
def test_shared_runs_match_per_cell_path(cells, stride):
    _assert_batch_matches_per_cell(cells, _SPEC_SCALE, stride)


def _counting_runs(monkeypatch):
    """Count ``PolyFlowCore.run_incremental`` calls, one per kernel run."""
    calls = []
    original = PolyFlowCore.run_incremental

    def counted(core, *args, **kwargs):
        calls.append(core)
        return original(core, *args, **kwargs)

    monkeypatch.setattr(PolyFlowCore, "run_incremental", counted)
    return calls


def _shared(outcomes):
    return [bool(blocks.get(gridbatch.SHARED_RUN)) for _, _, _, blocks in outcomes]


def test_identical_machines_share_one_kernel_run(monkeypatch):
    calls = _counting_runs(monkeypatch)
    jobs = [("mcf", spec, PAPER_CONFIG, None) for spec in _MCF_GROUP]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    assert len(calls) == 1
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
    calls = _counting_runs(monkeypatch)
    specs = ("procFT", "rec_pred", "superscalar", "loop")
    jobs = [("mcf", spec, PAPER_CONFIG, None) for spec in specs]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    assert len(calls) == 3
    assert _shared(outcomes) == [False, False, False, True]


def test_same_spec_under_two_configs_never_shares(monkeypatch):
    calls = _counting_runs(monkeypatch)
    narrow = dataclasses.replace(PAPER_CONFIG, rob_entries=128)
    jobs = [("mcf", "loopFT", config, None) for config in (PAPER_CONFIG, narrow)]
    outcomes = gridbatch.run_batch(jobs, _SPEC_SCALE)
    assert len(calls) == 2
    assert _shared(outcomes) == [False, False]
    expected = scheduler.execute_job("mcf", "loopFT", _SPEC_SCALE, narrow, None)[0]
    assert outcomes[1][0].as_dict() == expected.as_dict()


def test_batchable_rejects_instrumented_cells():
    assert gridbatch.batchable(False)
    assert not gridbatch.batchable(True)
    assert not gridbatch.batchable(False, trace_file="x.jsonl")
    assert not gridbatch.batchable(False, bus=object())

