"""Differential tests: PolyFlow commits exactly the architectural path.

PolyFlow is a timing model replaying the committed-path trace produced
by :mod:`repro.sim.functional`; whatever speculation, squashing, and
re-fetching it performs, the *committed* instruction sequence — and
therefore the final architectural state — must be exactly the
functional simulator's.  The commit events of the simulation event bus
make that directly observable: this suite runs every workload under
every policy spec the paper evaluates and checks the committed stream
instruction by instruction.

The suite also pins the core's two engines against each other: the
event-calendar kernel and the staged reference loop must produce
identical lifecycle event streams, statistics and end-of-run machine
state for the same job.
"""

import collections
import dataclasses

import pytest

from repro.experiments.runner import REC_PRED_SPEC, build_core
from repro.isa import assemble
from repro.obs import EventBus, MetricsAggregator
from repro.polyflow import PAPER_CONFIG, PolyFlowCore
from repro.sim.functional import FunctionalSimulator
from repro.spawn.policies import (
    COMBINATION_POLICY_SPECS,
    EXCLUSION_POLICY_SPECS,
    INDIVIDUAL_POLICY_SPECS,
)
from repro.workloads import WORKLOAD_NAMES, prepare_workload, workload_source

from tests.engines import StagedReferenceCore, job, observe_both

_SCALE = 0.1

#: Every spawn-selection scheme the paper evaluates: control-equivalent
#: spawning, the five individual heuristics (Figure 9), the heuristic
#: combinations (Figure 10), the category exclusions (Figure 11), and
#: the dynamic reconvergence predictor (Figure 12).
_POLICIES = (
    ("postdoms",)
    + INDIVIDUAL_POLICY_SPECS
    + COMBINATION_POLICY_SPECS
    + EXCLUSION_POLICY_SPECS
    + (REC_PRED_SPEC,)
)


class _CommitCollector:
    """Verbose bus sink recording the committed instruction stream."""

    def __init__(self):
        self.commits = []

    def on_event(self, event):
        if event.kind == "commit":
            self.commits.append(event)


def _committed_stream(name, policy):
    bus = EventBus()
    collector = bus.attach(_CommitCollector())
    stats = build_core(name, policy, _SCALE, PAPER_CONFIG, bus=bus).run()
    return stats, collector.commits


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_committed_sequence_matches_functional(name, policy):
    """The committed stream is the functional trace, in order, exactly once."""
    prepared = prepare_workload(name, _SCALE)
    stats, commits = _committed_stream(name, policy)
    pcs = prepared.trace.pc
    assert stats.retired_instructions == len(pcs)
    assert [event.trace_index for event in commits] == list(range(len(pcs)))
    assert [event.pc for event in commits] == pcs


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_final_architectural_state_matches_functional(name):
    """Fresh functional executions agree with the prepared trace and with
    each other, so the state PolyFlow's committed stream implies is the
    architectural one."""
    program = assemble(workload_source(name, _SCALE))
    first = FunctionalSimulator(program)
    first_trace = first.run()
    second = FunctionalSimulator(program)
    second.run()
    assert first.final_state.registers == second.final_state.registers
    assert first.final_state.memory == second.final_state.memory

    prepared = prepare_workload(name, _SCALE)
    assert len(first_trace) == len(prepared.trace)
    assert first_trace.pc == prepared.trace.pc


@pytest.mark.parametrize("name", ("gzip", "twolf", "crafty"))
def test_policies_commit_identical_streams(name):
    """Different spawn policies must not change *what* commits, only when.

    Uses the human-readable aliases so the alias-canonicalization path
    stays covered too.
    """
    _, control = _committed_stream(name, "control-equivalent")
    _, heuristic = _committed_stream(name, "best-heuristic")
    assert [event.trace_index for event in control] == [
        event.trace_index for event in heuristic
    ]
    assert [event.pc for event in control] == [event.pc for event in heuristic]


# -- engine equivalence ---------------------------------------------------------

_ENGINE_SPECS = ("postdoms", "loop+procFT+loopFT", REC_PRED_SPEC)


@pytest.mark.parametrize("spec", _ENGINE_SPECS)
@pytest.mark.parametrize("name", ("gzip", "mcf", "crafty"))
def test_fast_and_staged_engines_are_equivalent(name, spec):
    """The event kernel (the one fast engine) and the staged reference
    engine emit byte-identical lifecycle streams and statistics.

    mcf is included because its run contains a dependence violation and
    the resulting squash chain, so the recovery paths are compared too.
    """
    kernel, staged = observe_both(job(name, spec, _SCALE, PAPER_CONFIG))
    kernel_stats, kernel_stream, _ = kernel
    staged_stats, staged_stream, _ = staged
    assert kernel_stream == staged_stream
    assert kernel_stats == staged_stats


@pytest.mark.parametrize("spec", _ENGINE_SPECS)
@pytest.mark.parametrize("name", ("gzip", "mcf", "crafty"))
def test_kernel_leaves_staged_engine_machine_state(name, spec):
    """The block-at-a-time kernel leaves the machine in the state the
    staged reference engine does.

    The kernel fetches and issues whole straight-line runs from the
    compiled block tables; cache LRU order, predictor tables and the
    spawn unit's feedback counters must still end up identical, which
    the statistics alone would not reveal.  mcf again covers the
    violation/squash recovery path, where batched positions are
    squashed and refetched.
    """
    kernel, staged = observe_both(job(name, spec, _SCALE, PAPER_CONFIG))
    assert kernel[2] == staged[2]


_NESTED_CONFIG = dataclasses.replace(PAPER_CONFIG, nested_spawns=True)


@pytest.mark.parametrize("name", ("mcf", "twolf", "crafty"))
def test_engines_are_equivalent_with_nested_spawns(name):
    """The kernel's segment split (non-tail tasks spawning, the paper's
    future work) matches the staged engine: statistics, lifecycle
    stream and end-of-run machine state."""
    kernel, staged = observe_both(job(name, "postdoms", _SCALE, _NESTED_CONFIG))
    assert kernel[0]["nested_spawns"] > 0
    assert kernel == staged


class _CommitCounter:
    """Verbose bus sink counting commit events per origin, keyed as
    :meth:`MetricsAggregator.as_dict` keys its origins."""

    def __init__(self):
        self.by_origin = collections.Counter()

    def on_event(self, event):
        if event.kind == "commit":
            origin = "entry" if event.origin is None else str(event.origin)
            self.by_origin[origin] += 1


@pytest.mark.parametrize(
    "name, config",
    [("mcf", PAPER_CONFIG), ("twolf", _NESTED_CONFIG)],
    ids=["mcf", "twolf-nested"],
)
def test_kernel_metrics_commit_counts_match_staged_commit_events(name, config):
    """A non-verbose aggregator folds ``committed`` from task-commit
    lengths on the kernel; per origin it must equal the count of the
    staged engine's per-instruction commit events."""
    make_core = job(name, "postdoms", _SCALE, config)
    kernel = make_core(PolyFlowCore)
    aggregator = kernel.bus.attach(MetricsAggregator(), verbose=False)
    staged = make_core(PolyFlowCore)
    counter = staged.bus.attach(_CommitCounter())
    assert not kernel.bus.verbose and staged.bus.verbose
    kernel_stats = kernel.run()
    staged_stats = staged.run()
    assert kernel_stats.as_dict() == staged_stats.as_dict()
    if config.nested_spawns:
        assert kernel_stats.nested_spawns > 0
    else:
        assert kernel_stats.violation_squashes > 0
    committed = {
        origin: metrics["committed"]
        for origin, metrics in aggregator.as_dict()["origins"].items()
        if metrics["committed"]
    }
    assert committed == dict(counter.by_origin)
    assert len(committed) > 1


def test_event_kernel_nonverbose_stats_match_staged_spec():
    """With the default bus — no sink beyond the statistics — the
    kernel takes its quiet-skip and batched-fetch shortcuts in full;
    stats must still match the staged engine exactly."""
    make_core = job("vortex", "postdoms", _SCALE, PAPER_CONFIG)
    kernel = make_core(PolyFlowCore).run()
    staged = make_core(StagedReferenceCore).run()
    assert kernel.as_dict() == staged.as_dict()


def test_staged_subclass_actually_runs_staged_engine(monkeypatch):
    """Guard the guard: the reference subclass must select the staged
    engine, and a plain core must not."""
    ran_staged = []
    real_staged = PolyFlowCore._run_staged

    def staged_spy(core):
        ran_staged.append(type(core))
        return real_staged(core)

    monkeypatch.setattr(PolyFlowCore, "_run_staged", staged_spy)
    make_core = job("gzip", "postdoms", _SCALE, PAPER_CONFIG)
    staged = make_core(StagedReferenceCore)
    fast = make_core(PolyFlowCore)
    assert staged.bus.verbose
    assert not fast.bus.verbose
    staged.run()
    fast.run()
    assert ran_staged == [StagedReferenceCore]
