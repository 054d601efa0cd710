"""Trigger resolution of the Task Spawn Unit against its reference.

:meth:`SpawnUnit._resolve_targets` finds, for every dynamic trigger, the
next dynamic instance of its spawn target by bisecting per-PC occurrence
lists.  The reference below is the original formulation, one backward
pass over the whole trace remembering the last index of every PC; both
must return the same ``(target_index, candidates)`` for the hint table
of every figure cell and for arbitrary tables over arbitrary PC streams.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import examples

from repro.experiments import ExperimentRunner, figure_jobs_union
from repro.experiments.runner import _hint_table, machine_config
from repro.polyflow import MachineConfig
from repro.polyflow.spawn_unit import SpawnUnit
from repro.spawn.hints import HintEntry, HintTable
from repro.spawn.points import SpawnCategory, SpawnPoint
from repro.workloads import prepare_workload

_FIGURES = ("fig5", "fig8", "fig9", "fig10", "fig11", "fig12")
_SCALE = 0.1


def _backward_pass(trace, hint_table, config):
    """The reference resolution: one backward pass over the PC column."""
    count = len(trace)
    target_index = [-1] * count
    candidates = []
    if not len(hint_table):
        return target_index, candidates
    pcs = trace.pc
    min_distance = config.min_spawn_distance
    max_distance = config.max_spawn_distance
    last_seen = {}
    for index in range(count - 1, -1, -1):
        pc = pcs[index]
        entry = hint_table.lookup(pc)
        if entry is not None:
            target = last_seen.get(entry.spawn_point.spawn_pc, -1)
            if target >= 0:
                distance = target - index
                if min_distance <= distance <= max_distance:
                    target_index[index] = target
                    candidates.append(index)
        last_seen[pc] = index
    candidates.reverse()
    return target_index, candidates


def _assert_matches_reference(trace, hint_table, config):
    unit = SpawnUnit(trace, hint_table, config)
    expected = _backward_pass(trace, hint_table, config)
    assert (unit.resolved_targets(), unit.spawn_candidate_indices()) == expected


def test_every_figure_cell_resolves_like_the_backward_pass():
    runner = ExperimentRunner(scale=_SCALE)
    cells = runner.normalize_jobs(figure_jobs_union(_FIGURES, runner))
    checked = 0
    for cell in cells:
        hints = _hint_table(cell, _SCALE)
        if hints is None:
            continue  # rec_pred resolves its own targets
        trace = prepare_workload(cell.workload, _SCALE).trace
        _assert_matches_reference(
            trace, hints, machine_config(cell.spec, cell.config)
        )
        checked += len(hints) > 0
    assert checked > 0


class _PcTrace:
    """The part of a trace the spawn unit reads: its length and PCs."""

    def __init__(self, pcs):
        self.pc = pcs

    def __len__(self):
        return len(self.pc)


_PCS = st.integers(0, 11).map(lambda slot: 0x400 + 4 * slot)


@st.composite
def _tables(draw):
    """A PC stream, a hint table over its PCs (self-targets included)
    and a spawn-distance window."""
    pcs = draw(st.lists(_PCS, max_size=120))
    pairs = draw(st.dictionaries(_PCS, _PCS, max_size=6))
    table = HintTable()
    for trigger_pc, spawn_pc in pairs.items():
        table.add(HintEntry(SpawnPoint(trigger_pc, spawn_pc, SpawnCategory.OTHER)))
    low = draw(st.integers(1, 8))
    high = draw(st.integers(low, 40))
    config = MachineConfig(min_spawn_distance=low, max_spawn_distance=high)
    return _PcTrace(pcs), table, config


@given(_tables())
@settings(max_examples=examples(200), deadline=None)
def test_arbitrary_tables_resolve_like_the_backward_pass(case):
    _assert_matches_reference(*case)
