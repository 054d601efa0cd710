"""Pinned digests of every committed-trace column.

The timing kernel, the block compiler, the estimator and the spawn
profiler all read the trace's flat per-index columns.  These digests
pin each column, for the twelve figure workloads at scale 0.25 and for
a fixed stratified slice of the synth catalog, so any change to how the
functional simulator emits them must reproduce them byte for byte.

The ``inst`` column (references to the program's static instructions)
is pinned through each instruction's pc.
"""

import hashlib

import pytest

from repro.isa.assembler import assemble
from repro.sim import run_program
from repro.workloads import WORKLOAD_NAMES
from repro.workloads.suite import workload_source
from repro.workloads.synth.catalog import stratified_sample

COLUMNS = (
    "pc",
    "kind",
    "lat",
    "taken",
    "next_pc",
    "fall_through",
    "mem_addr",
    "mem_dep",
    "dep0",
    "dep1",
)

SYNTH_SLICE = stratified_sample(16, token="trace-columns")
SYNTH_SCALE = 0.5
FIGURE_SCALE = 0.25

#: sha256 over every column of every trace in a set, in set order.
PINNED = {
    "figures": "ba07074fef64664135c472dbfc894b8abbae0a2c9b440534c697774e04da0518",
    "synth": "5860a048f2ccb591ce022fa72c8ce70969a87415326caecf6fc5d511d4217cac",
}


def _column_views(trace):
    # The digests were computed from a layout that kept the columns on
    # a derived ``decoded()`` view and the instructions on
    # per-instruction records; that layout is read the same way.
    view = trace.decoded() if hasattr(trace, "decoded") else trace
    insts = trace.inst if hasattr(trace, "inst") else [r.inst for r in trace.records]
    return view, insts


def _digest(names, scale):
    hasher = hashlib.sha256()
    for name in names:
        trace = run_program(assemble(workload_source(name, scale)))
        view, insts = _column_views(trace)
        hasher.update("{} {} {}\n".format(name, len(trace), trace.halted).encode())
        for column in COLUMNS:
            values = getattr(view, column)
            assert len(values) == len(trace), column
            hasher.update(column.encode())
            hasher.update(repr(list(values)).encode())
        hasher.update(repr([inst.pc for inst in insts]).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize(
    "label, names, scale",
    [
        ("figures", WORKLOAD_NAMES, FIGURE_SCALE),
        ("synth", SYNTH_SLICE, SYNTH_SCALE),
    ],
)
def test_trace_columns_match_pinned_digest(label, names, scale):
    assert _digest(names, scale) == PINNED[label]
