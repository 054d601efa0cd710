"""Tests for the superblock tables (:mod:`repro.sim.blocks`)."""

import pickle

from repro.isa import assemble
from repro.sim import run_program
from repro.sim.blocks import (
    BLOCK_CACHE_KEYS,
    ICACHE_LINE_BYTES,
    ProgramBlocks,
    block_table_for,
    build_block_table,
    cache_counters,
    counters_delta,
    program_blocks_for,
    reset_cache_counters,
)
from repro.sim.predecode import KIND_PLAIN
from repro.sim.trace import COLUMNS

_LOOP = """
.text
    li   r1, 5
    li   r2, 0
loop:
    add  r2, r2, r1
    mul  r3, r2, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""

def _trace(source):
    return run_program(assemble(source))


# -- BlockTable construction ------------------------------------------------------


def test_batch_end_covers_straight_line_runs_only():
    trace = _trace(_LOOP)
    table = build_block_table(trace)
    assert table.length == len(trace)
    for index in range(table.length):
        end = table.batch_end[index]
        if trace.kind[index] != KIND_PLAIN:
            # Control transfers never batch.
            assert end == index
            continue
        assert end > index
        line = trace.pc[index] >> (ICACHE_LINE_BYTES.bit_length() - 1)
        for position in range(index, end):
            assert trace.kind[position] == KIND_PLAIN
            assert (
                trace.pc[position] >> (ICACHE_LINE_BYTES.bit_length() - 1)
            ) == line


def test_batch_end_valid_from_any_start_index():
    """A task resuming mid-block must still see a correct run bound."""
    trace = _trace(_LOOP)
    table = build_block_table(trace)
    for index in range(table.length):
        end = table.batch_end[index]
        for middle in range(index + 1, end):
            assert table.batch_end[middle] == end


def test_reg_consumers_matches_dependence_arrays():
    trace = _trace(_LOOP)
    table = build_block_table(trace)
    for producer, consumers in enumerate(table.reg_consumers):
        expected = []
        for index in range(len(trace)):
            if trace.dep0[index] == producer:
                expected.append(index)
            if trace.dep1[index] == producer:
                expected.append(index)
        assert list(consumers) == sorted(expected)


# -- memoization and counters -----------------------------------------------------


def test_block_table_memoized_on_trace_with_counters():
    trace = _trace(_LOOP)
    reset_cache_counters()
    first = block_table_for(trace)
    second = block_table_for(trace)
    assert first is second
    delta = counters_delta({key: 0 for key in BLOCK_CACHE_KEYS})
    assert delta["table_misses"] == 1
    assert delta["table_hits"] == 1


def test_block_table_survives_trace_pickle():
    """A compiled table rides inside its trace's pickle: unpickling
    the trace must hand back the table as a hit, not a recompile."""
    trace = _trace(_LOOP)
    block_table_for(trace)
    clone = pickle.loads(pickle.dumps(trace))
    before = cache_counters()
    table = block_table_for(clone)
    delta = counters_delta(before)
    assert delta["table_hits"] == 1 and delta["table_misses"] == 0
    assert table.batch_end == block_table_for(trace).batch_end


def test_program_blocks_follow_fall_through_until_control():
    program = assemble(_LOOP)
    blocks = ProgramBlocks(program)
    entry = program.entry_point
    block = blocks.block_at(entry)
    assert block is not None
    entries, columns = block
    assert len(entries) >= 2
    # Each record's fall-through PC is the next record's instruction PC
    # (records are ``(opcode, …, inst, fall_through)``).
    for record, following in zip(entries, entries[1:]):
        assert record[-1] == following[-2].pc
    # The prefilled trace columns hold one slot per record.
    assert [len(column) for column in columns] == [len(entries)] * len(COLUMNS)
    assert columns[COLUMNS.index("pc")] == tuple(record[-2].pc for record in entries)
    assert blocks.block_at(0xDEAD0000) is None
    assert blocks.compiled_blocks() >= 1
    # Memoized per entry PC.
    assert blocks.block_at(entry) is block


def test_program_blocks_are_built_per_run_and_never_stored():
    """The interpreter's decode and blocks live for one run: building
    them leaves nothing on the program, and each build is counted."""
    program = assemble(_LOOP)
    before = cache_counters()
    first = program_blocks_for(program)
    second = program_blocks_for(program)
    assert first is not second
    assert counters_delta(before)["program_misses"] == 2
    run_program(program)
    assert not hasattr(program, "_program_blocks")
    assert not hasattr(program, "_decoded")
