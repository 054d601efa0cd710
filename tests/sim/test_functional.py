"""Tests for the architectural simulator and trace generation."""

import gc

import pytest

from repro.errors import ExecutionError
from repro.isa import assemble
from repro.sim import FunctionalSimulator, run_program
from repro.sim.predecode import KIND_COND_BRANCH
from repro.sim.trace import COLUMNS
from repro.workloads.suite import workload_source


def _run(source, **kwargs):
    program = assemble(source)
    simulator = FunctionalSimulator(program, **kwargs)
    trace = simulator.run()
    return trace, simulator.final_state


def test_counting_loop_executes_expected_instructions():
    trace, state = _run(
        """
        .text
            li   r1, 5
            li   r2, 0
        loop:
            add  r2, r2, r1
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
        """
    )
    assert trace.halted
    # 2 setup + 5 iterations * 3 + halt
    assert len(trace) == 2 + 15 + 1
    assert state.read_register(2) == 5 + 4 + 3 + 2 + 1


def test_alu_operations():
    _, state = _run(
        """
        .text
            li  r1, 12
            li  r2, 5
            add r3, r1, r2
            sub r4, r1, r2
            mul r5, r1, r2
            and r6, r1, r2
            or  r7, r1, r2
            xor r8, r1, r2
            slt r9, r2, r1
            slt r10, r1, r2
            halt
        """
    )
    assert state.read_register(3) == 17
    assert state.read_register(4) == 7
    assert state.read_register(5) == 60
    assert state.read_register(6) == 12 & 5
    assert state.read_register(7) == 12 | 5
    assert state.read_register(8) == 12 ^ 5
    assert state.read_register(9) == 1
    assert state.read_register(10) == 0


def test_negative_arithmetic_wraps_to_64_bits():
    _, state = _run(
        """
        .text
            li  r1, 0
            addi r1, r1, -1
            halt
        """
    )
    assert state.read_register(1) == (1 << 64) - 1


def test_slt_is_signed():
    _, state = _run(
        """
        .text
            li  r1, -1
            li  r2, 1
            slt r3, r1, r2
            slti r4, r1, 0
            halt
        """
    )
    assert state.read_register(3) == 1
    assert state.read_register(4) == 1


def test_shifts():
    _, state = _run(
        """
        .text
            li   r1, 1
            slli r2, r1, 10
            li   r3, 1024
            srli r4, r3, 3
            halt
        """
    )
    assert state.read_register(2) == 1024
    assert state.read_register(4) == 128


def test_memory_roundtrip():
    _, state = _run(
        """
        .text
            la  r1, buf
            li  r2, 0x1234
            sw  r2, 0(r1)
            lw  r3, 0(r1)
            sb  r2, 8(r1)
            lb  r4, 8(r1)
            halt
        .data
        buf: .space 32
        """
    )
    assert state.read_register(3) == 0x1234
    assert state.read_register(4) == 0x34


def test_byte_loads_sign_extend():
    _, state = _run(
        """
        .text
            la r1, data
            lb r2, 0(r1)
            lh r3, 2(r1)
            halt
        .data
        data: .byte 0xFF, 0x00, 0xFE, 0xFF
        """
    )
    assert state.read_register(2) == (1 << 64) - 1  # -1
    assert state.read_register(3) == (1 << 64) - 2  # -2


def test_data_initialisation_visible_to_loads():
    _, state = _run(
        """
        .text
            la r1, table
            lw r2, 0(r1)
            lw r3, 8(r1)
            halt
        .data
        table: .word 11, 22
        """
    )
    assert state.read_register(2) == 11
    assert state.read_register(3) == 22


def test_call_and_return():
    trace, state = _run(
        """
        .text
            li  r1, 1
            jal double
            jal double
            halt
        double:
            add r1, r1, r1
            jr  ra
        """
    )
    assert state.read_register(1) == 4
    assert trace.halted


def test_writes_to_r0_are_discarded():
    _, state = _run(
        """
        .text
            li  r0, 99
            add r0, r0, r0
            move r1, r0
            halt
        """
    )
    assert state.read_register(0) == 0
    assert state.read_register(1) == 0


def test_branch_taken_flags_recorded():
    trace, _ = _run(
        """
        .text
            li  r1, 1
            beq r1, r0, skip
            nop
        skip:
            bne r1, r0, done
            nop
        done:
            halt
        """
    )
    branches = [i for i, kind in enumerate(trace.kind) if kind == KIND_COND_BRANCH]
    assert [trace.taken[i] for i in branches] == [0, 1]


def test_register_dependence_edges():
    trace, _ = _run(
        """
        .text
            li  r1, 3
            li  r2, 4
            add r3, r1, r2
            halt
        """
    )
    assert (trace.dep0[2], trace.dep1[2]) == (0, 1)


def test_memory_dependence_edges():
    trace, _ = _run(
        """
        .text
            la r1, buf
            li r2, 7
            sw r2, 0(r1)
            lw r3, 0(r1)
            lw r4, 8(r1)
            halt
        .data
        buf: .space 16
        """
    )
    assert trace.mem_dep[3] == 2  # the sw
    assert trace.mem_dep[4] == -1


def test_unaligned_access_covers_two_chunks():
    trace, _ = _run(
        """
        .text
            la r1, buf
            li r2, -1
            sw r2, 5(r1)
            lb r3, 8(r1)
            halt
        .data
        buf: .space 32
        """
    )
    # The load reads only the word after the store's first word, and
    # still depends on the store.
    assert trace.mem_addr[3] == trace.mem_addr[2] + 8
    assert trace.mem_dep[3] == 2


def test_instruction_budget_stops_infinite_loop():
    trace, _ = _run(
        """
        .text
        spin: j spin
        """,
        max_instructions=100,
    )
    assert not trace.halted
    assert len(trace) == 100


def test_instruction_budget_cuts_a_block_mid_way():
    trace, _ = _run(
        """
        .text
        spin:
            addi r1, r1, 1
            addi r2, r2, 2
            j spin
        """,
        max_instructions=100,
    )
    assert not trace.halted
    for name in COLUMNS:
        assert len(getattr(trace, name)) == 100, name
    assert trace.pc[99] == trace.pc[0]  # 33 whole blocks, then one slot


def test_invalid_pc_raises():
    program = assemble(".text\n jr r5\n halt")
    with pytest.raises(ExecutionError):
        FunctionalSimulator(program).run()


def test_next_pc_recorded_for_indirect_jump():
    trace, _ = _run(
        """
        .text
            la r1, target
            jr r1
            nop
        target:
            halt
        """
    )
    assert trace.next_pc[1] == trace.pc[2]
    assert trace.taken[1]


def test_instruction_mix():
    trace, _ = _run(
        """
        .text
            la r1, buf
            lw r2, 0(r1)
            sw r2, 8(r1)
            beq r2, r0, done
        done:
            halt
        .data
        buf: .space 16
        """
    )
    mix = trace.instruction_mix()
    assert mix["load"] == 1
    assert mix["store"] == 1
    assert mix["branch"] == 1


def test_run_program_convenience():
    program = assemble(".text\n halt")
    trace = run_program(program)
    assert trace.halted and len(trace) == 1


def test_run_program_leaves_no_per_instruction_objects():
    """The trace is flat columns: a run allocates a fixed handful of
    containers, never one object per committed instruction."""
    program = assemble(workload_source("crafty", 0.25))
    run_program(program)  # compile the program's blocks first
    gc.collect()
    before = len(gc.get_objects())
    trace = run_program(program)
    created = len(gc.get_objects()) - before
    assert len(trace) >= 10_000
    assert created < 64
