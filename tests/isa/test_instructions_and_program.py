"""Tests for instruction metadata and the Program container."""

import pickle

import pytest

from repro.errors import ExecutionError
from repro.isa import INSTRUCTION_BYTES, Opcode, assemble, format_register
from repro.isa.instructions import (
    CONDITIONAL_BRANCH_OPCODES,
    CONTROL_OPCODES,
    MEMORY_ACCESS_BYTES,
    Instruction,
)
from repro.isa.program import Program


def test_instruction_flags():
    program = assemble(
        """
        .text
            add r1, r2, r3
            lw  r4, 0(r5)
            sw  r4, 8(r5)
            beq r1, r2, main
        main:
            jal main2
        main2:
            jr  ra
            jalr r6
            j   main
            halt
        """
    )
    add, lw, sw, beq, jal, jr, jalr, j, halt = program.instructions
    assert not add.is_control and not add.is_mem
    assert lw.is_load and lw.is_mem and not lw.is_store
    assert sw.is_store and sw.is_mem
    assert beq.is_conditional_branch and beq.is_control
    assert jal.is_call and jal.is_direct_jump
    assert jr.is_return_like and jr.is_indirect_jump and not jr.is_call
    assert jalr.is_call and jalr.is_indirect_jump
    assert j.is_direct_jump and not j.is_call
    assert halt.is_control


def test_source_and_destination_registers():
    program = assemble(".text\n add r1, r2, r3\n sw r4, 0(r5)\n li r0, 9\n halt")
    add, sw, li_r0, _ = program.instructions
    assert add.source_registers() == (2, 3)
    assert add.destination_register() == 1
    assert set(sw.source_registers()) == {4, 5}
    assert sw.destination_register() is None
    # Writes to r0 are architecturally discarded.
    assert li_r0.destination_register() is None


def test_latency_classes():
    program = assemble(".text\n mul r1, r2, r3\n lw r4, 0(r5)\n add r6, r7, r8\n halt")
    mul, lw, add, _ = program.instructions
    assert mul.latency_class == "mul"
    assert lw.latency_class == "load"
    assert add.latency_class == "alu"


def test_memory_access_bytes_table():
    assert MEMORY_ACCESS_BYTES[Opcode.LW] == 8
    assert MEMORY_ACCESS_BYTES[Opcode.LH] == 2
    assert MEMORY_ACCESS_BYTES[Opcode.SB] == 1


def test_control_opcode_sets_are_consistent():
    assert CONDITIONAL_BRANCH_OPCODES <= CONTROL_OPCODES
    assert Opcode.HALT in CONTROL_OPCODES
    assert Opcode.ADD not in CONTROL_OPCODES


def test_format_register():
    assert format_register(31) == "ra"
    assert format_register(29) == "sp"
    assert format_register(0) == "r0"
    assert format_register(17) == "r17"


def test_program_queries():
    program = assemble(
        """
        .text
        main:
            nop
        end:
            halt
        .data
        blob: .word 1
        """
    )
    assert program.contains_pc(program.entry_point)
    assert not program.contains_pc(program.entry_point - 4)
    assert program.label_at(program.address_of("end")) == "end"
    assert program.label_at(0xDEADBEEF) is None
    assert program.text_end() == program.address_of("end") + INSTRUCTION_BYTES
    assert program.static_instruction_count() == 2
    with pytest.raises(ExecutionError):
        program.fetch(0xDEADBEEF)


def test_fall_through_pc():
    program = assemble(".text\n nop\n halt")
    assert program.instructions[0].fall_through_pc() == program.instructions[1].pc


def test_machine_state_memory_access_widths():
    from repro.sim import MachineState

    program = assemble(".text\n halt")
    state = MachineState(program)
    state.store(0x1000, 0x1122334455667788, 8)
    assert state.load(0x1000, 8, signed=False) == 0x1122334455667788
    assert state.load(0x1000, 1, signed=False) == 0x88
    assert state.load(0x1006, 2, signed=False) == 0x1122
    # Sign extension.
    state.store(0x2000, 0xFF, 1)
    assert state.load(0x2000, 1, signed=True) == (1 << 64) - 1
    assert state.load(0x2000, 1, signed=False) == 0xFF


def test_program_rejects_overlapping_data_segments():
    text = [Instruction(0x9000, Opcode.HALT)]
    Program(text, data_segments=[(0x100, b"ab"), (0x102, b"c")])
    with pytest.raises(ExecutionError):
        Program(text, data_segments=[(0x100, b"ab"), (0x101, b"c")])
    with pytest.raises(ExecutionError):
        Program(text, data_segments=[(0x200, b"a"), (0x100, b"b")])


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda opcode: opcode.name)
def test_instruction_pickle_keeps_every_slot(opcode):
    """An instruction pickles its constructor operands only, and
    loading it derives the same classification flags again."""
    inst = Instruction(0x9010, opcode, rd=4, rs=5, rt=6, imm=-24, target=0x9000)
    data = pickle.dumps(inst)
    assert b"is_load" not in data and b"latency_class" not in data
    loaded = pickle.loads(data)
    assert type(loaded) is Instruction
    for slot in Instruction.__slots__:
        assert getattr(loaded, slot) == getattr(inst, slot), slot
    assert type(loaded.opcode) is Opcode
