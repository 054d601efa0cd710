"""Tests for the two-pass assembler."""

import pytest

from repro.errors import AssemblyError
from repro.isa import (
    DATA_BASE,
    INSTRUCTION_BYTES,
    TEXT_BASE,
    Opcode,
    assemble,
    parse_register,
)


def test_assembles_simple_program():
    program = assemble(
        """
        .text
        main:
            li   r1, 10
            addi r1, r1, -1
            bne  r1, r0, main
            halt
        """
    )
    assert len(program) == 4
    assert program.instructions[0].pc == TEXT_BASE
    assert program.instructions[1].pc == TEXT_BASE + INSTRUCTION_BYTES
    assert program.address_of("main") == TEXT_BASE


def test_li_becomes_addi_from_r0():
    program = assemble(".text\n li r5, 42\n halt")
    inst = program.instructions[0]
    assert inst.opcode == Opcode.ADDI
    assert inst.rd == 5
    assert inst.rs == 0
    assert inst.imm == 42


def test_move_becomes_add_with_r0():
    program = assemble(".text\n move r2, r7\n halt")
    inst = program.instructions[0]
    assert inst.opcode == Opcode.ADD
    assert (inst.rd, inst.rs, inst.rt) == (2, 7, 0)


def test_branch_target_resolution():
    program = assemble(
        """
        .text
        start:
            beq r1, r2, done
            j start
        done:
            halt
        """
    )
    beq = program.instructions[0]
    assert beq.target == program.address_of("done")
    jump = program.instructions[1]
    assert jump.target == program.address_of("start")


def test_forward_and_backward_labels():
    program = assemble(
        """
        .text
        a:  bgez r1, c
        b:  j a
        c:  halt
        """
    )
    assert program.instructions[0].target == program.address_of("c")
    assert program.address_of("c") > program.address_of("a")


def test_data_words_little_endian():
    program = assemble(
        """
        .text
            halt
        .data
        table: .word 0x0102030405060708, -1
        """
    )
    base = program.address_of("table")
    assert base == DATA_BASE
    ((address, data),) = program.data_segments
    assert address == base
    assert data[0] == 0x08
    assert data[7] == 0x01
    assert all(data[8 + i] == 0xFF for i in range(8))


def test_data_bytes_and_space():
    program = assemble(
        """
        .text
            halt
        .data
        bytes: .byte 1, 2, 3
        buf:   .space 16
        after: .word 5
        """
    )
    bytes_base = program.address_of("bytes")
    address, data = program.data_segments[0]
    assert address == bytes_base
    assert [data[i] for i in range(3)] == [1, 2, 3]
    assert program.address_of("buf") == bytes_base + 3
    assert program.address_of("after") == bytes_base + 3 + 16
    # .space materializes no zeros: the word after it opens a new segment.
    assert program.data_segments[1] == (bytes_base + 3 + 16, (5).to_bytes(8, "little"))


def test_la_loads_data_address():
    program = assemble(
        """
        .text
            la r4, table
            halt
        .data
        table: .word 7
        """
    )
    inst = program.instructions[0]
    assert inst.opcode == Opcode.ADDI
    assert inst.imm == program.address_of("table")


def test_load_store_operand_parsing():
    program = assemble(".text\n lw r3, -8(r9)\n sw r3, 16(sp)\n halt")
    load = program.instructions[0]
    assert (load.opcode, load.rd, load.rs, load.imm) == (Opcode.LW, 3, 9, -8)
    store = program.instructions[1]
    assert (store.opcode, store.rt, store.rs, store.imm) == (Opcode.SW, 3, 29, 16)


def test_register_aliases():
    assert parse_register("ra") == 31
    assert parse_register("sp") == 29
    assert parse_register("zero") == 0
    assert parse_register("r17") == 17


def test_jal_links_ra():
    program = assemble(
        """
        .text
            jal func
            halt
        func:
            jr ra
        """
    )
    jal = program.instructions[0]
    assert jal.opcode == Opcode.JAL
    assert jal.rd == 31
    assert program.instructions[2].opcode == Opcode.JR


def test_comments_and_optional_commas():
    program = assemble(
        """
        .text
        # full line comment
        add r1 r2 r3     # trailing comment
        or  r4, r5, r6   ; alt comment
        halt
        """
    )
    assert len(program) == 3


def test_multiple_labels_one_address():
    program = assemble(
        """
        .text
        a:
        b:  halt
        """
    )
    assert program.address_of("a") == program.address_of("b")


def test_entry_label():
    program = assemble(
        """
        .text
        setup: nop
        main:  halt
        """,
        entry_label="main",
    )
    assert program.entry_point == program.address_of("main")


def test_error_on_duplicate_label():
    with pytest.raises(AssemblyError):
        assemble(".text\n a: nop\n a: halt")


def test_error_on_unknown_mnemonic():
    with pytest.raises(AssemblyError):
        assemble(".text\n frobnicate r1, r2\n")


def test_error_on_undefined_branch_target():
    with pytest.raises(AssemblyError):
        assemble(".text\n j nowhere\n halt")


def test_error_on_bad_register():
    with pytest.raises(AssemblyError):
        assemble(".text\n add r1, r2, r99\n halt")


def test_error_on_wrong_operand_count():
    with pytest.raises(AssemblyError):
        assemble(".text\n add r1, r2\n halt")


def test_error_on_instruction_in_data():
    with pytest.raises(AssemblyError):
        assemble(".data\n add r1, r2, r3\n")


def test_error_on_data_directive_in_text():
    with pytest.raises(AssemblyError):
        assemble(".text\n .word 1\n halt")


def test_error_on_empty_word_directive():
    # Pass one used to reserve 8 bytes that pass two never emitted, so
    # ``b`` named an address its value did not land at.
    with pytest.raises(AssemblyError, match="line 4"):
        assemble(".text\n halt\n.data\n a: .word\n b: .word 7\n")


def test_error_on_empty_byte_directive():
    with pytest.raises(AssemblyError, match="line 4"):
        assemble(".text\n halt\n.data\n a: .byte\n b: .byte 7\n")


def test_error_on_space_without_size():
    with pytest.raises(AssemblyError, match="line 4"):
        assemble(".text\n halt\n.data\n .space\n")


def test_error_on_negative_space():
    # A negative reservation would rewind the cursor over earlier data.
    with pytest.raises(AssemblyError, match="line 5"):
        assemble(".text\n halt\n.data\n a: .word 1\n .space -8\n b: .word 2\n")


def test_error_reports_line_number():
    with pytest.raises(AssemblyError) as excinfo:
        assemble(".text\nnop\nbogus r1\n")
    assert "line 3" in str(excinfo.value)


def test_error_on_empty_program():
    with pytest.raises(AssemblyError):
        assemble(".data\n x: .word 1\n")
