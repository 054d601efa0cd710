"""A small two-pass assembler for the repro ISA.

The assembler accepts a conventional MIPS-flavoured syntax::

    .text
    main:
        li    r1, 100
        la    r2, table
    loop:
        lw    r3, 0(r2)
        addi  r2, r2, 8
        addi  r1, r1, -1
        bne   r1, r0, loop
        halt
    .data
    table: .word 1, 2, 3
    buffer: .space 64

Supported directives: ``.text``, ``.data``, ``.word`` (8-byte values),
``.byte``, ``.space N``.  Supported pseudo-instructions: ``li``, ``la``,
``move`` and ``nop``.  Comments start with ``#`` or ``;`` and commas
between operands are optional.
"""

import re

from repro.errors import AssemblyError
from repro.isa.instructions import (
    INSTRUCTION_BYTES,
    NUM_REGISTERS,
    REGISTER_ALIASES,
    WORD_BYTES,
    Instruction,
    Opcode,
)
from repro.isa.program import DATA_BASE, TEXT_BASE, Program

_WORD_MASK = (1 << (8 * WORD_BYTES)) - 1

_LABEL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_MEM_OPERAND_RE = re.compile(r"^(-?\w+)\(([\w$]+)\)$")

_BRANCH_ONE_SOURCE = {
    "bgez": Opcode.BGEZ,
    "bgtz": Opcode.BGTZ,
    "blez": Opcode.BLEZ,
    "bltz": Opcode.BLTZ,
}

_MNEMONICS_RRR = {
    "add": Opcode.ADD,
    "addu": Opcode.ADD,
    "daddu": Opcode.ADD,
    "sub": Opcode.SUB,
    "subu": Opcode.SUB,
    "mul": Opcode.MUL,
    "and": Opcode.AND,
    "or": Opcode.OR,
    "xor": Opcode.XOR,
    "slt": Opcode.SLT,
    "sll": Opcode.SLL,
    "srl": Opcode.SRL,
}

_MNEMONICS_RRI = {
    "addi": Opcode.ADDI,
    "addiu": Opcode.ADDI,
    "andi": Opcode.ANDI,
    "ori": Opcode.ORI,
    "xori": Opcode.XORI,
    "slti": Opcode.SLTI,
    "slli": Opcode.SLLI,
    "srli": Opcode.SRLI,
}

_DATA_DIRECTIVES = frozenset({".word", ".byte", ".space"})

_MNEMONICS_LOAD = {"lw": Opcode.LW, "lh": Opcode.LH, "lb": Opcode.LB}
_MNEMONICS_STORE = {"sw": Opcode.SW, "sh": Opcode.SH, "sb": Opcode.SB}


def parse_register(token, line_number=None):
    """Parse a register operand (``r0``..``r31`` or an alias)."""
    name = token.lower().lstrip("$")
    if name in REGISTER_ALIASES:
        return REGISTER_ALIASES[name]
    if name.startswith("r") and name[1:].isdigit():
        index = int(name[1:])
        if 0 <= index < NUM_REGISTERS:
            return index
    raise AssemblyError("invalid register {!r}".format(token), line_number)


def _parse_integer(token, line_number=None):
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError("invalid integer {!r}".format(token), line_number)


class _Line:
    """A tokenized source line: optional labels plus one statement."""

    __slots__ = ("number", "labels", "mnemonic", "operands")

    def __init__(self, number, labels, mnemonic, operands):
        self.number = number
        self.labels = labels
        self.mnemonic = mnemonic
        self.operands = operands


def _tokenize(source):
    """Split assembly source into :class:`_Line` records."""
    lines = []
    for number, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not text:
            continue
        labels = []
        while True:
            head, colon, rest = text.partition(":")
            if not colon or " " in head or "\t" in head:
                break
            if not _LABEL_RE.match(head):
                raise AssemblyError("invalid label {!r}".format(head), number)
            labels.append(head)
            text = rest.strip()
            if not text:
                break
        if not text:
            if labels:
                lines.append(_Line(number, labels, None, []))
            continue
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [op for op in re.split(r"[,\s]+", operand_text.strip()) if op]
        lines.append(_Line(number, labels, mnemonic, operands))
    return lines


class Assembler:
    """Two-pass assembler producing a :class:`~repro.isa.program.Program`."""

    def __init__(self, text_base=TEXT_BASE, data_base=DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    def assemble(self, source, entry_label=None):
        """Assemble ``source`` text into a :class:`Program`.

        Args:
            source: Assembly source text.
            entry_label: Optional label to use as the entry point; defaults
                to the first text instruction.

        Raises:
            AssemblyError: On any syntax or semantic error.
        """
        lines = _tokenize(source)
        symbols = self._first_pass(lines)
        instructions, data_segments = self._second_pass(lines, symbols)
        if not instructions:
            raise AssemblyError("program has no text segment")
        entry_point = None
        if entry_label is not None:
            if entry_label not in symbols:
                raise AssemblyError("entry label {!r} is undefined".format(entry_label))
            entry_point = symbols[entry_label]
        return Program(instructions, symbols, data_segments, entry_point)

    def _data_size(self, line):
        """Bytes a data directive occupies: the one size rule of both
        passes, so every datum lands at the address its label names."""
        mnemonic = line.mnemonic
        if mnemonic == ".space":
            self._expect_operands(line, 1)
            size = _parse_integer(line.operands[0], line.number)
            if size < 0:
                raise AssemblyError(".space size must not be negative", line.number)
            return size
        if not line.operands:
            raise AssemblyError("{} needs at least one value".format(mnemonic), line.number)
        if mnemonic == ".word":
            return WORD_BYTES * len(line.operands)
        return len(line.operands)

    def _first_pass(self, lines):
        symbols = {}
        text_cursor = self.text_base
        data_cursor = self.data_base
        in_data = False
        for line in lines:
            cursor = data_cursor if in_data else text_cursor
            for label in line.labels:
                if label in symbols:
                    raise AssemblyError("duplicate label {!r}".format(label), line.number)
                symbols[label] = cursor
            if line.mnemonic is None:
                continue
            if line.mnemonic == ".text":
                in_data = False
                continue
            if line.mnemonic == ".data":
                in_data = True
                continue
            is_text = line.mnemonic not in _DATA_DIRECTIVES
            if is_text and in_data:
                raise AssemblyError("instruction in .data segment", line.number)
            if not is_text and not in_data:
                raise AssemblyError("data directive in .text segment", line.number)
            if in_data:
                data_cursor += self._data_size(line)
            else:
                text_cursor += INSTRUCTION_BYTES
        return symbols

    def _second_pass(self, lines, symbols):
        instructions = []
        segments = []
        pc = self.text_base
        data_cursor = self.data_base
        in_data = False
        for line in lines:
            if line.mnemonic is None:
                continue
            if line.mnemonic == ".text":
                in_data = False
                continue
            if line.mnemonic == ".data":
                in_data = True
                continue
            if in_data:
                data_cursor = self._emit_data(line, symbols, segments, data_cursor)
            else:
                for instruction in self._emit_instruction(line, pc, symbols):
                    instructions.append(instruction)
                    pc += INSTRUCTION_BYTES
        return instructions, segments

    def _emit_data(self, line, symbols, segments, cursor):
        """Append ``line``'s bytes at ``cursor`` and return the next
        cursor.  ``segments`` holds ascending ``(address, bytearray)``
        runs; a datum extends the last run when it starts where that
        run ends, else opens a new one."""
        size = self._data_size(line)
        if line.mnemonic == ".space":
            # Reserve addresses without materializing zero bytes: the
            # functional simulator reads absent bytes as zero, and large
            # sparse arenas (megabytes) stay cheap.
            return cursor + size
        if not segments or segments[-1][0] + len(segments[-1][1]) != cursor:
            segments.append((cursor, bytearray()))
        data = segments[-1][1]
        for token in line.operands:
            value = self._resolve_value(token, symbols, line.number)
            if line.mnemonic == ".word":
                data += (value & _WORD_MASK).to_bytes(WORD_BYTES, "little")
            else:
                data.append(value & 0xFF)
        return cursor + size

    def _resolve_value(self, token, symbols, line_number):
        if token in symbols:
            return symbols[token]
        return _parse_integer(token, line_number)

    def _resolve_target(self, token, symbols, line_number):
        if token in symbols:
            return symbols[token]
        try:
            return int(token, 0)
        except ValueError:
            raise AssemblyError("undefined label {!r}".format(token), line_number)

    def _expect_operands(self, line, count):
        if len(line.operands) != count:
            raise AssemblyError(
                "{} expects {} operands, got {}".format(
                    line.mnemonic, count, len(line.operands)
                ),
                line.number,
            )

    def _emit_instruction(self, line, pc, symbols):
        mnemonic = line.mnemonic
        operands = line.operands
        number = line.number

        if mnemonic in _MNEMONICS_RRR:
            self._expect_operands(line, 3)
            rd = parse_register(operands[0], number)
            rs = parse_register(operands[1], number)
            rt = parse_register(operands[2], number)
            return [Instruction(pc, _MNEMONICS_RRR[mnemonic], rd=rd, rs=rs, rt=rt)]

        if mnemonic in _MNEMONICS_RRI:
            self._expect_operands(line, 3)
            rd = parse_register(operands[0], number)
            rs = parse_register(operands[1], number)
            imm = self._resolve_value(operands[2], symbols, number)
            return [Instruction(pc, _MNEMONICS_RRI[mnemonic], rd=rd, rs=rs, imm=imm)]

        if mnemonic == "lui":
            self._expect_operands(line, 2)
            rd = parse_register(operands[0], number)
            imm = self._resolve_value(operands[1], symbols, number)
            return [Instruction(pc, Opcode.LUI, rd=rd, imm=imm)]

        if mnemonic in ("li", "la"):
            self._expect_operands(line, 2)
            rd = parse_register(operands[0], number)
            imm = self._resolve_value(operands[1], symbols, number)
            return [Instruction(pc, Opcode.ADDI, rd=rd, rs=0, imm=imm)]

        if mnemonic == "move":
            self._expect_operands(line, 2)
            rd = parse_register(operands[0], number)
            rs = parse_register(operands[1], number)
            return [Instruction(pc, Opcode.ADD, rd=rd, rs=rs, rt=0)]

        if mnemonic in _MNEMONICS_LOAD:
            self._expect_operands(line, 2)
            rd = parse_register(operands[0], number)
            imm, rs = self._parse_mem_operand(operands[1], symbols, number)
            return [Instruction(pc, _MNEMONICS_LOAD[mnemonic], rd=rd, rs=rs, imm=imm)]

        if mnemonic in _MNEMONICS_STORE:
            self._expect_operands(line, 2)
            rt = parse_register(operands[0], number)
            imm, rs = self._parse_mem_operand(operands[1], symbols, number)
            return [Instruction(pc, _MNEMONICS_STORE[mnemonic], rs=rs, rt=rt, imm=imm)]

        if mnemonic in ("beq", "bne"):
            self._expect_operands(line, 3)
            opcode = Opcode.BEQ if mnemonic == "beq" else Opcode.BNE
            rs = parse_register(operands[0], number)
            rt = parse_register(operands[1], number)
            target = self._resolve_target(operands[2], symbols, number)
            return [Instruction(pc, opcode, rs=rs, rt=rt, target=target)]

        if mnemonic in _BRANCH_ONE_SOURCE:
            self._expect_operands(line, 2)
            rs = parse_register(operands[0], number)
            target = self._resolve_target(operands[1], symbols, number)
            return [
                Instruction(pc, _BRANCH_ONE_SOURCE[mnemonic], rs=rs, target=target)
            ]

        if mnemonic in ("j", "jal"):
            self._expect_operands(line, 1)
            opcode = Opcode.J if mnemonic == "j" else Opcode.JAL
            target = self._resolve_target(operands[0], symbols, number)
            rd = REGISTER_ALIASES["ra"] if opcode == Opcode.JAL else None
            return [Instruction(pc, opcode, rd=rd, target=target)]

        if mnemonic in ("jr", "jalr"):
            self._expect_operands(line, 1)
            opcode = Opcode.JR if mnemonic == "jr" else Opcode.JALR
            rs = parse_register(operands[0], number)
            rd = REGISTER_ALIASES["ra"] if opcode == Opcode.JALR else None
            return [Instruction(pc, opcode, rd=rd, rs=rs)]

        if mnemonic == "nop":
            return [Instruction(pc, Opcode.NOP)]

        if mnemonic == "halt":
            return [Instruction(pc, Opcode.HALT)]

        raise AssemblyError("unknown mnemonic {!r}".format(mnemonic), number)

    def _parse_mem_operand(self, token, symbols, line_number):
        match = _MEM_OPERAND_RE.match(token)
        if not match:
            raise AssemblyError(
                "invalid memory operand {!r}; expected off(reg)".format(token), line_number
            )
        displacement_token, base_token = match.groups()
        displacement = self._resolve_value(displacement_token, symbols, line_number)
        base = parse_register(base_token, line_number)
        return displacement, base


def assemble(source, entry_label=None, text_base=TEXT_BASE, data_base=DATA_BASE):
    """Convenience wrapper: assemble ``source`` with default bases."""
    return Assembler(text_base=text_base, data_base=data_base).assemble(source, entry_label)
