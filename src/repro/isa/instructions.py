"""Instruction set definition for the repro MIPS-like 64-bit ISA.

The paper evaluates PolyFlow on a variant of the 64-bit MIPS ISA.  This
module defines a compact MIPS-flavoured instruction set that is rich
enough to express the control-flow idioms the paper's evaluation depends
on (conditional hammocks, nested loops, procedure calls, indirect jumps)
while staying small enough to simulate quickly.

Instructions are fixed-width: every instruction occupies
:data:`INSTRUCTION_BYTES` bytes of the text segment, and branch targets
are absolute PCs resolved at assembly time.
"""

import enum

#: Size of one instruction in the text segment, in bytes.
INSTRUCTION_BYTES = 4

#: Number of architectural integer registers.
NUM_REGISTERS = 32

#: Machine word size in bytes (the ISA is 64-bit).
WORD_BYTES = 8

#: Conventional register aliases, matching MIPS usage where it matters.
REGISTER_ALIASES = {
    "zero": 0,
    "sp": 29,
    "fp": 30,
    "ra": 31,
}


class Opcode(enum.IntEnum):
    """All opcodes in the ISA.

    The numeric values are contiguous so that simulators can use them to
    index dispatch tables.
    """

    # ALU register-register.
    ADD = 0
    SUB = 1
    MUL = 2
    AND = 3
    OR = 4
    XOR = 5
    SLT = 6
    SLL = 7
    SRL = 8
    # ALU register-immediate.
    ADDI = 9
    ANDI = 10
    ORI = 11
    XORI = 12
    SLTI = 13
    SLLI = 14
    SRLI = 15
    LUI = 16
    # Memory.
    LW = 17  # load 8-byte word
    LH = 18  # load 2-byte halfword (sign extended)
    LB = 19  # load 1-byte (sign extended)
    SW = 20  # store 8-byte word
    SH = 21  # store 2-byte halfword
    SB = 22  # store 1-byte
    # Conditional branches (PC-relative in spirit; targets are absolute).
    BEQ = 23
    BNE = 24
    BGEZ = 25
    BGTZ = 26
    BLEZ = 27
    BLTZ = 28
    # Unconditional control flow.
    J = 29  # direct jump
    JAL = 30  # direct call, link in ra
    JR = 31  # indirect jump / return
    JALR = 32  # indirect call, link in ra
    # Misc.
    NOP = 33
    HALT = 34


#: Opcodes that read two register sources and write a destination.
ALU_RRR_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SLT,
        Opcode.SLL,
        Opcode.SRL,
    }
)

#: Opcodes that read one register source plus an immediate.
ALU_RRI_OPCODES = frozenset(
    {
        Opcode.ADDI,
        Opcode.ANDI,
        Opcode.ORI,
        Opcode.XORI,
        Opcode.SLTI,
        Opcode.SLLI,
        Opcode.SRLI,
    }
)

LOAD_OPCODES = frozenset({Opcode.LW, Opcode.LH, Opcode.LB})
STORE_OPCODES = frozenset({Opcode.SW, Opcode.SH, Opcode.SB})

#: Conditional branches: may or may not be taken.
CONDITIONAL_BRANCH_OPCODES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BGEZ, Opcode.BGTZ, Opcode.BLEZ, Opcode.BLTZ}
)

#: Branches comparing two registers.
TWO_SOURCE_BRANCH_OPCODES = frozenset({Opcode.BEQ, Opcode.BNE})

#: Direct unconditional transfers.
DIRECT_JUMP_OPCODES = frozenset({Opcode.J, Opcode.JAL})

#: Indirect transfers (target comes from a register).
INDIRECT_JUMP_OPCODES = frozenset({Opcode.JR, Opcode.JALR})

#: Calls: linking transfers that push a return address.
CALL_OPCODES = frozenset({Opcode.JAL, Opcode.JALR})

#: Every opcode that can end a basic block.
CONTROL_OPCODES = (
    CONDITIONAL_BRANCH_OPCODES
    | DIRECT_JUMP_OPCODES
    | INDIRECT_JUMP_OPCODES
    | frozenset({Opcode.HALT})
)

#: Byte width accessed by each memory opcode.
MEMORY_ACCESS_BYTES = {
    Opcode.LW: WORD_BYTES,
    Opcode.SW: WORD_BYTES,
    Opcode.LH: 2,
    Opcode.SH: 2,
    Opcode.LB: 1,
    Opcode.SB: 1,
}


class Instruction:
    """One decoded instruction.

    Attributes:
        pc: Absolute address of this instruction in the text segment.
        opcode: The :class:`Opcode`.
        rd: Destination register index, or ``None``.
        rs: First source register index, or ``None``.
        rt: Second source register index, or ``None``.
        imm: Immediate operand (also the load/store displacement), or 0.
        target: Absolute target PC for direct branches/jumps, or ``None``.
    """

    __slots__ = (
        "pc",
        "opcode",
        "rd",
        "rs",
        "rt",
        "imm",
        "target",
        "is_conditional_branch",
        "is_direct_jump",
        "is_indirect_jump",
        "is_call",
        "is_return_like",
        "is_control",
        "is_load",
        "is_store",
        "is_mem",
        "latency_class",
    )

    def __init__(self, pc, opcode, rd=None, rs=None, rt=None, imm=0, target=None):
        self.pc = pc
        self.opcode = opcode
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.imm = imm
        self.target = target
        # Pre-computed classification flags; these are read in the hot
        # loops of the simulators.
        self.is_conditional_branch = opcode in CONDITIONAL_BRANCH_OPCODES
        self.is_direct_jump = opcode in DIRECT_JUMP_OPCODES
        self.is_indirect_jump = opcode in INDIRECT_JUMP_OPCODES
        self.is_call = opcode in CALL_OPCODES
        self.is_return_like = opcode == Opcode.JR
        self.is_control = opcode in CONTROL_OPCODES
        self.is_load = opcode in LOAD_OPCODES
        self.is_store = opcode in STORE_OPCODES
        self.is_mem = self.is_load or self.is_store
        if opcode == Opcode.MUL:
            self.latency_class = "mul"
        elif self.is_load:
            self.latency_class = "load"
        else:
            self.latency_class = "alu"

    def __reduce__(self):
        # Pickle the seven constructor operands only: __init__ derives
        # the classification flags again on load, which keeps pickled
        # programs (the analysis cache's static parts) small.
        return (
            Instruction,
            (self.pc, self.opcode, self.rd, self.rs, self.rt, self.imm, self.target),
        )

    def source_registers(self):
        """Return the tuple of register indices this instruction reads."""
        sources = []
        if self.rs is not None:
            sources.append(self.rs)
        if self.rt is not None:
            sources.append(self.rt)
        return tuple(sources)

    def destination_register(self):
        """Return the register index written, or ``None``.

        Writes to register 0 are discarded by the ISA, so they are
        reported as ``None`` here.
        """
        if self.rd is None or self.rd == 0:
            return None
        return self.rd

    def fall_through_pc(self):
        """Return the address of the next sequential instruction."""
        return self.pc + INSTRUCTION_BYTES

    def __repr__(self):
        from repro.isa.disassembler import disassemble

        return "Instruction(pc={:#x}, {!r})".format(self.pc, disassemble(self))


def format_register(index):
    """Render a register index as its canonical assembly name."""
    for alias, number in REGISTER_ALIASES.items():
        if number == index and alias in ("ra", "sp"):
            return alias
    return "r{}".format(index)
