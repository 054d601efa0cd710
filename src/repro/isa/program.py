"""Program container: assembled text, symbols, and initial data segments."""

from repro.errors import ExecutionError
from repro.isa.instructions import INSTRUCTION_BYTES

#: Default base address of the text segment.
TEXT_BASE = 0x9000

#: Default base address of the data segment.
DATA_BASE = 0x100000


class Program:
    """An assembled program.

    Attributes:
        instructions: List of :class:`~repro.isa.instructions.Instruction`
            in text order.
        symbols: Mapping from label name to absolute address (text labels
            map into the text segment, data labels into the data segment).
        data_segments: The initialized data as a tuple of ascending,
            non-overlapping ``(address, bytes)`` runs.  Bytes outside
            every run (``.space`` reservations) start as zero.
        entry_point: PC of the first instruction to execute.
    """

    def __init__(self, instructions, symbols=None, data_segments=(), entry_point=None):
        self.instructions = list(instructions)
        self.symbols = dict(symbols or {})
        self.data_segments = tuple((address, bytes(data)) for address, data in data_segments)
        if not self.instructions:
            raise ExecutionError("a program must contain at least one instruction")
        end = None
        for address, data in self.data_segments:
            if end is not None and address < end:
                raise ExecutionError("data segments overlap or are out of order")
            end = address + len(data)
        self.text_base = self.instructions[0].pc
        self.entry_point = entry_point if entry_point is not None else self.text_base
        self._by_pc = {inst.pc: inst for inst in self.instructions}
        if len(self._by_pc) != len(self.instructions):
            raise ExecutionError("duplicate PCs in program text")

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def fetch(self, pc):
        """Return the instruction at ``pc``.

        Raises:
            ExecutionError: If ``pc`` does not address an instruction.
        """
        instruction = self._by_pc.get(pc)
        if instruction is None:
            raise ExecutionError("fetch from invalid PC {:#x}".format(pc))
        return instruction

    def contains_pc(self, pc):
        """Return whether ``pc`` addresses an instruction of this program."""
        return pc in self._by_pc

    def address_of(self, label):
        """Return the address bound to ``label``.

        Raises:
            KeyError: If the label is not defined.
        """
        return self.symbols[label]

    def label_at(self, address):
        """Return some label bound to ``address``, or ``None``."""
        for name, bound in self.symbols.items():
            if bound == address:
                return name
        return None

    def text_end(self):
        """Return the first address past the text segment."""
        return self.instructions[-1].pc + INSTRUCTION_BYTES

    def static_instruction_count(self):
        """Return the number of static instructions."""
        return len(self.instructions)
