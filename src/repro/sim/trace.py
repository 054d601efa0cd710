"""The committed-path dynamic trace produced by the functional simulator.

The cycle-level PolyFlow model is trace-driven: the functional simulator
executes the program architecturally and writes one slot per committed
instruction into flat per-index columns.  The columns carry everything
the timing model needs:

* ``pc`` and ``inst`` — the instruction address and the program's own
  static :class:`~repro.isa.instructions.Instruction` (shared, never
  copied), for the few readers of static attributes;
* ``kind`` / ``lat`` — the fetch-loop ``KIND_*`` and issue-loop
  ``LAT_*`` classes of :mod:`repro.sim.predecode`;
* ``taken`` / ``next_pc`` / ``fall_through`` — the dynamic
  control-flow outcome;
* ``mem_addr`` — the word-aligned byte address of the first word a
  load/store touches (0 otherwise);
* ``mem_dep``, ``dep0``, ``dep1`` — exact producer edges: the trace
  index of the youngest store a load reads from, and of the producers
  of the (up to two) source registers in rs-then-rt order; ``-1`` marks
  an absent source or a value that predates the trace.

The paper's simulator is execution-driven but also trace-assisted ("the
Task Spawn Unit uses a trace to ensure that tasks are not spawned too
far into the future"); see DESIGN.md section 6 for why a trace-driven
timing model preserves the evaluated behaviour.
"""

from repro.sim.predecode import (
    KIND_CALL_DIRECT,
    KIND_CALL_INDIRECT,
    KIND_COND_BRANCH,
    LAT_LOAD,
    LAT_STORE,
)

#: The attribute name of every per-index column of a :class:`Trace`.
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
    "inst",
)


class Trace:
    """A committed-path dynamic trace, one flat column per field.

    Every column has one slot per committed instruction; ``kind``,
    ``lat`` and ``taken`` are bytearrays, the rest lists.  The columns
    are written once by :class:`~repro.sim.functional.FunctionalSimulator`
    and read-only afterwards, so every simulation of the trace shares
    them (and the memoized :meth:`icache_lines` and block table).
    """

    def __init__(self):
        self.pc = []
        self.kind = bytearray()
        self.lat = bytearray()
        self.taken = bytearray()
        self.next_pc = []
        self.fall_through = []
        self.mem_addr = []
        self.mem_dep = []
        self.dep0 = []
        self.dep1 = []
        self.inst = []
        #: Whether the program reached HALT (as opposed to hitting the
        #: instruction budget).
        self.halted = False
        self._lines_by_shift = {}

    def __len__(self):
        return len(self.pc)

    def icache_lines(self, offset_bits):
        """The I-cache line index of every pc (memoized per line size).

        A derived flat column: ``pc >> offset_bits`` for each slot.
        Every core over the same trace reads the identical line column,
        so it is computed once per (trace, line size) instead of once
        per core construction — the grid-batch runner simulates many
        cells of one trace and this was the largest repeated setup
        cost.
        """
        lines = self._lines_by_shift.get(offset_bits)
        if lines is None:
            lines = [pc >> offset_bits for pc in self.pc]
            self._lines_by_shift[offset_bits] = lines
        return lines

    def instruction_mix(self):
        """Return counts of {'load','store','branch','call','other'}."""
        mix = {
            "load": self.lat.count(LAT_LOAD),
            "store": self.lat.count(LAT_STORE),
            "branch": self.kind.count(KIND_COND_BRANCH),
            "call": self.kind.count(KIND_CALL_DIRECT)
            + self.kind.count(KIND_CALL_INDIRECT),
        }
        mix["other"] = len(self) - sum(mix.values())
        return mix
