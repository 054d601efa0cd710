"""Superblock segmentation: the block-at-a-time tables of both simulators.

Per-instruction Python dispatch is the dominant cost of both simulators,
even though the committed trace between a branch and its ipdom is
straight-line and replayed thousands of times across the experiment
grid.  This module compiles those straight-line regions once per
program/trace into *block tables* the hot loops consume
block-at-a-time:

* :class:`BlockTable` — per-trace-index tables for the event-calendar
  timing kernel (:mod:`repro.polyflow.event_kernel`): the maximal
  straight-line *run* from every index (``batch_end``) and the static
  register-consumer adjacency used for completion wake-up
  (``reg_consumers``).
* :class:`ProgramBlocks` — per-PC straight-line blocks of pre-decoded
  operand records for the functional interpreter
  (:mod:`repro.sim.functional`), so the architectural replay loop skips
  the per-instruction fetch-dict lookup.

A *superblock* is bounded by control transfers (any non-``KIND_PLAIN``
instruction), by I-cache line boundaries (so the timing engine's single
line probe at the block head covers the whole block), and — in the
per-core overlay built by :class:`~repro.polyflow.core.PolyFlowCore` —
by spawn-candidate PCs (the policy's ipdom reconvergence points), which
must take the per-instruction path so spawn decisions still fire.

Trace tables are **content-keyed**: they are memoized on the trace
objects held by :class:`~repro.analysis.pipeline.ProgramAnalyses`,
which :class:`~repro.analysis.pipeline.AnalysisCache` dedupes by source
digest, so every core built on one program shares them.  A trace's
table is compiled when a core first needs it, never by the analysis
cache, so a program that is only estimated never pays for one.  A
program's blocks live for one run of it and are not kept.
Module-level counters track table reuse and block builds; every
simulation reports their movement in its outcome's ``blocks``, which
``RunSummary`` sums.
"""

import functools

from repro.isa.instructions import INSTRUCTION_BYTES, Opcode
from repro.sim.predecode import control_kind, latency_class

#: L1 I-cache line size of the default
#: :class:`~repro.memory.hierarchy.CacheHierarchy` (128-byte lines).
#: Superblocks never cross a line so the timing engine's single
#: line-address probe at the block head covers every instruction in it.
ICACHE_LINE_BYTES = 128

_LINE_SHIFT = ICACHE_LINE_BYTES.bit_length() - 1

#: Counter names reported by :func:`cache_counters`.
BLOCK_CACHE_KEYS = ("table_hits", "table_misses", "program_misses")

_COUNTERS = {key: 0 for key in BLOCK_CACHE_KEYS}

# Functional-side block enders: every opcode up to the last store falls
# through, as does NOP; branches, jumps, calls, returns and HALT end a
# straight-line block.
_LAST_PLAIN_OPCODE = int(Opcode.SB)
_NOP_OPCODE = int(Opcode.NOP)


def cache_counters():
    """Snapshot of the process-wide block-cache hit/miss counters."""
    return dict(_COUNTERS)


def counters_delta(before, after=None):
    """Counter movement between two :func:`cache_counters` snapshots."""
    if after is None:
        after = cache_counters()
    return {key: after[key] - before.get(key, 0) for key in BLOCK_CACHE_KEYS}


def reset_cache_counters():
    """Zero the block-cache counters (tests and fresh run summaries)."""
    for key in BLOCK_CACHE_KEYS:
        _COUNTERS[key] = 0


class BlockTable:
    """Compiled superblock tables of one committed trace.

    ``batch_end[i]`` is the end (exclusive) of the maximal straight-line
    run starting at trace index ``i``: every index in ``[i,
    batch_end[i])`` is ``KIND_PLAIN`` and shares ``i``'s I-cache line
    (``batch_end[i] == i`` when ``i`` itself is a control transfer).
    The backward-pass construction makes the table valid from *any*
    start index, so a task that stops fetching mid-block (budget or
    capacity) resumes with a correct run bound.

    ``reg_consumers[p]`` lists every trace index naming ``p`` as a
    source-register producer, one entry per dependence slot in trace
    order (an index consuming ``p`` through both sources appears
    twice) — the event kernel's completion wake-up walks this static
    adjacency instead of registering consumers in a dict per fetch.
    """

    __slots__ = ("length", "batch_end", "reg_consumers")

    def __init__(self, length, batch_end, reg_consumers):
        self.length = length
        self.batch_end = batch_end
        self.reg_consumers = reg_consumers


def build_block_table(trace):
    """Compile the :class:`BlockTable` of one trace's columns (one pass
    each for runs and adjacency)."""
    count = len(trace)
    kinds = trace.kind
    pcs = trace.pc
    dep0 = trace.dep0
    dep1 = trace.dep1

    batch_end = [0] * count
    for index in range(count - 1, -1, -1):
        if kinds[index]:
            batch_end[index] = index
            continue
        following = index + 1
        if (
            following < count
            and not kinds[following]
            and (pcs[following] >> _LINE_SHIFT) == (pcs[index] >> _LINE_SHIFT)
        ):
            batch_end[index] = batch_end[following]
        else:
            batch_end[index] = following

    consumer_lists = [None] * count
    for index in range(count):
        producer = dep0[index]
        if producer >= 0:
            bucket = consumer_lists[producer]
            if bucket is None:
                consumer_lists[producer] = [index]
            else:
                bucket.append(index)
        producer = dep1[index]
        if producer >= 0:
            bucket = consumer_lists[producer]
            if bucket is None:
                consumer_lists[producer] = [index]
            else:
                bucket.append(index)
    empty = ()
    reg_consumers = [tuple(bucket) if bucket else empty for bucket in consumer_lists]
    return BlockTable(count, batch_end, reg_consumers)


def block_table_for(trace):
    """The (memoized) :class:`BlockTable` of ``trace``.

    The memo lives on the trace object itself, so every core built on
    the same trace shares one compiled table.  Nothing compiles it
    ahead of time: the first core to run the trace (or a warm pool's
    initializer) pays for it, once per process.
    """
    table = getattr(trace, "_block_table", None)
    if table is not None:
        _COUNTERS["table_hits"] += 1
        return table
    _COUNTERS["table_misses"] += 1
    table = build_block_table(trace)
    trace._block_table = table
    return table


class ProgramBlocks:
    """Per-PC straight-line blocks for the functional interpreter.

    ``block_at(pc)`` returns ``(entries, columns)`` for the
    straight-line run starting at ``pc`` up to and including its first
    control transfer (or the last decodable instruction).  ``entries``
    are extended pre-decode records
    ``(opcode, rd, rs, rt, imm, target, nsrc, inst, fall_through)``;
    ``columns`` holds, per :class:`~repro.sim.trace.Trace` column in
    :data:`~repro.sim.trace.COLUMNS` order, the block's slots prefilled
    with every value known before execution (the static
    ``pc``/``kind``/``lat``/``fall_through``/``inst``, and the untaken,
    fall-through, dependence-free defaults of the dynamic columns), so
    the interpreter extends the trace a block at a time and only writes
    the slots execution changes.  Blocks are built lazily per entry PC
    and memoized, so only PCs the program actually jumps to are
    compiled.
    """

    __slots__ = ("_decoded", "_blocks")

    def __init__(self, program):
        from repro.sim.predecode import decode_program

        self._decoded = decode_program(program)
        self._blocks = {}

    def block_at(self, pc):
        """The compiled block starting at ``pc`` (``None`` if ``pc``
        does not decode)."""
        block = self._blocks.get(pc)
        if block is None:
            block = self._build(pc)
            if block is not None:
                self._blocks[pc] = block
        return block

    def compiled_blocks(self):
        """How many entry PCs have been compiled so far."""
        return len(self._blocks)

    def _build(self, pc):
        fetch_entry = self._decoded.get
        entry = fetch_entry(pc)
        if entry is None:
            return None
        entries = []
        pcs = []
        fall_throughs = []
        insts = []
        while True:
            fall_through = pc + INSTRUCTION_BYTES
            entries.append(entry + (fall_through,))
            pcs.append(pc)
            fall_throughs.append(fall_through)
            insts.append(entry[7])
            opcode = entry[0]
            if opcode > _LAST_PLAIN_OPCODE and opcode != _NOP_OPCODE:
                break
            pc = fall_through
            entry = fetch_entry(pc)
            if entry is None:
                break
        fall_throughs = tuple(fall_throughs)
        untaken, no_addresses, unset = _constant_fills(len(entries))
        columns = (  # in COLUMNS order
            tuple(pcs),
            bytes(map(control_kind, insts)),
            bytes(map(latency_class, insts)),
            untaken,  # taken
            fall_throughs,  # next_pc
            fall_throughs,  # fall_through
            no_addresses,  # mem_addr
            unset,  # mem_dep
            unset,  # dep0
            unset,  # dep1
            tuple(insts),
        )
        return tuple(entries), columns


@functools.lru_cache(maxsize=None)
def _constant_fills(length):
    """The value-independent prefills of a ``length``-entry block
    (untaken flags, no memory address, no producer), shared by every
    block of that length."""
    return bytes(length), (0,) * length, (-1,) * length


def program_blocks_for(program):
    """A fresh :class:`ProgramBlocks` of ``program`` for one run.

    Nothing is stored on the program: the analysis memo keeps every
    program alive for the whole run, yet only a run of the program
    reads its blocks (once, and again only when a disk-loaded program
    re-runs for its trace).  Every call counts one ``program_misses``.
    """
    _COUNTERS["program_misses"] += 1
    return ProgramBlocks(program)
