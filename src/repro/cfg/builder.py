"""Build per-procedure control flow graphs from an assembled program.

The paper's analysis is *profile-driven*: the compiler's postdominator
analysis is computed over the control flow graph observed by profiling
(which resolves indirect-jump targets).  :class:`JumpProfile` carries
those observed targets; without one, non-return indirect jumps are
treated as procedure exits.

Conventions (matching the workloads in :mod:`repro.workloads`):

* ``jal``/``jalr`` are calls: intra-procedurally they fall through, and
  the callee entry starts a new procedure CFG.
* ``jr ra`` is a return (an edge to the virtual exit node).
* ``jr`` through any other register is an indirect jump (e.g. a switch
  dispatch); its successors come from the jump profile.
"""

from collections import defaultdict

from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph
from repro.errors import CFGError
from repro.isa.instructions import REGISTER_ALIASES
from repro.sim.predecode import KIND_CALL_INDIRECT, KIND_SWITCH

_RA = REGISTER_ALIASES["ra"]


def _is_return(instruction):
    """Whether ``instruction`` is a ``jr ra`` return."""
    return instruction.is_return_like and instruction.rs == _RA


def _is_switch_jump(instruction):
    """Whether ``instruction`` is a non-return, non-call indirect jump."""
    return instruction.is_return_like and instruction.rs != _RA


class JumpProfile:
    """Observed dynamic targets of indirect control transfers."""

    def __init__(self):
        #: pc of a ``jr`` switch -> sorted tuple of observed target pcs.
        self.indirect_targets = defaultdict(set)
        #: pc of a ``jalr`` call -> sorted tuple of observed callee entry pcs.
        self.indirect_call_targets = defaultdict(set)

    @classmethod
    def from_trace(cls, trace):
        """Collect indirect-jump and indirect-call targets from a trace."""
        profile = cls()
        pcs = trace.pc
        next_pcs = trace.next_pc
        for index, kind in enumerate(trace.kind):
            if kind == KIND_SWITCH:
                profile.indirect_targets[pcs[index]].add(next_pcs[index])
            elif kind == KIND_CALL_INDIRECT:
                profile.indirect_call_targets[pcs[index]].add(next_pcs[index])
        return profile

    def targets_of(self, pc):
        """Sorted observed targets of the switch jump at ``pc``."""
        return tuple(sorted(self.indirect_targets.get(pc, ())))

    def call_targets_of(self, pc):
        """Sorted observed callees of the indirect call at ``pc``."""
        return tuple(sorted(self.indirect_call_targets.get(pc, ())))


class ProgramCFGs:
    """All per-procedure CFGs of a program, with pc-based lookup."""

    def __init__(self, program, procedures):
        self.program = program
        #: Mapping from procedure entry pc to its CFG.
        self.procedures = procedures
        self._location_by_pc = {}
        for cfg in procedures.values():
            for block in cfg.blocks:
                for instruction in block.instructions:
                    self._location_by_pc[instruction.pc] = (cfg, block)

    def __iter__(self):
        return iter(self.procedures.values())

    def __len__(self):
        return len(self.procedures)

    def cfg_of_entry(self, entry_pc):
        """Return the CFG whose procedure entry is ``entry_pc``."""
        return self.procedures[entry_pc]

    def location_of_pc(self, pc):
        """Return ``(cfg, block)`` containing ``pc``, or ``(None, None)``."""
        return self._location_by_pc.get(pc, (None, None))


def _collect_leaders(program, jump_profile, procedure_entries):
    """Return the set of block-leader PCs for the whole text segment."""
    leaders = set(procedure_entries)
    leaders.add(program.entry_point)
    for instruction in program.instructions:
        if instruction.is_conditional_branch or instruction.is_direct_jump:
            if instruction.target is not None and program.contains_pc(instruction.target):
                leaders.add(instruction.target)
        if instruction.is_control:
            fall_through = instruction.fall_through_pc()
            if program.contains_pc(fall_through):
                leaders.add(fall_through)
        if jump_profile is not None and _is_switch_jump(instruction):
            for target in jump_profile.targets_of(instruction.pc):
                if program.contains_pc(target):
                    leaders.add(target)
    return leaders


def _partition_blocks(program, leaders):
    """Split the text segment into raw blocks keyed by start pc."""
    blocks_by_start = {}
    current = []
    for instruction in program.instructions:
        if instruction.pc in leaders and current:
            blocks_by_start[current[0].pc] = current
            current = []
        current.append(instruction)
        if instruction.is_control:
            blocks_by_start[current[0].pc] = current
            current = []
    if current:
        blocks_by_start[current[0].pc] = current
    return blocks_by_start


def _block_successor_pcs(program, instructions, jump_profile):
    """Return (successor_pcs, goes_to_exit) for a raw block."""
    terminator = instructions[-1]
    fall_through = terminator.fall_through_pc()
    if terminator.is_conditional_branch:
        successors = []
        if program.contains_pc(fall_through):
            successors.append(fall_through)
        if terminator.target is not None and program.contains_pc(terminator.target):
            successors.append(terminator.target)
        return successors, False
    if terminator.is_call:
        # Calls fall through intra-procedurally; the callee is a
        # separate CFG.
        if program.contains_pc(fall_through):
            return [fall_through], False
        return [], True
    if terminator.is_direct_jump:
        return [terminator.target], False
    if _is_return(terminator):
        return [], True
    if _is_switch_jump(terminator):
        targets = jump_profile.targets_of(terminator.pc) if jump_profile else ()
        targets = [t for t in targets if program.contains_pc(t)]
        return list(targets), not targets
    if terminator.is_control:  # HALT
        return [], True
    # Plain fall-through into the next leader.
    if program.contains_pc(fall_through):
        return [fall_through], False
    return [], True


def discover_procedure_entries(program, jump_profile=None):
    """Entry PCs of every procedure: program entry + all call targets."""
    entries = {program.entry_point}
    for instruction in program.instructions:
        if instruction.is_call and instruction.target is not None:
            if program.contains_pc(instruction.target):
                entries.add(instruction.target)
        if jump_profile is not None and instruction.is_call and instruction.is_indirect_jump:
            for target in jump_profile.call_targets_of(instruction.pc):
                if program.contains_pc(target):
                    entries.add(target)
    return entries


def build_procedure_cfg(program, entry_pc, blocks_by_start, jump_profile, name=None):
    """Build the CFG of the procedure entered at ``entry_pc``."""
    if entry_pc not in blocks_by_start:
        raise CFGError("procedure entry {:#x} is not a block leader".format(entry_pc))
    # Discover reachable raw blocks intra-procedurally.
    reachable = []
    seen = {entry_pc}
    worklist = [entry_pc]
    edges = {}
    exits = set()
    while worklist:
        start_pc = worklist.pop()
        instructions = blocks_by_start[start_pc]
        successor_pcs, goes_to_exit = _block_successor_pcs(
            program, instructions, jump_profile
        )
        reachable.append(start_pc)
        edges[start_pc] = successor_pcs
        if goes_to_exit:
            exits.add(start_pc)
        for successor_pc in successor_pcs:
            if successor_pc not in seen:
                seen.add(successor_pc)
                worklist.append(successor_pc)
    reachable.sort()
    index_of = {start_pc: index for index, start_pc in enumerate(reachable)}
    blocks = [
        BasicBlock(index, blocks_by_start[start_pc])
        for index, start_pc in enumerate(reachable)
    ]
    cfg = ControlFlowGraph(blocks, index_of[entry_pc], entry_pc, name=name)
    for start_pc in reachable:
        source = index_of[start_pc]
        for successor_pc in edges[start_pc]:
            cfg.add_edge(source, index_of[successor_pc])
        if start_pc in exits:
            cfg.add_exit_edge(source)
    return cfg


def build_program_cfgs(program, jump_profile=None, names=None):
    """Build CFGs for every procedure of ``program``.

    Args:
        program: The assembled :class:`~repro.isa.program.Program`.
        jump_profile: Optional :class:`JumpProfile` resolving indirect
            transfers (the "profile-driven" part of the paper's analysis).
        names: Optional mapping from entry pc to a human-readable
            procedure name.

    Returns:
        A :class:`ProgramCFGs` container.
    """
    entries = discover_procedure_entries(program, jump_profile)
    leaders = _collect_leaders(program, jump_profile, entries)
    blocks_by_start = _partition_blocks(program, leaders)
    procedures = {}
    for entry_pc in sorted(entries):
        name = None
        if names and entry_pc in names:
            name = names[entry_pc]
        elif program.label_at(entry_pc):
            name = program.label_at(entry_pc)
        procedures[entry_pc] = build_procedure_cfg(
            program, entry_pc, blocks_by_start, jump_profile, name=name
        )
    return ProgramCFGs(program, procedures)


def build_cfg(program, jump_profile=None):
    """Build the CFG of the procedure at the program entry point."""
    entries = discover_procedure_entries(program, jump_profile)
    leaders = _collect_leaders(program, jump_profile, entries)
    blocks_by_start = _partition_blocks(program, leaders)
    return build_procedure_cfg(program, program.entry_point, blocks_by_start, jump_profile)
