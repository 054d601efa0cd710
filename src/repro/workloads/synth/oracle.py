"""Ground-truth structural oracles for synthesized programs.

The generator emits programs from structured regions only (counted
loops, hammocks, switch dispatch loops, call trees), so it *knows* the
ipdom of every branch, the reconvergence point of every indirect jump,
and the full loop-nesting forest at emission time.  It records that
knowledge here as label names; after assembly the labels resolve to
PCs, and :func:`verify_oracle` checks the repository's own analyses —
``analysis/dominance.py`` and ``analysis/loops.py`` — against the
recorded ground truth instead of against themselves.

:func:`verify_dynamics` additionally checks the committed trace against
the generator's planned trip counts, pinning the functional simulator's
control-flow behaviour to the construction plan.
"""

from collections import Counter

from repro.analysis.dominance import (
    compute_postdominator_tree,
    immediate_postdominator_block,
)
from repro.analysis.loops import find_natural_loops
from repro.cfg.builder import _is_switch_jump


class BranchRecord:
    """One conditional branch and its constructed reconvergence point.

    ``marker_label`` is placed on the branch instruction itself;
    ``join_label`` on the first instruction of the reconvergence block
    (the branch's immediate postdominator by construction).  ``kind``
    is ``"hammock"`` or ``"loop"`` (a loop-header exit branch whose
    ipdom is the loop-exit block).
    """

    __slots__ = ("marker_label", "join_label", "kind")

    def __init__(self, marker_label, join_label, kind):
        self.marker_label = marker_label
        self.join_label = join_label
        self.kind = kind

    def __repr__(self):
        return "BranchRecord({}, join={}, kind={})".format(
            self.marker_label, self.join_label, self.kind
        )


class SwitchRecord:
    """One indirect-jump dispatch and its constructed join."""

    __slots__ = ("marker_label", "join_label", "ways")

    def __init__(self, marker_label, join_label, ways):
        self.marker_label = marker_label
        self.join_label = join_label
        self.ways = ways

    def __repr__(self):
        return "SwitchRecord({}, join={}, ways={})".format(
            self.marker_label, self.join_label, self.ways
        )


class LoopRecord:
    """One counted loop: header label, parent header, planned trips.

    ``entries`` is the number of times the loop is entered dynamically
    (the product of enclosing trip counts at the point of the ``li``
    initializing the counter); ``iterations`` the per-entry trip count.
    The header branch therefore executes ``entries * (iterations + 1)``
    times — once per iteration plus the failing exit test.
    """

    __slots__ = ("header_label", "parent_label", "iterations", "entries")

    def __init__(self, header_label, parent_label, iterations, entries):
        self.header_label = header_label
        self.parent_label = parent_label
        self.iterations = iterations
        self.entries = entries

    def __repr__(self):
        return "LoopRecord({}, parent={}, iterations={}, entries={})".format(
            self.header_label,
            self.parent_label,
            self.iterations,
            self.entries,
        )


class ProcedureOracle:
    """Recorded structure of one generated procedure."""

    __slots__ = ("name", "entry_label", "branches", "switches", "loops")

    def __init__(self, name, entry_label):
        self.name = name
        self.entry_label = entry_label
        self.branches = []
        self.switches = []
        self.loops = []


class StructuralOracle:
    """The complete recorded structure of one synthesized program."""

    __slots__ = ("name", "dials", "seed", "procedures")

    def __init__(self, name, dials, seed):
        self.name = name
        self.dials = dials
        self.seed = seed
        #: :class:`ProcedureOracle` per generated procedure, main first.
        self.procedures = []

    def branch_count(self):
        return sum(len(proc.branches) for proc in self.procedures)

    def loop_count(self):
        return sum(len(proc.loops) for proc in self.procedures)


def _pc_of(program, label, mismatches):
    try:
        return program.address_of(label)
    except Exception:
        mismatches.append("label {!r} missing from program".format(label))
        return None


def _verify_procedure_entry(oracle_proc, program, cfgs, mismatches):
    entry_pc = _pc_of(program, oracle_proc.entry_label, mismatches)
    if entry_pc is None:
        return None
    try:
        return cfgs.cfg_of_entry(entry_pc)
    except KeyError:
        mismatches.append(
            "procedure {} at {:#x} has no CFG".format(
                oracle_proc.entry_label, entry_pc
            )
        )
        return None


def _verify_branches(oracle_proc, program, cfg, postdom, mismatches):
    recorded_marker_pcs = set()
    for record in oracle_proc.branches:
        marker_pc = _pc_of(program, record.marker_label, mismatches)
        join_pc = _pc_of(program, record.join_label, mismatches)
        if marker_pc is None or join_pc is None:
            continue
        recorded_marker_pcs.add(marker_pc)
        branch_block = cfg.block_containing_pc(marker_pc)
        join_block = cfg.block_starting_at(join_pc)
        if branch_block is None or join_block is None:
            mismatches.append(
                "{}: branch {} or join {} not in CFG".format(
                    oracle_proc.entry_label,
                    record.marker_label,
                    record.join_label,
                )
            )
            continue
        if branch_block.end_pc != marker_pc:
            mismatches.append(
                "{}: marker {} at {:#x} is not a block terminator".format(
                    oracle_proc.entry_label, record.marker_label, marker_pc
                )
            )
            continue
        computed = immediate_postdominator_block(
            cfg, postdom, branch_block.index
        )
        if computed != join_block.index:
            mismatches.append(
                "{}: branch {} ({}) ipdom block {} != recorded join {} "
                "(block {})".format(
                    oracle_proc.entry_label,
                    record.marker_label,
                    record.kind,
                    computed,
                    record.join_label,
                    join_block.index,
                )
            )
    return recorded_marker_pcs


def _verify_switches(oracle_proc, program, cfg, postdom, mismatches):
    recorded_switch_pcs = set()
    for record in oracle_proc.switches:
        marker_pc = _pc_of(program, record.marker_label, mismatches)
        join_pc = _pc_of(program, record.join_label, mismatches)
        if marker_pc is None or join_pc is None:
            continue
        recorded_switch_pcs.add(marker_pc)
        switch_block = cfg.block_containing_pc(marker_pc)
        join_block = cfg.block_starting_at(join_pc)
        if switch_block is None or join_block is None:
            mismatches.append(
                "{}: switch {} or join {} not in CFG".format(
                    oracle_proc.entry_label,
                    record.marker_label,
                    record.join_label,
                )
            )
            continue
        if len(switch_block.successors) != record.ways:
            mismatches.append(
                "{}: switch {} observed {} targets, expected {} (every "
                "case must execute for the profile-driven CFG)".format(
                    oracle_proc.entry_label,
                    record.marker_label,
                    len(switch_block.successors),
                    record.ways,
                )
            )
        computed = immediate_postdominator_block(
            cfg, postdom, switch_block.index
        )
        if computed != join_block.index:
            mismatches.append(
                "{}: switch {} ipdom block {} != recorded join {} "
                "(block {})".format(
                    oracle_proc.entry_label,
                    record.marker_label,
                    computed,
                    record.join_label,
                    join_block.index,
                )
            )
    return recorded_switch_pcs


def _verify_loops(oracle_proc, program, cfg, mismatches):
    recorded = set()
    for record in oracle_proc.loops:
        header_pc = _pc_of(program, record.header_label, mismatches)
        if header_pc is None:
            continue
        parent_pc = None
        if record.parent_label is not None:
            parent_pc = _pc_of(program, record.parent_label, mismatches)
        recorded.add((header_pc, parent_pc))
    forest = find_natural_loops(cfg)
    computed = set()
    for loop in forest:
        header_pc = cfg.block(loop.header).start_pc
        parent_pc = None
        if loop.parent is not None:
            parent_pc = cfg.block(loop.parent.header).start_pc
        computed.add((header_pc, parent_pc))
    if recorded != computed:
        mismatches.append(
            "{}: loop forest mismatch: recorded {} != computed {}".format(
                oracle_proc.entry_label,
                sorted(recorded),
                sorted(computed),
            )
        )


def _verify_totality(
    oracle_proc, cfg, recorded_marker_pcs, recorded_switch_pcs, mismatches
):
    """Every control decision in the CFG must have been recorded."""
    for block in cfg.blocks:
        terminator = block.terminator
        if block.ends_in_conditional_branch():
            if terminator.pc not in recorded_marker_pcs:
                mismatches.append(
                    "{}: unrecorded conditional branch at {:#x}".format(
                        oracle_proc.entry_label, terminator.pc
                    )
                )
        elif _is_switch_jump(terminator):
            if terminator.pc not in recorded_switch_pcs:
                mismatches.append(
                    "{}: unrecorded switch jump at {:#x}".format(
                        oracle_proc.entry_label, terminator.pc
                    )
                )


def verify_oracle(oracle, analyses):
    """Check computed analyses against the recorded ground truth.

    ``analyses`` is a :class:`~repro.analysis.pipeline.ProgramAnalyses`
    for the oracle's program.  Returns a list of human-readable
    mismatch strings; an empty list means the dominance analysis, the
    loop forest, and the profile-driven CFG all agree exactly with the
    structure the generator constructed.
    """
    mismatches = []
    program = analyses.program
    cfgs = analyses.cfgs
    if len(cfgs) != len(oracle.procedures):
        mismatches.append(
            "procedure count: recorded {} != discovered {}".format(
                len(oracle.procedures), len(cfgs)
            )
        )
    for oracle_proc in oracle.procedures:
        cfg = _verify_procedure_entry(oracle_proc, program, cfgs, mismatches)
        if cfg is None:
            continue
        postdom = compute_postdominator_tree(cfg)
        marker_pcs = _verify_branches(
            oracle_proc, program, cfg, postdom, mismatches
        )
        switch_pcs = _verify_switches(
            oracle_proc, program, cfg, postdom, mismatches
        )
        _verify_loops(oracle_proc, program, cfg, mismatches)
        _verify_totality(oracle_proc, cfg, marker_pcs, switch_pcs, mismatches)
    return mismatches


def verify_dynamics(oracle, program, trace):
    """Check the committed trace against the generator's trip plan.

    Every recorded loop header branch must execute exactly
    ``entries * (iterations + 1)`` times, and the program must halt
    within the trace.  Returns a list of mismatch strings.
    """
    mismatches = []
    if not trace.halted:
        mismatches.append("trace did not halt within the instruction budget")
    executions = Counter(trace.pc)
    for oracle_proc in oracle.procedures:
        for record in oracle_proc.loops:
            header_pc = _pc_of(program, record.header_label, mismatches)
            if header_pc is None:
                continue
            expected = record.entries * (record.iterations + 1)
            actual = executions.get(header_pc, 0)
            if actual != expected:
                mismatches.append(
                    "{}: loop {} header executed {} times, planned "
                    "{}".format(
                        oracle_proc.entry_label,
                        record.header_label,
                        actual,
                        expected,
                    )
                )
    return mismatches
