"""Shared test helpers."""

import os

from repro.cfg import BasicBlock, ControlFlowGraph
from repro.isa.instructions import Instruction, Opcode

#: Hypothesis profile selected for this run (registered in
#: tests/conftest.py; the nightly workflow exports
#: ``HYPOTHESIS_PROFILE=ci-long``).
HYPOTHESIS_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "dev")

_CI_LONG_MULTIPLIER = 10


def examples(budget):
    """Per-test Hypothesis example budget under the active profile.

    Each property test carries a budget tuned so the full tier-1 suite
    stays fast; the nightly ``ci-long`` profile multiplies every budget
    by ``_CI_LONG_MULTIPLIER`` for a deeper (and derandomized) sweep.
    A multiplier on the tuned per-test budgets — rather than a single
    profile-wide ``max_examples`` — preserves the relative weighting
    between cheap and expensive properties.
    """
    if HYPOTHESIS_PROFILE == "ci-long":
        return budget * _CI_LONG_MULTIPLIER
    return budget


def make_cfg(edge_list, block_count, exit_blocks, entry_index=0, name="test"):
    """Construct a CFG directly from an edge list.

    Blocks are filled with single NOP instructions at distinct PCs so
    that pc-based queries work.

    Args:
        edge_list: Iterable of ``(source, destination)`` block-index pairs.
        block_count: Number of basic blocks.
        exit_blocks: Block indices with an edge to the virtual exit.
        entry_index: Entry block index.
        name: CFG name.
    """
    blocks = [
        BasicBlock(index, [Instruction(0x1000 + 4 * index, Opcode.NOP)])
        for index in range(block_count)
    ]
    cfg = ControlFlowGraph(blocks, entry_index, name=name)
    for source, destination in edge_list:
        cfg.add_edge(source, destination)
    for source in exit_blocks:
        cfg.add_exit_edge(source)
    return cfg


def paper_figure1_cfg():
    """The loop-with-hammock CFG of the paper's Figure 1.

    Blocks 0..5 correspond to A..F: A->B; B->C|D; C->E; D->E; E->F;
    F->A (loop back edge) and F->exit.
    """
    a, b, c, d, e, f = range(6)
    return make_cfg(
        [(a, b), (b, c), (b, d), (c, e), (d, e), (e, f), (f, a)],
        block_count=6,
        exit_blocks=[f],
        name="figure1",
    )



def force_pool(monkeypatch, cpus=2, inline_threshold=1):
    """Make the planner see ``cpus`` usable CPUs and pool every cell
    costing at least ``inline_threshold``, so a grid reaches real pool
    workers on any machine."""
    from repro.experiments import scheduler

    monkeypatch.setattr(scheduler, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(scheduler, "INLINE_COST_THRESHOLD", inline_threshold)
