"""Tests for the PolyFlow cycle-level core and the superscalar baseline."""

import pytest

from repro.cfg import build_program_cfgs
from repro.errors import ConfigurationError
from repro.isa import assemble
from repro.polyflow import (
    PAPER_CONFIG,
    MachineConfig,
    simulate,
    simulate_superscalar,
    speedup_percent,
    superscalar_config,
)
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points


def _prepare(source, policy_spec="postdoms"):
    program = assemble(source)
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy(policy_spec)
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy)
    return program, trace, hints


_STRAIGHT_LINE = """
    .text
        li r1, 1
        li r2, 2
        li r3, 3
        li r4, 4
        halt
"""


def test_superscalar_retires_whole_trace():
    _, trace, _ = _prepare(_STRAIGHT_LINE)
    stats = simulate_superscalar(trace)
    assert stats.retired_instructions == len(trace)
    assert stats.cycles > 0
    assert stats.ipc > 0


def test_independent_instructions_achieve_ilp():
    source = ".text\n" + "\n".join("    li r{}, {}".format(1 + i % 8, i) for i in range(64)) + "\n    halt"
    _, trace, _ = _prepare(source)
    stats = simulate_superscalar(trace)
    # 65 instructions on an 8-wide machine: should sustain high IPC.
    assert stats.ipc > 3.0


def test_dependent_chain_is_serialized():
    source = ".text\n    li r1, 0\n" + "\n".join(
        "    addi r1, r1, 1" for _ in range(64)
    ) + "\n    halt"
    _, trace, _ = _prepare(source)
    stats = simulate_superscalar(trace)
    # One-instruction-per-cycle dependence chain.
    assert stats.ipc < 1.5


def test_polyflow_without_hints_matches_no_spawning():
    _, trace, _ = _prepare(_STRAIGHT_LINE)
    stats = simulate(trace, PAPER_CONFIG, hint_table=None)
    assert stats.total_spawns == 0
    assert stats.tasks_created == 1
    assert stats.retired_instructions == len(trace)


_LOOP_WITH_HAMMOCK = """
    .text
    main:
        li   r10, 40
        la   r9, data
        li   r8, 0
    loop:
        lw   r2, 0(r9)
        bne  r2, r0, else_arm
    then_arm:
        addi r3, r3, 1
        j    join
    else_arm:
        addi r3, r3, 3
    join:
        addi r8, r8, 8
        addi r9, r9, 8
        addi r10, r10, -1
        bne  r10, r0, loop
    done:
        halt
    .data
    data: .word 0, 1, 1, 0, 1, 0, 0, 1, 0, 1
          .word 1, 0, 0, 1, 1, 0, 1, 0, 0, 1
          .word 0, 1, 1, 0, 1, 0, 0, 1, 0, 1
          .word 1, 0, 0, 1, 1, 0, 1, 0, 0, 1
"""


def test_polyflow_spawns_tasks_with_postdom_hints():
    config = MachineConfig(min_spawn_distance=2)
    program, trace, hints = _prepare(_LOOP_WITH_HAMMOCK)
    stats = simulate(trace, config, hints)
    assert stats.total_spawns > 0
    assert stats.tasks_created == stats.total_spawns + 1
    assert stats.retired_instructions == len(trace)


def test_polyflow_retires_same_instruction_count_as_superscalar():
    _, trace, hints = _prepare(_LOOP_WITH_HAMMOCK)
    config = MachineConfig(min_spawn_distance=2)
    polyflow = simulate(trace, config, hints)
    baseline = simulate_superscalar(trace)
    assert polyflow.retired_instructions == baseline.retired_instructions


def test_hammock_spawning_beats_superscalar_on_hard_branches():
    # The loop branch on random data mispredicts ~50% of the time; the
    # hammock spawn at 'join' lets PolyFlow fetch past the stall.
    config = MachineConfig(min_spawn_distance=2)
    _, trace, hints = _prepare(_LOOP_WITH_HAMMOCK, policy_spec="hammock")
    polyflow = simulate(trace, config, hints)
    baseline = simulate_superscalar(trace)
    assert polyflow.cycles < baseline.cycles
    assert speedup_percent(polyflow, baseline) > 0


def test_mean_active_tasks_bounded_by_config():
    config = MachineConfig(min_spawn_distance=2, max_tasks=4)
    _, trace, hints = _prepare(_LOOP_WITH_HAMMOCK)
    stats = simulate(trace, config, hints)
    assert 1.0 <= stats.mean_active_tasks <= 4.0


_MEMORY_CONFLICT = """
    .text
    main:
        li   r10, 30
        la   r9, buf
    loop:
        lw   r2, 0(r9)
        addi r2, r2, 1
        sw   r2, 8(r9)
        lw   r3, 0(r9)
        add  r4, r4, r3
        addi r9, r9, 8
        addi r10, r10, -1
        bne  r10, r0, loop
    done:
        halt
    .data
    buf: .space 512
"""


def test_memory_violations_squash_and_train():
    # Loop-iteration spawns create cross-task store->load conflicts
    # (sw 8(r9) in iteration k feeds lw 0(r9) in iteration k+1).
    program = assemble(_MEMORY_CONFLICT)
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy("loop")
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy)
    config = MachineConfig(min_spawn_distance=2)
    stats = simulate(trace, config, hints)
    assert stats.retired_instructions == len(trace)
    if stats.total_spawns:
        # Any violation squash must have re-executed instructions.
        if stats.violation_squashes:
            assert stats.squashed_instructions > 0


def test_superscalar_config_restricts_tasks():
    config = superscalar_config()
    assert config.max_tasks == 1
    assert config.fetch_tasks_per_cycle == 1
    assert config.rob_entries == PAPER_CONFIG.rob_entries


def test_invalid_configs_rejected():
    # Each geometry below either never finishes (zero fetch slots per
    # task, no functional unit, a completion due the cycle of issue),
    # crashes (an empty gshare table) or would silently run another
    # machine under its own fingerprint (an unknown release mode).
    for overrides in (
        {"max_tasks": 0},
        {"max_tasks": 2, "fetch_tasks_per_cycle": 4},
        {"width": 0},
        {"width": 1},
        {"width": 2, "fetch_tasks_per_cycle": 3},
        {"functional_units": 0},
        {"mul_latency": 0},
        {"gshare_counters": 0},
        {"divert_release": "retire"},
    ):
        with pytest.raises(ConfigurationError):
            MachineConfig(**overrides)
    # The smallest runnable geometries stay accepted.
    MachineConfig(width=1, fetch_tasks_per_cycle=1)
    MachineConfig(functional_units=1, mul_latency=1, gshare_counters=1)
    MachineConfig(divert_release="complete")


def test_branch_mispredicts_counted():
    _, trace, _ = _prepare(_LOOP_WITH_HAMMOCK)
    stats = simulate_superscalar(trace)
    assert stats.conditional_branches > 0
    assert 0 <= stats.branch_mispredict_rate <= 1


def test_empty_trace():
    from repro.sim.trace import Trace

    stats = simulate(Trace())
    assert stats.cycles == 0
    assert stats.retired_instructions == 0


def test_determinism():
    _, trace, hints = _prepare(_LOOP_WITH_HAMMOCK)
    config = MachineConfig(min_spawn_distance=2)
    first = simulate(trace, config, hints)
    second = simulate(trace, config, hints)
    assert first.cycles == second.cycles
    assert first.total_spawns == second.total_spawns
