"""Targeted tests for specific PolyFlow core mechanisms."""

import dataclasses

from repro.cfg import build_program_cfgs
from repro.isa import assemble
from repro.polyflow import MachineConfig, PAPER_CONFIG, PolyFlowCore, simulate_superscalar
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, profile_spawn_points
from repro.spawn.hints import HintTable

from tests.engines import StagedReferenceCore


def _hints_for(program, trace, spec, **hint_kwargs):
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy(spec)
    profile = profile_spawn_points(trace, policy.points)
    return profile.hint_table(policy, **hint_kwargs)


def test_cold_caches_slow_the_machine():
    source = ".text\n" + "\n".join("    addi r1, r1, 1" for _ in range(100)) + "\n    halt"
    program = assemble(source)
    trace = run_program(program)
    warm = simulate_superscalar(trace)
    cold_config = dataclasses.replace(
        PAPER_CONFIG, max_tasks=1, fetch_tasks_per_cycle=1, warm_caches=False
    )
    cold = PolyFlowCore(trace, cold_config, HintTable()).run()
    assert cold.cycles > warm.cycles
    assert cold.icache_stall_cycles > 0


def test_icache_misses_counted_for_large_footprint():
    # ~2400 straight-line instructions = ~9.4KB of text > the 8KB L1I.
    body = "\n".join("    add r{}, r24, r25".format(1 + i % 8) for i in range(2400))
    source = ".text\nmain:\n    li r10, 3\nloop:\n" + body + (
        "\n    addi r10, r10, -1\n    bne r10, r0, loop\n    halt"
    )
    program = assemble(source)
    trace = run_program(program)
    stats = simulate_superscalar(trace)
    assert stats.icache_stall_cycles > 0
    assert stats.cache_stats["L1I"][1] > 0  # misses


def test_return_misprediction_only_without_call_context():
    source = """
        .text
        main:
            li  r10, 30
        loop:
            jal callee
            addi r10, r10, -1
            bne r10, r0, loop
            halt
        callee:
            addi r1, r1, 1
            jr  ra
    """
    program = assemble(source)
    trace = run_program(program)
    stats = simulate_superscalar(trace)
    # The single stream pushes/pops its RAS perfectly.
    assert stats.return_mispredicts == 0


def test_indirect_jump_mispredicts_tracked():
    source = """
        .text
        main:
            la   r27, table
            la   r9, stream
            li   r10, 24
        loop:
            lw   r2, 0(r9)
            slli r3, r2, 3
            add  r3, r27, r3
            lw   r4, 0(r3)
            jr   r4
        h0: addi r5, r5, 1
            j next
        h1: addi r5, r5, 2
        next:
            addi r9, r9, 8
            addi r10, r10, -1
            bne  r10, r0, loop
            halt
        .data
        table: .word h0, h1
        stream: .word 0,1,0,1,1,0,0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0
    """
    program = assemble(source)
    trace = run_program(program)
    stats = simulate_superscalar(trace)
    # The target alternates: the last-target predictor misses a lot.
    assert stats.indirect_mispredicts > 5


def test_mispredicted_branch_stalls_only_its_task():
    """With postdoms spawning, a mispredicting branch does not prevent
    other tasks from fetching: total fetched (excluding squashes) stays
    equal to the trace length."""
    source = """
        .text
        main:
            li   r10, 60
            la   r9, bits
        loop:
            lw   r2, 0(r9)
            bne  r2, r0, arm
            addi r3, r3, 1
            xor  r5, r5, r3
            add  r6, r6, r3
            j    join
        arm:
            addi r4, r4, 1
            or   r5, r5, r4
            sub  r6, r6, r4
        join:
            addi r9, r9, 8
            addi r10, r10, -1
            bne  r10, r0, loop
            halt
        .data
        bits: .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1
              .word 1,0,0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0
              .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1
    """
    program = assemble(source)
    trace = run_program(program)
    config = MachineConfig(min_spawn_distance=2)
    hints = _hints_for(program, trace, "hammock", min_loop_task_size=4)
    stats = PolyFlowCore(trace, config, hints).run()
    assert stats.total_spawns > 0
    assert stats.branch_mispredicts > 0
    assert stats.fetched_instructions - stats.squashed_instructions == len(trace)
    assert stats.retired_instructions == len(trace)


def test_per_task_quota_and_reserves_hold():
    """Invariant probe: shared-structure occupancies never exceed their
    capacities during a busy multi-task run."""
    from repro.workloads import prepare_workload

    prepared = prepare_workload("twolf", scale=0.05)
    analysis = prepared.spawn_analysis
    policy = analysis.policy("postdoms")
    profile = profile_spawn_points(prepared.trace, policy.points)
    hints = profile.hint_table(policy)

    # The probe is a stage hook, so it needs the staged engine.
    probed = []

    class Probe(StagedReferenceCore):
        def _fetch(self):
            probed.append(self._cycle)
            assert self._rob_occupancy <= self.config.rob_entries
            assert self._sched_occupancy <= self.config.scheduler_entries
            assert self._divert_occupancy <= self.config.divert_queue_entries
            assert all(count >= 0 for count in self._sched_used.values())
            return super()._fetch()

    stats = Probe(prepared.trace, PAPER_CONFIG, hints).run()
    assert stats.retired_instructions == len(prepared.trace)
    assert len(probed) == stats.cycles


def test_tasks_partition_trace_in_order():
    """Active task segments are disjoint, ordered, and contiguous."""
    from repro.workloads import prepare_workload

    prepared = prepare_workload("bzip2", scale=0.05)
    analysis = prepared.spawn_analysis
    policy = analysis.policy("postdoms")
    profile = profile_spawn_points(prepared.trace, policy.points)
    hints = profile.hint_table(policy)

    probed = []

    class Probe(StagedReferenceCore):
        def _fetch(self):
            probed.append(self._cycle)
            tasks = list(self._tasks)
            for older, younger in zip(tasks, tasks[1:]):
                assert older.end_index == younger.start_index
            return super()._fetch()

    stats = Probe(prepared.trace, PAPER_CONFIG, hints).run()
    assert stats.retired_instructions == len(prepared.trace)
    assert len(probed) == stats.cycles
