"""Unit tests for PolyFlow components: spawn unit, store sets, stats, task."""

from repro.cfg import build_program_cfgs
from repro.isa import assemble
from repro.polyflow import MachineConfig, SimStats, StoreSetPredictor, Task, speedup_percent
from repro.polyflow.spawn_unit import SpawnUnit
from repro.sim import run_program
from repro.spawn import SpawnAnalysis, SpawnCategory, profile_spawn_points


def _spawn_unit(config=None):
    source = """
        .text
        main:
            li   r10, 20
        loop:
            lw   r2, 0(r9)
            bne  r2, r0, arm
            addi r3, r3, 1
            addi r5, r5, 2
            xor  r6, r6, r3
            j    join
        arm:
            addi r4, r4, 1
            addi r5, r5, 3
            or   r6, r6, r4
        join:
            addi r9, r9, 8
            addi r10, r10, -1
            bne  r10, r0, loop
            halt
        .data
        bits: .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1
    """
    program = assemble(source)
    trace = run_program(program)
    analysis = SpawnAnalysis(build_program_cfgs(program))
    policy = analysis.policy("hammock")
    profile = profile_spawn_points(trace, policy.points)
    hints = profile.hint_table(policy)
    config = config or MachineConfig(min_spawn_distance=2)
    return program, trace, SpawnUnit(trace, hints, config)


def test_spawn_unit_resolves_targets_on_trace():
    program, trace, unit = _spawn_unit()
    branch_pc = program.address_of("loop") + 4
    # Find a dynamic instance of the trigger and check the resolved
    # target is the next instance of the join.
    join_pc = program.address_of("join")
    for index, pc in enumerate(trace.pc):
        if pc == branch_pc:
            target = unit.spawn_target(index, branch_pc)
            if target >= 0:
                assert trace.pc[target] == join_pc
                assert target > index
                break
    else:
        raise AssertionError("trigger never executed")


def test_spawn_unit_feedback_suppression():
    program, trace, unit = _spawn_unit(
        MachineConfig(
            min_spawn_distance=2,
            spawn_feedback_threshold=2,
            spawn_feedback_ratio=0.4,
        )
    )
    trigger = program.address_of("loop") + 4
    unit.record_spawn(trigger)
    unit.record_spawn(trigger)
    unit.record_squash(trigger)
    assert trigger not in unit.suppressed_triggers()
    unit.record_squash(trigger)  # 2 squashes / 2 spawns > 0.4
    assert trigger in unit.suppressed_triggers()
    # Suppressed triggers spawn nothing.
    for index, pc in enumerate(trace.pc):
        if pc == trigger:
            assert unit.spawn_target(index, trigger) == -1
            break
    assert unit.total_spawns() == 2


def test_store_set_predictor_learns_pairs():
    predictor = StoreSetPredictor()
    assert not predictor.predicts_dependence(0x100, 0x200)
    predictor.train_violation(0x100, 0x200)
    assert predictor.predicts_dependence(0x100, 0x200)
    assert not predictor.predicts_dependence(0x104, 0x200)
    predictor.train_violation(0x104, 0x200)
    assert predictor.learned_pairs() == 2
    assert predictor.violations == 2


def test_speedup_percent():
    fast = SimStats()
    fast.cycles = 100
    slow = SimStats()
    slow.cycles = 150
    assert abs(speedup_percent(fast, slow) - 50.0) < 1e-9
    assert abs(speedup_percent(slow, slow)) < 1e-9
    empty = SimStats()
    assert speedup_percent(empty, slow) == 0.0


def test_stats_as_dict_and_properties():
    stats = SimStats()
    stats.cycles = 10
    stats.retired_instructions = 25
    stats.conditional_branches = 10
    stats.branch_mispredicts = 3
    stats.task_occupancy_sum = 20
    stats.spawns_by_category[SpawnCategory.HAMMOCK] = 4
    as_dict = stats.as_dict()
    assert as_dict["ipc"] == 2.5
    assert as_dict["total_spawns"] == 4
    assert stats.branch_mispredict_rate == 0.3
    assert stats.mean_active_tasks == 2.0
    assert "hammock" in as_dict["spawns_by_category"]


def test_task_segment_lifecycle():
    task = Task(task_id=3, start_index=100)
    assert not task.finished_fetch()  # unbounded tail
    task.end_index = 150
    task.fetch_index = 150
    assert task.finished_fetch()
    assert not task.can_fetch(cycle=0)


def test_task_squash_restores_spawner_ras():
    from repro.frontend import ReturnAddressStack

    spawner_ras = ReturnAddressStack()
    spawner_ras.push(0x1234)
    task = Task(task_id=1, start_index=10)
    task.adopt_spawner_ras(spawner_ras)
    assert task.ras.pop() == 0x1234
    task.fetch_index = 42
    task.reset_for_squash(cycle=100, restart_penalty=3)
    assert task.fetch_index == 10
    assert task.fetch_stall_until == 103
    # The inherited call context is restored, not cleared.
    assert task.ras.pop() == 0x1234


def test_task_stalls_block_fetch():
    task = Task(task_id=0, start_index=0)
    task.fetch_stall_until = 10
    assert not task.can_fetch(5)
    assert task.can_fetch(10)
    task.waiting_branch_index = 7
    assert not task.can_fetch(10)
