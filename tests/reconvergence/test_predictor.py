"""Tests for the dynamic reconvergence predictor."""

from repro.cfg import build_program_cfgs
from repro.isa import assemble
from repro.reconvergence import ReconvergencePredictor
from repro.sim import run_program
from repro.spawn import classify_program


def _feed_trace(predictor, trace):
    for inst, taken in zip(trace.inst, trace.taken):
        if inst.is_conditional_branch:
            predictor.observe(inst.pc, bool(taken), inst.target)
        elif inst.is_return_like and inst.rs != 31:
            predictor.observe(inst.pc, "indirect")
        else:
            predictor.observe(inst.pc)


def test_learns_if_then_else_join():
    program = assemble(
        """
        .text
        main:
            li   r10, 30
            la   r9, bits
        head:
            lw   r2, 0(r9)
            bne  r2, r0, arm_b
        arm_a:
            addi r3, r3, 1
            j    join
        arm_b:
            addi r3, r3, 2
        join:
            addi r9, r9, 8
            addi r10, r10, -1
            bne  r10, r0, head
            halt
        .data
        bits: .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1,0,1,1,0,1,0,0,1,0,1
        """
    )
    trace = run_program(program)
    predictor = ReconvergencePredictor()
    _feed_trace(predictor, trace)
    branch_pc = program.address_of("head") + 4
    assert predictor.predict(branch_pc) == program.address_of("join")


def test_learns_short_loop_fall_through():
    program = assemble(
        """
        .text
        main:
            li   r10, 40
        outer:
            li   r11, 3
        inner:
            addi r3, r3, 1
            addi r11, r11, -1
            bne  r11, r0, inner
        after:
            addi r10, r10, -1
            bne  r10, r0, outer
            halt
        """
    )
    trace = run_program(program)
    predictor = ReconvergencePredictor()
    _feed_trace(predictor, trace)
    inner_branch = program.address_of("inner") + 8
    # The inner loop exits within the training window, so its fall
    # through is learnable.
    assert predictor.predict(inner_branch) == program.address_of("after")


def test_backward_branch_learns_static_fall_through():
    program = assemble(
        """
        .text
        main:
            li   r10, 2000
        spin:
            addi r3, r3, 1
            addi r10, r10, -1
            bne  r10, r0, spin
        done:
            halt
        """
    )
    trace = run_program(program)
    predictor = ReconvergencePredictor(window_size=64)
    _feed_trace(predictor, trace)
    branch_pc = program.address_of("spin") + 8
    # Backward (loop) branches reconverge at their fall-through — the
    # "below" category's static candidate.
    assert predictor.predict(branch_pc) == program.address_of("done")


def test_hard_forward_reconvergence_stays_untrained():
    # Each arm is longer than the training window, so the continuation
    # sets never include the join: no prediction is possible (the
    # paper's "hard-to-identify reconvergences").
    arm_a = "\n".join("    addi r3, r3, 1" for _ in range(40))
    arm_b = "\n".join("    addi r4, r4, 1" for _ in range(40))
    source = """
        .text
        main:
            li   r10, 40
            la   r9, bits
        head:
            lw   r2, 0(r9)
            bne  r2, r0, arm_b
    {}
            j    join
        arm_b:
    {}
        join:
            addi r9, r9, 8
            addi r10, r10, -1
            bne  r10, r0, head
            halt
        .data
        bits: .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1
              .word 1,0,0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0
    """.format(arm_a, arm_b)
    program = assemble(source)
    trace = run_program(program)
    predictor = ReconvergencePredictor(window_size=32)
    _feed_trace(predictor, trace)
    branch_pc = program.address_of("head") + 4
    prediction = predictor.predict(branch_pc)
    assert prediction != program.address_of("join")


def test_warm_up_requires_multiple_instances():
    predictor = ReconvergencePredictor(window_size=8, confidence_threshold=2)
    # A single instance predicts nothing: training needs at least two
    # merged continuation windows.
    predictor.observe(0x100, True, 0x110)
    for pc in (0x90, 0x104, 0x108):
        predictor.observe(pc)
    assert predictor.predict(0x100) is None


def test_indirect_jump_reconvergence():
    source = """
        .text
        main:
            la   r27, table
            la   r9, stream
            li   r10, 40
        dispatch:
            lw   r2, 0(r9)
            slli r3, r2, 3
            add  r3, r27, r3
            lw   r4, 0(r3)
            jr   r4
        h0: addi r5, r5, 1
            j next
        h1: addi r5, r5, 2
            j next
        h2: addi r5, r5, 3
        next:
            addi r9, r9, 8
            addi r10, r10, -1
            bne  r10, r0, dispatch
            halt
        .data
        table: .word h0, h1, h2
        stream: .word 0,1,2,0,2,1,0,1,2,2,1,0,0,1,2,1,0,2,0,1
                .word 2,1,0,1,2,0,1,0,2,1,0,2,1,2,0,1,2,0,1,2
    """
    program = assemble(source)
    trace = run_program(program)
    predictor = ReconvergencePredictor()
    _feed_trace(predictor, trace)
    jr_pc = program.address_of("dispatch") + 16
    assert predictor.predict(jr_pc) == program.address_of("next")


def test_accuracy_against_static_ipdoms():
    source = """
        .text
        main:
            li   r10, 40
            la   r9, bits
        head:
            lw   r2, 0(r9)
            bne  r2, r0, arm
            addi r3, r3, 1
            j    join
        arm:
            addi r3, r3, 2
        join:
            addi r9, r9, 8
            addi r10, r10, -1
            bne  r10, r0, head
            halt
        .data
        bits: .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1
              .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1
    """
    program = assemble(source)
    trace = run_program(program)
    cfgs = build_program_cfgs(program)
    points = classify_program(cfgs)
    ipdoms = {point.trigger_pc: point.spawn_pc for point in points}
    predictor = ReconvergencePredictor()
    _feed_trace(predictor, trace)
    assert predictor.accuracy_against(ipdoms) > 0.5


def test_branch_count_and_trained_counters():
    predictor = ReconvergencePredictor(window_size=4, confidence_threshold=1)
    for _ in range(8):
        predictor.observe(0x100, True, 0x110)
        predictor.observe(0x104)
        predictor.observe(0x108)
        predictor.observe(0x100, False, 0x110)
        predictor.observe(0x104)
        predictor.observe(0x108)
    assert predictor.branch_count() == 1
    assert predictor.trained_branches <= 1
