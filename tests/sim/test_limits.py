"""Tests for the Lam-Wilson-style ILP limit study."""

from repro.cfg import build_program_cfgs
from repro.isa import assemble
from repro.sim import limit_study, limit_study_for_workload, run_program
from repro.spawn import classify_program
from repro.workloads import prepare_workload


def _trace_and_ipdoms(source):
    program = assemble(source)
    trace = run_program(program)
    points = classify_program(build_program_cfgs(program))
    ipdoms = {point.trigger_pc: point.spawn_pc for point in points}
    return trace, ipdoms


_HARD_BRANCH_LOOP = """
    .text
    main:
        li   r10, 200
        la   r9, bits
    loop:
        andi r11, r10, 63
        slli r11, r11, 3
        add  r11, r9, r11
        lw   r2, 0(r11)
        bne  r2, r0, arm
        addi r3, r3, 1
        xor  r5, r5, r3
        j    join
    arm:
        addi r4, r4, 1
        or   r5, r5, r4
    join:
        addi r10, r10, -1
        bne  r10, r0, loop
        halt
    .data
    bits: .word 0,1,1,0,1,0,0,1,0,1,1,0,0,1,1,0,1,0,0,1,0,1,1,0,1,0,0,1,0,1,1,0
          .word 1,0,0,1,1,0,1,0,0,1,0,1,1,0,1,0,0,1,0,1,1,0,1,0,1,1,0,0,1,0,1,1
"""


def test_ordering_single_flow_le_ci_le_dataflow():
    trace, ipdoms = _trace_and_ipdoms(_HARD_BRANCH_LOOP)
    result = limit_study(trace, ipdoms)
    assert result.single_flow <= result.control_independence + 1e-9
    assert result.control_independence <= result.dataflow + 1e-9
    assert result.instructions == len(trace)


def test_control_independence_exposes_ilp_on_hard_branches():
    """Lam and Wilson's observation: with hard-to-predict branches,
    control independence beats a single prediction-limited flow."""
    trace, ipdoms = _trace_and_ipdoms(_HARD_BRANCH_LOOP)
    result = limit_study(trace, ipdoms)
    assert result.control_independence_gain > 1.2


def test_predictable_code_shows_no_ci_gain():
    source = """
        .text
        main:
            li   r10, 300
        loop:
            addi r3, r3, 1
            addi r10, r10, -1
            bne  r10, r0, loop
            halt
    """
    trace, ipdoms = _trace_and_ipdoms(source)
    result = limit_study(trace, ipdoms)
    # The loop branch is near-perfectly predicted: all three limits are
    # close (the dependence chain dominates).
    assert result.control_independence_gain < 1.2


def test_dataflow_limit_of_independent_code_is_high():
    source = ".text\n" + "\n".join(
        "    li r{}, {}".format(1 + i % 30, i) for i in range(120)
    ) + "\n    halt"
    trace, ipdoms = _trace_and_ipdoms(source)
    result = limit_study(trace, ipdoms)
    assert result.dataflow > 20.0


def test_without_ipdom_info_ci_equals_single_flow():
    trace, _ = _trace_and_ipdoms(_HARD_BRANCH_LOOP)
    result = limit_study(trace, None)
    assert result.control_independence == result.single_flow


def test_empty_trace():
    from repro.sim.trace import Trace

    result = limit_study(Trace())
    assert result.dataflow == 0.0


def test_limit_study_for_workload():
    prepared = prepare_workload("twolf", scale=0.05)
    result = limit_study_for_workload(prepared)
    assert result.single_flow <= result.control_independence + 1e-9
    # twolf's hard inner branches are exactly where CI pays off.
    assert result.control_independence_gain > 1.1
