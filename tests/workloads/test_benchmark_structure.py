"""Structural assertions per synthetic benchmark.

Each workload was built to carry the control-flow character the paper
attributes to its SPEC counterpart (DESIGN.md section 5); these tests
pin that structure so tuning changes cannot silently erase it.
"""

from repro.sim.predecode import KIND_COND_BRANCH
from repro.spawn import SpawnCategory, static_distribution
from repro.workloads import prepare_workload

_SCALE = 0.1


def _distribution(name):
    prepared = prepare_workload(name, scale=_SCALE)
    return prepared, static_distribution(prepared.spawn_analysis.postdominator_points)


def _conditional_branches(trace):
    """``(pc, taken)`` of every committed conditional branch."""
    return [
        (trace.pc[index], bool(trace.taken[index]))
        for index, kind in enumerate(trace.kind)
        if kind == KIND_COND_BRANCH
    ]


def test_bzip2_mixes_loops_and_hammocks():
    _, dist = _distribution("bzip2")
    assert dist[SpawnCategory.LOOP_FALL_THROUGH] >= 2
    assert dist[SpawnCategory.HAMMOCK] >= 1


def test_crafty_has_all_four_categories():
    _, dist = _distribution("crafty")
    for category in (
        SpawnCategory.LOOP_FALL_THROUGH,
        SpawnCategory.PROCEDURE_FALL_THROUGH,
        SpawnCategory.HAMMOCK,
        SpawnCategory.OTHER,
    ):
        assert dist[category] >= 1, category


def test_crafty_branches_are_hard():
    prepared, _ = _distribution("crafty")
    # Measure overall conditional-branch entropy via a gshare replay.
    from repro.frontend import GsharePredictor

    predictor = GsharePredictor()
    wrong = 0
    total = 0
    for pc, taken in _conditional_branches(prepared.trace):
        total += 1
        if predictor.predict_and_update(pc, taken) != taken:
            wrong += 1
    assert total > 0
    assert wrong / total > 0.10  # clearly hard-to-predict overall


def test_gap_and_vortex_are_call_heavy():
    for name in ("gap", "vortex"):
        _, dist = _distribution(name)
        assert dist[SpawnCategory.PROCEDURE_FALL_THROUGH] >= 8, name


def test_vortex_code_footprint_exceeds_l1i():
    prepared, _ = _distribution("vortex")
    text_bytes = prepared.program.static_instruction_count() * 4
    assert text_bytes > 8 * 1024


def test_gcc_has_many_procedures():
    prepared, dist = _distribution("gcc")
    assert len(prepared.cfgs) >= 30
    assert dist[SpawnCategory.OTHER] >= 2  # switches / shared tails


def test_gzip_branches_are_predictable():
    prepared, _ = _distribution("gzip")
    from repro.frontend import GsharePredictor

    predictor = GsharePredictor()
    wrong = 0
    total = 0
    for pc, taken in _conditional_branches(prepared.trace):
        total += 1
        if predictor.predict_and_update(pc, taken) != taken:
            wrong += 1
    assert wrong / total < 0.10


def test_mcf_pointer_chase_is_serial():
    prepared, dist = _distribution("mcf")
    assert dist[SpawnCategory.OTHER] >= 1
    # The chase load depends on the previous iteration's chase load
    # through a short chain: check a load whose register producer chain
    # reaches another instance of itself.
    chase_pcs = set()
    for inst in prepared.trace.inst:
        if inst.is_load and inst.rd is not None and inst.rd == 9:
            chase_pcs.add(inst.pc)
    assert chase_pcs  # the r9 chase load exists


def test_parser_has_lookup_procedure():
    prepared, dist = _distribution("parser")
    assert len(prepared.cfgs) == 2  # main + lookup
    assert dist[SpawnCategory.PROCEDURE_FALL_THROUGH] >= 1


def test_perlbmk_dispatch_is_unpredictable_indirect():
    prepared, dist = _distribution("perlbmk")
    assert dist[SpawnCategory.OTHER] >= 1
    from repro.frontend import IndirectTargetPredictor

    predictor = IndirectTargetPredictor()
    wrong = 0
    total = 0
    trace = prepared.trace
    for inst, next_pc in zip(trace.inst, trace.next_pc):
        if inst.is_return_like and inst.rs != 31:
            total += 1
            if not predictor.predict_and_update(inst.pc, next_pc):
                wrong += 1
    assert total > 10
    assert wrong / total > 0.2  # Markov stream still mispredicts often


def test_twolf_inner_lists_are_short():
    prepared, _ = _distribution("twolf")
    # Inner loop branch: taken count / not-taken count ~ mean list length.
    inner_branch_pc = None
    for point in prepared.spawn_analysis.postdominator_points:
        if point.category == SpawnCategory.LOOP_FALL_THROUGH:
            inner_branch_pc = point.trigger_pc
            break
    taken = 0
    total = 0
    trace = prepared.trace
    for index, pc in enumerate(trace.pc):
        if pc == inner_branch_pc:
            total += 1
            taken += trace.taken[index]
    assert total > 0
    mean_trips = 1.0 / max(1.0 - taken / total, 1e-6)
    assert 1.5 < mean_trips < 8.0  # "three iterations on average"-ish


def test_vpr_route_is_loopft_dominated():
    _, dist = _distribution("vpr.route")
    assert dist[SpawnCategory.LOOP_FALL_THROUGH] >= 2
    assert dist[SpawnCategory.HAMMOCK] == 0
    assert dist[SpawnCategory.PROCEDURE_FALL_THROUGH] == 0


def test_vpr_place_has_accept_hammock():
    _, dist = _distribution("vpr.place")
    assert dist[SpawnCategory.HAMMOCK] >= 1
