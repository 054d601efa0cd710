"""The synthesizer itself: validity, reproducibility, dial fidelity."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.isa import assemble
from repro.sim import run_program
from repro.workloads.synth import Dials, build_scenario, generate

_DIAL_POINTS = (
    Dials(0, 0, 0, 0, 0, 0, 0),  # degenerate straight line
    Dials(3, 3, 2, 2, 2, 2, 1),  # everything maxed
    Dials(1, 2, 1, 0, 1, 1, 0),  # mid-space
    Dials(0, 1, 2, 1, 0, 0, 1),  # calls + dispatch, no loops
)


@pytest.mark.parametrize("dials", _DIAL_POINTS, ids=lambda d: d.code())
def test_generated_programs_assemble_and_halt(dials):
    bundle = generate("synth-test/" + dials.code(), dials)
    program = assemble(bundle.source)
    trace = run_program(program)
    assert trace.halted
    assert len(trace) > 0


def test_same_seed_gives_identical_assembly_digest():
    """Bit-reproducibility regression: same name (hence same derived
    seed) must produce byte-identical assembly text, build after
    build."""
    dials = Dials(2, 2, 1, 1, 1, 1, 0)
    first = generate("synth-test/repro", dials)
    second = generate("synth-test/repro", dials)
    digest = hashlib.sha256(first.source.encode()).hexdigest()
    assert hashlib.sha256(second.source.encode()).hexdigest() == digest
    assert first.seed == second.seed


def test_different_names_give_different_seeds_and_text():
    dials = Dials(2, 2, 1, 1, 1, 1, 0)
    a = generate("synth-test/a", dials)
    b = generate("synth-test/b", dials)
    assert a.seed != b.seed
    assert a.source != b.source


def test_catalog_builds_are_memoized_and_reproducible():
    name = "synth/L1H1C0I0P0S1V0"
    first = build_scenario(name, 0.5)
    assert build_scenario(name, 0.5) is first
    regenerated = generate(name, first.dials, seed=first.seed, scale=0.5)
    assert regenerated.source == first.source


def test_dials_shape_the_program():
    """Each dial visibly changes the recorded structure."""
    base = generate("synth-test/base", Dials(1, 1, 0, 0, 0, 1, 0))
    assert base.oracle.loop_count() == 1
    assert len(base.oracle.procedures) == 1

    deep = generate("synth-test/deep", Dials(3, 1, 0, 0, 0, 1, 0))
    main_loops = deep.oracle.procedures[0].loops
    assert len(main_loops) == 3
    # parent chain: innermost loop's ancestry walks back to the top
    assert main_loops[0].parent_label is None
    assert main_loops[1].parent_label == main_loops[0].header_label
    assert main_loops[2].parent_label == main_loops[1].header_label

    called = generate("synth-test/calls", Dials(1, 1, 2, 0, 0, 1, 0))
    assert len(called.oracle.procedures) == 1 + 4

    dispatched = generate("synth-test/jr", Dials(1, 1, 0, 2, 0, 1, 0))
    switches = dispatched.oracle.procedures[0].switches
    assert len(switches) == 1 and switches[0].ways == 8


def test_dials_validation():
    with pytest.raises(ConfigurationError):
        Dials(loop_depth=7)
    with pytest.raises(ConfigurationError):
        Dials.from_code("L1H1")
    assert Dials.from_code("L2H1C0I1P2S0V1").code() == "L2H1C0I1P2S0V1"
    with pytest.raises(TypeError):
        generate("synth-test/not-dials", "L1H1C0I0P0S1V0")
