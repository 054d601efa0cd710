"""Shared Hypothesis strategies over synthesized programs.

One generator to rule the property suites: every strategy here draws a
point in the synth dial space (:mod:`repro.workloads.synth`) plus a
variant number, derives the program deterministically from that name,
and returns it at the abstraction level the suite wants — the full
:class:`~repro.workloads.synth.generator.SynthProgram` bundle (source
plus structural oracle), bare source text, or an assembled
:class:`~repro.isa.program.Program`.

These replace the three near-copy ``@st.composite`` program generators
that previously lived in test_simulation_properties,
test_event_stream_properties, and test_analysis_cache_properties.
Shrinking works on the drawn dial levels and the variant integer;
programs themselves are pure functions of both.

:func:`damaged` is the one on-disk fault model of the cache suites:
a byte string with one bit flipped, or cut short.
"""

from hypothesis import strategies as st

from repro.isa import assemble
from repro.workloads.synth import Dials, generate


@st.composite
def synth_bundles(draw, conflict=0, max_loop_depth=2, min_hammocks=1):
    """A :class:`SynthProgram` (source + oracle) at a drawn dial point.

    ``conflict=1`` makes every hammock's arms store to a shared slot
    that the join immediately loads — the shape that provokes memory
    dependence violations under hammock/postdominator spawning.
    """
    dials = Dials(
        loop_depth=draw(st.integers(min_value=1, max_value=max_loop_depth)),
        hammocks=draw(st.integers(min_value=min_hammocks, max_value=3)),
        fanout_level=draw(st.integers(min_value=0, max_value=1)),
        dispatch_level=draw(st.integers(min_value=0, max_value=1)),
        predictability=draw(st.integers(min_value=0, max_value=2)),
        scale_level=draw(st.integers(min_value=0, max_value=1)),
        conflict=conflict,
    )
    variant = draw(st.integers(min_value=0, max_value=2**16 - 1))
    name = "synth-hyp/{}#{}".format(dials.code(), variant)
    return generate(name, dials)


@st.composite
def synth_sources(draw, **kwargs):
    """Assembly source text of a drawn synth program."""
    return draw(synth_bundles(**kwargs)).source


@st.composite
def synth_programs(draw, **kwargs):
    """An assembled :class:`~repro.isa.program.Program`."""
    return assemble(draw(synth_sources(**kwargs)))


def random_hammock_programs():
    """Loop-plus-hammock programs (historical name, synth-backed)."""
    return synth_programs()


def violating_programs():
    """Programs whose hammock arms race a store against the join's load."""
    return synth_programs(conflict=1)


def pinned_violating_program():
    """One fixed conflict-shaped program known to violate and squash.

    Used by the pinned regression that proves the generator's conflict
    shape really exercises the violation path; parameters were chosen
    (deterministically, by name-derived seed) so violations occur under
    hammock spawning.
    """
    dials = Dials(
        loop_depth=1,
        hammocks=2,
        fanout_level=0,
        dispatch_level=0,
        predictability=1,
        scale_level=2,
        conflict=1,
    )
    name = "synth-hyp/{}#pinned".format(dials.code())
    return assemble(generate(name, dials).source)


@st.composite
def damaged(draw, data):
    """``data`` with one drawn bit flipped, or cut short at a drawn
    offset."""
    offset = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        flipped = data[offset] ^ (1 << draw(st.integers(0, 7)))
        return data[:offset] + bytes([flipped]) + data[offset + 1 :]
    return data[:offset]
