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

:func:`edge_configs` draws the machine geometries at the edges of what
:class:`~repro.polyflow.MachineConfig` accepts, for the engine
equivalence properties.

:func:`damaged` is the one on-disk fault model of the cache suites:
a byte string with one bit flipped, or cut short.
"""

import dataclasses

from hypothesis import strategies as st

from repro.isa import assemble
from repro.polyflow import MachineConfig
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


#: ``(width, fetch_tasks_per_cycle)`` pairs: the paper's two 4-wide
#: streams, one 1-wide stream, and three ports (generic arbitration).
_FETCH_GEOMETRIES = ((8, 2), (1, 1), (8, 3))


@st.composite
def edge_configs(draw):
    """A :class:`MachineConfig` spawning at distance 2 (so small
    generated programs still spawn), with each edge geometry drawn on
    or off independently: one task; width 1 with one fetch port, or
    three ports; a ROB of 33, a scheduler of 9 and a divert queue of 1
    (one entry beyond the head task's reserves); one functional unit;
    zero front-end latency and mispredict penalty; a per-task
    scheduler quota of 1; release on completion; cold caches; nested
    spawns."""
    width, ports = draw(st.sampled_from(_FETCH_GEOMETRIES))
    overrides = {"width": width, "fetch_tasks_per_cycle": ports}
    edges = {
        "max_tasks": 1,
        "rob_entries": 33,
        "scheduler_entries": 9,
        "divert_queue_entries": 1,
        "functional_units": 1,
        "frontend_latency": 0,
        "mispredict_penalty": 0,
        "scheduler_per_task_quota": 1,
        "divert_release": "complete",
        "warm_caches": False,
        "nested_spawns": True,
    }
    for field, value in edges.items():
        if draw(st.booleans()):
            overrides[field] = value
    if overrides.get("max_tasks") == 1:
        overrides["fetch_tasks_per_cycle"] = 1
    return dataclasses.replace(
        MachineConfig(min_spawn_distance=2), **overrides
    )


@st.composite
def damaged(draw, data):
    """``data`` with one drawn bit flipped, or cut short at a drawn
    offset."""
    offset = draw(st.integers(0, len(data) - 1))
    if draw(st.booleans()):
        flipped = data[offset] ^ (1 << draw(st.integers(0, 7)))
        return data[:offset] + bytes([flipped]) + data[offset + 1 :]
    return data[:offset]
