"""Tests for the synthetic workload suite."""

import pytest

from repro.errors import ConfigurationError
from repro.spawn import SpawnCategory, static_distribution
from repro.workloads import (
    WORKLOAD_NAMES,
    clear_cache,
    prepare_workload,
    workload_source,
)

#: Small scale keeps the whole-suite tests fast.
_SCALE = 0.1


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_twelve_workloads_in_paper_order():
    assert len(WORKLOAD_NAMES) == 12
    assert WORKLOAD_NAMES[0] == "bzip2"
    assert WORKLOAD_NAMES[-1] == "vpr.route"
    assert "eon" not in WORKLOAD_NAMES  # excluded by the paper


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_builds_executes_and_halts(name):
    prepared = prepare_workload(name, scale=_SCALE)
    assert prepared.trace.halted
    assert len(prepared.trace) > 100


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_has_spawn_points(name):
    prepared = prepare_workload(name, scale=_SCALE)
    assert len(prepared.spawn_analysis.postdominator_points) > 0


def test_unknown_workload_rejected():
    with pytest.raises(ConfigurationError):
        workload_source("eon")
    with pytest.raises(ConfigurationError):
        prepare_workload("nonesuch")


def test_invalid_scale_rejected():
    with pytest.raises(ConfigurationError):
        workload_source("gzip", scale=0)
    with pytest.raises(ConfigurationError):
        workload_source("gzip", scale=-1)


def test_workloads_are_deterministic():
    assert workload_source("mcf", scale=_SCALE) == workload_source("mcf", scale=_SCALE)
    first = prepare_workload("bzip2", scale=_SCALE, use_cache=False)
    second = prepare_workload("bzip2", scale=_SCALE, use_cache=False)
    assert len(first.trace) == len(second.trace)


def test_prepare_workload_caches():
    first = prepare_workload("gzip", scale=_SCALE)
    second = prepare_workload("gzip", scale=_SCALE)
    assert first is second


def test_vortex_is_call_heavy():
    prepared = prepare_workload("vortex", scale=_SCALE)
    distribution = static_distribution(prepared.spawn_analysis.postdominator_points)
    assert distribution[SpawnCategory.PROCEDURE_FALL_THROUGH] >= 10
    mix = prepared.trace.instruction_mix()
    assert mix["call"] > 0


def test_perlbmk_has_other_spawns():
    prepared = prepare_workload("perlbmk", scale=_SCALE)
    distribution = static_distribution(prepared.spawn_analysis.postdominator_points)
    assert distribution[SpawnCategory.OTHER] >= 1


def test_gcc_has_largest_static_spawn_count():
    totals = {}
    for name in WORKLOAD_NAMES:
        prepared = prepare_workload(name, scale=_SCALE)
        distribution = static_distribution(
            prepared.spawn_analysis.postdominator_points
        )
        totals[name] = sum(distribution.values())
    assert max(totals, key=totals.get) == "gcc"


def test_mcf_is_memory_heavy():
    prepared = prepare_workload("mcf", scale=_SCALE)
    mix = prepared.trace.instruction_mix()
    assert mix["load"] / len(prepared.trace) > 0.10


def test_twolf_has_figure6_branch_structure():
    """Section 2.3: the inner loop has one if-then-else (~30% taken)
    and two if-then ABS hammocks, plus inner and outer loop branches."""
    prepared = prepare_workload("twolf", scale=_SCALE)
    distribution = static_distribution(prepared.spawn_analysis.postdominator_points)
    assert distribution[SpawnCategory.HAMMOCK] >= 3
    assert distribution[SpawnCategory.LOOP_FALL_THROUGH] >= 2
    # The flag branch (if-then-else on netptr->flag, a two-source bne)
    # is taken about 30% of the time.
    from repro.isa import Opcode

    flag_branch_pc = None
    for point in prepared.spawn_analysis.postdominator_points:
        if point.category != SpawnCategory.HAMMOCK:
            continue
        instruction = prepared.program.fetch(point.trigger_pc)
        if instruction.opcode == Opcode.BNE:
            flag_branch_pc = point.trigger_pc
            break
    assert flag_branch_pc is not None
    taken = 0
    total = 0
    trace = prepared.trace
    for index, pc in enumerate(trace.pc):
        if pc == flag_branch_pc:
            total += 1
            taken += trace.taken[index]
    assert total > 0
    assert 0.05 < taken / total < 0.6


def test_scale_changes_trace_length():
    small = prepare_workload("gzip", scale=0.05, use_cache=False)
    large = prepare_workload("gzip", scale=0.2, use_cache=False)
    assert len(large.trace) > len(small.trace)
