"""Throughput micro-benchmarks for the simulation substrates.

Unlike the per-figure regenerations (single-shot), these measure the
steady-state speed of the hot components with proper multi-round
pytest-benchmark statistics — useful when optimizing the simulator.
"""

import random

import pytest

from repro.analysis import compute_postdominator_tree
from repro.frontend import GsharePredictor
from repro.isa import assemble
from repro.memory import Cache
from repro.polyflow import PAPER_CONFIG, PolyFlowCore
from repro.sim import FunctionalSimulator, limit_study
from repro.spawn import profile_spawn_points
from repro.workloads import prepare_workload, workload_source


def _print_rate(benchmark, instructions, label):
    """Print instructions/second over the mean round, when timing is on
    (``--benchmark-disable`` runs each test once and keeps no stats)."""
    if benchmark.stats is None:
        return
    rate = instructions / benchmark.stats.stats.mean
    print("\n{}: {:,.0f} instructions/second".format(label, rate))


@pytest.fixture(scope="module")
def gzip_workload():
    return prepare_workload("gzip", scale=0.25)


def test_assembler_throughput(benchmark):
    source = workload_source("gcc", scale=0.25)
    program = benchmark(assemble, source)
    assert len(program) > 100


def test_functional_simulator_throughput(benchmark, gzip_workload):
    program = gzip_workload.program

    def run():
        return FunctionalSimulator(program).run()

    trace = benchmark(run)
    assert trace.halted
    _print_rate(benchmark, len(trace), "functional simulation")


def test_cycle_simulator_throughput(benchmark, gzip_workload):
    trace = gzip_workload.trace
    analysis = gzip_workload.spawn_analysis
    policy = analysis.policy("postdoms")
    hints = profile_spawn_points(trace, policy.points).hint_table(policy)

    def run():
        return PolyFlowCore(trace, PAPER_CONFIG, hints).run()

    stats = benchmark(run)
    assert stats.retired_instructions == len(trace)
    _print_rate(benchmark, len(trace), "cycle-level simulation")


def test_cycle_simulator_with_no_sink_bus(benchmark, gzip_workload):
    """The guarded event dispatch must be free when nothing listens.

    Compare against ``test_cycle_simulator_throughput`` (which uses the
    core's internally created bus): the acceptance bar for the event
    bus is < 5% overhead on this pair.
    """
    from repro.obs import EventBus

    trace = gzip_workload.trace
    analysis = gzip_workload.spawn_analysis
    policy = analysis.policy("postdoms")
    hints = profile_spawn_points(trace, policy.points).hint_table(policy)

    def run():
        return PolyFlowCore(trace, PAPER_CONFIG, hints, bus=EventBus()).run()

    stats = benchmark(run)
    assert stats.retired_instructions == len(trace)
    _print_rate(benchmark, len(trace), "no-sink event bus")


def test_cycle_simulator_with_verbose_sink(benchmark, gzip_workload):
    """Reference cost of full per-instruction tracing (not a gate —
    verbose runs are opt-in and pay for what they observe)."""
    from repro.obs import EventBus, MetricsAggregator

    trace = gzip_workload.trace
    analysis = gzip_workload.spawn_analysis
    policy = analysis.policy("postdoms")
    hints = profile_spawn_points(trace, policy.points).hint_table(policy)

    def run():
        bus = EventBus()
        bus.attach(MetricsAggregator())
        return PolyFlowCore(trace, PAPER_CONFIG, hints, bus=bus).run()

    stats = benchmark(run)
    assert stats.retired_instructions == len(trace)
    _print_rate(benchmark, len(trace), "verbose-sink event bus")


def test_postdominator_analysis_throughput(benchmark):
    program = assemble(workload_source("gcc", scale=0.25))
    from repro.cfg import build_program_cfgs

    cfgs = build_program_cfgs(program)
    largest = max(cfgs, key=lambda cfg: len(cfg.blocks))

    result = benchmark(compute_postdominator_tree, largest)
    assert largest.exit_index in result.nodes()


def test_gshare_throughput(benchmark):
    rng = random.Random(1)
    outcomes = [(0x9000 + 4 * rng.randrange(256), rng.random() < 0.5) for _ in range(10_000)]

    def run():
        predictor = GsharePredictor()
        hits = 0
        for pc, taken in outcomes:
            hits += predictor.predict_and_update(pc, taken) == taken
        return hits

    hits = benchmark(run)
    assert 0 <= hits <= len(outcomes)


def test_cache_throughput(benchmark):
    rng = random.Random(2)
    addresses = [rng.randrange(1 << 22) for _ in range(20_000)]

    def run():
        cache = Cache(size=16 * 1024, associativity=4, line_size=64)
        for address in addresses:
            cache.access(address)
        return cache.misses

    misses = benchmark(run)
    assert misses > 0


def test_limit_study_throughput(benchmark, gzip_workload):
    trace = gzip_workload.trace
    ipdoms = {
        point.trigger_pc: point.spawn_pc
        for point in gzip_workload.spawn_analysis.postdominator_points
    }
    result = benchmark(limit_study, trace, ipdoms)
    assert result.single_flow <= result.dataflow + 1e-9
