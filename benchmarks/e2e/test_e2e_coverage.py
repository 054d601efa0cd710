"""Wrapper-coverage smoke run: every traced target must fire.

Runs the figure grid on two programs at scale 0.1 and a four-scenario
synth sweep in-process, and twenty service queries against a traced
server, each under the layer tracer.  If a function in ``src/`` is
renamed or stops being called, its target stops firing and this test
fails, instead of its time silently moving into its caller's self time.
"""

import gc
import json
import os
import signal
import subprocess
import sys

import pytest
from repro.analysis.estimate import clear_memos
from repro.analysis.pipeline import configure_disk_cache
from repro.experiments import figures, synth_sweep
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.scheduler import usable_cpus
from repro.workloads import clear_cache
from repro.workloads.synth import stratified_sample

import service_mix
from tracer import LAYERS, TARGETS, WAIT_LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")

#: Below this share of the region the trace explains the wall time.
MAX_UNATTRIBUTED = 0.10


def _traced(workload, body):
    clear_cache()
    clear_memos()
    # A collection of earlier tests' garbage would land in the short region.
    gc.collect()
    tracer = Tracer(workload).install()
    try:
        tracer.begin_region()
        body()
        tracer.end_region()
    finally:
        tracer.uninstall()
        configure_disk_cache(None)
        clear_cache()
    return tracer


def _figures(cache_dir):
    # Two programs whose traces are long enough for shared warm state.
    runner = ParallelExperimentRunner(
        scale=0.1, workload_names=("crafty", "gap"), cache_dir=cache_dir
    )
    runner.prefetch(figures.figure_jobs_union(tuple(figures.FIGURE_SIMULATION_SPECS), runner))
    figures.figure5(runner).render()
    figures.figure8()
    fig9, fig10 = figures.figure9(runner), figures.figure10(runner)
    fig9.render()
    fig10.render()
    figures.figure11(runner).render()
    figures.figure12(runner).render()
    figures.headline_ratios(fig9, fig10)


def _synth(names):
    runner = ParallelExperimentRunner(scale=1.0, jobs=1)
    synth_sweep.sweep(runner, names, synth_sweep.DEFAULT_SPECS)


def _service_queries():
    """Twenty queries over every tier, with a pooled pair of SPEC cells."""
    plan = service_mix.Plan(0, 1)
    by_tier = {tier: [q for q in plan.rounds[0] if q.planned == tier] for tier, _ in service_mix.ROUND_MIX}
    pooled = service_mix.Query(
        "simulate",
        [
            {"workload": "crafty", "spec": "postdoms", "config": {"rob_entries": 128, "max_tasks": 4}},
            {"workload": "perlbmk", "spec": "loop", "config": {"rob_entries": 256, "max_tasks": 6}},
        ],
        service_mix.SPEC_SCALE,
    )
    queries = by_tier["memo"][:8] + by_tier["disk"][:4] + by_tier["estimate"][:4]
    return queries + by_tier["simulate"][:3] + [pooled]


def _service(tmp_path):
    queries = _service_queries()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    cache_dir = str(tmp_path / "service-cache")
    cells_file = tmp_path / "disk-cells.json"
    cells_file.write_text(
        json.dumps(
            [[c["workload"], c["spec"]] for q in queries if q.planned == "disk" for c in q.cells]
        )
    )
    subprocess.run(
        [sys.executable, CHILD, "seed-cache", "--scale", "1.0", "--cache-dir", cache_dir,
         "--cells", str(cells_file)],
        check=True, env=env, capture_output=True, timeout=300,
    )
    result_out = tmp_path / "service-result.json"
    server = service_mix.Server(
        sys.executable, CHILD, env, cache_dir, str(tmp_path / "service.log"), 2, 25,
        trace_out=str(tmp_path / "service-trace.json"), result_out=str(result_out),
    )
    try:
        server.start()
        memo_cells = [cell for q in queries if q.planned == "memo" for cell in q.cells]
        server.client.query(memo_cells, scale=service_mix.SPEC_SCALE)
        server.signal(signal.SIGUSR1)
        _, outcomes = service_mix.drive(server.client, queries)
        server.signal(signal.SIGUSR2)
    finally:
        server.stop()
    assert all(status == 200 for _, status, _ in outcomes)
    assert {service_mix.slowest_tier(payload) for _, _, payload in outcomes} == set(service_mix.TIERS)
    return json.loads(result_out.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("coverage")
    figures_trace = _traced("figures", lambda: _figures(str(tmp_path / "figures-cache")))
    # Sampling walks the whole catalog; like the benchmark, do it untraced.
    names = stratified_sample(4, "coverage-smoke")
    synth_trace = _traced("synth", lambda: _synth(names))
    return {
        "figures": (figures_trace.fired(), figures_trace.layer_metrics()),
        "synth": (synth_trace.fired(), synth_trace.layer_metrics()),
        "service": _service(tmp_path),
    }


def test_every_wrapped_target_fired(smoke):
    fired = set(smoke["figures"][0]) | set(smoke["synth"][0]) | set(smoke["service"]["fired"])
    expected = {"{}:{}".format(target.module, target.qualname) for target in TARGETS}
    if usable_cpus() < 2:
        # One CPU runs every cell inline: no pool result is ever unpacked.
        expected.discard("repro.experiments.scheduler:unpack_stats")
    assert sorted(expected - fired) == []


@pytest.mark.parametrize("part", ["figures", "synth"])
def test_in_process_time_is_attributed(smoke, part):
    _, metrics = smoke[part]
    assert metrics["unattributed_share"] < MAX_UNATTRIBUTED


def test_service_layers_are_measured(smoke):
    metrics = smoke["service"]["layers"]
    assert metrics["unattributed_share"] < MAX_UNATTRIBUTED
    assert metrics["service.admission.batches"] > 0
    assert metrics["service.admission.wait_p50_ms"] > 0
    assert metrics["service.server.overhead_p50_ms"] > 0
    assert metrics["service.engine.calls"] == metrics["service.admission.batches"]


def test_benchmark_json_lists_every_layer_metric(smoke):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        per_layer = [metric["name"] for metric in json.load(handle)["per_layer"]]
    _, metrics = smoke["figures"]
    assert sorted(per_layer) == sorted(list(metrics) + ["tracing_overhead"])
    assert len(per_layer) == len(set(per_layer))
    for layer in LAYERS:
        if layer not in WAIT_LAYERS:
            assert layer + ".self_s" in per_layer
