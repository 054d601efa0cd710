"""Child-process entry points of the end-to-end benchmark.

Every measured pass runs in a fresh interpreter, so no memo, cache or
pool state leaks from one pass into the next.  A pass reads the machine
index (``measure.machine_index``) just before and just after its measured
call, in its own process, and ``run.py`` calibrates the pass with those
two readings.  Each subcommand prints one JSON line on stdout:

``setup WORKLOAD``
    Import the stack and build the runner the workload uses; prints
    ``ready`` (the parent times child start to that line).
``figures``
    One ``all`` figure regeneration through the CLI entry point; reports
    the stdout digest and the modelled-design results it prints.
``synth``
    One sweep over a seeded catalog sample, then a serial re-simulation
    of a seed-chosen set of its cells.
``seed-cache``
    Simulate cells into a result cache (the service's disk tier).
``serve``
    Start the exploration service; with ``--trace-out`` it is traced
    between SIGUSR1 and SIGUSR2 and writes its spans at exit.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import signal
import sys
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

_SUMMARY = re.compile(r"run summary: (\d+) simulated, (\d+) cache hits")
_HEADLINE = re.compile(r"Headline: postdoms = ([0-9.]+)x best individual heuristic")

#: Cells of each synth pass re-simulated serially to check its answers.
CHECK_CELLS = 16


def _emit(payload):
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _start_tracer(trace_out, workload):
    if not trace_out:
        return None
    from tracer import Tracer

    return Tracer(workload).install()


def _finish_tracer(tracer, trace_out, result):
    if tracer is None:
        return
    with open(trace_out, "w") as handle:
        json.dump(tracer.chrome_trace(), handle)
    result["layers"] = tracer.layer_metrics()
    result["fired"] = tracer.fired()
    tracer.uninstall()


def figure9_results(stdout):
    """The modelled-design results the figure run printed.

    ``postdoms_speedup_pct`` is Figure 9's suite-average postdoms bar,
    ``headline_ratio`` the printed postdoms / best-heuristic ratio, and
    ``paper_error_pts`` the mean |simulated - paper| over the twelve
    Figure 9 postdoms bars (``paper_data``), so the model's error against
    the paper is stated beside its speedup.
    """
    from repro.experiments.paper_data import FIGURE9_SPEEDUPS

    section = stdout.split("Figure 9:", 1)[1].split("\n\n", 1)[0]
    postdoms = {}
    for line in section.splitlines():
        fields = line.split()
        if fields and (fields[0] in FIGURE9_SPEEDUPS or fields[0] == "Average"):
            postdoms[fields[0]] = float(fields[-1])
    errors = [
        abs(postdoms[name] - paper["postdoms"])
        for name, paper in FIGURE9_SPEEDUPS.items()
    ]
    return {
        "postdoms_speedup_pct": postdoms["Average"],
        "headline_ratio": float(_HEADLINE.search(stdout).group(1)),
        "paper_error_pts": sum(errors) / len(errors),
    }


def run_setup(arguments):
    from repro.experiments.parallel import ParallelExperimentRunner

    if arguments.workload == "synth":
        from repro.experiments import synth_sweep  # noqa: F401

        ParallelExperimentRunner(scale=arguments.scale, jobs=1)
    else:
        from repro.experiments.__main__ import main  # noqa: F401

        ParallelExperimentRunner(
            scale=arguments.scale, jobs=1, cache_dir=arguments.cache_dir
        )
    _emit("ready")


def run_figures(arguments):
    from repro.experiments import figures
    from repro.experiments.__main__ import main
    from repro.experiments.runner import ExperimentRunner
    from repro.workloads import prepare_workload

    tracer = _start_tracer(arguments.trace_out, arguments.workload)
    argv = [
        "all",
        "--scale",
        repr(arguments.scale),
        "--jobs",
        "1",
        "--cache-dir",
        arguments.cache_dir,
    ]
    out, err = io.StringIO(), io.StringIO()
    index_before = measure.machine_index()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_region()
        cpu = time.process_time()
        started = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
        if tracer is not None:
            tracer.end_region()
    index_after = measure.machine_index()
    stdout = out.getvalue()
    simulated, cache_hits = (int(group) for group in _SUMMARY.search(err.getvalue()).groups())
    runner = ExperimentRunner(scale=arguments.scale)
    jobs = runner.normalize_jobs(
        figures.figure_jobs_union(tuple(figures.FIGURE_SIMULATION_SPECS), runner)
    )
    # Every cell retires its workload's whole committed trace.
    instructions = sum(
        prepare_workload(name, arguments.scale).dynamic_instructions
        for name, _, _, _ in jobs
    )
    result = {
        "exit_code": code,
        "index_before": index_before,
        "index_after": index_after,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": _peak_rss_mb(),
        "cells": len(jobs),
        "simulated": simulated,
        "cache_hits": cache_hits,
        "instructions": instructions if simulated == len(jobs) else 0,
        "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "exact": figure9_results(stdout),
    }
    _finish_tracer(tracer, arguments.trace_out, result)
    _emit(result)


def run_synth(arguments):
    from repro.experiments import synth_sweep
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.experiments.runner import SUPERSCALAR_SPEC, simulate_job
    from repro.experiments.scheduler import pack_stats
    from repro.workloads import prepare_workload

    tracer = _start_tracer(arguments.trace_out, "synth-sweep")
    names = cost_stratified_sample(arguments.scenarios, arguments.token, arguments.scale)
    specs = synth_sweep.DEFAULT_SPECS
    runner = ParallelExperimentRunner(scale=arguments.scale, jobs=1)
    index_before = measure.machine_index()
    if tracer is not None:
        tracer.begin_region()
    cpu = time.process_time()
    started = time.perf_counter()
    synth_sweep.sweep(runner, names, specs)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu
    if tracer is not None:
        tracer.end_region()
    index_after = measure.machine_index()
    cells = [(name, spec) for name in names for spec in specs + (SUPERSCALAR_SPEC,)]
    instructions = sum(
        prepare_workload(name, arguments.scale).dynamic_instructions
        for name, _ in cells
    )
    checked = random.Random(arguments.seed).sample(cells, CHECK_CELLS)
    mismatches = [
        "{}:{}".format(name, spec)
        for name, spec in checked
        if pack_stats(runner.run_with_config(name, spec, runner.config))
        != pack_stats(simulate_job(name, spec, arguments.scale, runner.config))
    ]
    result = {
        "index_before": index_before,
        "index_after": index_after,
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": _peak_rss_mb(),
        "cells": len(cells),
        "simulated": runner.summary.jobs_run,
        "instructions": instructions,
        "checked": len(checked),
        "mismatches": mismatches,
    }
    _finish_tracer(tracer, arguments.trace_out, result)
    _emit(result)


def cost_stratified_sample(count, token, scale):
    """``count`` synth catalog scenarios, one drawn by ``token`` from each
    of ``count`` equal slices of the catalog ordered by estimated trace
    length, so every token's sample carries about the same simulation
    work and seeds compare like for like."""
    from repro.analysis.estimate import estimated_trace_length
    from repro.workloads.synth import catalog_names

    names = sorted(catalog_names(), key=lambda name: (estimated_trace_length(name, scale), name))
    rng = random.Random(token)
    return [
        rng.choice(names[index * len(names) // count : (index + 1) * len(names) // count])
        for index in range(count)
    ]


def run_seed_cache(arguments):
    from repro.experiments.parallel import ParallelExperimentRunner

    with open(arguments.cells) as handle:
        cells = [tuple(cell) for cell in json.load(handle)]
    runner = ParallelExperimentRunner(
        scale=arguments.scale, jobs=1, cache_dir=arguments.cache_dir
    )
    _emit({"simulated": runner.prefetch(cells)})


def run_serve(arguments):
    """The service, started the way ``polyflow-experiments serve`` starts it."""
    from repro.experiments.__main__ import main

    tracer = _start_tracer(arguments.trace_out, "service-mix")
    if tracer is not None:
        signal.signal(
            signal.SIGUSR1,
            lambda *_: tracer.begin_region(root_thread_name="batch-executor"),
        )
        signal.signal(signal.SIGUSR2, lambda *_: tracer.end_region())
    serve_args = arguments.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    code = main(["serve"] + serve_args)
    result = {"exit_code": code, "rss_mb": _peak_rss_mb()}
    _finish_tracer(tracer, arguments.trace_out, result)
    if arguments.result_out:
        with open(arguments.result_out, "w") as handle:
            json.dump(result, handle)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    setup = commands.add_parser("setup")
    setup.add_argument("workload", choices=("figures", "synth"))
    setup.add_argument("--scale", type=float, required=True)
    setup.add_argument("--cache-dir")

    figures = commands.add_parser("figures")
    figures.add_argument("--scale", type=float, required=True)
    figures.add_argument("--cache-dir", required=True)
    figures.add_argument("--workload", required=True)
    figures.add_argument("--trace-out")

    synth = commands.add_parser("synth")
    synth.add_argument("--scale", type=float, required=True)
    synth.add_argument("--scenarios", type=int, required=True)
    synth.add_argument("--token", required=True)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--trace-out")

    seed_cache = commands.add_parser("seed-cache")
    seed_cache.add_argument("--scale", type=float, required=True)
    seed_cache.add_argument("--cache-dir", required=True)
    seed_cache.add_argument("--cells", required=True)

    serve = commands.add_parser("serve")
    serve.add_argument("--trace-out")
    serve.add_argument("--result-out")
    serve.add_argument("serve_args", nargs=argparse.REMAINDER)

    arguments = parser.parse_args(argv)
    handler = {
        "setup": run_setup,
        "figures": run_figures,
        "synth": run_synth,
        "seed-cache": run_seed_cache,
        "serve": run_serve,
    }[arguments.command]
    return handler(arguments) or 0


if __name__ == "__main__":
    sys.exit(main())
