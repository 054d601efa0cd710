"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.experiments fig5
    python -m repro.experiments fig9 --scale 0.5 --jobs 4
    python -m repro.experiments all --jobs 8 --cache-dir .polyflow-cache
    python -m repro.experiments all --no-cache
    python -m repro.experiments trace --workload gzip \\
        --policy control-equivalent --trace-dir /tmp/traces

Simulations fan out across ``--jobs`` worker processes and their
results are cached on disk under ``--cache-dir``, so re-generating a
figure (or re-running CI) only simulates what changed.  Parallel and
cached runs emit output bit-identical to a cold serial run; a run
summary (jobs simulated, cache hits, where the time went) is printed
to stderr.

``trace`` runs one (workload, policy) simulation with full
observability: a JSONL event trace, a Chrome ``trace_event`` file
loadable in Perfetto / chrome://tracing, and a per-spawn-point
attribution table.  On figure runs, ``--trace-dir`` writes one compact
lifecycle trace per simulation and ``--emit-metrics`` prints per-policy
attribution tables to stderr — figure output on stdout stays
bit-identical either way.
"""

import argparse
import os
import sys
import time

from repro.experiments import figures
from repro.experiments.parallel import DEFAULT_CACHE_DIR, ParallelExperimentRunner

_FIGURES = ("fig5", "fig8", "fig9", "fig10", "fig11", "fig12")
_ABLATIONS = "ablations"
_TRACE = "trace"
_SYNTH = "synth"
_SERVE = "serve"
_QUERY = "query"
_CACHE_GC = "cache-gc"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="polyflow-experiments",
        description="Regenerate the evaluation figures of 'Exploiting "
        "Postdominance for Speculative Parallelization' (HPCA 2007).",
    )
    parser.add_argument(
        "figure",
        choices=_FIGURES
        + (_ABLATIONS, _TRACE, _SYNTH, _SERVE, _QUERY, _CACHE_GC, "all"),
        help="which figure to regenerate ('ablations' runs the "
        "design-choice sweeps; 'trace' runs one fully-observed "
        "simulation, see --workload/--policy; 'synth' sweeps the "
        "synthesized scenario catalog and prints the win/loss "
        "coverage map, see --sample/--slice; 'serve' starts the "
        "always-on exploration service, see --host/--port; 'query' "
        "asks a running service for stats, see --cells; 'cache-gc' "
        "sweeps the result cache and its analysis tree, see --max-bytes)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (smaller = faster, default 1.0)",
    )
    parser.add_argument(
        "--workload",
        help="(trace) workload to simulate",
    )
    parser.add_argument(
        "--policy",
        default="control-equivalent",
        help="(trace) policy spec; aliases 'control-equivalent' and "
        "'best-heuristic' are accepted (default control-equivalent)",
    )
    parser.add_argument(
        "--trace-dir",
        help="directory for event traces: the trace command writes its "
        "full JSONL + Chrome trace there; figure runs write one "
        "compact lifecycle JSONL per simulation",
    )
    parser.add_argument(
        "--emit-metrics",
        action="store_true",
        help="collect per-spawn-point metrics on every simulation and "
        "print per-policy attribution tables to stderr",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation fan-out "
        "(default 1 = serial; capped at the machine's usable CPUs)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="on-disk result cache directory (default {!r}); runs "
        "pointing at one shared directory share results".format(
            DEFAULT_CACHE_DIR
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="(synth) sweep a deterministic stratified sample of this "
        "many catalog scenarios (default: the whole catalog)",
    )
    parser.add_argument(
        "--slice",
        dest="slice_prefix",
        default=None,
        help="(synth) restrict the sweep to scenarios whose code starts "
        "with this prefix, e.g. 'L2' or 'L2H3'",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="(synth) cap the number of swept scenarios (applied after "
        "--slice, in catalog order; --sample takes precedence)",
    )
    parser.add_argument(
        "--specs",
        default=None,
        help="(synth) comma-separated policy specs; the first is scored "
        "against the best of the rest (default 'postdoms,"
        "loop+procFT+loopFT')",
    )
    parser.add_argument(
        "--estimate-first",
        action="store_true",
        help="(synth) triage with the analytic estimator and simulate "
        "only a budgeted slice of cells; unsimulated cells ride on "
        "estimator predictions labeled source=estimated",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="(synth) with --estimate-first, the fraction of swept "
        "catalog cells that may be simulated (default 0.40)",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="(cache-gc) evict least-recently-written entries until "
        "the tree fits in this many bytes (default: prune corrupt "
        "entries only)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="(serve/query) service bind/connect address "
        "(default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8790,
        help="(serve/query) service port; 0 binds an ephemeral port "
        "(default 8790)",
    )
    parser.add_argument(
        "--window-ms",
        type=float,
        default=25.0,
        help="(serve) admission window in milliseconds: concurrent "
        "queries arriving within it coalesce into one grid "
        "(default 25)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="(serve) admission queue bound; beyond it queries get "
        "HTTP 429 + Retry-After (default 64)",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=0.5,
        help="(serve) Retry-After hint in seconds sent with 429 "
        "responses (default 0.5)",
    )
    parser.add_argument(
        "--events-log",
        help="(serve) mirror the /events progress stream into this "
        "JSONL file",
    )
    parser.add_argument(
        "--cells",
        help="(query) comma-separated workload:spec cells, e.g. "
        "'gzip:postdoms,gzip:superscalar' (default: one cell from "
        "--workload/--policy)",
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="(query) skip the service and compute the same cells with "
        "a local serial ExperimentRunner, the non-sharing reference "
        "(one simulation per cell, no kernel runs shared) — output is "
        "byte-identical to the service's, so the two can be diffed",
    )
    parser.add_argument(
        "--query-retries",
        type=int,
        default=3,
        help="(query) retries honoured on HTTP 429 backpressure "
        "(default 3)",
    )
    parser.add_argument(
        "--estimate",
        action="store_true",
        help="(query) answer cells with the analytic estimator instead "
        "of simulation (source=estimated; predicted speedup with a "
        "confidence band instead of exact stats)",
    )
    arguments = parser.parse_args(argv)

    if arguments.figure == _SERVE:
        return _run_serve(arguments)
    if arguments.figure == _QUERY:
        return _run_query(arguments, parser)
    if arguments.figure == _CACHE_GC:
        return _run_cache_gc(arguments)

    if arguments.figure == _TRACE:
        if not arguments.workload:
            parser.error("trace requires --workload")
        if not arguments.trace_dir:
            parser.error("trace requires --trace-dir")
        return _run_trace(arguments)

    runner = ParallelExperimentRunner(
        scale=arguments.scale,
        jobs=arguments.jobs,
        cache_dir=None if arguments.no_cache else arguments.cache_dir,
        emit_metrics=arguments.emit_metrics,
        trace_dir=arguments.trace_dir,
    )
    started = time.time()

    if arguments.figure == _SYNTH:
        return _run_synth(arguments, runner, started)

    if arguments.figure == _ABLATIONS:
        from repro.experiments import ablations

        # One batched prefetch for the whole 100+-cell ablation grid;
        # each sweep below then renders from the memo.
        runner.prefetch(ablations.ablation_jobs(runner))
        for sweep in (
            ablations.task_count_ablation,
            ablations.rob_size_ablation,
            ablations.nested_spawn_ablation,
            ablations.mispredict_penalty_ablation,
            ablations.spawn_distance_ablation,
            ablations.divert_release_ablation,
        ):
            print(sweep(runner).render())
            print()
        _print_footer(runner, started)
        return 0

    requested = _FIGURES if arguments.figure == "all" else (arguments.figure,)

    # One batched prefetch for every requested figure: the scheduler
    # chunks and cost-orders the union of their simulation grids.
    runner.prefetch(figures.figure_jobs_union(requested, runner))

    for figure in requested:
        if figure == "fig5":
            print(figures.figure5(runner).render())
        elif figure == "fig8":
            print(figures.figure8())
        elif figure == "fig9":
            result = figures.figure9(runner)
            print(result.render())
        elif figure == "fig10":
            print(figures.figure10(runner).render())
        elif figure == "fig11":
            print(figures.figure11(runner).render())
        elif figure == "fig12":
            print(figures.figure12(runner).render())
        print()

    if arguments.figure == "all":
        fig9_result = figures.figure9(runner)
        fig10_result = figures.figure10(runner)
        heuristic_ratio, combination_ratio = figures.headline_ratios(
            fig9_result, fig10_result
        )
        print(
            "Headline: postdoms = {:.2f}x best individual heuristic "
            "(paper: >2x), {:.2f}x best combination (paper: 1.33x)".format(
                heuristic_ratio, combination_ratio
            )
        )
    _print_footer(runner, started)
    return 0


def _synth_names(arguments):
    """The catalog scenarios ``--slice``/``--sample``/``--limit`` pick,
    or ``None`` (reported on stderr) when the slice matches nothing."""
    from repro.workloads.synth import catalog_names, stratified_sample

    names = catalog_names()
    if arguments.slice_prefix:
        prefix = "synth/" + arguments.slice_prefix
        names = tuple(name for name in names if name.startswith(prefix))
        if not names:
            print(
                "no catalog scenarios match slice {!r}".format(
                    arguments.slice_prefix
                ),
                file=sys.stderr,
            )
            return None
    if arguments.sample is not None:
        return stratified_sample(arguments.sample, names=names)
    if arguments.limit is not None:
        return names[: arguments.limit]
    return names


def _synth_specs(arguments):
    from repro.experiments import synth_sweep

    if not arguments.specs:
        return synth_sweep.DEFAULT_SPECS
    return tuple(spec.strip() for spec in arguments.specs.split(",") if spec.strip())


def _run_synth(arguments, runner, started):
    """Sweep a catalog slice and print the coverage map (``synth``)."""
    from repro.experiments import synth_sweep

    names = _synth_names(arguments)
    if names is None:
        return 1
    specs = _synth_specs(arguments)
    if arguments.estimate_first:
        budget = arguments.budget
        if budget is None:
            budget = synth_sweep.DEFAULT_BUDGET_FRACTION
        report = synth_sweep.estimate_first_sweep(
            runner, names, specs, budget_fraction=budget
        )
        print(report.render())
    else:
        rows = synth_sweep.sweep(runner, names, specs)
        print(synth_sweep.coverage_map(rows, specs).render())
    _print_footer(runner, started)
    return 0


def _run_cache_gc(arguments):
    """Sweep the result cache and its analysis tree — ``cache-gc``."""
    from repro.analysis.pipeline import AnalysisCache
    from repro.experiments.parallel import ANALYSIS_CACHE_SUBDIR, ResultCache

    if arguments.no_cache:
        print("cache-gc: nothing to sweep (--no-cache)")
        return 1
    results = ResultCache(arguments.cache_dir)
    print(
        "result cache {}: {removed_corrupt} corrupt pruned, {removed_temp} "
        "stale temp files deleted, {removed_lru} evicted (LRU), "
        "{removed_bytes} bytes freed; {kept_entries} entries / "
        "{kept_bytes} bytes kept".format(
            results.root, **results.gc(arguments.max_bytes)
        )
    )
    analysis = AnalysisCache(os.path.join(arguments.cache_dir, ANALYSIS_CACHE_SUBDIR))
    print(
        "analysis cache {}: {removed_corrupt} corrupt pruned, "
        "{removed_stale} trace parts deleted, {removed_temp} stale temp "
        "files deleted, {removed_bytes} bytes freed; {kept_entries} "
        "entries / {kept_bytes} bytes kept".format(
            analysis.disk_root, **analysis.gc()
        )
    )
    return 0


def _run_serve(arguments):
    """Run the always-on exploration service until SIGTERM/SIGINT."""
    import asyncio
    import json
    import signal

    from repro.service import ExplorationService

    async def serve():
        service = ExplorationService(
            host=arguments.host,
            port=arguments.port,
            queue_depth=arguments.queue_depth,
            window_seconds=arguments.window_ms / 1000.0,
            retry_after=arguments.retry_after,
            events_log=arguments.events_log,
            jobs=arguments.jobs,
            cache_dir=None if arguments.no_cache else arguments.cache_dir,
        )
        await service.start()
        # Machine-parsable endpoint line (scripts read it to learn the
        # ephemeral port when started with --port 0).
        print(
            json.dumps(
                {"serving": {"host": service.host, "port": service.port}}
            ),
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, service.request_shutdown)
        await service.wait_closed()
        summary = service.engine.summary_dict()
        print(
            "[service drained: {} queries served, {} simulated, "
            "{} cache hits]".format(
                service.engine.queries_served,
                summary.get("jobs_run", 0),
                summary.get("cache_hits", 0),
            ),
            file=sys.stderr,
        )

    asyncio.run(serve())
    return 0


def _parse_cells(arguments, parser):
    if arguments.cells:
        cells = []
        for chunk in arguments.cells.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            workload, separator, spec = chunk.partition(":")
            if not separator or not workload or not spec:
                parser.error(
                    "--cells entries must look like workload:spec, "
                    "got {!r}".format(chunk)
                )
            cells.append((workload, spec))
        if cells:
            return cells
    if arguments.workload:
        return [(arguments.workload, arguments.policy)]
    parser.error("query requires --cells or --workload")


def _run_query(arguments, parser):
    """Query a running service (or compute serial ground truth).

    Output is one canonical-JSON line per cell, identical between the
    service path and ``--serial`` — CI diffs the two byte-for-byte.
    """
    from repro.service import canonical_json, encode_stats
    from repro.spawn import canonical_spec

    cells = _parse_cells(arguments, parser)
    if arguments.serial:
        from repro.experiments.runner import ExperimentRunner
        from repro.polyflow import PAPER_CONFIG

        runner = ExperimentRunner(scale=arguments.scale)
        for workload, spec in cells:
            stats = runner.run_with_config(workload, spec, PAPER_CONFIG)
            line = canonical_json(
                {
                    "workload": workload,
                    "spec": canonical_spec(spec),
                    "stats": encode_stats(stats),
                }
            )
            sys.stdout.write(line.decode("utf-8") + "\n")
        return 0

    from repro.service import ServiceClient

    client = ServiceClient(host=arguments.host, port=arguments.port)
    response = client.query(
        cells,
        scale=arguments.scale,
        retries=arguments.query_retries,
        estimate=arguments.estimate,
    )
    for result in response["results"]:
        entry = {
            "workload": result["workload"],
            "spec": result["spec"],
        }
        if arguments.estimate:
            entry["source"] = result["source"]
            entry["estimate"] = result["estimate"]
        else:
            entry["stats"] = result["stats"]
        line = canonical_json(entry)
        sys.stdout.write(line.decode("utf-8") + "\n")
    print(
        "[query: {} cells, sources {}]".format(
            len(response["results"]),
            dict(response["batch"]),
        ),
        file=sys.stderr,
    )
    return 0


def _run_trace(arguments):
    """Run one fully-observed simulation (the ``trace`` command)."""
    import os

    from repro.experiments.reporting import format_spawn_point_attribution
    from repro.experiments.runner import build_core
    from repro.obs import (
        ChromeTraceExporter,
        EventBus,
        JsonlTraceWriter,
        MetricsAggregator,
    )
    from repro.polyflow import PAPER_CONFIG
    from repro.spawn import canonical_spec

    name = arguments.workload
    spec = canonical_spec(arguments.policy)
    os.makedirs(arguments.trace_dir, exist_ok=True)
    stem = "{}.{}".format(name, spec.replace("/", "_"))
    events_path = os.path.join(arguments.trace_dir, stem + ".events.jsonl")
    chrome_path = os.path.join(arguments.trace_dir, stem + ".chrome.json")

    bus = EventBus()
    writer = bus.attach(JsonlTraceWriter(events_path))
    chrome = bus.attach(ChromeTraceExporter(chrome_path))
    metrics = bus.attach(MetricsAggregator(), verbose=False)
    started = time.time()
    core = build_core(name, spec, arguments.scale, PAPER_CONFIG, bus=bus)
    stats = core.run()
    writer.close()
    chrome.close()

    print("workload {} / policy {} at scale {}".format(name, spec, arguments.scale))
    print("  {}".format(stats))
    print("  events: {} ({} events)".format(events_path, writer.events_written))
    print("  chrome trace: {} (open in chrome://tracing or Perfetto)".format(
        chrome_path
    ))
    print()
    print(
        format_spawn_point_attribution(
            metrics.as_dict(),
            title="spawn-point attribution: {} / {}".format(name, spec),
        )
    )
    print(
        "[traced in {:.1f}s]".format(time.time() - started), file=sys.stderr
    )
    return 0


def _print_footer(runner, started):
    if runner.emit_metrics:
        from repro.experiments.reporting import format_policy_attribution

        merged = runner.summary.merged_metrics()
        if merged:
            print(
                format_policy_attribution(
                    merged, title="per-policy attribution (all simulated jobs)"
                ),
                file=sys.stderr,
            )
    print("[{}]".format(runner.summary.render()), file=sys.stderr)
    print(
        "[completed in {:.1f}s]".format(time.time() - started), file=sys.stderr
    )


if __name__ == "__main__":
    sys.exit(main())
