#!/usr/bin/env python3
"""End-to-end benchmark of the PolyFlow reproduction.

One command measures the four paths users wait on -- a cold and a warm
regeneration of the paper's figures, a stratified synth-catalog sweep,
and a query mix against the exploration service -- checks their outputs,
and prints every end-to-end metric by name with its unit, as median,
quartiles and sample count.  Host-time metrics are calibrated to the
reference host speed in ``config.json`` (see README.md).

Usage::

    python benchmarks/e2e/run.py --seed 0               # all four workloads
    python benchmarks/e2e/run.py --seed 0 --trace       # plus a traced pass each
    python benchmarks/e2e/run.py --workload synth-sweep --seed 3 --seconds 15 --trace 0

Each pass runs in a fresh child process.  Without ``--seconds`` every
workload runs its configured number of passes; with it, passes repeat for
that long.  A JSON report goes to ``benchmarks/e2e/out/`` (or
``--report``), traces of ``--trace`` runs beside it.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: BENCHMARK.json's ``end_to_end`` metrics, or
its ``per_layer`` metrics with ``--trace 1``.  The exit status is 0 only
when every output was correct.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def render(report, bounds):
    """Human-readable metric rows of one workload report."""
    lines = [
        "{} (seed {}): {} passes, {} unstable, {}/{} failed".format(
            report["workload"],
            report["seed"],
            len(report["passes"]),
            report["unstable_passes"],
            report["failed"],
            report["attempted"],
        ),
        "  {:<22} {:>6} {:>6} {:>6} {:>12} {:>12} {:>12} {:>6}".format(
            "metric", "unit", "better", "bound", "median", "q1", "q3", "n"
        ),
    ]
    for name, entry in report["metrics"].items():
        # A tail percentile below p99 has no bound: compare.py skips it.
        better, bound = bounds.get(name, ("lower", None))
        lines.append(
            "  {:<22} {:>6} {:>6} {:>6} {:>12.6g} {:>12} {:>12} {:>6}".format(
                name,
                entry["unit"],
                better,
                "-" if bound is None else "{:g}".format(bound),
                entry["value"],
                "{:.6g}".format(entry["q1"]) if "q1" in entry else "-",
                "{:.6g}".format(entry["q3"]) if "q3" in entry else "-",
                entry["n"],
            )
        )
    for failure in report["failures"][:10]:
        lines.append("  FAILED {}".format(failure))
    if "layers" in report:
        lines.append("  layers ({}):".format(report["trace_file"]))
        for name, value in report["layers"].items():
            lines.append("    {:<48} {:.6g}".format(name, value))
    return "\n".join(lines)


def result_metrics(report, benchmark, traced):
    """The metrics of the final JSON line for one workload."""
    if traced:
        return {
            metric["name"]: {"value": report["layers"][metric["name"]], "unit": metric["unit"]}
            for metric in benchmark["per_layer"]
        }
    return {
        metric["name"]: {
            "value": report["metrics"][metric["name"]]["value"],
            "unit": metric["unit"],
        }
        for metric in benchmark["end_to_end"]
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, help="input seed (default: each workload's)")
    parser.add_argument(
        "--seconds",
        type=float,
        help="measure each workload for this long instead of its configured passes",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add one traced pass per workload and report per-layer metrics",
    )
    parser.add_argument("--report", help="write the JSON report here")
    arguments = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            "run.py: no src/repro under {}; run the benchmark from a checkout "
            "of the repository".format(ROOT),
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from compare import metric_bounds

    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "config.json"))
    bounds = metric_bounds(benchmark, config)
    names = [workload["name"] for workload in benchmark["workloads"]]
    if arguments.workload is not None:
        if arguments.workload not in names:
            parser.error("unknown workload {!r}; choose from {}".format(arguments.workload, names))
        names = [arguments.workload]
    runners = {
        "figures-cold": lambda context: workloads.run_figures(context, "figures-cold"),
        "figures-warm": lambda context: workloads.run_figures(context, "figures-warm"),
        "synth-sweep": workloads.run_synth,
        "service-mix": workloads.run_service,
    }

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    env = child_env()
    reports = {}
    try:
        for name in names:
            seed = arguments.seed
            if seed is None:
                seed = config["workloads"][name]["default_seed"]
            context = workloads.Context(
                config, seed, arguments.seconds, bool(arguments.trace), work_dir, out_dir, env
            )
            try:
                report = runners[name](context)
            except Exception:
                traceback.print_exc()
                print("run.py: workload {} did not complete".format(name), file=sys.stderr)
                return 1
            report["metrics"]["failed_fraction"] = {
                "value": report["failed"] / report["attempted"],
                "n": report["attempted"],
                "unit": "ratio",
            }
            reports[name] = report
            print(render(report, bounds), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    label = arguments.workload or "all"
    report_path = arguments.report or os.path.join(
        out_dir,
        "report-{}-seed{}-{}.json".format(
            label, arguments.seed if arguments.seed is not None else "default",
            time.strftime("%Y%m%d-%H%M%S"),
        ),
    )
    with open(report_path, "w") as handle:
        json.dump(
            {"python": sys.version.split()[0], "config": config, "workloads": reports},
            handle,
            indent=1,
            sort_keys=True,
        )
    attempted = sum(report["attempted"] for report in reports.values())
    failed = sum(report["failed"] for report in reports.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if arguments.workload is not None:
        result["metrics"] = result_metrics(reports[arguments.workload], benchmark, arguments.trace)
    else:
        result["report"] = report_path
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
