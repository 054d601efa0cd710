#!/usr/bin/env python
"""Timing-kernel throughput benchmark and regression gate.

Measures committed-instructions/sec of the PolyFlow cycle-level kernel
on the gzip/mcf/vortex trio — serially on the default engine (the
``serial`` channel: the event-calendar kernel every plain run takes),
end-to-end under a ``--jobs 4`` grid-scheduler fan-out, and on the
fully warm result-cache replay path — and emits the results as
``BENCH_polyflow.json``.  The
checked-in copy of that file at the repository root is the performance
baseline: CI re-runs this harness with ``--check BENCH_polyflow.json``
and fails when throughput regresses more than the gate tolerance
(default 15%).

The gates run under ``--check``:

* the **schema gate** — the reference report must carry every channel
  the current schema produces; a baseline regenerated under an older
  schema fails with a message naming the missing channel rather than a
  ``KeyError`` deep inside a comparison;
* the **throughput gate** — normalized serial/jobs4/cache-hit/
  gridbatch throughput must not trail the reference by more than
  ``--tolerance``;
* the **grid-batch gate** — ``gridbatch.run_batch`` must produce
  byte-identical stats to the per-cell path on a 50-cell synth grid,
  and its cells/sec must stay within ``DEFAULT_GRIDBATCH_FLOOR`` of
  per-cell dispatch.  The floor is honest, not the ISSUE's
  aspirational 2x: ~80% of in-process per-cell wall time is the
  simulation kernel itself (``event_kernel_steps``), and the synth
  catalog's traces are so short (~1k instructions) that the warm-up
  replay batching amortizes is itself only ~0.1ms/cell — the batch
  measures parity (0.83-0.97x, machine noise) on this grid.  The
  batch wins land elsewhere: warm-state sharing on long traces (the
  gzip/mcf/vortex grid measures ~1.05x in-process, and mcf's ~14ms
  replay is paid once per spec column instead of once per cell) and
  the scheduler's chunk path, where one batch call replaces a
  pickle round-trip per cell.  The gate's teeth are byte-identity
  plus a no-pessimization floor (see EXPERIMENTS.md);
* the **estimator gate** — the analytic estimator's mean
  absolute speedup error over a fixed stratified sample must stay
  under ``DEFAULT_ESTIMATOR_MAE_CEILING`` points, the estimate-first
  triage must stay within its simulation budget, and every stratum
  verdict it *certifies* must agree with the full exact sweep's
  verdict (the certificate guarantee, checked empirically here);
* the **parallel-efficiency gate** — on a multi-core machine the
  ``--jobs 4`` wall clock must beat the serial wall clock by at least
  ``--efficiency-floor`` (default 1.2×).  On a single-core machine the
  scheduler short-circuits the pool (parallelism cannot help), so the
  gate instead bounds the scheduler's overhead: jobs4 may not run more
  than 25% slower than serial.

Cross-machine comparability: every run also measures a fixed
pure-Python calibration loop (``machine_index``).  The ``--check`` gate
compares *normalized* throughput (ips / machine_index), so a slower CI
runner does not read as a kernel regression.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py --output BENCH_polyflow.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --baseline old.json \
        --output BENCH_polyflow.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --check BENCH_polyflow.json
"""

import argparse
import json
import os
import sys
import tempfile
import time

#: Schema version of the emitted JSON.  v2: jobs4 grew ``cpus``/``mode``,
#: and reports carry ``cache_hit`` and ``efficiency`` sections.  v3:
#: ``serial`` is measured with the block engine explicitly off (the PR3
#: fast path) and reports carry a ``blocks`` section — the same trio
#: with the block engine on, plus per-workload speedups over serial.
#: v4: reports carry an ``event_kernel`` section — the trio on the
#: event-calendar kernel (block engine + calendar time skip), with
#: per-workload and aggregate speedups over serial; the ``serial`` and
#: ``blocks`` channels pin ``event_kernel=False`` so they keep
#: measuring the cycle-exact engines whatever the process default is.
#: v5: reports carry a ``gridbatch`` section (grid-batch runner
#: cells/sec vs per-cell dispatch on a stratified synth grid, with a
#: stats byte-identity check) and an ``estimator`` section (analytic
#: estimator error plus estimate-first triage budget/certificate
#: telemetry); the blocks/event-kernel gates moved from one generic
#: floor to honest per-workload floors.
#: v6: reports carry a ``fabric`` section — a stratified synth sweep
#: shipped to subprocess fabric workers with a shared artifact store,
#: measured against the same sweep run serially, with a stats
#: byte-identity check.  The speedup floor applies in multi-core mode
#: only (two worker processes timesharing one core cannot beat serial);
#: identity is gated in every mode.
#: v7: the core has one fast engine (the event kernel) and no engine
#: switches, so ``serial`` measures that engine's absolute throughput
#: and the ``blocks``/``event_kernel`` channels, which compared engine
#: variants against each other, are gone with their speedup floors.
#: v8: the ``fabric`` section is gone with the subprocess transport it
#: measured (``--jobs N`` is the one way to run chunks in parallel).
SCHEMA = 8

#: The benchmark trio (chosen in the ISSUE: one branchy compressor, one
#: pointer-chasing workload with violation squashes, one call-heavy OO
#: workload).
WORKLOADS = ("gzip", "mcf", "vortex")

#: Policy under which throughput is measured.
POLICY = "control-equivalent"

DEFAULT_SCALE = 0.5
DEFAULT_REPEATS = 5
DEFAULT_JOBS = 4
DEFAULT_TOLERANCE = 0.15
#: jobs4 must beat serial wall-clock by this factor on multi-core
#: machines (env BENCH_EFFICIENCY_FLOOR overrides).
DEFAULT_EFFICIENCY_FLOOR = 1.2
#: On a single core the pool is short-circuited; jobs4 overhead over
#: the serial kernel must stay within this factor.
SINGLE_CORE_EFFICIENCY_FLOOR = 0.8

#: Grid-batch channel: the measured grid is the shape real sweeps
#: produce — each sampled scenario crossed with the sweep's spec
#: column (champion, challenger, superscalar baseline), so warm-cache
#: sharing across same-trace cells is exercised exactly as the
#: scheduler exercises it.  17 scenarios x 3 specs = 51 cells.
GRIDBATCH_NAMES = 17
GRIDBATCH_SPECS = ("postdoms", "loop+procFT+loopFT", "superscalar")
GRIDBATCH_TOKEN = "bench-gridbatch-v1"
#: Floor for run_batch cells/sec over per-cell dispatch.  Honest, not
#: the ISSUE's 2x: profiling shows ~80% of per-cell wall time is the
#: simulation kernel itself (``event_kernel_steps``), and the synth
#: catalog's ~1k-instruction traces leave only ~0.1ms/cell of warm-up
#: for batching to amortize, so the batch measures parity on this grid
#: (0.83-0.97x across runs, machine noise).  This floor is a
#: no-pessimization gate; the byte-identity check above it is the
#: channel's real claim.  Env ``BENCH_GRIDBATCH_FLOOR`` overrides.
DEFAULT_GRIDBATCH_FLOOR = 0.75

#: Estimator channel: sampled cells, rotation token, and the error
#: ceiling.  The 96-cell stratified sample measures ~25 points of mean
#: absolute speedup error (the full catalog measures 27.9/23.1 points
#: for postdoms/loop-combo); the ceiling leaves headroom for sample
#: rotation, not for model regressions.  Env
#: ``BENCH_ESTIMATOR_MAE_CEILING`` overrides.
ESTIMATOR_CELLS = 96
ESTIMATOR_TOKEN = "bench-estimator-v1"
DEFAULT_ESTIMATOR_MAE_CEILING = 35.0

#: Iterations of the calibration loop.
_CALIBRATION_N = 2_000_000


def machine_index(repeats=3):
    """Operations/sec of a fixed pure-Python loop (best of ``repeats``).

    Used to normalize committed-instructions/sec across machines of
    different single-core speed before applying the regression gate.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(_CALIBRATION_N):
            total += i * i
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return _CALIBRATION_N / best


def measure_serial(scale, repeats):
    """The ``serial`` channel: best-of-``repeats`` kernel throughput per
    workload, in-process, on the default engine.

    Workload preparation (functional execution + static analyses) and
    core construction are outside the timed region: the benchmark
    isolates the cycle-level timing kernel.
    """
    from repro.experiments.runner import build_core
    from repro.polyflow import PAPER_CONFIG
    from repro.workloads import prepare_workload

    results = {}
    for name in WORKLOADS:
        prepared = prepare_workload(name, scale)
        instructions = len(prepared.trace)
        best = float("inf")
        for _ in range(repeats):
            core = build_core(name, POLICY, scale, PAPER_CONFIG)
            started = time.perf_counter()
            stats = core.run()
            elapsed = time.perf_counter() - started
            if stats.retired_instructions != instructions:
                raise AssertionError(
                    "retired {} != trace length {}".format(
                        stats.retired_instructions, instructions
                    )
                )
            best = min(best, elapsed)
        results[name] = {
            "instructions": instructions,
            "seconds": best,
            "ips": instructions / best,
        }
    total_instructions = sum(entry["instructions"] for entry in results.values())
    total_seconds = sum(entry["seconds"] for entry in results.values())
    return {
        "per_workload": results,
        "instructions": total_instructions,
        "seconds": total_seconds,
        "aggregate_ips": total_instructions / total_seconds,
    }


def measure_jobs(scale, jobs, repeats):
    """Best-of-``repeats`` end-to-end wall throughput under a fan-out.

    Each repeat builds a fresh :class:`ParallelExperimentRunner` (no
    disk cache) and prefetches the trio through the grid scheduler, so
    the measurement includes chunk planning and result transport.  The
    worker pool is the module-level warm pool: the first repeat pays
    any spin-up, later repeats reuse warm workers — the steady state a
    figure-generation run experiences.  On a single-core machine the
    scheduler short-circuits the pool and runs inline; the reported
    ``mode`` records which path was measured.
    """
    from repro.experiments import scheduler
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.workloads import prepare_workload

    total_instructions = sum(
        len(prepare_workload(name, scale).trace) for name in WORKLOADS
    )
    best = float("inf")
    mode = "inline"
    for _ in range(repeats):
        runner = ParallelExperimentRunner(
            scale=scale, workload_names=WORKLOADS, jobs=jobs
        )
        started = time.perf_counter()
        simulated = runner.prefetch([(name, POLICY) for name in WORKLOADS])
        elapsed = time.perf_counter() - started
        if simulated != len(WORKLOADS):
            raise AssertionError(
                "expected {} simulations, ran {}".format(len(WORKLOADS), simulated)
            )
        if runner.summary.chunks_shipped:
            mode = "pool"
        best = min(best, elapsed)
    return {
        "jobs": jobs,
        "cpus": scheduler.usable_cpus(),
        "mode": mode,
        "instructions": total_instructions,
        "wall_seconds": best,
        "ips": total_instructions / best,
    }


def measure_cache_hits(scale, repeats):
    """Best-of-``repeats`` wall time of a fully warm result-cache replay.

    Seeds a disk cache with the trio once, then measures fresh runners
    replaying the same grid entirely from cache (0 simulations).  This
    is the path every repeated figure-generation and CI smoke run
    takes; gating it keeps cache-load regressions from hiding behind a
    fast cold kernel.
    """
    from repro.experiments.parallel import ParallelExperimentRunner

    grid = [(name, POLICY) for name in WORKLOADS]
    with tempfile.TemporaryDirectory(prefix="polyflow-bench-cache-") as cache_dir:
        seed = ParallelExperimentRunner(
            scale=scale, workload_names=WORKLOADS, jobs=1, cache_dir=cache_dir
        )
        if seed.prefetch(grid) != len(WORKLOADS):
            raise AssertionError("cache seeding expected a cold run")
        best = float("inf")
        for _ in range(repeats):
            runner = ParallelExperimentRunner(
                scale=scale, workload_names=WORKLOADS, jobs=1, cache_dir=cache_dir
            )
            started = time.perf_counter()
            simulated = runner.prefetch(grid)
            elapsed = time.perf_counter() - started
            if simulated != 0:
                raise AssertionError(
                    "warm cache replay ran {} simulations".format(simulated)
                )
            if runner.summary.cache_hits != len(WORKLOADS):
                raise AssertionError(
                    "expected {} cache hits, saw {}".format(
                        len(WORKLOADS), runner.summary.cache_hits
                    )
                )
            best = min(best, elapsed)
    return {
        "entries": len(WORKLOADS),
        "wall_seconds": best,
        "loads_per_second": len(WORKLOADS) / best,
    }


def measure_gridbatch(scale, repeats=3, names=GRIDBATCH_NAMES):
    """The ``gridbatch`` channel: grid batch vs per-cell dispatch.

    Runs the same stratified synth grid (scenarios crossed with the
    sweep's spec column) through a per-cell ``runner.simulate_job``
    loop (its own build and warm-cache replay per cell) and through
    ``gridbatch.run_batch``, best-of-``repeats`` each, and verifies
    the two paths' stats are identical cell for cell.  One untimed
    per-cell pass warms traces, analyses, and block tables first, so
    the timed region compares steady-state dispatch — the state a
    figure-generation sweep runs in.
    """
    from repro.experiments.runner import simulate_job
    from repro.polyflow import PAPER_CONFIG
    from repro.sim import gridbatch
    from repro.spawn import canonical_spec
    from repro.workloads.synth import stratified_sample

    jobs = [
        (name, canonical_spec(spec), PAPER_CONFIG, None)
        for name in stratified_sample(names, GRIDBATCH_TOKEN)
        for spec in GRIDBATCH_SPECS
    ]

    def run_percell():
        return [
            simulate_job(name, spec, scale, config, distance)
            for name, spec, config, distance in jobs
        ]

    def run_batched():
        return [outcome[0] for outcome in gridbatch.run_batch(jobs, scale)]

    run_percell()  # untimed warm-up
    per_seconds = batch_seconds = float("inf")
    per_stats = batch_stats = None
    for _ in range(repeats):
        started = time.perf_counter()
        per_stats = run_percell()
        per_seconds = min(per_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        batch_stats = run_batched()
        batch_seconds = min(batch_seconds, time.perf_counter() - started)
    identical = all(
        a.as_dict() == b.as_dict() for a, b in zip(per_stats, batch_stats)
    )
    return {
        "cells": len(jobs),
        "policy": POLICY,
        "token": GRIDBATCH_TOKEN,
        "per_cell": {
            "seconds": per_seconds,
            "cells_per_second": len(jobs) / per_seconds,
        },
        "batch": {
            "seconds": batch_seconds,
            "cells_per_second": len(jobs) / batch_seconds,
        },
        "speedup": per_seconds / batch_seconds,
        "stats_identical": identical,
    }


def measure_estimator(scale, cells=ESTIMATOR_CELLS):
    """The ``estimator`` channel: analytic error + triage telemetry.

    Sweeps a fixed stratified synth sample exactly, then scores the
    analytic estimator against it — per-spec mean absolute speedup
    error and champion-vs-challenger delta error — and runs the
    estimate-first triage over the same sample (its simulations replay
    from the runner's memo, so the triage itself costs nothing extra).
    Every stratum verdict the triage *certifies* is compared against
    the full exact sweep's verdict; any disagreement is a certificate
    bug and fails the gate.
    """
    from repro.analysis.estimate import estimate_row, mean_absolute_error
    from repro.experiments import synth_sweep
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.workloads.synth import stratified_sample, stratum_key

    names = stratified_sample(cells, ESTIMATOR_TOKEN)
    specs = synth_sweep.DEFAULT_SPECS
    runner = ParallelExperimentRunner(scale=scale, jobs=1)
    exact_rows = {
        row.name: row for row in synth_sweep.sweep(runner, names, specs)
    }

    mae = {}
    delta_pairs = []
    predictions = {}
    for name in names:
        predictions[name] = {
            spec: estimate.predicted_speedup
            for spec, estimate in estimate_row(
                name, specs, scale, runner.config
            ).items()
        }
    for spec in specs:
        mae[spec] = mean_absolute_error(
            (predictions[name][spec], exact_rows[name].speedups[spec])
            for name in names
        )
    for name in names:
        predicted_delta = predictions[name][specs[0]] - max(
            predictions[name][spec] for spec in specs[1:]
        )
        delta_pairs.append((predicted_delta, exact_rows[name].delta(specs)))

    report = synth_sweep.estimate_first_sweep(runner, names, specs)
    full_counts = {}
    for row in exact_rows.values():
        counts = full_counts.setdefault(
            stratum_key(row.name),
            {outcome: 0 for outcome in synth_sweep.OUTCOMES},
        )
        counts[row.outcome(specs)] += 1
    confirmed = [
        verdict
        for verdict in report.strata.values()
        if verdict.status == synth_sweep.CONFIRMED
    ]
    agreements = sum(
        1
        for verdict in confirmed
        if synth_sweep._dominant(full_counts[verdict.key]) == verdict.verdict
    )
    return {
        "cells": len(names),
        "specs": list(specs),
        "token": ESTIMATOR_TOKEN,
        "mae": mae,
        "mean_mae": sum(mae.values()) / len(mae),
        "delta_mae": mean_absolute_error(delta_pairs),
        "triage": {
            "simulated_cells": report.simulated_cells,
            "estimated_cells": report.estimated_cells,
            "budget_cells": report.budget_cells,
            "simulated_fraction": report.simulated_cells / len(names),
            "strata": len(report.strata),
            "confirmed_strata": len(confirmed),
            "confirmed_agreement": (
                agreements / len(confirmed) if confirmed else 1.0
            ),
        },
    }


def run_benchmark(
    scale, repeats, jobs, jobs_repeats=3, skip_jobs=False, skip_cache=False
):
    """One full measurement: calibration, serial trio, grid-batch and
    estimator channels, jobs fan-out, warm-cache replay, and the derived
    parallel-efficiency ratio."""
    report = {
        "schema": SCHEMA,
        "workloads": list(WORKLOADS),
        "policy": POLICY,
        "scale": scale,
        "repeats": repeats,
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "machine_index": machine_index(),
        "serial": measure_serial(scale, repeats),
    }
    report["gridbatch"] = measure_gridbatch(scale)
    report["estimator"] = measure_estimator(scale)
    if not skip_jobs:
        report["jobs4"] = measure_jobs(scale, jobs, jobs_repeats)
        report["efficiency"] = {
            "ratio": report["serial"]["seconds"]
            / report["jobs4"]["wall_seconds"],
            "mode": report["jobs4"]["mode"],
            "cpus": report["jobs4"]["cpus"],
        }
    if not skip_cache:
        report["cache_hit"] = measure_cache_hits(scale, jobs_repeats)
    return report


def speedup_vs_baseline(report, baseline):
    """Normalized serial/jobs4 speedups of ``report`` over ``baseline``."""
    speedups = {}
    ratio = report["machine_index"] / baseline["machine_index"]
    speedups["serial"] = (
        report["serial"]["aggregate_ips"]
        / baseline["serial"]["aggregate_ips"]
        / ratio
    )
    if "jobs4" in report and "jobs4" in baseline:
        speedups["jobs4"] = (
            report["jobs4"]["ips"] / baseline["jobs4"]["ips"] / ratio
        )
    if "cache_hit" in report and "cache_hit" in baseline:
        speedups["cache_hit"] = (
            report["cache_hit"]["loads_per_second"]
            / baseline["cache_hit"]["loads_per_second"]
            / ratio
        )
    if "gridbatch" in report and "gridbatch" in baseline:
        speedups["gridbatch"] = (
            report["gridbatch"]["batch"]["cells_per_second"]
            / baseline["gridbatch"]["batch"]["cells_per_second"]
            / ratio
        )
    return speedups


def check_schema(report, reference, reference_path):
    """Baseline-freshness gate.  Returns failure strings (empty = pass).

    A baseline emitted by an older harness is missing whole channels;
    comparing against it would either KeyError or silently skip gates.
    Name each missing channel and how to fix it instead.
    """
    failures = []
    reference_schema = reference.get("schema", 0)
    for channel in ("serial", "gridbatch", "estimator"):
        if channel in report and channel not in reference:
            failures.append(
                "baseline {} (schema {}) predates schema {}: it has no "
                "'{}' channel — regenerate it with "
                "'bench_kernel.py --output {}'".format(
                    reference_path,
                    reference_schema,
                    report["schema"],
                    channel,
                    reference_path,
                )
            )
    return failures


def check_regression(report, reference, tolerance):
    """Gate: normalized throughput must not trail ``reference`` by more
    than ``tolerance``.  Returns a list of failure strings (empty = pass).
    """
    failures = []
    ratio = report["machine_index"] / reference["machine_index"]
    checks = [
        (
            "serial",
            report["serial"]["aggregate_ips"],
            reference["serial"]["aggregate_ips"],
        )
    ]
    if "jobs4" in report and "jobs4" in reference:
        checks.append(("jobs4", report["jobs4"]["ips"], reference["jobs4"]["ips"]))
    if "cache_hit" in report and "cache_hit" in reference:
        checks.append(
            (
                "cache_hit",
                report["cache_hit"]["loads_per_second"],
                reference["cache_hit"]["loads_per_second"],
            )
        )
    if "gridbatch" in report and "gridbatch" in reference:
        checks.append(
            (
                "gridbatch",
                report["gridbatch"]["batch"]["cells_per_second"],
                reference["gridbatch"]["batch"]["cells_per_second"],
            )
        )
    for label, measured, expected in checks:
        normalized = measured / ratio
        floor = expected * (1.0 - tolerance)
        if normalized < floor:
            failures.append(
                "{}: normalized {:.0f} ips < floor {:.0f} ips "
                "(reference {:.0f}, tolerance {:.0%}, machine ratio {:.2f})".format(
                    label, normalized, floor, expected, tolerance, ratio
                )
            )
    return failures


def check_efficiency(
    report,
    floor=DEFAULT_EFFICIENCY_FLOOR,
    single_core_floor=SINGLE_CORE_EFFICIENCY_FLOOR,
):
    """Parallel-efficiency gate.  Returns failure strings (empty = pass).

    ``efficiency.ratio`` is serial wall / jobs4 wall.  In ``pool`` mode
    (≥2 usable CPUs) the fan-out must beat serial by ``floor``; in
    ``inline`` mode (single core — the pool is short-circuited because
    parallelism cannot help) the scheduler's bookkeeping overhead is
    bounded by ``single_core_floor`` instead.
    """
    efficiency = report.get("efficiency")
    if efficiency is None:
        return []
    ratio = efficiency["ratio"]
    if efficiency["mode"] == "pool":
        if ratio < floor:
            return [
                "parallel efficiency: jobs4 is only {:.2f}x serial wall-clock "
                "on {} CPUs (floor {:.2f}x)".format(
                    ratio, efficiency["cpus"], floor
                )
            ]
    elif ratio < single_core_floor:
        return [
            "parallel efficiency: inline short-circuit ran {:.2f}x serial "
            "on a single core (overhead floor {:.2f}x)".format(
                ratio, single_core_floor
            )
        ]
    return []


def check_gridbatch(report, floor=None):
    """Grid-batch gate: byte-identical stats and a cells/sec floor."""
    measured = report.get("gridbatch")
    if measured is None:
        return []
    if floor is None:
        floor = DEFAULT_GRIDBATCH_FLOOR
    failures = []
    if not measured.get("stats_identical", False):
        failures.append(
            "gridbatch: grid-batch stats diverged from the per-cell "
            "path (byte-identity is the runner's core invariant)"
        )
    if measured["speedup"] < floor:
        failures.append(
            "gridbatch: batch ran {:.2f}x per-cell dispatch on {} cells "
            "(floor {:.2f}x)".format(
                measured["speedup"], measured["cells"], floor
            )
        )
    return failures


def check_estimator(report, mae_ceiling=None):
    """Estimator gate: error ceiling, triage budget, certificates."""
    measured = report.get("estimator")
    if measured is None:
        return []
    if mae_ceiling is None:
        mae_ceiling = DEFAULT_ESTIMATOR_MAE_CEILING
    failures = []
    if measured["mean_mae"] > mae_ceiling:
        failures.append(
            "estimator: mean absolute speedup error {:.1f} points > "
            "ceiling {:.1f} over {} cells".format(
                measured["mean_mae"], mae_ceiling, measured["cells"]
            )
        )
    triage = measured.get("triage", {})
    if triage.get("simulated_cells", 0) > triage.get("budget_cells", 0):
        failures.append(
            "estimator: triage simulated {} cells over its budget of "
            "{}".format(triage["simulated_cells"], triage["budget_cells"])
        )
    if triage.get("confirmed_agreement", 1.0) < 1.0:
        failures.append(
            "estimator: a certified stratum verdict disagreed with the "
            "full exact sweep ({}% agreement) — the certificate "
            "guarantee is broken".format(
                round(100 * triage["confirmed_agreement"])
            )
        )
    return failures


def render(report):
    lines = [
        "kernel throughput (scale {}, policy {}):".format(
            report["scale"], report["policy"]
        )
    ]
    for name, entry in report["serial"]["per_workload"].items():
        lines.append(
            "  {:>8}  {:>8} instr  {:>7.3f}s  {:>9.0f} ips".format(
                name, entry["instructions"], entry["seconds"], entry["ips"]
            )
        )
    lines.append(
        "  {:>8}  {:>8} instr  {:>7.3f}s  {:>9.0f} ips".format(
            "serial",
            report["serial"]["instructions"],
            report["serial"]["seconds"],
            report["serial"]["aggregate_ips"],
        )
    )
    if "jobs4" in report:
        jobs = report["jobs4"]
        lines.append(
            "  {:>8}  {:>8} instr  {:>7.3f}s  {:>9.0f} ips "
            "(end-to-end, --jobs {}, {} mode on {} CPUs)".format(
                "jobs4",
                jobs["instructions"],
                jobs["wall_seconds"],
                jobs["ips"],
                jobs["jobs"],
                jobs.get("mode", "pool"),
                jobs.get("cpus", "?"),
            )
        )
    if "efficiency" in report:
        lines.append(
            "  parallel efficiency: {:.2f}x serial wall-clock ({} mode)".format(
                report["efficiency"]["ratio"], report["efficiency"]["mode"]
            )
        )
    if "cache_hit" in report:
        cache = report["cache_hit"]
        lines.append(
            "  cache-hit replay: {} entries in {:.4f}s ({:.0f} loads/s)".format(
                cache["entries"], cache["wall_seconds"], cache["loads_per_second"]
            )
        )
    if "gridbatch" in report:
        grid = report["gridbatch"]
        lines.append(
            "  grid-batch: {} cells, {:.1f} cells/s batched vs {:.1f} "
            "per-cell ({:.2f}x, stats {})".format(
                grid["cells"],
                grid["batch"]["cells_per_second"],
                grid["per_cell"]["cells_per_second"],
                grid["speedup"],
                "identical" if grid["stats_identical"] else "DIVERGED",
            )
        )
    if "estimator" in report:
        est = report["estimator"]
        triage = est["triage"]
        lines.append(
            "  estimator: {:.1f} points mean |error| over {} cells "
            "(delta error {:.1f}); triage simulated {}/{} cells "
            "(budget {}), certified {}/{} strata at {:.0%} agreement".format(
                est["mean_mae"],
                est["cells"],
                est["delta_mae"],
                triage["simulated_cells"],
                est["cells"],
                triage["budget_cells"],
                triage["confirmed_strata"],
                triage["strata"],
                triage["confirmed_agreement"],
            )
        )
    if "speedup_vs_baseline" in report:
        lines.append(
            "  vs baseline: "
            + ", ".join(
                "{} {:.2f}x".format(label, value)
                for label, value in report["speedup_vs_baseline"].items()
            )
        )
    lines.append("  machine index: {:.0f}".format(report["machine_index"]))
    return "\n".join(lines)


def render_markdown_summary(report):
    """Machine-index-normalized throughput as a Markdown table.

    Written to ``--summary-md`` (CI points it at ``$GITHUB_STEP_SUMMARY``)
    so every benchmark run surfaces serial and jobs4 throughput plus the
    efficiency ratio without downloading the artifact.
    """
    index = report["machine_index"]
    lines = [
        "### PolyFlow kernel benchmark (scale {}, policy {})".format(
            report["scale"], report["policy"]
        ),
        "",
        "| metric | raw | normalized (ips / machine index) |",
        "|---|---:|---:|",
        "| serial throughput (event kernel) | {:.0f} ips | {:.6f} |".format(
            report["serial"]["aggregate_ips"],
            report["serial"]["aggregate_ips"] / index,
        ),
    ]
    if "jobs4" in report:
        jobs = report["jobs4"]
        lines.append(
            "| `--jobs {}` throughput ({} mode, {} CPUs) | {:.0f} ips | {:.6f} |".format(
                jobs["jobs"], jobs["mode"], jobs["cpus"], jobs["ips"], jobs["ips"] / index
            )
        )
    if "efficiency" in report:
        lines.append(
            "| parallel efficiency (serial wall / jobs4 wall) | {:.2f}x | — |".format(
                report["efficiency"]["ratio"]
            )
        )
    if "cache_hit" in report:
        cache = report["cache_hit"]
        lines.append(
            "| warm cache replay | {:.0f} loads/s | {:.6f} |".format(
                cache["loads_per_second"], cache["loads_per_second"] / index
            )
        )
    if "gridbatch" in report:
        grid = report["gridbatch"]
        lines.append(
            "| grid-batch ({:.2f}x per-cell, {} cells) "
            "| {:.1f} cells/s | {:.6f} |".format(
                grid["speedup"],
                grid["cells"],
                grid["batch"]["cells_per_second"],
                grid["batch"]["cells_per_second"] / index,
            )
        )
    if "estimator" in report:
        est = report["estimator"]
        lines.append(
            "| estimator error ({} cells) | {:.1f} points | — |".format(
                est["cells"], est["mean_mae"]
            )
        )
        lines.append(
            "| estimate-first triage | {}/{} cells simulated, "
            "{}/{} strata certified | — |".format(
                est["triage"]["simulated_cells"],
                est["cells"],
                est["triage"]["confirmed_strata"],
                est["triage"]["strata"],
            )
        )
    lines.append(
        "| machine index | {:.0f} ops/s | 1 |".format(index)
    )
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument(
        "--skip-jobs", action="store_true", help="skip the --jobs fan-out measurement"
    )
    parser.add_argument(
        "--skip-cache",
        action="store_true",
        help="skip the warm cache-hit replay measurement",
    )
    parser.add_argument("--output", help="write the report JSON here")
    parser.add_argument(
        "--summary-md",
        help="append a Markdown summary table here (CI: $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--efficiency-output",
        help="write the parallel-efficiency section as JSON here "
        "(uploaded as a CI artifact next to the full report)",
    )
    parser.add_argument(
        "--baseline",
        help="a previous report; its numbers are embedded under 'baseline' "
        "and normalized speedups are computed",
    )
    parser.add_argument(
        "--check",
        help="a reference report (the checked-in BENCH_polyflow.json); "
        "exit non-zero when normalized throughput regresses beyond "
        "the tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_GATE_TOLERANCE", DEFAULT_TOLERANCE)),
        help="allowed fractional regression for --check (default 0.15; "
        "env BENCH_GATE_TOLERANCE overrides)",
    )
    parser.add_argument(
        "--efficiency-floor",
        type=float,
        default=float(
            os.environ.get("BENCH_EFFICIENCY_FLOOR", DEFAULT_EFFICIENCY_FLOOR)
        ),
        help="jobs4 must beat serial wall-clock by this factor on "
        "multi-core machines (default 1.2; env BENCH_EFFICIENCY_FLOOR "
        "overrides)",
    )
    parser.add_argument(
        "--gridbatch-floor",
        type=float,
        default=float(
            os.environ.get("BENCH_GRIDBATCH_FLOOR", DEFAULT_GRIDBATCH_FLOOR)
        ),
        help="minimum run_batch/per-cell cells/sec speedup for --check "
        "(default {}; env BENCH_GRIDBATCH_FLOOR overrides)".format(
            DEFAULT_GRIDBATCH_FLOOR
        ),
    )
    parser.add_argument(
        "--estimator-mae-ceiling",
        type=float,
        default=float(
            os.environ.get(
                "BENCH_ESTIMATOR_MAE_CEILING", DEFAULT_ESTIMATOR_MAE_CEILING
            )
        ),
        help="maximum mean absolute estimator speedup error for --check "
        "(default {}; env BENCH_ESTIMATOR_MAE_CEILING overrides)".format(
            DEFAULT_ESTIMATOR_MAE_CEILING
        ),
    )
    arguments = parser.parse_args(argv)

    report = run_benchmark(
        arguments.scale,
        arguments.repeats,
        arguments.jobs,
        skip_jobs=arguments.skip_jobs,
        skip_cache=arguments.skip_cache,
    )

    if arguments.baseline:
        with open(arguments.baseline) as handle:
            baseline = json.load(handle)
        report["baseline"] = baseline
        report["speedup_vs_baseline"] = speedup_vs_baseline(report, baseline)

    print(render(report))

    if arguments.output:
        with open(arguments.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(arguments.output))

    if arguments.summary_md:
        with open(arguments.summary_md, "a") as handle:
            handle.write(render_markdown_summary(report))
        print("appended summary to {}".format(arguments.summary_md))

    if arguments.efficiency_output and "efficiency" in report:
        with open(arguments.efficiency_output, "w") as handle:
            json.dump(report["efficiency"], handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(arguments.efficiency_output))

    if arguments.check:
        with open(arguments.check) as handle:
            reference = json.load(handle)
        failures = check_schema(report, reference, arguments.check)
        if not failures:
            failures = check_regression(report, reference, arguments.tolerance)
            failures.extend(check_efficiency(report, arguments.efficiency_floor))
            failures.extend(check_gridbatch(report, arguments.gridbatch_floor))
            failures.extend(
                check_estimator(report, arguments.estimator_mae_ceiling)
            )
        if failures:
            for failure in failures:
                print("REGRESSION {}".format(failure), file=sys.stderr)
            return 1
        print(
            "gates passed (tolerance {:.0%}, efficiency floor {:.2f}x, "
            "gridbatch floor {:.2f}x, estimator ceiling {:.1f} vs {})".format(
                arguments.tolerance,
                arguments.efficiency_floor,
                arguments.gridbatch_floor,
                arguments.estimator_mae_ceiling,
                arguments.check,
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
