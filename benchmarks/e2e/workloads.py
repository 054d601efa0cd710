"""The four workloads of the end-to-end benchmark.

Each ``run_*`` function measures one workload and returns its report:
calibrated set-up times, one record per pass, the failures it found, the
summarized metrics and, on a traced run, the per-layer metrics of one
extra traced pass.  Why each workload exists is recorded in README.md.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import measure
import service_mix

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Longest any single child process may run before the pass fails.
CHILD_TIMEOUT = 170
#: Fresh starts timed for ``setup_s``; the metric is their median ...
SETUP_REPEATS = 15
#: ... each calibrated by a one-run reading of this many loop iterations.
SETUP_READING_ITERATIONS = 200_000
#: Passes (service rounds) measured under a time budget, however long they take.
MIN_PASSES = 2

#: ``all --scale`` of both figure workloads (the pinned digest is of this scale).
FIGURES_SCALE = 0.25
#: synth-sweep: catalog scenarios per pass, and their scale.
SYNTH_SCENARIOS = 256
SYNTH_SCALE = 1.0
#: service-mix: budget seconds planned per round (a round and the reading
#: after it take 2.2-3.3 s) ...
MIN_ROUND_SECONDS = 2.0
#: ... the round after which the server's peak RSS is read ...
RSS_ROUND = 3
#: ... and the rounds of the traced server.
TRACE_ROUNDS = 2


class ChildFailed(RuntimeError):
    """A benchmark child process exited non-zero or printed no result."""


class Context:
    """What every workload run shares: settings, paths and the clock."""

    def __init__(self, config, seed, seconds, trace, work_dir, trace_dir, env):
        self.config = config
        self.seed = seed
        #: Time budget of the measured passes (``None``: configured counts).
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.trace_dir = trace_dir
        self.env = env
        self.python = sys.executable
        self.reference = config["reference_machine_index"]
        #: Machine-index readings taken in this process, in time order.
        self.readings = []

    def read_index(self):
        """One machine-index reading in this process, kept in ``readings``."""
        self.readings.append(measure.machine_index())
        return len(self.readings) - 1

    def factor_at(self, before):
        """Factor of a span measured here, between ``readings[before]`` and
        the reading after it."""
        return measure.calibration_factor(self.readings, before, self.reference)

    def own_factor(self, result):
        """Factor of a child pass, from the readings its process took."""
        readings = [result["index_before"], result["index_after"]]
        return measure.calibration_factor(readings, 0, self.reference)

    def passes(self, workload):
        """The workload's configured passes (used without a time budget)."""
        return self.config["workloads"][workload]["passes"]

    def scratch(self, name):
        """A fresh empty directory under the run's work directory."""
        path = os.path.join(self.work_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def trace_file(self, workload):
        return os.path.join(self.trace_dir, "trace-{}-seed{}.json".format(workload, self.seed))

    def child(self, *args):
        """Run ``child.py`` and return the JSON result it printed last."""
        completed = subprocess.run(
            [self.python, CHILD] + [str(arg) for arg in args],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=CHILD_TIMEOUT,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            raise ChildFailed(
                "child.py {} exited {}: {}".format(
                    args[0], completed.returncode, completed.stderr.strip()[-2000:]
                )
            )
        return json.loads(lines[-1])

    def time_setup(self, *args):
        """Seconds from starting ``child.py setup`` to its ready line."""
        started = time.perf_counter()
        process = subprocess.Popen(
            [self.python, CHILD, "setup"] + [str(arg) for arg in args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            text=True,
        )
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        _, errors = process.communicate(timeout=CHILD_TIMEOUT)
        if process.returncode != 0 or line.strip() != '"ready"':
            raise ChildFailed("child.py setup failed: {}".format(errors.strip()[-2000:]))
        return elapsed


def measure_setup(context, start_once):
    """:data:`SETUP_REPEATS` fresh starts, each calibrated on its own.

    A start lasts a fraction of a second, less than the host's speed
    holds still, so each is calibrated by a short machine-index reading
    just before and just after it.  Returns one record per start with the
    raw seconds, both readings and the calibrated ``setup_s``.
    """
    records = []
    for _ in range(SETUP_REPEATS):
        before = measure.machine_index(SETUP_READING_ITERATIONS, 1)
        seconds = start_once()
        after = measure.machine_index(SETUP_READING_ITERATIONS, 1)
        factor = measure.calibration_factor([before, after], 0, context.reference)
        records.append(
            {"raw_s": seconds, "index_before": before, "index_after": after, "setup_s": seconds * factor}
        )
    return records


def _setup_metric(records):
    return measure.summarize([record["setup_s"] for record in records], "s")


def measure_passes(run_pass, passes, seconds, available=lambda: True):
    """Run calibrated passes: ``passes`` of them, or for ``seconds``.

    With a time budget a new pass starts only while it is expected to
    finish inside the budget, after :data:`MIN_PASSES` at the least, and
    a pass is re-run after host-speed drift only while the re-run is
    expected to finish inside it too.  Measuring stops early once
    ``available()`` is false.
    """
    records = []
    started = time.monotonic()

    def may_rerun(last):
        return seconds is None or time.monotonic() - started + last <= seconds

    while available():
        pass_started = time.monotonic()
        result, reruns = measure.calibrated_pass(run_pass, may_rerun=may_rerun)
        records.append({"result": result, "reruns": reruns})
        now = time.monotonic()
        if seconds is None:
            if len(records) >= passes:
                break
        elif len(records) >= MIN_PASSES and now - started + (now - pass_started) > seconds:
            break
    return records


def calibrate_children(context, records):
    """Set the factor of every child pass from its own readings."""
    for record in records:
        record["factor"] = context.own_factor(record["result"])


def traced_pass(context, run_pass):
    """One traced child pass: ``(result, calibrated wall_s)``."""
    result, _ = measure.calibrated_pass(run_pass)
    return result, result["wall_s"] * context.own_factor(result)


def _report(name, context, setup, records, attempted, failed, failures, metrics):
    return {
        "workload": name,
        "seed": context.seed,
        "setup": setup,
        "readings": context.readings,
        "passes": records,
        "unstable_passes": sum(record["reruns"] for record in records),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }


def _book(report, attempted, failed, failures):
    """Add an extra (traced) pass's operations to ``report``."""
    report["attempted"] += attempted
    report["failed"] += failed
    report["failures"] += failures


def _walls(records):
    return [record["result"]["wall_s"] * record["factor"] for record in records]


def _add_layers(report, context, name, result, traced_wall, untraced_wall):
    layers = dict(result["layers"])
    layers["tracing_overhead"] = traced_wall / untraced_wall - 1.0
    report["layers"] = layers
    report["fired"] = result["fired"]
    report["trace_file"] = context.trace_file(name)


# -- figures-cold / figures-warm --------------------------------------------------------

#: Units of the modelled-design results a figure pass reports.
EXACT_UNITS = {"postdoms_speedup_pct": "%", "headline_ratio": "ratio", "paper_error_pts": "points"}


def run_figures(context, name):
    """Regenerate every figure through the CLI: cold (empty cache) or warm."""
    warm = name == "figures-warm"
    pinned = context.config["figures_stdout_sha256"]
    setup_cache = context.scratch("setup-cache")
    setup = measure_setup(
        context,
        lambda: context.time_setup(
            "figures", "--scale", repr(FIGURES_SCALE), "--cache-dir", setup_cache
        ),
    )

    def figures_pass(cache_dir, trace_out=None):
        args = ["figures", "--scale", repr(FIGURES_SCALE), "--cache-dir", cache_dir, "--workload", name]
        if trace_out:
            args += ["--trace-out", trace_out]
        return context.child(*args)

    def book(results, warm_pass, label):
        """``(attempted, failed, failures)``: a wrong figure fails every cell."""
        attempted = failed = 0
        failures = []
        for result in results:
            attempted += result["cells"]
            expected = 0 if warm_pass else result["cells"]
            found = []
            if result["exit_code"] != 0:
                found.append("figures exited {}".format(result["exit_code"]))
            if result["stdout_sha256"] != pinned:
                found.append("stdout sha256 {} != pinned {}".format(result["stdout_sha256"], pinned))
            if result["simulated"] != expected:
                found.append("{} simulations, expected {}".format(result["simulated"], expected))
            if found:
                failed += result["cells"]
                failures.append("{}: {}".format(label, "; ".join(found)))
        return attempted, failed, failures

    if warm:
        cache_dir = context.scratch("warm-cache")
        # An untimed cold pass fills the cache every warm pass reads.
        fill = figures_pass(cache_dir)

        def run_pass(trace_out=None):
            return figures_pass(cache_dir, trace_out)

    else:

        def run_pass(trace_out=None):
            cache_dir = context.scratch("cold-cache")
            try:
                return figures_pass(cache_dir, trace_out)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)

    records = measure_passes(run_pass, context.passes(name), context.seconds)
    calibrate_children(context, records)
    results = [record["result"] for record in records]
    metrics = {
        "setup_s": _setup_metric(setup),
        "wall_s": measure.summarize(_walls(records), "s"),
        "peak_rss_mb": measure.summarize([result["rss_mb"] for result in results], "MB"),
    }
    report = _report(name, context, setup, records, *book(results, warm, "pass"), metrics)
    if warm:
        _book(report, *book([fill], False, "cache fill"))
    else:
        metrics["sim_ips"] = measure.summarize(_rates(records), "1/s")
        # The pinned stdout digest already holds every pass to these values.
        for metric, value in sorted(results[0]["exact"].items()):
            metrics[metric] = measure.summarize([value] * len(results), EXACT_UNITS[metric])
    if context.trace:
        result, traced_wall = traced_pass(context, lambda: run_pass(context.trace_file(name)))
        _book(report, *book([result], warm, "traced pass"))
        _add_layers(report, context, name, result, traced_wall, metrics["wall_s"]["value"])
    return report


def _rates(records):
    """Calibrated simulated instructions per host second, per pass."""
    return [
        record["result"]["instructions"] / record["result"]["wall_s"] / record["factor"]
        for record in records
    ]


# -- synth-sweep ------------------------------------------------------------------------


def run_synth(context):
    """Sweep a seeded, cost-stratified sample of the synth catalog."""
    name = "synth-sweep"
    setup = measure_setup(
        context, lambda: context.time_setup("synth", "--scale", repr(SYNTH_SCALE))
    )

    def run_pass(trace_out=None):
        args = [
            "synth",
            "--scale", repr(SYNTH_SCALE),
            "--scenarios", SYNTH_SCENARIOS,
            "--token", "bench-{}".format(context.seed),
            "--seed", context.seed,
        ]
        if trace_out:
            args += ["--trace-out", trace_out]
        return context.child(*args)

    def book(results, label):
        """``(attempted, failed, failures)``: each mismatched cell fails."""
        attempted = failed = 0
        failures = []
        for result in results:
            attempted += result["cells"]
            failed += len(result["mismatches"])
            failures += ["{}: {} re-simulated differently".format(label, cell) for cell in result["mismatches"]]
            if result["simulated"] != result["cells"]:
                failed += result["cells"]
                failures.append(
                    "{}: {} simulations for {} cells".format(label, result["simulated"], result["cells"])
                )
        return attempted, failed, failures

    records = measure_passes(run_pass, context.passes(name), context.seconds)
    calibrate_children(context, records)
    results = [record["result"] for record in records]
    metrics = {
        "setup_s": _setup_metric(setup),
        "wall_s": measure.summarize(_walls(records), "s"),
        "peak_rss_mb": measure.summarize([result["rss_mb"] for result in results], "MB"),
        "sim_ips": measure.summarize(_rates(records), "1/s"),
    }
    report = _report(name, context, setup, records, *book(results, "pass"), metrics)
    if context.trace:
        result, traced_wall = traced_pass(context, lambda: run_pass(context.trace_file(name)))
        _book(report, *book([result], "traced pass"))
        _add_layers(report, context, name, result, traced_wall, metrics["wall_s"]["value"])
    return report


# -- service-mix ------------------------------------------------------------------------


def _round_walls(records):
    """Calibrated seconds per service round; admission-window sleeps unscaled."""
    return [
        measure.calibrated(record["result"]["wall_s"], record["factor"], record["result"]["window_s"])
        for record in records
    ]


def service_rounds(passes, seconds, trace):
    """``(timed, traced)``: how many rounds of fresh cells to plan.

    A round re-run after host-speed drift needs a fresh round.  Without
    a time budget every round may be re-run as often as allowed, so the
    configured count is always met.  Under a budget the timed part
    carries spares for a few re-runs and is capped at what a plan can
    hold: a budget too long for it measures the rounds there are, not
    the whole budget.
    """
    attempts = 1 + measure.MAX_RERUNS
    traced = TRACE_ROUNDS * attempts if trace else 0
    if seconds is None:
        timed = passes * attempts
    else:
        timed = int(seconds / MIN_ROUND_SECONDS) + 1 + 3 * measure.MAX_RERUNS
    return min(timed, service_mix.max_rounds() - traced), traced


def run_service(context):
    """Drive the exploration service with the seeded query mix."""
    name = "service-mix"
    rounds, trace_rounds = service_rounds(context.passes(name), context.seconds, context.trace)
    plan = service_mix.Plan(context.seed, rounds + trace_rounds)
    timed, traced = plan.rounds[:rounds], plan.rounds[rounds:]

    def new_server(label, round_list, trace_out=None, result_out=None):
        """A server over a cache pre-seeded with its rounds' disk cells."""
        cache_dir = context.scratch(label + "-cache")
        cells_file = os.path.join(context.work_dir, label + "-disk-cells.json")
        with open(cells_file, "w") as handle:
            json.dump(
                [
                    [cell["workload"], cell["spec"]]
                    for queries in round_list
                    for query in queries
                    if query.planned == "disk"
                    for cell in query.cells
                ],
                handle,
            )
        context.child(
            "seed-cache",
            "--scale", repr(service_mix.SYNTH_SCALE),
            "--cache-dir", cache_dir,
            "--cells", cells_file,
        )
        return service_mix.Server(
            context.python,
            CHILD,
            context.env,
            cache_dir,
            os.path.join(context.work_dir, label + ".log"),
            service_mix.JOBS,
            service_mix.WINDOW_MS,
            trace_out=trace_out,
            result_out=result_out,
        )

    def warm_up(server):
        """Load the hot set into the server's memo."""
        server.client.query(plan.hot_cells, scale=service_mix.SPEC_SCALE)

    def drive_rounds(server, round_list, passes, seconds):
        """Calibrated query rounds: ``(records, rss_mb)``.

        The rounds' work runs in the server and its pool, so they are
        calibrated by the readings this process takes between rounds.
        Each round also records how long the server slept in admission
        windows (batches formed times the window), which calibration
        leaves unscaled.
        """
        pending = iter(round_list)

        def batches_formed():
            return server.client.healthz()["admission"]["batches_formed"]

        state = {
            "rounds": 0,
            "rss_mb": None,
            "reading": context.read_index(),
            "batches": batches_formed(),
        }

        def run_round():
            queries = next(pending)
            wall, outcomes = service_mix.drive(server.client, queries)
            state["rounds"] += 1
            if state["rounds"] == RSS_ROUND:
                state["rss_mb"] = server.peak_rss_mb()
            batches, state["batches"] = state["batches"], batches_formed()
            before, state["reading"] = state["reading"], context.read_index()
            return {
                "wall_s": wall,
                "window_s": (state["batches"] - batches) * service_mix.WINDOW_MS / 1000.0,
                "queries": queries,
                "outcomes": outcomes,
                "reading": before,
                "index_before": context.readings[before],
                "index_after": context.readings[state["reading"]],
            }

        # Start no round that could not finish its own re-runs.
        records = measure_passes(
            run_round,
            passes,
            seconds,
            available=lambda: len(round_list) - state["rounds"] > measure.MAX_RERUNS,
        )
        return records, state["rss_mb"]

    def book(records, label):
        """``(attempted, failed, failures, answered, latencies_ms)``.

        Every refused or failed query fails; the report keeps each
        round's tiers and raw latencies instead of the answers.
        """
        attempted = failed = 0
        failures, answered = [], []
        latencies = {tier: [] for tier in ("all",) + service_mix.TIERS}
        for record in records:
            result = record["result"]
            tiers = []
            for query, (latency, status, payload) in zip(result["queries"], result["outcomes"]):
                attempted += 1
                tier = service_mix.slowest_tier(payload) if status == 200 else None
                tiers.append(tier)
                if tier is None:
                    failed += 1
                    failures.append(
                        "{}: {} query answered {}: {}".format(
                            label, query.planned, status, json.dumps(payload)[:200]
                        )
                    )
                    continue
                # A query sleeps in at most one admission window.
                milliseconds = 1000.0 * measure.calibrated(
                    latency, record["factor"], service_mix.WINDOW_MS / 1000.0
                )
                latencies["all"].append(milliseconds)
                latencies[tier].append(milliseconds)
                answered.append((query, payload))
            result["tiers"] = tiers
            result["latencies_s"] = [latency for latency, _, _ in result["outcomes"]]
            del result["queries"], result["outcomes"]
        return attempted, failed, failures, answered, latencies

    server = new_server("service", timed)

    def restart():
        server.stop()
        return server.start()

    try:
        setup = measure_setup(context, restart)
        warm_up(server)
        records, rss_mb = drive_rounds(server, timed, context.passes(name), context.seconds)
        if rss_mb is None:
            rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    for record in records:
        record["factor"] = context.factor_at(record["result"]["reading"])

    attempted, failed, failures, answered, latencies = book(records, "round")
    checked, mismatches = service_mix.verify(answered, context.seed)
    failed += len(mismatches)
    failures += ["answer differs from the serial runner: {}".format(key) for key in mismatches]
    walls = _round_walls(records)
    metrics = {
        "setup_s": _setup_metric(setup),
        "wall_s": measure.summarize(walls, "s"),
        "peak_rss_mb": measure.summarize([rss_mb], "MB"),
        "queries_per_s": measure.summarize(
            [service_mix.ROUND_SIZE / wall for wall in walls], "1/s"
        ),
        "latency_p50_ms": measure.summarize(latencies["all"], "ms"),
    }
    tail = measure.tail_percentile(len(latencies["all"]))
    if tail is not None and tail > 50:
        metrics["latency_p{:g}_ms".format(tail)] = {
            "value": measure.percentile(latencies["all"], tail),
            "n": len(latencies["all"]),
            "unit": "ms",
        }
    for tier in service_mix.TIERS:
        if latencies[tier]:
            metrics[tier + "_p50_ms"] = measure.summarize(latencies[tier], "ms")
    report = _report(name, context, setup, records, attempted, failed, failures, metrics)
    report["verified_cells"] = checked

    if traced:
        trace_out = context.trace_file(name)
        result_out = os.path.join(context.work_dir, "service-traced.json")
        server = new_server("service-traced", traced, trace_out, result_out)
        try:
            server.start()
            warm_up(server)
            server.signal(signal.SIGUSR1)
            traced_records, _ = drive_rounds(server, traced, TRACE_ROUNDS, None)
            server.signal(signal.SIGUSR2)
        finally:
            server.stop()
        for record in traced_records:
            record["factor"] = context.factor_at(record["result"]["reading"])
        with open(result_out) as handle:
            traced_result = json.load(handle)
        attempted, failed, failures, _, _ = book(traced_records, "traced round")
        _book(report, attempted, failed, failures)
        traced_wall = measure.quartiles(_round_walls(traced_records))[1]
        _add_layers(report, context, name, traced_result, traced_wall, metrics["wall_s"]["value"])
    return report
