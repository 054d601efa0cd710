"""The service-mix workload: a seeded query plan, driven closed loop.

Queries come in rounds with a fixed composition (60% memo, 10% disk, 15%
estimate, 15% simulate), shuffled by the seed:

* **memo** -- 4 cells from a hot set of 16 SPEC cells at scale 0.25 that
  a warm-up query loaded into the server's memo before timing;
* **disk** -- 2 synth cells from a pool pre-seeded into the server's
  result cache (each used once, so it is never a memo hit);
* **estimate** -- 2 fresh synth cells with ``estimate: true``;
* **simulate** -- 2 fresh cells, synth for half the queries and SPEC for
  the other half; SPEC cells carry seeded ``rob_entries``/``max_tasks``
  overrides so they never repeat and, costing more than the inline
  threshold, mostly take the warm pool.

Two client threads of one process each send their next query only after
the previous answer arrived (a closed loop with two connections), so a
slow server receives less load.  Each query's tier is the slowest
``source`` in its answer.

The shares of the mix are an assumption, not a measurement of real use:
no journal of user queries exists yet.  The per-tier medians do not
depend on them; the all-query latency and throughput do.
"""

import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import threading
import time

ROUND_MIX = (("memo", 48), ("disk", 8), ("estimate", 12), ("simulate", 12))
ROUND_SIZE = sum(count for _, count in ROUND_MIX)
CLIENTS = 2
#: The server's ``--jobs`` and ``--window-ms``.
JOBS = 2
WINDOW_MS = 25
SPEC_SCALE = 0.25
SYNTH_SCALE = 1.0
HOT_CELLS = 16
#: Policy specs the plan draws from (the superscalar baseline included).
SPECS = (
    "postdoms",
    "loop",
    "loopFT",
    "procFT",
    "hammock",
    "other",
    "loop+procFT+loopFT",
    "superscalar",
)
POLICY_SPECS = SPECS[:-1]
#: Specs each pre-seeded disk scenario is simulated under.
DISK_SPECS = ("postdoms", "loop+procFT+loopFT", "superscalar", "loop")
ROB_ENTRIES = (128, 256, 384, 768, 1024)
MAX_TASKS = (2, 4, 6, 12)

#: Answer sources from fastest to slowest, with the tier each names.
TIER_OF_SOURCE = {
    "memo": "memo",
    "cache": "disk",
    "estimated": "estimate",
    "simulated": "simulate",
}
SOURCE_ORDER = tuple(TIER_OF_SOURCE)
TIERS = tuple(TIER_OF_SOURCE.values())


class Query:
    """One planned request: its intended tier, wire cells and scale."""

    __slots__ = ("planned", "cells", "scale", "estimate")

    def __init__(self, planned, cells, scale, estimate=False):
        self.planned = planned
        self.cells = cells
        self.scale = scale
        self.estimate = estimate


def _scenarios_per_round():
    """Catalog scenarios one round uses: its disk pool share, and one per
    estimate cell and per synth simulate cell."""
    counts = dict(ROUND_MIX)
    return counts["disk"] * 2 // len(DISK_SPECS) + counts["estimate"] * 2 + counts["simulate"]


def max_rounds():
    """The most rounds a plan can hold without repeating a fresh cell.

    Every disk, estimate and synth simulate cell takes a catalog scenario
    of its own, and each round takes one distinct (spec, ROB, task limit)
    override of every SPEC program.
    """
    from repro.workloads.synth import catalog_names

    overrides = len(SPECS) * len(ROB_ENTRIES) * len(MAX_TASKS)
    return min(len(catalog_names()) // _scenarios_per_round(), overrides)


class Plan:
    """The seeded query plan: the memo hot set and the query rounds."""

    def __init__(self, seed, rounds):
        from repro.workloads import WORKLOAD_NAMES
        from repro.workloads.synth import stratified_sample

        if rounds > max_rounds():
            raise ValueError(
                "a service-mix plan holds at most {} rounds of fresh cells, "
                "not {}".format(max_rounds(), rounds)
            )
        rng = random.Random("service-mix-{}".format(seed))
        hot = [(name, rng.choice(SPECS)) for name in WORKLOAD_NAMES]
        while len(hot) < HOT_CELLS:
            cell = (rng.choice(WORKLOAD_NAMES), rng.choice(SPECS))
            if cell not in hot:
                hot.append(cell)
        self.hot_cells = [{"workload": name, "spec": spec} for name, spec in hot]

        counts = dict(ROUND_MIX)
        disk_scenarios = rounds * counts["disk"] * 2 // len(DISK_SPECS)
        scenarios = iter(
            stratified_sample(rounds * _scenarios_per_round(), "service-{}".format(seed))
        )
        disk_names = [next(scenarios) for _ in range(disk_scenarios)]
        disk_pool = iter([(name, spec) for name in disk_names for spec in DISK_SPECS])
        # Each program's SPEC overrides, in a seeded order, each used once.
        overrides = {}

        def spec_cell(name):
            if name not in overrides:
                overrides[name] = list(itertools.product(SPECS, ROB_ENTRIES, MAX_TASKS))
                rng.shuffle(overrides[name])
            spec, rob_entries, max_tasks = overrides[name].pop()
            return {
                "workload": name,
                "spec": spec,
                "config": {"rob_entries": rob_entries, "max_tasks": max_tasks},
            }

        def synth_cell(specs=SPECS):
            return {"workload": next(scenarios), "spec": rng.choice(specs)}

        self.rounds = []
        for _ in range(rounds):
            queries = [
                Query("memo", rng.sample(self.hot_cells, 4), SPEC_SCALE)
                for _ in range(counts["memo"])
            ]
            queries += [
                Query("disk", [_cell(next(disk_pool)), _cell(next(disk_pool))], SYNTH_SCALE)
                for _ in range(counts["disk"])
            ]
            # The estimator predicts policies, not the superscalar baseline.
            queries += [
                Query("estimate", [synth_cell(POLICY_SPECS), synth_cell(POLICY_SPECS)],
                      SYNTH_SCALE, estimate=True)
                for _ in range(counts["estimate"])
            ]
            # Half the simulate queries are synth, half SPEC; the SPEC
            # half covers every program once per round, so rounds cost alike.
            programs = list(WORKLOAD_NAMES)
            rng.shuffle(programs)
            for index in range(counts["simulate"] // 2):
                queries.append(Query("simulate", [synth_cell(), synth_cell()], SYNTH_SCALE))
                pair = programs[2 * index : 2 * index + 2]
                queries.append(Query("simulate", [spec_cell(name) for name in pair], SPEC_SCALE))
            rng.shuffle(queries)
            self.rounds.append(queries)


def _cell(pair):
    return {"workload": pair[0], "spec": pair[1]}


class Server:
    """One exploration-service process started through ``child.py serve``.

    It runs in its own session, so stopping it also reaches the warm-pool
    workers it forked.
    """

    def __init__(self, python, child, env, cache_dir, log_path, jobs, window_ms,
                 trace_out=None, result_out=None):
        command = [python, child, "serve"]
        if trace_out:
            command += ["--trace-out", trace_out]
        if result_out:
            command += ["--result-out", result_out]
        command += [
            "--",
            "--port", "0",
            "--jobs", str(jobs),
            "--window-ms", str(window_ms),
            "--cache-dir", cache_dir,
        ]
        self.command = command
        self.env = env
        self.log_path = log_path
        self.process = None
        self.client = None

    def start(self):
        """Start the server; returns seconds until ``/healthz`` answered."""
        from repro.service import ServiceClient

        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command,
                stdout=subprocess.PIPE,
                stderr=log,
                env=self.env,
                start_new_session=True,
            )
        banner = self.process.stdout.readline()
        if not banner:
            self.stop()
            raise RuntimeError("service exited before serving; see {}".format(self.log_path))
        endpoint = json.loads(banner)["serving"]
        self.client = ServiceClient(endpoint["host"], endpoint["port"], timeout=60.0)
        self.client.wait_ready(timeout=60.0, interval=0.005)
        return time.perf_counter() - started

    def signal(self, signum):
        """Send ``signum`` and wait until the server has handled it."""
        os.kill(self.process.pid, signum)
        self.client.healthz()

    def peak_rss_mb(self):
        """The server's peak resident set so far (``VmHWM``)."""
        with open("/proc/{}/status".format(self.process.pid)) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def stop(self):
        """Drain the server and wait for it and every process it forked."""
        from repro.service.client import ServiceResponseError

        if self.process is None:
            return
        try:
            if self.client is not None and self.process.poll() is None:
                self.client.shutdown()
            self.process.wait(timeout=60)
        except (OSError, ServiceResponseError, subprocess.TimeoutExpired):
            # A server that cannot drain is killed with what it forked.
            self._kill_group(signal.SIGKILL)
            self.process.wait(timeout=60)
        finally:
            self.process.stdout.close()
            self._kill_group(signal.SIGKILL)
            self.process = None

    def _kill_group(self, signum):
        # Kill stragglers and wait until the whole session has exited.
        pgid = self.process.pid
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, signum)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def slowest_tier(payload):
    """The tier of an answer: its slowest cell source, or None on errors."""
    if not isinstance(payload, dict):
        return None
    sources = [result.get("source") for result in payload.get("results", ())]
    if not sources or any(source not in TIER_OF_SOURCE for source in sources):
        return None
    return TIER_OF_SOURCE[max(sources, key=SOURCE_ORDER.index)]


def drive(client, queries, clients=CLIENTS):
    """Send ``queries`` from ``clients`` closed-loop threads.

    Returns ``(wall_s, outcomes)`` with one ``(latency_s, status, payload)``
    per query, aligned with ``queries``.
    """
    outcomes = [None] * len(queries)
    cursor = iter(range(len(queries)))
    lock = threading.Lock()

    def client_loop():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            query = queries[index]
            started = time.perf_counter()
            try:
                status, _, payload = client.query_raw(
                    query.cells, query.scale, estimate=query.estimate
                )
            except (OSError, http.client.HTTPException, ValueError) as error:
                # Refused, cut off or unreadable: the query failed.
                status, payload = None, {"error": str(error)}
            outcomes[index] = (time.perf_counter() - started, status, payload)

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, outcomes


def verify(answered, seed, cells=24, estimates=24):
    """Diff seed-chosen answers against an in-process serial runner.

    ``answered`` holds ``(query, payload)`` pairs of successful answers,
    whose results align with the query's cells.  Simulated and cached
    cells are compared byte for byte as ``canonical_json(encode_stats(...))``,
    estimates against ``estimate_speedup``.  Returns ``(checked,
    mismatches)``.
    """
    from repro.analysis.estimate import estimate_speedup
    from repro.experiments.runner import ExperimentRunner
    from repro.service import canonical_json, encode_stats, wire

    exact, estimated = {}, {}
    for query, payload in answered:
        for cell, result in zip(query.cells, payload["results"]):
            key = json.dumps([cell, query.scale], sort_keys=True)
            (estimated if query.estimate else exact).setdefault(key, (query, cell, result))
    rng = random.Random("service-verify-{}".format(seed))
    chosen = rng.sample(sorted(exact), min(cells, len(exact)))
    chosen_estimates = rng.sample(sorted(estimated), min(estimates, len(estimated)))
    runners = {}
    mismatches = []
    for key in chosen:
        query, cell, result = exact[key]
        runner = runners.setdefault(query.scale, ExperimentRunner(scale=query.scale))
        config = wire.decode_config(cell.get("config"))
        truth = encode_stats(runner.run_with_config(cell["workload"], cell["spec"], config))
        if canonical_json(truth) != canonical_json(result["stats"]):
            mismatches.append(key)
    for key in chosen_estimates:
        query, cell, result = estimated[key]
        config = wire.decode_config(cell.get("config"))
        truth = wire.encode_estimate(
            estimate_speedup(cell["workload"], cell["spec"], query.scale, config)
        )
        if canonical_json(truth) != canonical_json(result["estimate"]):
            mismatches.append(key)
    return len(chosen) + len(chosen_estimates), mismatches
