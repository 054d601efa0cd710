"""Tier A of the grid execution stack: analytic speedup estimation.

A closed-form IPC/speedup predictor per (workload, spec, config) tuple,
computed entirely from artifacts the analysis pipeline already caches —
the :class:`~repro.sim.trace.Trace` flat columns, the spawn
profiles, and branch-predictability statistics replayed once per trace
— with **zero cycle-level simulation**.  The estimator triages the
synthesized scenario catalog (see
:func:`repro.experiments.synth_sweep.estimate_first_sweep`): exact
simulation is spent where the champion-vs-challenger verdict is still
in doubt, and the remaining cells ride on predictions labeled
``source=estimated`` end to end.

The model has two parts:

* **Exact signals** — the trace is replayed once through the *actual*
  front-end structures (gshare/BTB/RAS) and a dataflow-height pass, so
  mispredict counts, fetch-group serialization, and the critical path
  are measured, not guessed.  The baseline (superscalar) cycle
  prediction is a pure lower-bound composition of these signals.
* **A fitted ratio model** — PolyFlow cycles divided by baseline
  cycles is predicted as a linear function of eleven structural
  features (spawn coverage split into loop-shaped and hammock-shaped
  parts, stall shares, spawn density, conflict pressure, spawned-region
  size).  The weights in :data:`RATIO_WEIGHTS` were fit per policy
  spec by least squares against exact simulations of the *entire*
  2592-cell synthesized catalog under ``PAPER_CONFIG``; specs without
  their own row fall back to the pooled fit under the ``"*"`` key.

The estimate deliberately reports a confidence band rather than
pretending to be exact — consumers must treat ``predicted +/- band``
as the decision interval.  Observed error is gated by
``tests/analysis/test_estimate.py`` (the MAE ceiling over a fixed
200-scenario slice), so model drift fails the tier-1 suite.
"""

from repro.frontend.branch_predictor import (
    GsharePredictor,
    IndirectTargetPredictor,
    ReturnAddressStack,
)
from repro.sim.predecode import (
    KIND_CALL_DIRECT,
    KIND_CALL_INDIRECT,
    KIND_COND_BRANCH,
    KIND_RETURN,
    KIND_SWITCH,
    LAT_LOAD,
    LAT_MUL,
    LAT_STORE,
)

#: Feature order of every :data:`RATIO_WEIGHTS` row (the final entry is
#: the intercept).  See :func:`ratio_features` for definitions.
RATIO_FEATURES = (
    "coverage",
    "loop_coverage",
    "hammock_coverage",
    "stall_share",
    "coverage_x_stall",
    "spawn_density",
    "hidden_mispredicts",
    "conflict_pressure",
    "critical_path_share",
    "region_size",
    "loop_x_size",
)

#: Per-spec linear weights for ``polyflow_cycles / baseline_cycles``,
#: eleven features plus intercept, fit against exact simulations of the
#: full synthesized catalog under ``PAPER_CONFIG`` (scale 1.0).  The
#: ``"*"`` row is the pooled fallback for specs without their own fit.
RATIO_WEIGHTS = {
    "postdoms": (
        0.0762, 0.0919, -0.0157, -0.0643, -0.1518, -1.7165,
        0.2585, -0.848, 0.691, -0.7227, 0.7237, 0.8457,
    ),
    "loop+procFT+loopFT": (
        0.0297, 0.0297, 0.0, 0.2251, -1.1628, 0.8581,
        0.0812, 4.228, 0.4362, 0.1055, 0.3637, 0.7851,
    ),
    "*": (
        -0.0478, 0.0948, -0.1426, 0.261, -0.9079, 0.6715,
        0.2243, 0.6742, 0.5966, 0.0859, 0.215, 0.7282,
    ),
}

#: Predicted cycle ratios are clamped into this interval before being
#: turned into a speedup: the linear form can stray outside what any
#: simulation produces on extreme feature combinations.
RATIO_CLAMP = (0.08, 4.0)

#: Confidence band: absolute floor plus a fraction of the prediction.
#: Calibrated so ``|predicted - exact| <= band`` holds for ~90% of the
#: full catalog under ``PAPER_CONFIG``.
BAND_ABS = 34.0
BAND_REL = 0.6

#: Spawned-over instructions per spawn at which the ``region_size``
#: feature saturates.
_SIZE_SATURATION = 64.0

_SIGNALS_MEMO = {}
_COVERAGE_MEMO = {}


class TraceSignals:
    """Per-trace features the cycle models consume, computed in O(n)
    passes over the trace's flat columns (no timing simulation).

    Predictor-dependent fields (mispredict counts) replay the real
    front-end structures of the configured machine, so they match what
    a simulation of the same trace observes at fetch.
    ``mispredicts_by_pc`` keys conditional-branch PCs to their gshare
    miss counts; the ratio model intersects it with a policy's hint
    table to see how many mispredicts sit at spawn triggers (where a
    concurrent task hides the bubble).
    """

    __slots__ = (
        "length",
        "conditional_branches",
        "cond_mispredicts",
        "indirect_transfers",
        "indirect_mispredicts",
        "returns",
        "return_mispredicts",
        "taken_transfers",
        "fetch_groups",
        "load_count",
        "store_count",
        "mul_count",
        "mem_dep_count",
        "critical_path",
        "mispredicts_by_pc",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)
        self.mispredicts_by_pc = {}

    @property
    def total_mispredicts(self):
        return self.cond_mispredicts + self.indirect_mispredicts + self.return_mispredicts

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def _count_kinds(trace):
    """Occurrences of each ``KIND_*`` / ``LAT_*`` class."""
    kind_counts = [0] * 8
    for kind in trace.kind:
        kind_counts[kind] += 1
    lat_counts = [0] * 4
    for lat in trace.lat:
        lat_counts[lat] += 1
    return kind_counts, lat_counts


def compute_signals(trace, config):
    """Compute :class:`TraceSignals` for one trace."""
    signals = TraceSignals()
    n = len(trace)
    signals.length = n
    if not n:
        return signals

    kind_counts, lat_counts = _count_kinds(trace)
    signals.conditional_branches = kind_counts[KIND_COND_BRANCH]
    signals.indirect_transfers = (
        kind_counts[KIND_CALL_INDIRECT] + kind_counts[KIND_SWITCH]
    )
    signals.returns = kind_counts[KIND_RETURN]
    signals.load_count = lat_counts[LAT_LOAD]
    signals.store_count = lat_counts[LAT_STORE]
    signals.mul_count = lat_counts[LAT_MUL]

    kinds = trace.kind
    takens = trace.taken
    pcs = trace.pc
    next_pcs = trace.next_pc
    fall_throughs = trace.fall_through

    # Front-end replay: the real gshare/BTB/RAS over the committed
    # stream, exactly as the trace-driven fetch stage trains them.
    gshare = GsharePredictor(config.gshare_counters, config.gshare_history_bits)
    indirect = IndirectTargetPredictor()
    ras = ReturnAddressStack()
    by_pc = signals.mispredicts_by_pc
    cond_miss = indirect_miss = return_miss = 0
    taken_transfers = 0
    fetch_groups = 0
    group_length = 0
    width = config.width
    for index in range(n):
        kind = kinds[index]
        group_length += 1
        if kind:
            breaks = True
            if kind == KIND_COND_BRANCH:
                taken = takens[index]
                if gshare.predict_and_update(pcs[index], taken) != bool(taken):
                    cond_miss += 1
                    pc = pcs[index]
                    by_pc[pc] = by_pc.get(pc, 0) + 1
                breaks = bool(taken)
            elif kind == KIND_CALL_DIRECT:
                ras.push(fall_throughs[index])
            elif kind == KIND_CALL_INDIRECT:
                ras.push(fall_throughs[index])
                if not indirect.predict_and_update(pcs[index], next_pcs[index]):
                    indirect_miss += 1
            elif kind == KIND_RETURN:
                if ras.pop() != next_pcs[index]:
                    return_miss += 1
            elif kind == KIND_SWITCH:
                if not indirect.predict_and_update(pcs[index], next_pcs[index]):
                    indirect_miss += 1
            if breaks:
                taken_transfers += 1
                fetch_groups += -(-group_length // width)
                group_length = 0
    if group_length:
        fetch_groups += -(-group_length // width)
    signals.cond_mispredicts = cond_miss
    signals.indirect_mispredicts = indirect_miss
    signals.return_mispredicts = return_miss
    signals.taken_transfers = taken_transfers
    signals.fetch_groups = fetch_groups

    # Dataflow height: completion[i] = max(producer completions) + lat.
    mul_latency = config.mul_latency
    dep0 = trace.dep0
    dep1 = trace.dep1
    mem_dep = trace.mem_dep
    lats = trace.lat
    completion = [0] * n
    height = 0
    mem_deps = 0
    for index in range(n):
        ready = 0
        producer = dep0[index]
        if producer >= 0:
            ready = completion[producer]
        producer = dep1[index]
        if producer >= 0 and completion[producer] > ready:
            ready = completion[producer]
        producer = mem_dep[index]
        if producer >= 0:
            mem_deps += 1
            if completion[producer] > ready:
                ready = completion[producer]
        lat = lats[index]
        if lat == LAT_MUL:
            done = ready + mul_latency
        else:
            done = ready + 1
        completion[index] = done
        if done > height:
            height = done
    signals.critical_path = height
    signals.mem_dep_count = mem_deps
    return signals


def trace_signals(analyses, config):
    """Signals of one program's trace (memoized per trace + front end)."""
    key = (
        analyses.digest,
        config.gshare_counters,
        config.gshare_history_bits,
        config.width,
        config.mul_latency,
    )
    signals = _SIGNALS_MEMO.get(key)
    if signals is None:
        signals = compute_signals(analyses.trace, config)
        _SIGNALS_MEMO[key] = signals
    return signals


#: Spawn categories whose covered regions are loop-shaped (iteration or
#: fall-through bodies) rather than hammock-shaped: the ratio model
#: weights the two kinds of coverage differently.
_LOOP_CATEGORIES = ("loop", "loopFT", "procFT")


class SpawnCoverage:
    """Profiled spawn coverage of one (program, policy spec) pair."""

    __slots__ = ("points", "spawns", "covered", "loop_covered", "trigger_pcs")

    def __init__(self, points, spawns, covered, loop_covered, trigger_pcs):
        #: Static spawn points with a usable hint entry.
        self.points = points
        #: Profiled dynamic spawn opportunities.
        self.spawns = spawns
        #: Dynamic instructions inside spawned-over regions.
        self.covered = covered
        #: The loop-shaped subset of ``covered`` (see ``_LOOP_CATEGORIES``).
        self.loop_covered = loop_covered
        #: Trigger PCs of the policy's hint entries.
        self.trigger_pcs = trigger_pcs


def spawn_coverage(analyses, spec, profile_distance):
    """Coverage of ``spec`` over one program (memoized).

    Derived from the same hint table the Task Spawn Unit would load, so
    the estimator and the machine agree on which spawn points exist.
    """
    key = (analyses.digest, spec, profile_distance)
    coverage = _COVERAGE_MEMO.get(key)
    if coverage is None:
        policy = analyses.spawn_analysis.policy(spec)
        profile = analyses.spawn_profile(profile_distance)
        table = profile.hint_table(policy)
        spawns = 0
        covered = 0.0
        loop_covered = 0.0
        trigger_pcs = []
        for entry in table:
            spawns += entry.occurrence_count
            covered += entry.occurrence_count * entry.mean_distance
            if entry.spawn_point.category.value in _LOOP_CATEGORIES:
                loop_covered += entry.occurrence_count * entry.mean_distance
            trigger_pcs.append(entry.spawn_point.trigger_pc)
        coverage = SpawnCoverage(
            len(table), spawns, covered, loop_covered, tuple(trigger_pcs)
        )
        _COVERAGE_MEMO[key] = coverage
    return coverage


def predict_baseline_cycles(signals, config):
    """Closed-form superscalar cycle estimate."""
    if not signals.length:
        return 0.0
    stall = signals.total_mispredicts * config.mispredict_penalty
    retire_floor = signals.length / config.width
    serialization = signals.fetch_groups + stall
    return config.frontend_latency + max(
        signals.critical_path, serialization, retire_floor
    )


def ratio_features(signals, coverage, config):
    """The eleven :data:`RATIO_FEATURES` values for one (trace, policy).

    Every feature is bounded (coverages and shares are fractions,
    extensive quantities are clamped), so a weight fit on the catalog
    cannot be dragged off the map by one outsized trace.
    """
    n = max(1, signals.length)
    stall = signals.total_mispredicts * config.mispredict_penalty
    serialization = signals.fetch_groups + stall
    baseline = predict_baseline_cycles(signals, config)
    covered_fraction = min(1.0, coverage.covered / n)
    loop_fraction = min(1.0, coverage.loop_covered / n)
    stall_share = stall / max(1, serialization)
    spawn_density = min(0.5, coverage.spawns / n)
    hidden = sum(
        signals.mispredicts_by_pc.get(pc, 0) for pc in coverage.trigger_pcs
    )
    region_size = coverage.covered / coverage.spawns if coverage.spawns else 0.0
    size_fraction = min(1.0, region_size / _SIZE_SATURATION)
    return (
        covered_fraction,
        loop_fraction,
        max(0.0, covered_fraction - loop_fraction),
        stall_share,
        covered_fraction * stall_share,
        spawn_density,
        min(1.0, hidden / max(1, signals.total_mispredicts)),
        (signals.mem_dep_count / n) * spawn_density * 10.0,
        min(1.5, signals.critical_path / baseline) if baseline else 0.0,
        size_fraction,
        loop_fraction * size_fraction,
    )


def predict_cycle_ratio(signals, coverage, config, spec):
    """Predicted ``polyflow_cycles / baseline_cycles`` for one policy."""
    weights = RATIO_WEIGHTS.get(spec, RATIO_WEIGHTS["*"])
    features = ratio_features(signals, coverage, config)
    ratio = weights[-1] + sum(w * f for w, f in zip(weights, features))
    low, high = RATIO_CLAMP
    return min(high, max(low, ratio))


class Estimate:
    """One analytic prediction: speedup (%) with a confidence band."""

    __slots__ = (
        "name",
        "spec",
        "predicted_speedup",
        "band",
        "baseline_cycles",
        "polyflow_cycles",
    )

    def __init__(self, name, spec, predicted_speedup, band, baseline_cycles, polyflow_cycles):
        self.name = name
        self.spec = spec
        self.predicted_speedup = predicted_speedup
        self.band = band
        self.baseline_cycles = baseline_cycles
        self.polyflow_cycles = polyflow_cycles

    def error_against(self, exact_speedup):
        """Observed absolute error versus an exact speedup (%)."""
        return abs(self.predicted_speedup - exact_speedup)

    def __repr__(self):
        return "Estimate({!r}, {!r}, {:+.1f}% +/- {:.1f})".format(
            self.name, self.spec, self.predicted_speedup, self.band
        )


def confidence_band(predicted_speedup):
    """The +/- band (speedup points) attached to one prediction."""
    return BAND_ABS + BAND_REL * abs(predicted_speedup)


def estimate_speedup(name, spec, scale=1.0, config=None, profile_distance=None):
    """Predict the speedup (%) of ``spec`` over the superscalar
    baseline for one workload, without simulating either.

    Uses only cached pipeline artifacts: the shared analyses (trace
    columns, spawn profile) of ``prepare_workload``.  Returns an
    :class:`Estimate`.
    """
    from repro.polyflow import PAPER_CONFIG
    from repro.spawn import canonical_spec
    from repro.workloads import prepare_workload

    if config is None:
        config = PAPER_CONFIG
    if profile_distance is None:
        profile_distance = config.max_spawn_distance
    spec = canonical_spec(spec)
    analyses = prepare_workload(name, scale).analyses
    signals = trace_signals(analyses, config)
    coverage = spawn_coverage(analyses, spec, profile_distance)
    baseline = predict_baseline_cycles(signals, config)
    ratio = predict_cycle_ratio(signals, coverage, config, spec)
    predicted = (1.0 / ratio - 1.0) * 100.0
    return Estimate(
        name, spec, predicted, confidence_band(predicted), baseline, ratio * baseline
    )


def estimate_row(name, specs, scale=1.0, config=None, profile_distance=None):
    """Predictions for every spec of one scenario: ``{spec: Estimate}``."""
    return {
        spec: estimate_speedup(name, spec, scale, config, profile_distance)
        for spec in specs
    }


def mean_absolute_error(pairs):
    """Mean |predicted - exact| over ``(predicted, exact)`` pairs."""
    pairs = list(pairs)
    if not pairs:
        return 0.0
    return sum(abs(predicted - exact) for predicted, exact in pairs) / len(pairs)


def clear_memos():
    """Drop the signal/coverage memos (mainly for tests)."""
    _SIGNALS_MEMO.clear()
    _COVERAGE_MEMO.clear()


# -- trace-length estimation (scheduler cost model) ---------------------------

#: Per-term instruction weights of the synthesized catalog's closed-form
#: length model, fit by weighted relative least squares (rows weighted
#: 1/length, so short scenarios count as much as long ones) against the
#: exact committed-trace lengths of the full catalog at scale 1.0; mean
#: relative error ~20%, which is well inside what the chunk scheduler's
#: balance needs (see estimated_trace_length).
_LENGTH_WEIGHTS = {
    "base": 1.6,
    "inner": 2.79,
    "inner_hammock": 9.86,
    "call": 19.75,
    "dispatch": 13.26,
    "loop": 3.31,
}

#: Expected iterations of a non-innermost loop level (the generator
#: draws uniformly from {2, 3}).
_EXPECTED_OUTER = 2.5


def estimated_trace_length(name, scale=1.0):
    """Closed-form committed-trace-length estimate, or None.

    Only synthesized catalog scenarios have a structural closed form
    (the dial space fixes loop trip counts, hammock density, call
    fan-out, and dispatch shape); other names return None and callers
    fall back to preparing the workload.  The estimate feeds the grid
    scheduler's cost model on cold caches, where balance — not
    exactness — is what matters.
    """
    from repro.workloads.builder import check_scale, scaled
    from repro.workloads.synth import is_catalog_name, scenario_dials

    if not is_catalog_name(name):
        return None
    dials = scenario_dials(name)
    check_scale(scale)
    depth = dials.loop_depth
    inner_iterations = scaled(dials.inner_iteration_base, scale, minimum=2)
    if depth == 0:
        innermost_trips = 1.0
        level0_trips = 1.0
        loop_trips = 0.0
    else:
        outer_product = _EXPECTED_OUTER ** (depth - 1)
        innermost_trips = outer_product * inner_iterations
        level0_trips = _EXPECTED_OUTER if depth > 1 else float(inner_iterations)
        # Total loop iterations across all nest levels (header+latch
        # overhead is paid per iteration of every level).
        loop_trips = 0.0
        trips = 1.0
        for level in range(depth):
            trips *= inner_iterations if level == depth - 1 else _EXPECTED_OUTER
            loop_trips += trips
    weights = _LENGTH_WEIGHTS
    procedures = dials.procedures
    # Each top-level call site executes once per level-0 iteration; leaf
    # procedures are called from their parent, so every procedure's body
    # runs level0_trips times.
    call_bodies = level0_trips * procedures
    # The dispatch loop iterates 2*ways times per level-0 iteration.
    dispatch_iterations = level0_trips * 2 * dials.dispatch_ways
    estimate = (
        weights["base"]
        + weights["inner"] * innermost_trips
        + weights["inner_hammock"] * innermost_trips * dials.hammocks
        + weights["call"] * call_bodies
        + weights["dispatch"] * dispatch_iterations
        + weights["loop"] * loop_trips
    )
    return max(1, int(estimate))
