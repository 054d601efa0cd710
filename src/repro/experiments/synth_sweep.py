"""Catalog sweeps, estimate-first triage, and the coverage map.

Sweeps policy specs over a slice of the synthesized scenario catalog
through the existing runner/scheduler/cache stack, then aggregates
*where* control-equivalent spawning wins, ties, and loses per
structural stratum — speedup as a function of program structure rather
than a fixed benchmark list, extending the paper's Figure 9/12 grid
across the whole dial space.

Two sweep modes share every downstream surface:

* :func:`sweep` simulates every cell exactly.
* :func:`estimate_first_sweep` runs the two-tier stack: the analytic
  estimator (:mod:`repro.analysis.estimate`) predicts every cell for
  free, a fixed per-stratum seed of cells is simulated exactly, and
  the remaining simulation budget is spent certifying per-stratum
  verdicts — a stratum's verdict is *confirmed* only when the exact
  sample alone makes it unflippable (or the stratum is fully
  simulated), so a confirmed verdict provably equals what the full
  sweep would report.  Unsimulated cells ride on debiased estimator
  predictions and are labeled ``source=estimated`` end to end.
"""

import hashlib

from repro.experiments.reporting import format_table
from repro.experiments.runner import SUPERSCALAR_SPEC
from repro.spawn import canonical_spec
from repro.workloads.synth import Dials, is_catalog_name, scenario_dials, stratum_key

#: The sweep's champion (the paper's contribution) followed by its
#: challengers; the coverage map scores the first spec against the best
#: of the rest.
DEFAULT_SPECS = ("postdoms", "loop+procFT+loopFT")

#: |champion - best challenger| below this many percentage points of
#: speedup counts as a tie.
TIE_MARGIN = 1.0

WIN, TIE, LOSS = "win", "tie", "loss"

#: Outcome preference order for verdict tie-breaks (deterministic).
OUTCOMES = (WIN, TIE, LOSS)

#: How a row's speedups were obtained (mirrors the service wire labels).
SOURCE_SIMULATED = "simulated"
SOURCE_ESTIMATED = "estimated"


class SweepRow:
    """One swept scenario: its dials and per-spec speedups (%).

    ``source`` says whether the speedups came from exact simulation or
    from the analytic estimator; estimated rows additionally carry the
    per-stratum *debiased* champion-vs-challenger delta the triage
    verdicts used (their raw predicted speedups stay in ``speedups``).
    """

    __slots__ = ("name", "dials", "speedups", "source", "adjusted_delta")

    def __init__(
        self, name, dials, speedups, source=SOURCE_SIMULATED, adjusted_delta=None
    ):
        self.name = name
        self.dials = dials
        self.speedups = speedups
        self.source = source
        self.adjusted_delta = adjusted_delta

    def delta(self, specs):
        """Champion speedup minus the best challenger's, in points."""
        if self.adjusted_delta is not None:
            return self.adjusted_delta
        champion = self.speedups[specs[0]]
        challengers = [self.speedups[spec] for spec in specs[1:]]
        return champion - max(challengers)

    def outcome(self, specs, margin=TIE_MARGIN):
        delta = self.delta(specs)
        if delta > margin:
            return WIN
        if delta < -margin:
            return LOSS
        return TIE


def sweep_jobs(names, specs=DEFAULT_SPECS):
    """The ``(name, spec)`` cells :func:`sweep` prefetches: every spec
    plus the superscalar baseline, per scenario."""
    specs = tuple(canonical_spec(spec) for spec in specs)
    return [(name, spec) for name in names for spec in specs] + [
        (name, SUPERSCALAR_SPEC) for name in names
    ]


def sweep(runner, names, specs=DEFAULT_SPECS):
    """Simulate ``specs`` (plus the superscalar baseline) over catalog
    ``names`` and return one :class:`SweepRow` per scenario.

    All jobs (:func:`sweep_jobs`) go through ``runner.prefetch`` first,
    so a parallel runner fans the grid out through the batched
    scheduler and serves repeat runs entirely from the result cache.
    """
    specs = tuple(canonical_spec(spec) for spec in specs)
    if len(specs) < 2:
        raise ValueError("sweep needs a champion spec and >=1 challenger")
    runner.prefetch(sweep_jobs(names, specs))
    rows = []
    for name in names:
        speedups = {spec: runner.speedup(name, spec) for spec in specs}
        # Named (non-catalog) workloads ride along with no dials; the
        # coverage map counts them in the overall row only.
        dials = scenario_dials(name) if is_catalog_name(name) else None
        rows.append(SweepRow(name, dials, speedups))
    return rows


class Bucket:
    """Win/tie/loss tally with the mean champion-vs-challenger delta."""

    __slots__ = ("wins", "ties", "losses", "delta_sum")

    def __init__(self):
        self.wins = 0
        self.ties = 0
        self.losses = 0
        self.delta_sum = 0.0

    def add(self, outcome, delta):
        if outcome == WIN:
            self.wins += 1
        elif outcome == LOSS:
            self.losses += 1
        else:
            self.ties += 1
        self.delta_sum += delta

    @property
    def count(self):
        return self.wins + self.ties + self.losses

    @property
    def mean_delta(self):
        if not self.count:
            return 0.0
        return self.delta_sum / self.count


class CoverageMap:
    """Win/loss/tie tallies per dial axis level, plus the overall row."""

    def __init__(self, specs, margin):
        self.specs = specs
        self.margin = margin
        self.overall = Bucket()
        self.by_axis = {
            axis: {level: Bucket() for level in levels}
            for axis, levels in Dials.axes()
        }
        #: ``{source: count}`` over the aggregated rows (simulated vs
        #: estimated); exact sweeps tally everything under simulated.
        self.sources = {}

    def render(self):
        scenario_count = "{} scenarios".format(self.overall.count)
        estimated = self.sources.get(SOURCE_ESTIMATED, 0)
        if estimated:
            scenario_count = "{} scenarios: {} simulated, {} estimated".format(
                self.overall.count, self.overall.count - estimated, estimated
            )
        title = (
            "coverage map: {} vs best of {} ({}, "
            "tie margin {:.1f} points)".format(
                self.specs[0],
                "/".join(self.specs[1:]),
                scenario_count,
                self.margin,
            )
        )
        headers = ("stratum", "n", "win", "tie", "loss", "mean delta")
        rows = []
        for axis, buckets in self.by_axis.items():
            for level, bucket in sorted(buckets.items()):
                if not bucket.count:
                    continue
                rows.append(
                    (
                        "{}={}".format(axis, level),
                        bucket.count,
                        bucket.wins,
                        bucket.ties,
                        bucket.losses,
                        "{:+.1f}".format(bucket.mean_delta),
                    )
                )
        rows.append(
            (
                "overall",
                self.overall.count,
                self.overall.wins,
                self.overall.ties,
                self.overall.losses,
                "{:+.1f}".format(self.overall.mean_delta),
            )
        )
        return format_table(headers, rows, title=title)


def coverage_map(rows, specs=DEFAULT_SPECS, margin=TIE_MARGIN):
    """Aggregate sweep rows into a :class:`CoverageMap`."""
    specs = tuple(canonical_spec(spec) for spec in specs)
    result = CoverageMap(specs, margin)
    for row in rows:
        outcome = row.outcome(specs, margin)
        delta = row.delta(specs)
        result.overall.add(outcome, delta)
        result.sources[row.source] = result.sources.get(row.source, 0) + 1
        if row.dials is None:
            continue
        for axis, _ in Dials.axes():
            result.by_axis[axis][row.dials.level_of(axis)].add(outcome, delta)
    return result


# -- estimate-first triage ----------------------------------------------------

#: Exact simulations seeded into every stratum before escalation.
SEED_CELLS = 5

#: Cells simulated per escalation step (one stratum at a time).
ESCALATION_CHUNK = 8

#: Fraction of the swept catalog cells the estimate-first sweep may
#: simulate; the rest ride on estimator predictions.
DEFAULT_BUDGET_FRACTION = 0.40

#: Deterministic triage rotation token: fixes which cells of each
#: stratum are simulated first.  Bump to rotate the sampled cells.
TRIAGE_TOKEN = "estfirst-v1"

#: Verdict statuses.  A confirmed verdict is *certified*: the exact
#: sample's win/tie/loss gap exceeds the number of unsimulated cells,
#: so no assignment of outcomes to them could flip the dominant
#: outcome — it provably equals the full sweep's.
CONFIRMED, ESTIMATED = "confirmed", "estimated"


def _triage_rank(token, name):
    """Deterministic per-stratum simulation order (hash ranking)."""
    return hashlib.sha256(
        "{}|{}".format(token, name).encode("utf-8")
    ).hexdigest()


def _outcome_of(delta, margin):
    if delta > margin:
        return WIN
    if delta < -margin:
        return LOSS
    return TIE


def _dominant(counts):
    """Largest-count outcome; ties break by :data:`OUTCOMES` order."""
    return max(OUTCOMES, key=lambda o: (counts[o], -OUTCOMES.index(o)))


def _count_gap(counts):
    """Top count minus runner-up count."""
    ordered = sorted(counts.values(), reverse=True)
    return ordered[0] - ordered[1]


class StratumVerdict:
    """One stratum's triage outcome: verdict, status, and bookkeeping."""

    __slots__ = (
        "key",
        "size",
        "simulated",
        "counts",
        "verdict",
        "status",
        "estimator_error",
    )

    def __init__(self, key, size, simulated, counts, verdict, status, estimator_error):
        self.key = key
        self.size = size
        self.simulated = simulated
        #: Mixed win/tie/loss tallies: exact outcomes for simulated
        #: cells, debiased estimator outcomes for the rest.
        self.counts = counts
        self.verdict = verdict
        self.status = status
        #: Mean |predicted - exact| champion-vs-challenger delta over
        #: the stratum's simulated cells (raw, before debiasing).
        self.estimator_error = estimator_error

    def label(self):
        return " ".join(
            "{}{}".format(axis_code, level)
            for axis_code, level in zip(("L", "H", "I"), self.key)
        )


class EstimateFirstReport:
    """Everything one estimate-first sweep produced.

    ``rows`` covers every swept scenario (simulated rows carry exact
    speedups, estimated rows the estimator's predictions plus the
    debiased delta); ``strata`` maps stratum keys to
    :class:`StratumVerdict`.  :meth:`coverage` builds the same
    :class:`CoverageMap` a full sweep would, over the mixed rows.
    """

    __slots__ = (
        "specs",
        "margin",
        "rows",
        "strata",
        "simulated_cells",
        "estimated_cells",
        "budget_cells",
        "token",
    )

    def __init__(
        self, specs, margin, rows, strata, simulated_cells, estimated_cells,
        budget_cells, token,
    ):
        self.specs = specs
        self.margin = margin
        self.rows = rows
        self.strata = strata
        self.simulated_cells = simulated_cells
        self.estimated_cells = estimated_cells
        self.budget_cells = budget_cells
        self.token = token

    @property
    def confirmed_strata(self):
        return sum(1 for v in self.strata.values() if v.status == CONFIRMED)

    def coverage(self):
        return coverage_map(self.rows, self.specs, self.margin)

    def mean_estimator_error(self):
        """Mean observed |predicted - exact| delta over simulated cells
        that have a prediction (the estimator's tracked error)."""
        errors = [
            verdict.estimator_error
            for verdict in self.strata.values()
            if verdict.simulated and verdict.estimator_error is not None
        ]
        if not errors:
            return 0.0
        return sum(errors) / len(errors)

    def render(self):
        lines = [self.coverage().render(), ""]
        headers = (
            "stratum", "n", "sim", "win", "tie", "loss", "verdict", "status"
        )
        rows = []
        for key in sorted(self.strata):
            verdict = self.strata[key]
            rows.append(
                (
                    verdict.label(),
                    verdict.size,
                    verdict.simulated,
                    verdict.counts[WIN],
                    verdict.counts[TIE],
                    verdict.counts[LOSS],
                    verdict.verdict,
                    verdict.status,
                )
            )
        title = (
            "stratum verdicts ({} confirmed / {} estimated; confirmed "
            "verdicts are certified equal to a full sweep)".format(
                self.confirmed_strata,
                len(self.strata) - self.confirmed_strata,
            )
        )
        lines.append(format_table(headers, rows, title=title))
        lines.append(
            "estimate-first: {} of {} cells simulated (budget {}), "
            "{} estimated; estimator delta error {:.1f} points "
            "(mean over simulated strata)".format(
                self.simulated_cells,
                self.simulated_cells + self.estimated_cells,
                self.budget_cells,
                self.estimated_cells,
                self.mean_estimator_error(),
            )
        )
        return "\n".join(lines)


def estimate_first_sweep(
    runner,
    names,
    specs=DEFAULT_SPECS,
    margin=TIE_MARGIN,
    budget_fraction=DEFAULT_BUDGET_FRACTION,
    token=TRIAGE_TOKEN,
):
    """Two-tier sweep: estimator triage plus certified exact sampling.

    Per stratum (the :data:`~repro.workloads.synth.STRATUM_AXES`
    grouping), the first :data:`SEED_CELLS` cells in deterministic
    hash order are simulated exactly; the remaining budget
    (``budget_fraction`` of the swept catalog cells) is then spent
    greedily on whichever uncertified stratum looks cheapest to
    certify — projected cost ``size / (1 + gap/simulated)``, so nearly
    unanimous strata are pushed over their certificate threshold first
    instead of sinking the whole budget into knife-edge strata that no
    sample short of exhaustive could settle.

    A stratum's verdict is the dominant outcome of its mixed tallies
    (exact outcomes for simulated cells; per-stratum debiased estimator
    deltas for the rest).  Its status is :data:`CONFIRMED` only when
    the exact sample alone certifies it — the sample's win/tie/loss
    gap exceeds the unsimulated cell count, or the stratum is fully
    simulated — and :data:`ESTIMATED` otherwise.  Certified verdicts
    therefore *cannot* disagree with a full exact sweep.

    Non-catalog names (no dials, no estimator) are always simulated
    and do not count against the budget.  Returns an
    :class:`EstimateFirstReport`.
    """
    from repro.analysis.estimate import estimate_row

    specs = tuple(canonical_spec(spec) for spec in specs)
    if len(specs) < 2:
        raise ValueError("sweep needs a champion spec and >=1 challenger")
    names = tuple(names)
    catalog = [name for name in names if is_catalog_name(name)]
    other = [name for name in names if not is_catalog_name(name)]

    strata = {}
    for name in catalog:
        strata.setdefault(stratum_key(name), []).append(name)
    for members in strata.values():
        members.sort(key=lambda name: _triage_rank(token, name))

    # Tier A: one prediction per (cell, spec) — no simulation.
    predicted_delta = {}
    predicted_speedups = {}
    for name in catalog:
        estimates = estimate_row(name, specs, runner.scale, runner.config)
        speedups = {
            spec: estimate.predicted_speedup
            for spec, estimate in estimates.items()
        }
        predicted_speedups[name] = speedups
        predicted_delta[name] = speedups[specs[0]] - max(
            speedups[spec] for spec in specs[1:]
        )

    budget = int(budget_fraction * len(catalog))
    exact_rows = {}

    def simulate(batch):
        for row in sweep(runner, batch, specs):
            exact_rows[row.name] = row

    seeds = []
    for key in sorted(strata):
        seeds.extend(strata[key][:SEED_CELLS])
    seeds = seeds[:budget]
    if seeds:
        simulate(seeds)
    spent = len(seeds)

    def sample_state(key):
        """(simulated count, sample gap, certified) of one stratum."""
        members = strata[key]
        counts = {outcome: 0 for outcome in OUTCOMES}
        simulated = 0
        for name in members:
            row = exact_rows.get(name)
            if row is not None:
                simulated += 1
                counts[row.outcome(specs, margin)] += 1
        if not simulated:
            return 0, 0, False
        gap = _count_gap(counts)
        certified = simulated == len(members) or gap > len(members) - simulated
        return simulated, gap, certified

    # Tier B escalation: certify the cheapest-looking stratum next.
    while spent < budget:
        best = None
        for key in sorted(strata):
            simulated, gap, certified = sample_state(key)
            if certified:
                continue
            relative_gap = gap / simulated if simulated else 0.0
            projected = len(strata[key]) / (1.0 + relative_gap)
            if best is None or projected < best[0]:
                best = (projected, key)
        if best is None:
            break
        key = best[1]
        pending = [name for name in strata[key] if name not in exact_rows]
        step = min(ESCALATION_CHUNK, len(pending), budget - spent)
        if step <= 0:
            break
        simulate(pending[:step])
        spent += step

    if other:
        simulate(other)

    rows_by_name = {}
    verdicts = {}
    for key in sorted(strata):
        members = strata[key]
        sampled = [name for name in members if name in exact_rows]
        residuals = [
            exact_rows[name].delta(specs) - predicted_delta[name]
            for name in sampled
        ]
        debias = sum(residuals) / len(residuals) if residuals else 0.0
        counts = {outcome: 0 for outcome in OUTCOMES}
        for name in members:
            exact = exact_rows.get(name)
            if exact is not None:
                counts[exact.outcome(specs, margin)] += 1
                rows_by_name[name] = exact
            else:
                delta = predicted_delta[name] + debias
                counts[_outcome_of(delta, margin)] += 1
                rows_by_name[name] = SweepRow(
                    name,
                    scenario_dials(name),
                    dict(predicted_speedups[name]),
                    source=SOURCE_ESTIMATED,
                    adjusted_delta=delta,
                )
        simulated, _, certified = sample_state(key)
        error = (
            sum(
                abs(exact_rows[name].delta(specs) - predicted_delta[name])
                for name in sampled
            )
            / len(sampled)
            if sampled
            else None
        )
        verdicts[key] = StratumVerdict(
            key,
            len(members),
            simulated,
            counts,
            _dominant(counts),
            CONFIRMED if certified else ESTIMATED,
            error,
        )
    for name in other:
        rows_by_name[name] = exact_rows[name]

    rows = [rows_by_name[name] for name in names]
    simulated_cells = len(exact_rows)
    estimated_cells = len(names) - simulated_cells
    summary = getattr(runner, "summary", None)
    if summary is not None and estimated_cells:
        summary.record_estimated(estimated_cells)
    return EstimateFirstReport(
        specs,
        margin,
        rows,
        verdicts,
        simulated_cells,
        estimated_cells,
        budget,
        token,
    )
