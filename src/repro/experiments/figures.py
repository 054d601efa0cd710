"""Generators for every table and figure in the paper's evaluation.

Each ``figureN`` function runs (or reuses) the necessary simulations via
the runner it is given (a
:class:`~repro.experiments.parallel.ParallelExperimentRunner` in every
production caller) and returns a
structured result object whose ``render()`` produces the same rows or
series the paper reports.
"""

from repro.experiments import paper_data
from repro.experiments.reporting import format_percent, format_table
from repro.experiments.runner import REC_PRED_SPEC, SUPERSCALAR_SPEC
from repro.polyflow.config import figure8_rows
from repro.spawn import POSTDOMINATOR_CATEGORIES, static_distribution
from repro.spawn.policies import (
    COMBINATION_POLICY_SPECS,
    EXCLUSION_POLICY_SPECS,
    INDIVIDUAL_POLICY_SPECS,
)

#: Figure 9 policy order.
FIGURE9_SPECS = INDIVIDUAL_POLICY_SPECS + ("postdoms",)
#: Figure 10 policy order.
FIGURE10_SPECS = COMBINATION_POLICY_SPECS + ("postdoms",)
#: Figure 12 policy order.
FIGURE12_SPECS = (REC_PRED_SPEC, "postdoms")

#: Policy specs each figure simulates (figures 5 and 8 run nothing).
FIGURE_SIMULATION_SPECS = {
    "fig5": (),
    "fig8": (),
    "fig9": FIGURE9_SPECS,
    "fig10": FIGURE10_SPECS,
    "fig11": EXCLUSION_POLICY_SPECS + ("postdoms",),
    "fig12": FIGURE12_SPECS,
}


def figure_jobs(figure, runner):
    """Every (workload, spec) simulation ``figure`` needs.

    Feeding the union of these into
    :meth:`~repro.experiments.runner.ExperimentRunner.prefetch` lets a
    parallel runner schedule a whole figure (or several) as one batch.
    """
    specs = FIGURE_SIMULATION_SPECS.get(figure, ())
    if not specs:
        return []
    jobs = [(name, SUPERSCALAR_SPEC) for name in runner.workload_names]
    jobs.extend(
        (name, spec) for name in runner.workload_names for spec in specs
    )
    return jobs


def figure_jobs_union(figures, runner):
    """The union of every requested figure's simulation grid.

    One list feeding one ``prefetch`` call, so the batched scheduler
    chunks and cost-orders the whole multi-figure grid at once
    (``normalize_jobs`` deduplicates the shared baseline cells).
    """
    jobs = []
    for figure in figures:
        jobs.extend(figure_jobs(figure, runner))
    return jobs


class SpeedupResult:
    """Per-benchmark speedups for a set of policy specs."""

    def __init__(self, title, specs, workloads, speedups, superscalar_ipc=None):
        self.title = title
        self.specs = tuple(specs)
        self.workloads = tuple(workloads)
        #: {workload (or "Average"): {spec: speedup %}}
        self.speedups = speedups
        #: {workload: superscalar IPC} (Figure 9 reports these).
        self.superscalar_ipc = superscalar_ipc or {}

    def average(self, spec):
        """The suite-average speedup of one spec."""
        return self.speedups["Average"][spec]

    def best_individual_average(self):
        """Average of the best-performing non-postdoms spec."""
        return max(
            self.average(spec) for spec in self.specs if spec != "postdoms"
        )

    def render(self):
        """Render the figure as an ASCII table."""
        headers = ["benchmark"] + list(self.specs)
        if self.superscalar_ipc:
            headers.insert(1, "base IPC")
        rows = []
        for name in self.workloads + ("Average",):
            row = [name]
            if self.superscalar_ipc:
                ipc = self.superscalar_ipc.get(name)
                row.append("({:.2f})".format(ipc) if ipc is not None else "")
            row.extend(format_percent(self.speedups[name][spec]) for spec in self.specs)
            rows.append(row)
        return format_table(headers, rows, title=self.title)

    def render_bars(self, spec=None):
        """Render one policy's per-benchmark bars (closest to the paper's
        bar-chart presentation).  Defaults to the last spec (postdoms)."""
        from repro.experiments.reporting import format_bars

        spec = spec or self.specs[-1]
        values = [
            (name, self.speedups[name][spec])
            for name in self.workloads + ("Average",)
        ]
        header = "{} — {}".format(self.title, spec)
        return header + "\n" + format_bars(values)


class StaticDistributionResult:
    """Figure 5: static distribution of control-equivalent task types."""

    def __init__(self, workloads, counts):
        self.workloads = tuple(workloads)
        #: {workload: {SpawnCategory: count}}
        self.counts = counts

    def total(self, name):
        """Total static spawns of one workload (the number on the bar)."""
        return sum(self.counts[name].values())

    def percentages(self, name):
        """Category percentages for one workload."""
        total = self.total(name)
        if not total:
            return {category: 0.0 for category in POSTDOMINATOR_CATEGORIES}
        return {
            category: 100.0 * self.counts[name][category] / total
            for category in POSTDOMINATOR_CATEGORIES
        }

    def render(self):
        headers = ["benchmark"] + [str(c) for c in POSTDOMINATOR_CATEGORIES] + [
            "total",
            "paper total",
        ]
        rows = []
        for name in self.workloads:
            percentages = self.percentages(name)
            rows.append(
                [name]
                + [
                    "{:.0f}%".format(percentages[category])
                    for category in POSTDOMINATOR_CATEGORIES
                ]
                + [
                    self.total(name),
                    paper_data.FIGURE5_TOTAL_STATIC_SPAWNS.get(name, "-"),
                ]
            )
        return format_table(
            headers,
            rows,
            title="Figure 5: static distribution of control-equivalent task types",
        )


class LossResult:
    """Figure 11: loss in speedup when one category is excluded."""

    def __init__(self, workloads, losses):
        self.workloads = tuple(workloads)
        #: {workload: {exclusion spec: loss in % speedup}}
        self.losses = losses

    def render(self):
        specs = EXCLUSION_POLICY_SPECS
        headers = ["benchmark"] + [spec.replace("postdoms-", "-") for spec in specs]
        rows = []
        for name in self.workloads + ("Average",):
            rows.append(
                [name] + [format_percent(self.losses[name][spec]) for spec in specs]
            )
        return format_table(
            headers,
            rows,
            title=(
                "Figure 11: loss in % speedup vs full postdominator set "
                "(positive = excluding the category hurts)"
            ),
        )


def figure5(runner):
    """Static distribution of control-equivalent task types."""
    counts = {}
    for name in runner.workload_names:
        prepared = runner.workload(name)
        counts[name] = static_distribution(
            prepared.spawn_analysis.postdominator_points
        )
    return StaticDistributionResult(runner.workload_names, counts)


def figure8():
    """The pipeline-parameter table."""
    return format_table(
        ["Parameter", "Value"], figure8_rows(), title="Figure 8: pipeline parameters"
    )


def _speedup_result(runner, title, specs, with_ipc=False):
    speedups = runner.speedups_for_specs(specs)
    ipc = None
    if with_ipc:
        ipc = {name: runner.baseline(name).ipc for name in runner.workload_names}
    return SpeedupResult(title, specs, runner.workload_names, speedups, ipc)


def figure9(runner):
    """Individual heuristic policies vs control-equivalent spawning."""
    return _speedup_result(
        runner,
        "Figure 9: individual heuristic policies (speedup % over superscalar)",
        FIGURE9_SPECS,
        with_ipc=True,
    )


def figure10(runner):
    """Heuristic combinations vs control-equivalent spawning."""
    return _speedup_result(
        runner,
        "Figure 10: heuristic combinations (speedup % over superscalar)",
        FIGURE10_SPECS,
    )


def figure11(runner):
    """Loss from excluding one postdominator category."""
    runner.prefetch(figure_jobs("fig11", runner))
    losses = {}
    for name in runner.workload_names:
        full = runner.speedup(name, "postdoms")
        losses[name] = {
            spec: full - runner.speedup(name, spec) for spec in EXCLUSION_POLICY_SPECS
        }
    losses["Average"] = {
        spec: sum(losses[name][spec] for name in runner.workload_names)
        / len(runner.workload_names)
        for spec in EXCLUSION_POLICY_SPECS
    }
    return LossResult(runner.workload_names, losses)


def figure12(runner):
    """Reconvergence-predictor spawning vs compiler postdominators."""
    return _speedup_result(
        runner,
        "Figure 12: spawning using reconvergence prediction "
        "(speedup % over superscalar)",
        FIGURE12_SPECS,
    )


def headline_ratios(figure9_result, figure10_result):
    """The abstract's two headline ratios, computed from our results.

    Returns:
        ``(postdoms_vs_best_heuristic, postdoms_vs_best_combination)``.
    """
    postdoms = figure9_result.average("postdoms")
    best_heuristic = figure9_result.best_individual_average()
    best_combination = max(
        figure10_result.average(spec)
        for spec in figure10_result.specs
        if spec != "postdoms"
    )
    heuristic_ratio = postdoms / best_heuristic if best_heuristic > 0 else float("inf")
    combination_ratio = (
        postdoms / best_combination if best_combination > 0 else float("inf")
    )
    return heuristic_ratio, combination_ratio
