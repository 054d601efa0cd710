"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark regenerates one of the paper's evaluation figures end to
end (workload build, functional simulation, spawn analysis, profiling,
and all cycle-level machine runs) and prints the same rows/series the
paper reports.  Workloads run at a reduced scale so the whole suite
finishes in a few minutes; the shape assertions are the ones the
paper's claims rest on.
"""

import pytest

from repro.experiments import ParallelExperimentRunner
from repro.workloads import clear_cache

#: Workload scale for benchmark runs (full scale = 1.0).
BENCHMARK_SCALE = 0.5


@pytest.fixture(scope="session")
def runner():
    """One shared experiment runner so figures reuse cached runs; it
    runs cells through the sharing executor, as the figure CLI does."""
    clear_cache()
    return ParallelExperimentRunner(scale=BENCHMARK_SCALE)
