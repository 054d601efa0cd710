"""Deterministic fault injection for the scheduler and service tests.

Real worker deaths (OOM kills, segfaults) surface as
``BrokenProcessPool`` when a chunk future is resolved.  Reproducing
that by actually killing fork children mid-grid is timing-dependent, so
these helpers inject the *observable symptom* deterministically:
:func:`broken_pool` wraps the warm pool so chosen chunk submissions
come back as already-failed futures carrying ``BrokenProcessPool``,
exactly what a dead worker produces, while untouched submissions run on
the genuine pool.

:func:`corrupt_cache_entry` damages one content-addressed
``ResultCache`` entry on disk (the torn-write / bit-rot case), which
the cache must classify as corrupt — not a clean miss — and re-simulate.
"""

import contextlib
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

from repro.experiments import scheduler
from repro.experiments.runner import Cell


class PoolFaultPlan:
    """Which chunk submissions (0-based, process-wide order) must die."""

    def __init__(self, fail_submits):
        self.fail_submits = frozenset(fail_submits)
        self.submits = 0
        self.broken = 0

    def should_fail(self):
        index = self.submits
        self.submits += 1
        if index in self.fail_submits:
            self.broken += 1
            return True
        return False


class _FlakyPool:
    """Executor proxy: planned submissions fail like a dead worker."""

    def __init__(self, pool, plan, after_run):
        self._pool = pool
        self._plan = plan
        self._after_run = after_run

    def submit(self, fn, *args, **kwargs):
        if not self._plan.should_fail():
            return self._pool.submit(fn, *args, **kwargs)
        future = Future()
        death = BrokenProcessPool("injected worker death (tests.faults)")
        if self._after_run:
            self._pool.submit(fn, *args, **kwargs).add_done_callback(
                lambda _: future.set_exception(death)
            )
        else:
            future.set_exception(death)
        return future

    def __getattr__(self, name):
        return getattr(self._pool, name)


@contextlib.contextmanager
def broken_pool(fail_submits=(0,), after_run=False):
    """Make chosen warm-pool chunk submissions die mid-grid.

    Wraps :func:`repro.experiments.scheduler.warm_pool` so the
    ``fail_submits``-indexed submissions (counted across every grid
    inside the context) resolve to ``BrokenProcessPool``.  The yielded
    :class:`PoolFaultPlan` reports how many deaths were injected.  The
    real pool keeps running underneath, so the runner's recovery path
    (teardown + fresh pool + replan) is exercised against genuine
    workers.  With ``after_run`` a chosen submission runs first and
    dies when its chunk is done, so the chunks finished before it are
    delivered (a worker killed after its chunk, before reporting it).
    """
    plan = PoolFaultPlan(fail_submits)
    real_warm_pool = scheduler.warm_pool

    def flaky_warm_pool(workers):
        return _FlakyPool(real_warm_pool(workers), plan, after_run)

    scheduler.warm_pool = flaky_warm_pool
    try:
        yield plan
    finally:
        scheduler.warm_pool = real_warm_pool


def corrupt_cache_entry(
    cache_dir, name, spec, scale, config, profile_distance=None
):
    """Overwrite one on-disk result-cache entry with garbage bytes.

    Returns the damaged path.  ``profile_distance`` defaults to the
    config's ``max_spawn_distance``, matching how the runners key their
    cache entries.
    """
    from repro.experiments.parallel import ResultCache

    if profile_distance is None:
        profile_distance = config.max_spawn_distance
    cache = ResultCache(cache_dir)
    path = cache.path(Cell(name, spec, config, profile_distance).digest(scale))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as stream:
        stream.write(b"\x00garbage: not a pickle\x00")
    return path
