"""The analysis memo lives outside the cyclic GC's generations.

:class:`~repro.analysis.pipeline.AnalysisCache` calls :func:`gc.freeze`
whenever it memoizes an entry or attaches a trace part, so the
long-lived programs, traces and decoded columns stop being rescanned by
every full collection; :meth:`AnalysisCache.clear` unfreezes them so
dropped entries can be collected.  Frozen objects are absent from
:func:`gc.get_objects`, which lists the three collected generations
only.
"""

import gc

import pytest

from repro.analysis.pipeline import AnalysisCache
from repro.workloads.suite import workload_source

_SOURCE = workload_source("mcf", 0.1)


@pytest.fixture
def disk_root(tmp_path):
    yield str(tmp_path / "analysis")
    gc.unfreeze()


def _collected(*objects):
    """The ``objects`` the cyclic GC still scans."""
    tracked = {id(item) for item in gc.get_objects()}
    return [item for item in objects if id(item) in tracked]


def test_computed_entry_is_frozen(disk_root):
    cache = AnalysisCache(disk_root)
    analyses = cache.analyses_for(_SOURCE)
    assert cache.misses == 1
    assert _collected(analyses.program, analyses.trace.pc) == []


def test_disk_loaded_entry_is_frozen(disk_root):
    AnalysisCache(disk_root).analyses_for(_SOURCE)
    cache = AnalysisCache(disk_root)
    analyses = cache.analyses_for(_SOURCE)
    assert cache.disk_hits == 1
    assert _collected(analyses.program) == []
    pcs = analyses.trace.pc
    assert cache.trace_loads == 1
    assert _collected(pcs) == []


def test_peeked_entry_is_frozen(disk_root):
    AnalysisCache(disk_root).analyses_for(_SOURCE)
    cache = AnalysisCache(disk_root)
    assert cache.peek_trace_length(_SOURCE) is not None
    assert cache.disk_hits == 1
    assert _collected(cache.analyses_for(_SOURCE).program) == []


def test_clear_unfreezes(disk_root):
    cache = AnalysisCache(disk_root)
    cache.analyses_for(_SOURCE)
    assert gc.get_freeze_count() > 0
    cache.clear()
    assert gc.get_freeze_count() == 0
    assert len(cache) == 0


def test_memo_hit_returns_the_same_object(disk_root):
    cache = AnalysisCache(disk_root)
    analyses = cache.analyses_for(_SOURCE)
    assert cache.analyses_for(_SOURCE) is analyses
    assert cache.hits == 1
    assert cache.misses == 1
