"""Property tests: a damaged result-cache entry is never served.

Every entry of :class:`~repro.experiments.parallel.ResultCache` is a
sha256-verified envelope around real :class:`SimStats`.  Whatever
happens to the bytes on disk — one flipped bit anywhere, header or
body, or a truncation at any offset — :meth:`ResultCache.load` must
refuse the entry, count it as corrupt and record its path, so the cell
is re-simulated instead of answered with stats nobody computed.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import examples
from tests.strategies import damaged

from repro.experiments.parallel import ResultCache
from repro.experiments.runner import Cell, ExperimentRunner
from repro.polyflow import PAPER_CONFIG

_SETTINGS = dict(max_examples=examples(200), deadline=None)

_SCALE = 0.1
_WORKLOADS = ("gzip", "mcf", "vortex")
_SPEC = "postdoms"


@pytest.fixture(scope="module")
def entries():
    """``{workload: (digest, entry bytes)}`` for real stored stats."""
    runner = ExperimentRunner(scale=_SCALE)
    distance = PAPER_CONFIG.max_spawn_distance
    stored = {}
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        for name in _WORKLOADS:
            cell = Cell(name, _SPEC, PAPER_CONFIG, distance)
            digest = cell.digest(_SCALE)
            cache.store(digest, runner.run_policy(name, _SPEC), cell.meta(_SCALE))
            with open(cache.path(digest), "rb") as handle:
                stored[name] = (digest, handle.read())
    return stored


@settings(**_SETTINGS)
@given(data=st.data())
def test_a_damaged_entry_is_never_served(entries, data):
    name = data.draw(st.sampled_from(_WORKLOADS))
    digest, intact = entries[name]
    entry = data.draw(damaged(intact))
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        path = cache.path(digest)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(entry)
        assert cache.load(digest) is None
        assert (cache.hits, cache.misses, cache.corrupt) == (0, 0, 1)
        assert cache.corrupt_paths == [path]

