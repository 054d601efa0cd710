"""Property tests: the analysis cache is observably transparent.

Whatever the cache does — memory hits, disk round trips, sharing one
:class:`~repro.analysis.pipeline.ProgramAnalyses` across callers — the
values it hands out must be exactly what a cold pipeline run computes,
and nothing a caller does to a returned structure may leak back into
later lookups.
"""

import os
import pickle
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import examples
from tests.strategies import damaged, synth_sources

from repro import sealed
from repro.analysis.pipeline import (
    _MAGIC,
    ANALYSIS_FORMAT_VERSION,
    AnalysisCache,
    compute_analyses,
    source_digest,
)
from repro.sim.trace import COLUMNS

_SETTINGS = dict(max_examples=examples(15), deadline=None)

# Small loop-plus-hammock programs with drawn dial/shape parameters:
# every example exercises the whole pipeline on a distinct program text.
small_loop_sources = synth_sources


def _trace_values(trace):
    """Every column, by value (instructions by pc), plus the halt flag."""
    columns = [list(getattr(trace, name)) for name in COLUMNS if name != "inst"]
    return trace.halted, columns, [inst.pc for inst in trace.inst]


def _fingerprint(analyses):
    """Value snapshot of everything the cache is trusted to preserve."""
    return (
        analyses.digest,
        analyses.trace_length,
        _trace_values(analyses.trace),
        len(analyses.cfgs),
        tuple(
            (point.trigger_pc, point.spawn_pc, point.category)
            for point in analyses.postdominator_points()
        ),
        tuple(
            (point.trigger_pc, point.spawn_pc, point.category)
            for point in analyses.loop_points()
        ),
    )


@settings(**_SETTINGS)
@given(source=small_loop_sources())
def test_cache_hit_equals_cold_compute(source):
    """A cached lookup returns values identical to a cold pipeline run,
    and the second lookup is a hit returning the same object."""
    cache = AnalysisCache()
    first = cache.analyses_for(source)
    second = cache.analyses_for(source)
    assert second is first
    assert cache.hits == 1 and cache.misses == 1
    assert _fingerprint(first) == _fingerprint(compute_analyses(source))
    assert first.digest == source_digest(source)


@settings(**_SETTINGS)
@given(source=small_loop_sources())
def test_mutating_returned_points_cannot_poison_cache(source):
    """The point accessors return fresh lists; clobbering them (and the
    profile-input list they feed) must not change later lookups."""
    cache = AnalysisCache()
    analyses = cache.analyses_for(source)
    expected = _fingerprint(analyses)

    stolen = analyses.postdominator_points()
    stolen.clear()
    stolen.append("poison")
    analyses.loop_points().clear()

    again = cache.analyses_for(source)
    assert _fingerprint(again) == expected
    assert again.postdominator_points() != stolen


@settings(**_SETTINGS)
@given(
    source=small_loop_sources(),
    distance=st.integers(min_value=1, max_value=64),
)
def test_spawn_profile_memo_is_transparent(source, distance):
    """The per-distance profile memo returns the same object per
    distance, with hint tables equal to an unmemoized recompute."""
    from repro.spawn import profile_spawn_points

    cache = AnalysisCache()
    analyses = cache.analyses_for(source)
    memoized = analyses.spawn_profile(distance)
    assert analyses.spawn_profile(distance) is memoized

    points = analyses.postdominator_points() + analyses.loop_points()
    fresh = profile_spawn_points(analyses.trace, points, distance)
    policy = analyses.spawn_analysis.policy("postdoms")
    memo_hints = memoized.hint_table(policy)
    fresh_hints = fresh.hint_table(policy)
    assert len(memo_hints) == len(fresh_hints)
    for point in policy:
        memo_entry = memo_hints.lookup(point.trigger_pc)
        fresh_entry = fresh_hints.lookup(point.trigger_pc)
        assert (memo_entry is None) == (fresh_entry is None)
        if memo_entry is not None:
            assert memo_entry.spawn_point.key() == fresh_entry.spawn_point.key()


@settings(**_SETTINGS)
@given(source=small_loop_sources())
def test_disk_layer_round_trips_by_value(source):
    """A fresh cache reloading from disk sees the same values the
    computing cache produced, and flags a disk hit, not a miss.  The
    hit reads the static part only; the trace is rebuilt once, on first
    use, by re-running the loaded program, so every record points at
    that program's own instruction object."""
    root = tempfile.mkdtemp(prefix="analysis-cache-prop-")
    try:
        writer = AnalysisCache(disk_root=root)
        computed = writer.analyses_for(source)
        assert writer.misses == 1
        computed.trace
        assert writer.trace_loads == 0

        reader = AnalysisCache(disk_root=root)
        reloaded = reader.analyses_for(source)
        assert reader.disk_hits == 1 and reader.misses == 0
        assert reloaded is not computed
        assert reloaded.trace_length == computed.trace_length
        assert reader.trace_loads == 0
        assert _trace_values(reloaded.trace) == _trace_values(computed.trace)
        assert reader.trace_loads == 1 and reader.corrupt == 0
        assert _fingerprint(reloaded) == _fingerprint(computed)
        assert reader.trace_loads == 1
        program = reloaded.program
        assert all(inst is program.fetch(inst.pc) for inst in reloaded.trace.inst)
    finally:
        shutil.rmtree(root, ignore_errors=True)


_LOOP_SOURCE = """
    .text
    main:
        li   r1, 4
    loop:
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
"""

_COUNTED_SOURCE = """
    .text
    main:
        li   r10, 4
    loop:
        addi r3, r3, 1
        addi r10, r10, -1
        bgtz r10, loop
        halt
"""


def test_a_rebuilt_trace_compiles_the_computed_block_table():
    """Neither a miss nor a disk hit compiles a block table; the trace a
    disk hit rebuilds compiles, on first use, a table equal to the one
    the computing cache's trace compiles."""
    from repro.sim.blocks import (
        BlockTable,
        block_table_for,
        cache_counters,
        counters_delta,
    )

    def table_fields(trace):
        table = block_table_for(trace)
        return {name: getattr(table, name) for name in BlockTable.__slots__}

    root = tempfile.mkdtemp(prefix="analysis-cache-blocks-")
    try:
        before = cache_counters()
        computed = AnalysisCache(disk_root=root).analyses_for(_LOOP_SOURCE)
        reader = AnalysisCache(disk_root=root)
        reloaded = reader.analyses_for(_LOOP_SOURCE)
        reloaded.trace
        assert reader.disk_hits == 1 and reader.trace_loads == 1
        assert counters_delta(before)["table_misses"] == 0
        assert table_fields(reloaded.trace) == table_fields(computed.trace)
        assert counters_delta(before)["table_misses"] == 2
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_a_miss_writes_one_static_part_and_no_trace(tmp_path):
    """An entry is one sealed file: a miss writes its static part and
    nothing else, and rebuilding the trace writes nothing."""
    cache = AnalysisCache(disk_root=str(tmp_path))
    cache.analyses_for(_LOOP_SOURCE)
    reader = AnalysisCache(disk_root=str(tmp_path))
    reader.analyses_for(_LOOP_SOURCE).trace
    written = [str(path) for path in tmp_path.rglob("*") if path.is_file()]
    assert written == [cache._path(source_digest(_LOOP_SOURCE))]
    _read_part(written[0])


def test_estimating_a_fresh_program_compiles_no_block_table():
    """The estimate tier needs a program's analyses, not its timing
    kernel's tables: estimating a program no core has run compiles
    none."""
    from repro.analysis.estimate import estimate_speedup
    from repro.sim.blocks import cache_counters, counters_delta
    from repro.workloads import clear_cache

    clear_cache()
    before = cache_counters()
    estimate_speedup("gzip", "postdoms", scale=0.05)
    assert counters_delta(before)["table_misses"] == 0


def test_peeking_a_disk_entry_reads_no_trace():
    """The trace length comes from the static part: peeking, and the
    lookups the scheduler costs with, never rebuild a trace."""
    root = tempfile.mkdtemp(prefix="analysis-cache-peek-")
    try:
        expected = AnalysisCache(disk_root=root).analyses_for(_LOOP_SOURCE).trace_length

        reader = AnalysisCache(disk_root=root)
        assert reader.peek_trace_length(_LOOP_SOURCE) == expected
        assert reader.disk_hits == 1
        assert reader.analyses_for(_LOOP_SOURCE).trace_length == expected
        assert reader.peek_trace_length(_LOOP_SOURCE) == expected
        analyses = reader.analyses_for(_LOOP_SOURCE)
        assert "dynamic={}".format(expected) in repr(analyses)
        assert reader.trace_loads == 0 and analyses._trace is None

        assert AnalysisCache(disk_root=root).peek_trace_length("halt") is None
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_disk_hits_hold_no_open_files():
    """A loaded entry holds no open file, before or after its trace is
    rebuilt."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc")
    root = tempfile.mkdtemp(prefix="analysis-cache-fds-")
    try:
        AnalysisCache(disk_root=root).analyses_for(_LOOP_SOURCE)
        before = len(os.listdir(fd_dir))
        reader = AnalysisCache(disk_root=root)
        analyses = reader.analyses_for(_LOOP_SOURCE)
        assert len(os.listdir(fd_dir)) == before
        analyses.trace
        assert len(os.listdir(fd_dir)) == before
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _read_part(path):
    """The verified body of one part file."""
    with open(path, "rb") as handle:
        return sealed.unseal(handle.read(), _MAGIC, ANALYSIS_FORMAT_VERSION)


def _write_part(path, body, version=ANALYSIS_FORMAT_VERSION):
    """Write ``body`` behind a valid seal, so only the checks on the
    part's contents can catch it."""
    sealed.write(path, sealed.seal(body, _MAGIC, version))


def test_corrupt_disk_entry_is_a_miss_and_is_overwritten():
    """Truncated or garbage entries never propagate: the cache
    recomputes and replaces them, and counts them as corrupt."""
    root = tempfile.mkdtemp(prefix="analysis-cache-corrupt-")
    try:
        cache = AnalysisCache(disk_root=root)
        computed = cache.analyses_for(_COUNTED_SOURCE)
        assert cache.corrupt == 0
        digest = source_digest(_COUNTED_SOURCE)
        path = cache._path(digest)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")

        fresh = AnalysisCache(disk_root=root)
        recomputed = fresh.analyses_for(_COUNTED_SOURCE)
        assert fresh.misses == 1 and fresh.disk_hits == 0 and fresh.corrupt == 1
        assert _fingerprint(recomputed) == _fingerprint(computed)
        assert os.path.getsize(path) > len(b"not a pickle")

        reader = AnalysisCache(disk_root=root)
        reader.analyses_for(_COUNTED_SOURCE)
        assert reader.disk_hits == 1 and reader.corrupt == 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_version_skewed_entry_is_corrupt_and_rewritten():
    """An entry of another format version (or keyed to another program)
    is a corrupt miss, never served."""
    root = tempfile.mkdtemp(prefix="analysis-cache-skew-")
    try:
        cache = AnalysisCache(disk_root=root)
        computed = cache.analyses_for(_COUNTED_SOURCE)
        path = cache._path(computed.digest)
        _write_part(path, _read_part(path), version=ANALYSIS_FORMAT_VERSION - 1)
        assert AnalysisCache(disk_root=root).peek_trace_length(_COUNTED_SOURCE) is None

        fresh = AnalysisCache(disk_root=root)
        assert _fingerprint(fresh.analyses_for(_COUNTED_SOURCE)) == _fingerprint(
            computed
        )
        assert fresh.corrupt == 1 and fresh.misses == 1
        _read_part(path)  # rewritten in the current format

        other = cache._path(source_digest(_LOOP_SOURCE))
        os.makedirs(os.path.dirname(other), exist_ok=True)
        shutil.copyfile(path, other)
        skewed = AnalysisCache(disk_root=root)
        assert skewed.analyses_for(_LOOP_SOURCE).digest == source_digest(_LOOP_SOURCE)
        assert skewed.corrupt == 1 and skewed.misses == 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_a_failed_disk_write_never_fails_a_lookup(tmp_path):
    """Disk writes are best effort and leave no temporary file."""
    cache = AnalysisCache(disk_root=str(tmp_path))
    path = cache._path(source_digest(_LOOP_SOURCE))
    os.makedirs(path)  # a directory where the static part goes
    analyses = cache.analyses_for(_LOOP_SOURCE)
    assert cache.misses == 1 and analyses.trace_length > 0
    assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]


def test_a_wrong_trace_length_is_counted_corrected_and_rewritten():
    """A static part whose ``trace_length`` disagrees with the trace its
    program rebuilds is never served as read: the rebuild counts it in
    ``corrupt``, corrects the length and rewrites the entry."""
    root = tempfile.mkdtemp(prefix="analysis-cache-length-")
    try:
        computed = AnalysisCache(disk_root=root).analyses_for(_COUNTED_SOURCE)
        path = AnalysisCache(disk_root=root)._path(computed.digest)
        entry = pickle.loads(_read_part(path))
        entry["trace_length"] += 1
        _write_part(path, pickle.dumps(entry))

        reader = AnalysisCache(disk_root=root)
        reloaded = reader.analyses_for(_COUNTED_SOURCE)
        assert reloaded.trace_length == computed.trace_length + 1
        assert reader.disk_hits == 1 and reader.corrupt == 0
        reloaded.trace
        assert reader.corrupt == 1 and reader.trace_loads == 1
        assert _fingerprint(reloaded) == _fingerprint(computed)

        healed = AnalysisCache(disk_root=root)
        assert healed.peek_trace_length(_COUNTED_SOURCE) == computed.trace_length
        assert _fingerprint(healed.analyses_for(_COUNTED_SOURCE)) == (
            _fingerprint(computed)
        )
        assert healed.corrupt == 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def entry():
    """``(digest, static part bytes, fingerprint)`` of one intact entry
    of ``_COUNTED_SOURCE``."""
    with tempfile.TemporaryDirectory() as root:
        cache = AnalysisCache(disk_root=root)
        computed = cache.analyses_for(_COUNTED_SOURCE)
        with open(cache._path(computed.digest), "rb") as handle:
            return computed.digest, handle.read(), _fingerprint(computed)


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data())
def test_a_damaged_analysis_file_is_never_served(entry, data):
    """One flipped bit or a truncation anywhere in the static part is
    caught: a corrupt miss, so the pipeline reruns and rewrites the
    entry."""
    digest, static, fingerprint = entry
    with tempfile.TemporaryDirectory() as root:
        cache = AnalysisCache(disk_root=root)
        path = cache._path(digest)
        sealed.write(path, data.draw(damaged(static)))

        probe = AnalysisCache(disk_root=root)
        assert probe._disk_load(digest) is None and probe.corrupt == 1
        analyses = cache.analyses_for(_COUNTED_SOURCE)
        assert cache.misses == 1 and cache.disk_hits == 0 and cache.corrupt == 1
        assert _fingerprint(analyses) == fingerprint

        _read_part(path)
        healed = AnalysisCache(disk_root=root)
        assert _fingerprint(healed.analyses_for(_COUNTED_SOURCE)) == fingerprint
        assert healed.disk_hits == 1 and healed.corrupt == 0
