"""Property tests: the analysis cache is observably transparent.

Whatever the cache does — memory hits, disk round trips, sharing one
:class:`~repro.analysis.pipeline.ProgramAnalyses` across callers — the
values it hands out must be exactly what a cold pipeline run computes,
and nothing a caller does to a returned structure may leak back into
later lookups.
"""

import os
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

_SETTINGS = dict(max_examples=examples(15), deadline=None)

# Small loop-plus-hammock programs with drawn dial/shape parameters:
# every example exercises the whole pipeline on a distinct program text.
small_loop_sources = synth_sources


def _trace_values(trace):
    """Every field of every record, by value, plus the halt flag."""
    return trace.halted, tuple(
        (
            record.seq,
            record.inst.pc,
            record.next_pc,
            record.taken,
            record.mem_keys,
            record.mem_dep,
            record.reg_deps,
        )
        for record in trace.records
    )


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
    hit reads the static part only; the trace part is read once, on
    first use, and every record points at the loaded program's own
    instruction object."""
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
        assert all(
            record.inst is program.fetch(record.inst.pc)
            for record in reloaded.trace.records
        )
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


def test_disk_layer_carries_compiled_block_tables():
    """Analyses persisted to disk include the compiled block table: a
    fresh process loading the entry gets a table hit, not a recompile,
    when its trace part is read on first use."""
    from repro.sim.blocks import block_table_for, cache_counters, counters_delta

    root = tempfile.mkdtemp(prefix="analysis-cache-blocks-")
    try:
        writer = AnalysisCache(disk_root=root)
        computed = writer.analyses_for(_LOOP_SOURCE)
        assert getattr(computed.trace, "_block_table", None) is not None

        reader = AnalysisCache(disk_root=root)
        reloaded = reader.analyses_for(_LOOP_SOURCE)
        assert reader.disk_hits == 1 and reader.trace_loads == 0
        before = cache_counters()
        table = block_table_for(reloaded.trace)
        delta = counters_delta(before)
        assert reader.trace_loads == 1
        assert delta["table_hits"] == 1 and delta["table_misses"] == 0
        assert table.batch_end == block_table_for(computed.trace).batch_end
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_peeking_a_disk_entry_reads_no_trace():
    """The trace length comes from the static part: peeking, and the
    lookups the scheduler costs with, never read a trace part."""
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
    """A loaded entry keeps a path, not a file handle."""
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
        path = cache._path(digest) + ".pkl"
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
        path = cache._path(computed.digest) + ".pkl"
        _write_part(path, _read_part(path), version=ANALYSIS_FORMAT_VERSION - 1)
        assert AnalysisCache(disk_root=root).peek_trace_length(_COUNTED_SOURCE) is None

        fresh = AnalysisCache(disk_root=root)
        assert _fingerprint(fresh.analyses_for(_COUNTED_SOURCE)) == _fingerprint(
            computed
        )
        assert fresh.corrupt == 1 and fresh.misses == 1
        _read_part(path)  # rewritten in the current format

        other = cache._path(source_digest(_LOOP_SOURCE)) + ".pkl"
        os.makedirs(os.path.dirname(other), exist_ok=True)
        shutil.copyfile(path, other)
        skewed = AnalysisCache(disk_root=root)
        assert skewed.analyses_for(_LOOP_SOURCE).digest == source_digest(_LOOP_SOURCE)
        assert skewed.corrupt == 1 and skewed.misses == 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_a_failed_disk_write_never_fails_a_lookup(tmp_path):
    """Disk writes are best effort and leave no temporary file.  The
    trace part is written first, so when it fails no static part is
    left to point at it."""
    cache = AnalysisCache(disk_root=str(tmp_path))
    base = cache._path(source_digest(_LOOP_SOURCE))
    os.makedirs(base + ".trace")  # a directory where the trace part goes
    analyses = cache.analyses_for(_LOOP_SOURCE)
    assert cache.misses == 1 and analyses.trace_length > 0
    assert os.listdir(os.path.dirname(base)) == [os.path.basename(base) + ".trace"]


def _damage(mode, base):
    """Damage the trace part of the entry at ``base``.  The last three
    modes forge parts behind valid seals."""
    path = base + ".trace"
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "missing":
        os.unlink(path)
    elif mode == "truncated":
        sealed.write(path, data[: len(data) // 2])
    elif mode == "garbage":
        sealed.write(path, bytes(byte ^ 0xFF for byte in data))
    elif mode == "unpicklable":
        _write_part(path, b"not a pickle")
    else:
        from repro.analysis.pipeline import _dump_trace_part

        reference = compute_analyses(_COUNTED_SOURCE)
        digest, trace = reference.digest, reference.trace
        if mode == "wrong-digest":
            digest = "0" * 64
        else:
            trace = trace.slice_after(1)
        _write_part(
            path, _dump_trace_part(digest, trace, reference.program.instructions)
        )


@pytest.mark.parametrize(
    "mode",
    ["missing", "truncated", "garbage", "unpicklable", "wrong-digest", "wrong-length"],
)
def test_damaged_trace_part_is_recomputed_and_counted(mode):
    """A trace part that is missing, truncated, damaged, unpicklable or
    does not match its static part is never served: the trace is
    recomputed, counted as corrupt, and the entry rewritten."""
    root = tempfile.mkdtemp(prefix="analysis-cache-trace-")
    try:
        writer = AnalysisCache(disk_root=root)
        computed = writer.analyses_for(_COUNTED_SOURCE)
        _damage(mode, writer._path(computed.digest))

        reader = AnalysisCache(disk_root=root)
        reloaded = reader.analyses_for(_COUNTED_SOURCE)
        assert reader.disk_hits == 1 and reader.corrupt == 0
        trace = reloaded.trace
        assert reader.corrupt == 1 and reader.trace_loads == 0
        assert reloaded.trace is trace
        assert _fingerprint(reloaded) == _fingerprint(computed)
        assert all(
            record.inst is reloaded.program.fetch(record.inst.pc)
            for record in trace.records
        )
        assert getattr(trace, "_block_table", None) is not None

        healed = AnalysisCache(disk_root=root)
        assert _trace_values(healed.analyses_for(_COUNTED_SOURCE).trace) == (
            _trace_values(computed.trace)
        )
        assert healed.trace_loads == 1 and healed.corrupt == 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def entry():
    """``(digest, {suffix: part bytes}, fingerprint)`` of one intact
    entry of ``_COUNTED_SOURCE``."""
    with tempfile.TemporaryDirectory() as root:
        cache = AnalysisCache(disk_root=root)
        computed = cache.analyses_for(_COUNTED_SOURCE)
        parts = {}
        for suffix in (".pkl", ".trace"):
            with open(cache._path(computed.digest) + suffix, "rb") as handle:
                parts[suffix] = handle.read()
        return computed.digest, parts, _fingerprint(computed)


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data())
def test_a_damaged_analysis_file_is_never_served(entry, data):
    """One flipped bit or a truncation anywhere in either part file is
    caught.  A damaged static part is a corrupt miss: the pipeline
    reruns and rewrites the entry.  A damaged trace part is recomputed
    and counted when the trace is first used."""
    digest, parts, fingerprint = entry
    suffix = data.draw(st.sampled_from(sorted(parts)))
    with tempfile.TemporaryDirectory() as root:
        cache = AnalysisCache(disk_root=root)
        base = cache._path(digest)
        for name, body in parts.items():
            sealed.write(base + name, body)
        sealed.write(base + suffix, data.draw(damaged(parts[suffix])))

        if suffix == ".pkl":
            probe = AnalysisCache(disk_root=root)
            assert probe._disk_load(digest) is None and probe.corrupt == 1
            analyses = cache.analyses_for(_COUNTED_SOURCE)
            assert cache.misses == 1 and cache.disk_hits == 0
        else:
            analyses = cache.analyses_for(_COUNTED_SOURCE)
            assert cache.disk_hits == 1 and cache.corrupt == 0
            analyses.trace
            assert cache.trace_loads == 0
        assert cache.corrupt == 1
        assert _fingerprint(analyses) == fingerprint

        for name in parts:
            _read_part(base + name)
        healed = AnalysisCache(disk_root=root)
        assert _fingerprint(healed.analyses_for(_COUNTED_SOURCE)) == fingerprint
        assert healed.disk_hits == 1 and healed.corrupt == 0
