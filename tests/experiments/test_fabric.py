"""Tests for the experiment fabric: wire protocol, the one result-cache
root, both transports, placement invariance, and fault recovery."""

import contextlib
import io
import json
import os
import pickle
import re
import tempfile
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError
from repro.experiments import parallel, scheduler, synth_sweep
from repro.experiments import runner as runner_module
from repro.experiments.fabric import protocol
from repro.experiments.fabric.transport import (
    FabricWorkerDied,
    SubprocessWorkerTransport,
)
from repro.experiments.parallel import Incident, ParallelExperimentRunner, ResultCache
from repro.experiments.runner import Cell, ExperimentRunner
from repro.polyflow import PAPER_CONFIG
from repro.service.client import RETRY_DELAY_CAP, retry_delay
from repro.spawn.points import SpawnCategory
from repro.workloads import clear_cache
from repro.workloads.synth import catalog_names
from tests.faults import broken_pool
from tests.helpers import grid_order_chunks

_SCALE = 0.2
_SPECS = ("postdoms", "loop")


@pytest.fixture(scope="module", autouse=True)
def _fresh_workloads():
    clear_cache()


def _grid_names(count=4):
    return [
        name for name in catalog_names() if name.startswith("synth/L2H1")
    ][:count]


def _grid_jobs(count=4):
    return [(name, spec) for name in _grid_names(count) for spec in _SPECS]


@pytest.fixture(scope="module")
def serial_packed():
    """Ground truth: the packed stats of every grid cell, run serially."""
    runner = ExperimentRunner(scale=_SCALE)
    return {
        (name, spec): scheduler.pack_stats(runner.run_policy(name, spec))
        for name, spec in _grid_jobs()
    }


def _assert_matches_serial(runner, serial_packed):
    for (name, spec), packed in serial_packed.items():
        assert scheduler.pack_stats(runner.run_policy(name, spec)) == packed


# -- wire protocol ----------------------------------------------------------------


def test_frame_round_trip():
    stream = io.BytesIO()
    protocol.write_frame(stream, {"kind": "chunk", "id": 3})
    protocol.write_frame(stream, {"kind": "shutdown"})
    stream.seek(0)
    assert protocol.read_frame(stream) == {"kind": "chunk", "id": 3}
    assert protocol.read_frame(stream) == {"kind": "shutdown"}
    assert protocol.read_frame(stream) is None  # clean EOF


def test_frame_truncated_mid_body_raises():
    stream = io.BytesIO()
    protocol.write_frame(stream, {"kind": "result", "id": 0})
    truncated = io.BytesIO(stream.getvalue()[:-4])
    with pytest.raises(protocol.FabricProtocolError):
        protocol.read_frame(truncated)


def test_frame_length_bound():
    stream = io.BytesIO(b"\xff\xff\xff\xff")
    with pytest.raises(protocol.FabricProtocolError):
        protocol.read_frame(stream)


def test_frames_must_carry_a_kind():
    stream = io.BytesIO()
    body = b"[1,2,3]"
    stream.write(len(body).to_bytes(4, "big") + body)
    stream.seek(0)
    with pytest.raises(protocol.FabricProtocolError):
        protocol.read_frame(stream)


def test_check_hello_rejects_version_skew():
    with pytest.raises(protocol.FabricProtocolError):
        protocol.check_hello({"kind": "hello", "wire_version": -1})
    with pytest.raises(protocol.FabricProtocolError):
        protocol.check_hello(None)
    frame = {"kind": "hello", "wire_version": protocol.WIRE_VERSION}
    assert protocol.check_hello(frame) is frame


def test_packed_stats_survive_the_json_round_trip():
    """Spawn-category enum keys and cache tuples are restored exactly."""
    stats = ExperimentRunner(scale=0.1).run_policy("gzip", "postdoms")
    packed = scheduler.pack_stats(stats)
    wire = json.loads(protocol.canonical_json(protocol.encode_packed(packed)))
    decoded = protocol.decode_packed(wire)
    assert decoded == packed
    for category, _ in decoded[1]:
        assert isinstance(category, SpawnCategory)
    for _, counts in decoded[2]:
        assert isinstance(counts, tuple)


def test_cell_round_trip_default_config():
    cell = ("gzip", "postdoms", PAPER_CONFIG, None)
    wire = json.loads(protocol.canonical_json(protocol.encode_cell(*cell)))
    assert protocol.decode_cell(wire) == cell


def test_cell_round_trip_override_config():
    import dataclasses

    config = dataclasses.replace(PAPER_CONFIG, rob_entries=256)
    cell = ("twolf", "loop+procFT", config, 12)
    wire = json.loads(protocol.canonical_json(protocol.encode_cell(*cell)))
    assert protocol.decode_cell(wire) == cell


# -- the result-cache root --------------------------------------------------------
#
# One ResultCache root serves every transport and any runs that share it:
# the tests below pin the properties sharing leans on (verified reads,
# atomic writes, gc).


def test_store_round_trip(tmp_path):
    store = ResultCache(str(tmp_path / "store"))
    digest = "ab" + "0" * 62
    assert not os.path.exists(store.path(digest))
    assert store.load(digest) is None
    store.store(digest, "stats-payload", {"workload": "x"})
    assert os.path.exists(store.path(digest))
    assert len(store) == 1
    assert store.load(digest) == ("stats-payload", None)
    assert (store.stores, store.hits, store.misses) == (1, 1, 1)


def test_store_rejects_corrupt_entries(tmp_path):
    store = ResultCache(str(tmp_path / "store"))
    digest = "cd" + "0" * 62
    store.store(digest, "payload", {})
    with open(store.path(digest), "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        handle.write(b"\x00")
    assert store.load(digest) is None
    assert store.corrupt_paths == [store.path(digest)]
    assert (store.corrupt, store.misses) == (1, 0)


def test_store_concurrent_publish_never_tears(tmp_path):
    """Racing writers of one digest: readers always see a whole entry
    (one of the payloads), never a torn mix."""
    store = ResultCache(str(tmp_path / "store"))
    digest = "ef" + "0" * 62
    payloads = [bytes([value]) * 4096 for value in (1, 2, 3, 4)]
    store.store(digest, payloads[0], {})
    stop = threading.Event()
    failures = []

    def store_loop(payload):
        while not stop.is_set():
            ResultCache(str(tmp_path / "store")).store(digest, payload, {})

    writers = [
        threading.Thread(target=store_loop, args=(payload,), daemon=True)
        for payload in payloads
    ]
    for writer in writers:
        writer.start()
    reader = ResultCache(str(tmp_path / "store"))
    for _ in range(200):
        entry = reader.load(digest)
        if entry is None or entry[0] not in payloads:
            failures.append(entry)
    stop.set()
    for writer in writers:
        writer.join(timeout=5.0)
    assert not failures
    assert reader.corrupt == 0


def test_store_gc_prunes_corrupt_then_lru(tmp_path):
    store = ResultCache(str(tmp_path / "store"))
    digests = ["{:02x}".format(index) + "0" * 62 for index in range(4)]
    for age, digest in enumerate(digests):
        store.store(digest, "x" * 100, {})
        os.utime(store.path(digest), (1000 + age, 1000 + age))
    with open(store.path(digests[3]), "wb") as handle:
        handle.write(b"damaged")
    entry_bytes = os.path.getsize(store.path(digests[0]))
    report = store.gc(max_bytes=2 * entry_bytes)
    assert report["removed_corrupt"] == 1
    assert report["removed_lru"] == 1  # the oldest valid entry
    assert report["kept_entries"] == 2
    assert [os.path.exists(store.path(digest)) for digest in digests] == [
        False,
        True,
        True,
        False,
    ]


def test_v2_bare_pickle_is_a_clean_miss_and_gc_prunes_it(
    tmp_path, monkeypatch, serial_packed
):
    """An entry left by the v2 format (a bare pickle under a v2 digest)
    is never looked up: the cell re-simulates without a corrupt
    incident, and ``cache-gc`` prunes the stale file."""
    name, spec = _grid_jobs()[0]
    cache_dir = str(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(runner_module, "CACHE_FORMAT_VERSION", 2)
        v2_digest = Cell(
            name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance
        ).digest(_SCALE)
    v2_path = ResultCache(cache_dir).path(v2_digest)
    os.makedirs(os.path.dirname(v2_path))
    with open(v2_path, "wb") as handle:
        pickle.dump({"meta": {"version": 2}, "stats": "v2", "metrics": None}, handle)

    runner = ParallelExperimentRunner(scale=_SCALE, cache_dir=cache_dir)
    assert runner.prefetch([(name, spec)]) == 1
    assert runner.cache.corrupt == 0
    assert runner.summary.corrupt_entries == []
    assert scheduler.pack_stats(runner.run_policy(name, spec)) == (
        serial_packed[(name, spec)]
    )
    report = ResultCache(cache_dir).gc()
    assert report["removed_corrupt"] == 1
    assert report["kept_entries"] == 1
    assert not os.path.exists(v2_path)


def test_corrupt_shared_entry_is_a_run_summary_incident(tmp_path, serial_packed):
    """A damaged entry in the root a fabric run shares is booked like
    any damaged entry: listed in ``corrupt_entries``, re-simulated, and
    rewritten intact by the parent."""
    name, spec = _grid_jobs()[0]
    cache_dir = str(tmp_path / "cache")
    digest = Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance).digest(
        _SCALE
    )
    damaged = ResultCache(cache_dir).path(digest)
    os.makedirs(os.path.dirname(damaged))
    with open(damaged, "wb") as handle:
        handle.write(b"damaged")
    runner = _fabric_runner(tmp_path, cache_dir=cache_dir)
    try:
        assert runner.prefetch([(name, spec)]) == 1
    finally:
        runner.shutdown_fabric()
    assert runner.summary.corrupt_entries == [damaged]
    assert runner.summary.as_dict()["corrupt_cache_entries"] == 1
    # Probed once: the inline cell runs without a second lookup.
    assert runner.cache.corrupt == 1
    assert scheduler.pack_stats(runner.run_policy(name, spec)) == (
        serial_packed[(name, spec)]
    )
    assert ResultCache(cache_dir).load(digest) is not None


def test_filled_cache_dir_serves_a_fabric_sweep(tmp_path, capsys):
    """A directory filled by a plain ``--cache-dir`` run serves a
    two-worker sweep over the same root: nothing is simulated or
    shipped, and the coverage map is the same."""
    from repro.experiments.__main__ import main

    cache_dir = str(tmp_path / "cache")
    sweep = ["synth", "--slice", "L2H1", "--limit", "2", "--scale", str(_SCALE)]
    assert main(sweep + ["--cache-dir", cache_dir]) == 0
    serial = capsys.readouterr()
    assert main(sweep + ["--cache-dir", cache_dir, "--fabric-workers", "2"]) == 0
    fabric = capsys.readouterr()
    assert fabric.out == serial.out
    assert "run summary: 0 simulated" in fabric.err
    assert "  fabric:" not in fabric.err


# -- result-cache GC --------------------------------------------------------------


def _cache_entry(root, digest, age):
    cache = ResultCache(root)
    cache.store(digest, digest, {})
    path = cache.path(digest)
    os.utime(path, (1000 + age, 1000 + age))
    return path


def test_result_cache_gc_corrupt_first(tmp_path):
    root = str(tmp_path / "cache")
    kept = _cache_entry(root, "aa" + "0" * 62, age=0)
    corrupt = os.path.join(root, "bb", "bb" + "0" * 62 + ".pkl")
    os.makedirs(os.path.dirname(corrupt))
    with open(corrupt, "wb") as handle:
        handle.write(b"garbage")
    report = ResultCache(root).gc()
    assert report["removed_corrupt"] == 1
    assert report["removed_lru"] == 0
    assert os.path.exists(kept)
    assert not os.path.exists(corrupt)
    # The emptied shard directory is removed too.
    assert not os.path.isdir(os.path.dirname(corrupt))


def test_result_cache_gc_evicts_lru_to_fit(tmp_path):
    root = str(tmp_path / "cache")
    paths = [
        _cache_entry(root, "{:02x}".format(index) + "0" * 62, age=index)
        for index in range(4)
    ]
    entry_bytes = os.path.getsize(paths[0])
    report = ResultCache(root).gc(max_bytes=2 * entry_bytes)
    assert report["removed_lru"] == 2
    assert report["kept_entries"] == 2
    # Oldest mtimes went first.
    assert not os.path.exists(paths[0]) and not os.path.exists(paths[1])
    assert os.path.exists(paths[2]) and os.path.exists(paths[3])


def test_result_cache_gc_leaves_the_analysis_tree_alone(tmp_path):
    root = str(tmp_path / "cache")
    _cache_entry(root, "aa" + "0" * 62, age=0)
    analysis = os.path.join(root, "analysis", "program.pkl")
    os.makedirs(os.path.dirname(analysis))
    with open(analysis, "wb") as handle:
        handle.write(b"not swept despite being unpicklable")
    report = ResultCache(root).gc(max_bytes=0)
    assert report["removed_corrupt"] == 0
    assert os.path.exists(analysis)


def test_cache_gc_keeps_only_intact_analysis_static_parts(tmp_path, capsys):
    """``cache-gc`` also sweeps the analysis tree: it prunes a
    bit-flipped static part and deletes an orphan trace part (no longer
    read), keeping only the intact static part."""
    from repro import sealed
    from repro.analysis.pipeline import _MAGIC, ANALYSIS_FORMAT_VERSION, AnalysisCache
    from repro.experiments.__main__ import main

    cache_dir = str(tmp_path / "cache")
    analysis = AnalysisCache(os.path.join(cache_dir, parallel.ANALYSIS_CACHE_SUBDIR))
    entry = bytearray(sealed.seal(b"static part", _MAGIC, ANALYSIS_FORMAT_VERSION))
    good = analysis._path("aa" + "0" * 62)
    sealed.write(good, bytes(entry))
    entry[-1] ^= 0x01
    flipped = analysis._path("bb" + "0" * 62)
    sealed.write(flipped, bytes(entry))
    sealed.write(flipped[: -len(".pkl")] + ".trace", b"an orphan trace part")

    assert main(["cache-gc", "--cache-dir", cache_dir]) == 0
    assert "analysis cache {}: 1 corrupt pruned, 1 trace parts deleted".format(
        analysis.disk_root
    ) in capsys.readouterr().out
    kept = [
        os.path.join(directory, name)
        for directory, _, names in os.walk(cache_dir)
        for name in names
    ]
    assert kept == [good]


def test_sweep_entries_on_a_missing_root(tmp_path):
    report = ResultCache(str(tmp_path / "nowhere")).gc()
    assert report["kept_entries"] == 0
    assert report["removed_bytes"] == 0


# -- shard planning ---------------------------------------------------------------


def test_plan_shards_balances_lpt():
    shards = scheduler.plan_shards([5, 4, 3, 2, 1], 2)
    loads = [sum([5, 4, 3, 2, 1][index] for index in shard) for shard in shards]
    assert sorted(loads) == [7, 8]
    assert sorted(index for shard in shards for index in shard) == [0, 1, 2, 3, 4]


def test_plan_shards_is_deterministic():
    first = scheduler.plan_shards([3, 3, 3, 3], 2)
    second = scheduler.plan_shards([3, 3, 3, 3], 2)
    assert first == second
    assert all(shard == sorted(shard) for shard in first)


# -- retry jitter -----------------------------------------------------------------


def test_retry_delay_draws_decorrelated_jitter():
    windows = []

    def rng(low, high):
        windows.append((low, high))
        return low

    assert retry_delay(2.0, rng=rng) == 2.0
    assert retry_delay(2.0, previous=4.0, rng=rng) == 2.0
    assert windows == [(2.0, 6.0), (2.0, 12.0)]


def test_retry_delay_never_undercuts_the_hint():
    import random

    rng = random.Random(7).uniform
    delay = None
    for _ in range(50):
        delay = retry_delay(0.5, delay, rng=rng)
        assert 0.5 <= delay <= RETRY_DELAY_CAP


def test_retry_delay_caps_the_jitter_but_honours_large_hints():
    # The cap bounds jittered growth above the hint...
    assert (
        retry_delay(10.0, previous=20.0, rng=lambda low, high: high)
        == RETRY_DELAY_CAP
    )
    # ...but never undercuts a hint that itself exceeds the cap.
    assert retry_delay(100.0, rng=lambda low, high: high) == 100.0
    assert retry_delay(100.0, rng=lambda low, high: low) == 100.0


# -- runner validation ------------------------------------------------------------


def test_fabric_refuses_instrumented_runs(tmp_path):
    with pytest.raises(ConfigurationError):
        ParallelExperimentRunner(
            scale=_SCALE, fabric_workers=2, emit_metrics=True
        )
    with pytest.raises(ConfigurationError):
        ParallelExperimentRunner(
            scale=_SCALE, fabric_workers=2, trace_dir=str(tmp_path / "t")
        )


# -- the transport matrix ---------------------------------------------------------
#
# One set of tests over both transports: the warm pool (forced onto real
# workers on any machine) and two subprocess workers.

_TRANSPORTS = {
    "pool": {"jobs": 2, "cpus": 2, "inline_threshold": 1},
    "subprocess": {"fabric_workers": 2},
}


def _matrix_runner(transport, tmp_path, fault=False, **options):
    """``(runner, injection)`` for one transport of the matrix.

    With ``fault`` the injection context kills one worker mid-grid: the
    first pool submission dies like a dead fork child, or the first
    subprocess worker to deliver a result exits hard.
    """
    options = dict(_TRANSPORTS[transport], **options)
    injection = contextlib.nullcontext()
    if fault and transport == "pool":
        injection = broken_pool(fail_submits={0})
    elif fault:
        flag = str(tmp_path / "fault-claimed")
        options["fabric_extra_env"] = {
            "REPRO_FABRIC_FAULT": "die-after-result:" + flag
        }
    return ParallelExperimentRunner(scale=_SCALE, **options), injection


def _recording_plans(monkeypatch, runner):
    """Record every grid ``runner`` plans, with the memo keys booked
    before it: ``[(planned keys, booked keys), ...]``."""
    plans = []
    plan_grid = scheduler.plan_grid

    def recording(jobs, *args, **kwargs):
        booked = set(runner._results)
        plans.append((list(jobs), booked))
        return plan_grid(jobs, *args, **kwargs)

    monkeypatch.setattr(scheduler, "plan_grid", recording)
    return plans


@pytest.fixture(params=sorted(_TRANSPORTS))
def transport(request):
    return request.param


def test_transport_matches_serial(transport, tmp_path, serial_packed):
    runner, _ = _matrix_runner(transport, tmp_path)
    try:
        assert runner.prefetch(_grid_jobs()) == len(serial_packed)
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.shutdown_fabric()
    assert runner.summary.chunks_shipped + runner.summary.fabric["chunks"] > 0
    assert runner.summary.inline_jobs == 0


def test_one_worker_death_replans_only_unfinished_cells(
    transport, tmp_path, serial_packed, monkeypatch
):
    runner, injection = _matrix_runner(
        transport, tmp_path, fault=True, chunk=1, cache_dir=str(tmp_path / "cache")
    )
    plans = _recording_plans(monkeypatch, runner)
    try:
        with injection:
            runner.prefetch(_grid_jobs())
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.shutdown_fabric()
    assert runner.summary.incidents == [Incident(transport, len(plans[1][0]))]
    assert len(plans) == 2
    (grid, _), (replanned, booked) = plans
    assert len(grid) == len(serial_packed)
    assert replanned
    assert sorted(replanned) == sorted(key for key in grid if key not in booked)
    # Outcomes booked before the death are not run or written again.
    assert len(runner.cache) == runner.cache.stores == len(serial_packed)
    if transport == "subprocess":
        assert booked
        assert runner.summary.fabric["replanned_cells"] == len(replanned)


def test_exhausted_retries_raise_the_transports_error(transport, tmp_path):
    runner, injection = _matrix_runner(
        transport, tmp_path, fault=True, chunk=1, pool_retries=0
    )
    expected = BrokenProcessPool if transport == "pool" else FabricWorkerDied
    try:
        with injection, pytest.raises(expected):
            runner.prefetch(_grid_jobs())
    finally:
        runner.shutdown_fabric()
    assert [incident.transport for incident in runner.summary.incidents] == [
        transport
    ]


def test_transport_counts_batched_cells(transport, tmp_path, monkeypatch):
    """Workers run each four-cell chunk through the one cell executor:
    the outcomes carry its per-cell flags home, so the summary counts
    the shared cells ``run_batch`` reports for the same chunks here."""
    from repro.sim import gridbatch

    grid_order_chunks(monkeypatch)
    runner, _ = _matrix_runner(transport, tmp_path, chunk=4)
    try:
        runner.prefetch(_grid_jobs())
    finally:
        runner.shutdown_fabric()
    cells = [
        Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
        for name, spec in _grid_jobs()
    ]
    expected = [
        outcome.shared
        for start in range(0, len(cells), 4)
        for outcome in gridbatch.run_batch(cells[start : start + 4], _SCALE)
    ]
    assert runner.summary.jobs_run == len(cells)
    assert runner.summary.shared_cells == sum(expected)
    assert all(outcome.blocks is not None for outcome in runner._results.values())


#: Damage done to one stored entry: a flipped bit in the body, and a
#: write torn off mid-body.
_STORE_DAMAGE = {
    "flipped-byte": lambda data: (
        data[: len(data) // 2]
        + bytes([data[len(data) // 2] ^ 0x01])
        + data[len(data) // 2 + 1 :]
    ),
    "torn-write": lambda data: data[: len(data) // 2],
}


@pytest.mark.parametrize("damage", sorted(_STORE_DAMAGE))
def test_damaged_store_entry_is_resimulated_and_resealed(
    transport, damage, tmp_path, serial_packed
):
    name, spec = _grid_jobs()[0]
    cell = Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
    cache_dir = str(tmp_path / "cache")
    cache = ResultCache(cache_dir)
    stats = scheduler.unpack_stats(serial_packed[(name, spec)])
    cache.store(cell.digest(_SCALE), stats, cell.meta(_SCALE))
    path = cache.path(cell.digest(_SCALE))
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(_STORE_DAMAGE[damage](data))

    runner, _ = _matrix_runner(transport, tmp_path, cache_dir=cache_dir)
    try:
        assert runner.prefetch(_grid_jobs()) == len(serial_packed)
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.shutdown_fabric()
    assert runner.cache.corrupt == 1
    assert runner.summary.corrupt_entries == [path]
    reader = ResultCache(cache_dir)
    entry = reader.load(cell.digest(_SCALE))
    assert (reader.hits, reader.corrupt) == (1, 0)
    assert scheduler.pack_stats(entry[0]) == serial_packed[(name, spec)]


def test_interrupted_store_write_leaves_a_temp_file_nobody_counts(
    transport, tmp_path, serial_packed, capsys
):
    """A writer killed between ``mkstemp`` and ``os.replace`` (see
    :func:`repro.sealed.write`) leaves a ``*.tmp`` file in a shard
    directory.  The sweep still matches serial and ``len(cache)`` does
    not count the file.  ``cache-gc`` deletes a leftover older than
    :data:`repro.sealed.STALE_TEMP_SECONDS` and keeps a fresh one,
    which may belong to a live write."""
    from repro import sealed
    from repro.experiments.__main__ import main

    name, spec = _grid_jobs()[0]
    cell = Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
    cache_dir = str(tmp_path / "cache")
    shard = os.path.dirname(ResultCache(cache_dir).path(cell.digest(_SCALE)))
    os.makedirs(shard)
    leftovers = []
    for _ in range(2):
        handle, leftover = tempfile.mkstemp(dir=shard, suffix=".tmp")
        with os.fdopen(handle, "wb") as stream:
            stream.write(b"Vpolyflow-result 3 ")
        leftovers.append(leftover)
    stale, fresh = leftovers
    long_ago = os.stat(stale).st_mtime - 2 * sealed.STALE_TEMP_SECONDS
    os.utime(stale, (long_ago, long_ago))

    runner, _ = _matrix_runner(transport, tmp_path, cache_dir=cache_dir)
    try:
        assert runner.prefetch(_grid_jobs()) == len(serial_packed)
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.shutdown_fabric()
    assert runner.summary.corrupt_entries == []
    assert os.path.exists(stale) and os.path.exists(fresh)
    assert len(ResultCache(cache_dir)) == len(serial_packed)

    assert main(["cache-gc", "--cache-dir", cache_dir]) == 0
    report = (
        "result cache {}: 0 corrupt pruned, 1 stale temp files deleted, "
        "0 evicted (LRU), {} bytes freed; {} entries".format(
            cache_dir, len(b"Vpolyflow-result 3 "), len(serial_packed)
        )
    )
    assert report in capsys.readouterr().out
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)
    assert len(ResultCache(cache_dir)) == len(serial_packed)


def _plan_line(out):
    """``(cells, cached, inline, shipped, chunks)`` of a dry-run header."""
    header = re.search(
        r"^fabric plan: (\d+) cells \((\d+) cached\), (\d+) inline, "
        r"(\d+) cells in (\d+) chunks across 2 workers$",
        out,
        re.MULTILINE,
    )
    assert header, out
    return tuple(int(value) for value in header.groups())


def test_dry_run_plans_the_real_sweep(tmp_path, capsys):
    """The ``fabric`` dry-run ships what a cold two-worker sweep of the
    same slice ships: cells (baselines included), chunks, and cells per
    worker."""
    from repro.experiments.__main__ import main

    slice_flags = ["--slice", "L2H1", "--limit", "3", "--scale", str(_SCALE)]
    dry_run_flags = ["--cache-dir", str(tmp_path / "dry-run-cache")]
    dry_run_flags += ["--fabric-workers", "2"]
    assert main(["fabric"] + slice_flags + dry_run_flags) == 0
    out = capsys.readouterr().out
    cells, cached, inline, shipped, chunks = _plan_line(out)
    per_worker = [
        int(cells) for cells in re.findall(r"worker \d+: \d+ chunks, (\d+) cells", out)
    ]
    runner = _fabric_runner(tmp_path)
    try:
        synth_sweep.sweep(runner, _grid_names(3))
    finally:
        runner.shutdown_fabric()
    assert (cached, inline) == (0, 0)
    assert cells == shipped == runner.summary.fabric["cells"] == 9
    assert chunks == runner.summary.fabric["chunks"]
    assert per_worker == runner.summary.fabric_placement["cells_by_worker"]


@pytest.mark.parametrize("filled", ["cold", "half", "full"])
def test_dry_run_matches_the_sweep_on_any_root(filled, tmp_path, capsys):
    """On a cold, a half-filled and a full cache root, the dry-run plans
    exactly what the sweep over the same root then runs and ships —
    cached cells are booked, not planned, so a full root ships 0
    chunks."""
    from repro.experiments.__main__ import main

    cache_dir = str(tmp_path / "cache")
    sweep = ["--slice", "L2H1", "--limit", "2", "--scale", str(_SCALE)]
    sweep += ["--cache-dir", cache_dir]
    if filled != "cold":
        limit = "1" if filled == "half" else "2"
        seed = sweep[:3] + [limit] + sweep[4:]
        assert main(["synth"] + seed) == 0
    capsys.readouterr()
    fabric_flags = ["--fabric-workers", "2"]
    assert main(["fabric"] + sweep + fabric_flags) == 0
    cells, cached, inline, shipped, chunks = _plan_line(capsys.readouterr().out)
    assert main(["synth"] + sweep + fabric_flags) == 0
    err = capsys.readouterr().err

    summary = re.search(r"run summary: (\d+) simulated, (\d+) cache hits", err)
    assert (int(summary.group(1)), int(summary.group(2))) == (
        inline + shipped,
        cached,
    )
    assert cells == cached + inline + shipped == 6
    fabric = re.search(r"^  fabric: (\d+) cells in (\d+) chunks", err, re.MULTILINE)
    assert (shipped, chunks) == (
        (int(fabric.group(1)), int(fabric.group(2))) if fabric else (0, 0)
    )
    assert {"cold": 0, "half": 3, "full": 6}[filled] == cached
    if filled == "full":
        assert (shipped, chunks) == (0, 0)


# -- placement invariance (subprocess workers) ------------------------------------


def _fabric_runner(tmp_path, **kwargs):
    kwargs.setdefault("fabric_workers", 2)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    return ParallelExperimentRunner(scale=_SCALE, **kwargs)


@pytest.mark.parametrize("chunk", [1, None])
def test_subprocess_fabric_matches_serial(tmp_path, serial_packed, chunk):
    runner = _fabric_runner(tmp_path, chunk=chunk)
    try:
        ran = runner.prefetch(_grid_jobs())
        assert ran == len(serial_packed)
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.shutdown_fabric()
    assert runner.summary.fabric["workers"] == 2
    assert runner.summary.fabric["cells"] == len(serial_packed)


def test_fabric_outcomes_book_shared_cells(tmp_path, monkeypatch):
    """Inside one worker's chunk, cells whose policies resolve to the
    same hint table share a kernel run; the outcome frames carry that
    home to the run summary."""
    specs = ("loopFT", "loopFT+procFT", "loop+loopFT", "loop+procFT+loopFT")
    grid = [(name, spec) for name in ("mcf", "gzip") for spec in specs]
    grid_order_chunks(monkeypatch)
    runner = ParallelExperimentRunner(
        scale=0.25,
        fabric_workers=2,
        cache_dir=str(tmp_path / "cache"),
        chunk=4,
    )
    try:
        runner.prefetch(grid)
    finally:
        runner.shutdown_fabric()
    assert runner.summary.fabric["chunks"] == 2
    assert runner.summary.jobs_run == len(grid)
    assert runner.summary.shared_cells == 6
    serial = ExperimentRunner(scale=0.25)
    for name, spec in grid:
        assert scheduler.pack_stats(runner.run_policy(name, spec)) == (
            scheduler.pack_stats(serial.run_policy(name, spec))
        )


def test_warm_store_answers_without_simulating(tmp_path, serial_packed):
    """A second runner against the cache root a first fabric run filled
    simulates and ships nothing: the parent answers every cell."""
    first = _fabric_runner(tmp_path)
    try:
        first.prefetch(_grid_jobs())
    finally:
        first.shutdown_fabric()

    second = _fabric_runner(tmp_path)
    try:
        ran = second.prefetch(_grid_jobs())
    finally:
        second.shutdown_fabric()
    assert ran == 0
    assert second.summary.jobs_run == 0
    assert second.summary.cache_hits == len(serial_packed)
    assert second.summary.fabric["chunks"] == 0
    _assert_matches_serial(second, serial_packed)


def test_parent_is_the_only_writer(tmp_path, serial_packed, monkeypatch):
    """A two-worker sweep with a cache root: every entry exists and was
    written once, by the parent; workers send outcomes, not store
    counters."""
    frames = []
    read_frame = protocol.read_frame

    def recording(stream):
        frame = read_frame(stream)
        if frame is not None and frame["kind"] == "result":
            frames.append(frame)
        return frame

    monkeypatch.setattr(protocol, "read_frame", recording)
    runner = _fabric_runner(tmp_path)
    try:
        assert runner.prefetch(_grid_jobs()) == len(serial_packed)
    finally:
        runner.shutdown_fabric()
    assert runner.summary.fabric["cells"] == len(serial_packed)
    assert runner.cache.stores == len(serial_packed) == len(runner.cache)
    for cell in runner._results:
        assert os.path.exists(runner.cache.path(cell.digest(_SCALE)))
    assert frames
    assert all(set(frame) == {"kind", "id", "outcomes"} for frame in frames)


def test_dead_worker_replans_only_unfinished_cells(tmp_path, serial_packed):
    """One worker exits hard mid-grid: the incident is counted, only
    the cells whose results never arrived are replanned, and the
    final grid is still byte-identical to serial."""
    flag = str(tmp_path / "fault-claimed")
    runner = _fabric_runner(
        tmp_path,
        chunk=1,
        pool_retries=1,
        fabric_extra_env={
            "REPRO_FABRIC_FAULT": "die-after-result:" + flag
        },
    )
    try:
        runner.prefetch(_grid_jobs())
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.shutdown_fabric()
    assert os.path.exists(flag)
    assert runner.summary.fabric["restarts"] == 1
    assert 0 < runner.summary.fabric["replanned_cells"] < len(serial_packed)


def _plan_for_transport(jobs):
    """``(chunks, chunk_costs)`` for driving a transport directly."""
    jobs = [Cell(name, spec, PAPER_CONFIG, None) for name, spec in jobs]
    costs = [scheduler.job_cost(name, _SCALE) for name, _, _, _ in jobs]
    chunks = scheduler.plan_chunks(jobs, costs, 2, 1)
    lookup = dict(zip(jobs, costs))
    return chunks, [sum(lookup[job] for job in chunk) for chunk in chunks]


def _collect(transport, chunks, chunk_costs):
    results = {}
    for index, outcomes in transport.execute(_SCALE, chunks, chunk_costs):
        for job, outcome in zip(chunks[index], outcomes):
            results[job] = outcome[0]
    return results


def test_transport_reused_across_dispatches_stays_in_sync():
    """One transport serving several dispatches (the service engine's
    steady state) must not desync: exactly one reader owns each
    worker's pipe for the process's whole lifetime, and heartbeats
    buffered while the transport idles are drained, not misread."""
    import time

    chunks, chunk_costs = _plan_for_transport(_grid_jobs())
    transport = SubprocessWorkerTransport(
        workers=2, heartbeat_interval=0.1, chunk_timeout=30.0
    )
    try:
        first = _collect(transport, chunks, chunk_costs)
        assert len(first) == len(_grid_jobs())
        for _ in range(2):
            time.sleep(0.3)  # idle heartbeats pile into the frame queue
            assert _collect(transport, chunks, chunk_costs) == first
    finally:
        transport.close()


def test_silent_worker_declared_dead_despite_chatty_sibling(tmp_path):
    """A worker that goes completely silent (heartbeats included) with
    chunks outstanding hits its chunk timeout even though a live
    sibling keeps the frame queue busy with heartbeats."""
    import time

    flag = str(tmp_path / "freeze-claimed")
    chunks, chunk_costs = _plan_for_transport(_grid_jobs())
    transport = SubprocessWorkerTransport(
        workers=2,
        heartbeat_interval=0.1,
        chunk_timeout=1.5,
        extra_env={"REPRO_FABRIC_FAULT": "freeze-on-chunk:" + flag},
    )
    started = time.monotonic()
    try:
        with pytest.raises(FabricWorkerDied) as incident:
            for _ in transport.execute(_SCALE, chunks, chunk_costs):
                pass
    finally:
        transport.close()
    assert time.monotonic() - started < 60.0
    assert "went silent" in str(incident.value)
    assert incident.value.unfinished
    assert os.path.exists(flag)


def test_wire_version_skew_fails_at_handshake(tmp_path, monkeypatch):
    """A worker announcing a different wire version is refused before
    any work is shipped."""
    monkeypatch.setattr(protocol, "WIRE_VERSION", 999)
    transport = SubprocessWorkerTransport(workers=1)
    with pytest.raises(protocol.FabricProtocolError):
        transport.ensure_workers()
    transport.close()


# -- service passthrough ----------------------------------------------------------


def test_engine_fabric_passthrough(tmp_path):
    from repro.service.engine import ExplorationEngine

    cache_dir = str(tmp_path / "cache")
    engine = ExplorationEngine(fabric_workers=3, cache_dir=cache_dir)
    snapshot = engine.snapshot()
    assert snapshot["fabric"] == {"workers": 3}
    runner = engine.runner_for(_SCALE)
    assert runner.fabric_workers == 3
    assert runner.cache.root == cache_dir
