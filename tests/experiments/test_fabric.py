"""Tests for the one result-cache root, the warm pool's fault matrix,
placement invariance across workers, and fault recovery."""

import contextlib
import os
import pickle
import tempfile
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import parallel, scheduler
from repro.experiments import runner as runner_module
from repro.experiments.parallel import Incident, ParallelExperimentRunner, ResultCache
from repro.experiments.runner import Cell, ExperimentRunner
from repro.polyflow import PAPER_CONFIG
from repro.service.client import RETRY_DELAY_CAP, retry_delay
from repro.workloads import clear_cache
from repro.workloads.synth import catalog_names
from tests.faults import broken_pool
from tests.helpers import force_pool

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


# -- the result-cache root --------------------------------------------------------
#
# One ResultCache root serves the parent, the pool and any runs sharing it:
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


def test_corrupt_shared_entry_is_a_run_summary_incident(
    tmp_path, pool_runner, serial_packed
):
    """A damaged entry in the root a two-worker run shares is booked
    like any damaged entry: listed in ``corrupt_entries``,
    re-simulated, and rewritten intact by the parent."""
    name, spec = _grid_jobs()[0]
    cache_dir = str(tmp_path / "cache")
    digest = Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance).digest(
        _SCALE
    )
    damaged = ResultCache(cache_dir).path(digest)
    os.makedirs(os.path.dirname(damaged))
    with open(damaged, "wb") as handle:
        handle.write(b"damaged")
    runner = pool_runner(cache_dir=cache_dir)
    try:
        assert runner.prefetch([(name, spec)]) == 1
    finally:
        runner.close()
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
    assert main(sweep + ["--cache-dir", cache_dir, "--jobs", "2"]) == 0
    pooled = capsys.readouterr()
    assert pooled.out == serial.out
    assert "run summary: 0 simulated" in pooled.err
    assert "  schedule:" not in pooled.err


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


# -- the transport matrix ---------------------------------------------------------
#
# The warm pool, forced onto two real workers on any machine.  The
# grid holds four programs, so it plans four chunks, one per machine.

_TRANSPORTS = {
    "pool": {"jobs": 2},
}


def _matrix_runner(transport, tmp_path, fail_submits=(), **options):
    """``(runner, injection)`` for one transport of the matrix.

    The injection context kills the ``fail_submits``-indexed pool
    submissions like dead fork children.
    """
    options = dict(_TRANSPORTS[transport], **options)
    injection = (
        broken_pool(fail_submits=fail_submits)
        if fail_submits
        else contextlib.nullcontext()
    )
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
def transport(request, monkeypatch):
    force_pool(monkeypatch)
    return request.param


def test_transport_matches_serial(transport, tmp_path, serial_packed):
    runner, _ = _matrix_runner(transport, tmp_path)
    try:
        assert runner.prefetch(_grid_jobs()) == len(serial_packed)
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.close()
    assert runner.summary.chunks_shipped > 0
    assert runner.summary.inline_jobs == 0


def test_one_worker_death_replans_only_unfinished_cells(
    transport, tmp_path, serial_packed, monkeypatch
):
    runner, injection = _matrix_runner(
        transport, tmp_path, fail_submits={0}, cache_dir=str(tmp_path / "cache")
    )
    plans = _recording_plans(monkeypatch, runner)
    try:
        with injection:
            runner.prefetch(_grid_jobs())
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.close()
    assert runner.summary.incidents == [Incident(len(plans[1][0]))]
    assert len(plans) == 2
    (grid, _), (replanned, booked) = plans
    assert len(grid) == len(serial_packed)
    assert replanned
    assert sorted(replanned) == sorted(key for key in grid if key not in booked)
    # Outcomes booked before the death are not run or written again.
    assert len(runner.cache) == runner.cache.stores == len(serial_packed)


def test_exhausted_retries_raise_the_transports_error(transport, tmp_path):
    # The first attempt submits the grid's four chunks (0-3), so
    # submission 4 is the retry's first: both attempts meet a death.
    runner, injection = _matrix_runner(transport, tmp_path, fail_submits={0, 4})
    try:
        with injection as plan, pytest.raises(BrokenProcessPool):
            runner.prefetch(_grid_jobs())
    finally:
        runner.close()
    assert plan.broken == 2
    assert runner.summary.pool_restarts == 2


def test_transport_counts_batched_cells(transport, tmp_path):
    """Workers run each machine's chunk through the one cell executor:
    the outcomes carry its per-cell flags home, so the summary counts
    the shared cells ``run_batch`` reports for the same chunks here."""
    from repro.sim import gridbatch

    runner, _ = _matrix_runner(transport, tmp_path)
    try:
        runner.prefetch(_grid_jobs())
    finally:
        runner.close()
    cells = [
        Cell(name, spec, PAPER_CONFIG, PAPER_CONFIG.max_spawn_distance)
        for name, spec in _grid_jobs()
    ]
    expected = [
        outcome.shared
        for name in _grid_names()
        for outcome in gridbatch.run_batch(
            [cell for cell in cells if cell.workload == name], _SCALE
        )
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
        runner.close()
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
        runner.close()
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


# -- placement invariance (two pool workers) --------------------------------------


@pytest.fixture()
def pool_runner(tmp_path, monkeypatch):
    """A factory of two-worker runners on a ``tmp_path`` cache root."""
    force_pool(monkeypatch)

    def factory(**kwargs):
        kwargs = dict(_TRANSPORTS["pool"], **kwargs)
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        return ParallelExperimentRunner(scale=_SCALE, **kwargs)

    return factory


def _shipped_cells(runner):
    return sum(plan.pooled_jobs for plan in runner.summary.dispatches)


@pytest.mark.parametrize("programs", [1, None])
def test_subprocess_fabric_matches_serial(pool_runner, serial_packed, programs):
    """Two pool workers match serial on one machine's cells, halved
    across both workers, and on the whole grid, one chunk per machine."""
    names = _grid_names()[:programs]
    jobs = [(name, spec) for name in names for spec in _SPECS]
    expected = {job: serial_packed[job] for job in jobs}
    runner = pool_runner()
    try:
        ran = runner.prefetch(jobs)
        assert ran == len(expected)
        _assert_matches_serial(runner, expected)
    finally:
        runner.close()
    assert runner.summary.pool_workers == 2
    # One chunk per machine, and never fewer chunks than workers.
    assert runner.summary.chunks_shipped == max(len(names), 2)
    assert _shipped_cells(runner) == len(expected)


def test_fabric_outcomes_book_shared_cells(tmp_path, monkeypatch):
    """Cells whose policies resolve to the same hint table run on one
    machine, so the planner puts them in one worker's chunk and they
    share a kernel run there; the chunk's outcomes carry that home.  A
    pooled run shares exactly what a serial run shares."""
    specs = ("loopFT", "loopFT+procFT", "loop+loopFT", "loop+procFT+loopFT")
    grid = [(name, spec) for name in ("mcf", "gzip") for spec in specs]
    serial = ParallelExperimentRunner(scale=0.25, jobs=1)
    serial.prefetch(grid)
    force_pool(monkeypatch)
    runner = ParallelExperimentRunner(
        scale=0.25, cache_dir=str(tmp_path / "cache"), **_TRANSPORTS["pool"]
    )
    try:
        runner.prefetch(grid)
    finally:
        runner.close()
    assert runner.summary.chunks_shipped == 2
    assert runner.summary.jobs_run == len(grid)
    assert runner.summary.shared_cells == serial.summary.shared_cells == 6
    for name, spec in grid:
        assert scheduler.pack_stats(runner.run_policy(name, spec)) == (
            scheduler.pack_stats(serial.run_policy(name, spec))
        )


def test_warm_store_answers_without_simulating(pool_runner, serial_packed):
    """A second runner against the cache root a first two-worker run
    filled simulates and ships nothing: the parent answers every cell."""
    first = pool_runner()
    try:
        first.prefetch(_grid_jobs())
    finally:
        first.close()

    second = pool_runner()
    try:
        ran = second.prefetch(_grid_jobs())
    finally:
        second.close()
    assert ran == 0
    assert second.summary.jobs_run == 0
    assert second.summary.cache_hits == len(serial_packed)
    assert second.summary.chunks_shipped == 0
    _assert_matches_serial(second, serial_packed)


def test_parent_is_the_only_writer(
    tmp_path, pool_runner, serial_packed, monkeypatch
):
    """A two-worker sweep with a cache root: every entry exists and was
    written once, by the parent; workers send outcomes back and never
    store one."""
    writers = tmp_path / "writers"
    store = ResultCache.store

    def recording(self, *args, **kwargs):
        with open(writers, "a") as handle:
            handle.write("{}\n".format(os.getpid()))
        return store(self, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "store", recording)
    # Fresh workers fork with the recording store in place.
    scheduler.shutdown_pool()
    runner = pool_runner()
    try:
        assert runner.prefetch(_grid_jobs()) == len(serial_packed)
    finally:
        runner.close()
    assert _shipped_cells(runner) == len(serial_packed)
    assert runner.cache.stores == len(serial_packed) == len(runner.cache)
    for cell in runner._results:
        assert os.path.exists(runner.cache.path(cell.digest(_SCALE)))
    assert writers.read_text().split() == [str(os.getpid())] * len(serial_packed)


def test_dead_worker_replans_only_unfinished_cells(pool_runner, serial_packed):
    """One worker dies after earlier chunks came back: the incident is
    counted, only the cells whose results never arrived are replanned,
    and the final grid is still byte-identical to serial."""
    runner = pool_runner()
    # One chunk per machine: the last of the grid's four programs.
    last = len(_grid_names()) - 1
    try:
        with broken_pool(fail_submits={last}, after_run=True) as plan:
            runner.prefetch(_grid_jobs())
        _assert_matches_serial(runner, serial_packed)
    finally:
        runner.close()
    assert plan.broken == 1
    assert runner.summary.pool_restarts == 1
    (incident,) = runner.summary.incidents
    assert 0 < incident.replanned_cells < len(serial_packed)
