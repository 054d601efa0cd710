"""Transports: run planned chunks somewhere, stream outcomes back.

The runner plans each grid once, runs its inline cells itself and
hands the chunks — lists of :class:`~repro.experiments.runner.Cell`\\ s
— to one of two transports.  Both share ``workers``,
``inline_threshold`` (their default inline floor),
``execute(scale, chunks, costs)`` and ``close``; ``execute`` yields
``(chunk_index, outcomes)`` as results arrive, one
:class:`~repro.experiments.runner.Outcome` per cell with its stats
still packed (:func:`~repro.experiments.scheduler.pack_stats`).

* :class:`LocalPoolTransport` — the warm fork pool (``--jobs N``).  A
  dead worker raises ``BrokenProcessPool``.
* :class:`SubprocessWorkerTransport` — ``python -m
  repro.experiments.fabric.worker`` processes (``--fabric-workers N``)
  speaking the frame protocol, chunks sharded by
  :func:`repro.experiments.scheduler.plan_shards`.  One reader thread
  per worker *process* (generation tagged, exiting at EOF) funnels
  frames into a transport-owned queue, so a reused transport never has
  two readers on one pipe.  A worker that goes silent past the chunk
  timeout, or hits EOF with chunks outstanding, raises
  :class:`FabricWorkerDied`; :meth:`~SubprocessWorkerTransport.placement`
  reports cells, chunks and wall clock per worker.

Either failure reaches the runner's one retry loop, which closes the
transport and replans only the unfinished cells.
"""

import os
import queue
import shlex
import subprocess
import sys
import threading
import time
from concurrent.futures import as_completed

from repro.experiments import scheduler
from repro.experiments.fabric import protocol

#: Default ceiling on one worker's silence (no result, no heartbeat)
#: while it holds outstanding chunks.
DEFAULT_CHUNK_TIMEOUT = 300.0


class FabricWorkerDied(RuntimeError):
    """A worker died (or went silent) with chunks outstanding.

    The fabric analogue of ``BrokenProcessPool``: the runner's retry
    loop catches it, tears the transport down, and replans only the
    cells whose results never arrived.
    """

    def __init__(self, worker, reason, unfinished):
        super().__init__(
            "fabric worker {} {} with {} chunk(s) outstanding".format(
                worker, reason, len(unfinished)
            )
        )
        self.worker = worker
        self.unfinished = tuple(unfinished)


class LocalPoolTransport:
    """The warm fork pool of :mod:`repro.experiments.scheduler`.

    ``workers`` is ``--jobs`` capped at the usable CPUs (``cpus``
    overrides detection).  The pool balances chunks itself, so
    ``costs`` is not used; metrics emission and the trace directory
    ride along to the workers with every chunk.
    """

    #: The transport's name in the run summary's records.
    name = "pool"

    #: Below this estimated cost a fork-pool round trip cannot pay for
    #: itself on this machine, so the cell runs in the parent.
    inline_threshold = scheduler.INLINE_COST_THRESHOLD

    def __init__(
        self, workers, cpus=None, analysis_dir=None, emit_metrics=False, trace_dir=None
    ):
        cpus = scheduler.usable_cpus() if cpus is None else cpus
        self.workers = max(1, min(int(workers), cpus))
        self.analysis_dir = analysis_dir
        self.emit_metrics = emit_metrics
        self.trace_dir = trace_dir

    def execute(self, scale, chunks, costs):
        """Submit every chunk to the warm pool; yield results as done.

        A ``BrokenProcessPool`` raised by any chunk propagates to the
        runner, which keeps the outcomes already yielded.
        """
        warmup = sorted({cell[0] for chunk in chunks for cell in chunk})
        pool = scheduler.warm_pool(
            min(self.workers, len(chunks)),
            analysis_dir=self.analysis_dir,
            warmup=[(name, scale) for name in warmup],
        )
        futures = {
            pool.submit(
                scheduler.execute_chunk,
                self.analysis_dir,
                scale,
                self.emit_metrics,
                self.trace_dir,
                chunk,
            ): index
            for index, chunk in enumerate(chunks)
        }
        for future in as_completed(futures):
            yield futures[future], future.result()

    def close(self):
        """Tear the process-global warm pool down (the next grid forks
        a fresh one)."""
        scheduler.shutdown_pool()


class SubprocessWorkerTransport:
    """Worker subprocesses speaking the fabric frame protocol.

    ``command_template`` customizes how workers launch — e.g.
    ``"ssh build-host {python} -u -m repro.experiments.fabric.worker"``
    — with ``{python}`` replaced by the driver's interpreter; worker
    arguments (``--index``, ``--heartbeat``) are appended.  The default
    launches local subprocesses with the driver's ``PYTHONPATH``
    extended to the repro package root, so a bare checkout works
    without installation.

    ``extra_env`` reaches the workers' environment (tests inject
    faults there).  Cells run plain: the runner refuses metrics
    emission and trace directories on this transport.
    """

    name = "subprocess"

    #: Workers are provisioned capacity, not this machine's cores, so
    #: by default every pooled cell ships.
    inline_threshold = 0

    def __init__(
        self,
        workers=2,
        analysis_dir=None,
        command_template=None,
        chunk_timeout=DEFAULT_CHUNK_TIMEOUT,
        heartbeat_interval=1.0,
        extra_env=None,
    ):
        self.workers = max(1, int(workers))
        self.analysis_dir = analysis_dir
        self.command_template = command_template
        self.chunk_timeout = chunk_timeout
        self.heartbeat_interval = heartbeat_interval
        self.extra_env = dict(extra_env or {})
        self._procs = [None] * self.workers
        self._readers = [None] * self.workers
        #: Incarnation counter per worker slot: frames are tagged with
        #: the generation of the process that produced them, so frames
        #: a replaced worker's reader queued (results from a torn-down
        #: dispatch, EOF sentinels of killed processes) are dropped
        #: instead of desyncing the protocol.
        self._generation = [0] * self.workers
        self._frames = queue.Queue()
        self._placement = _empty_placement(self.workers)

    # -- worker lifecycle ---------------------------------------------------------

    def _command(self, index):
        if self.command_template:
            command = shlex.split(
                self.command_template.format(python=sys.executable)
            )
        else:
            command = [
                sys.executable,
                "-u",
                "-m",
                "repro.experiments.fabric.worker",
            ]
        return command + [
            "--index",
            str(index),
            "--heartbeat",
            str(self.heartbeat_interval),
        ]

    def _environment(self):
        import repro

        environment = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
        environment.update(self.extra_env)
        return environment

    def _spawn(self, index):
        process = subprocess.Popen(
            self._command(index),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self._environment(),
        )
        try:
            protocol.check_hello(protocol.read_frame(process.stdout))
        except protocol.FabricProtocolError:
            process.kill()
            process.wait()
            raise
        protocol.write_frame(
            process.stdin,
            {"kind": "configure", "analysis_dir": self.analysis_dir},
        )
        self._generation[index] += 1
        reader = threading.Thread(
            target=_read_worker,
            args=(index, self._generation[index], process.stdout, self._frames),
            daemon=True,
        )
        reader.start()
        self._readers[index] = reader
        return process

    def ensure_workers(self):
        """Spawn (or respawn) every missing worker.

        A worker is respawned when its process is gone *or* its reader
        thread has exited (EOF, or a protocol error mid-stream): a live
        process whose pipe nobody reads can only time out.
        """
        for index in range(self.workers):
            process = self._procs[index]
            reader = self._readers[index]
            if (
                process is not None
                and process.poll() is None
                and reader is not None
                and reader.is_alive()
            ):
                continue
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
            self._procs[index] = self._spawn(index)

    def close(self):
        for index, process in enumerate(self._procs):
            if process is None:
                continue
            try:
                if process.poll() is None:
                    protocol.write_frame(process.stdin, {"kind": "shutdown"})
                    process.stdin.close()
                    process.wait(timeout=5.0)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                process.kill()
                process.wait()
            finally:
                self._procs[index] = None
                self._readers[index] = None

    # -- execution ----------------------------------------------------------------

    def execute(self, scale, chunks, costs):
        """Shard ``chunks`` across workers and stream back outcomes.

        All chunks are written up front (workers drain their stdin
        pipeline in order — the shard plan already balanced the load),
        then frames are collected until every chunk reported or a
        worker is declared dead.
        """
        self.ensure_workers()
        # Idle workers heartbeat between dispatches; drop that backlog
        # (plus any stale-generation leftovers) now, re-queuing only
        # EOF sentinels for the collection loop below.
        backlog = []
        while True:
            try:
                item = self._frames.get_nowait()
            except queue.Empty:
                break
            index, generation, frame = item
            if generation != self._generation[index]:
                continue
            if frame is not None and frame["kind"] == "heartbeat":
                continue
            backlog.append(item)
        for item in backlog:
            self._frames.put(item)
        shards = scheduler.plan_shards(costs, self.workers)
        pending = {}
        started = time.perf_counter()
        for worker, shard in enumerate(shards):
            process = self._procs[worker]
            for chunk_index in shard:
                pending[chunk_index] = worker
                try:
                    protocol.write_frame(
                        process.stdin,
                        {
                            "kind": "chunk",
                            "id": chunk_index,
                            "scale": scale,
                            "cells": [
                                protocol.encode_cell(*cell)
                                for cell in chunks[chunk_index]
                            ],
                        },
                    )
                except OSError:
                    raise self._dead(worker, "pipe closed", pending)

        placement = _empty_placement(self.workers)
        for worker, shard in enumerate(shards):
            placement["chunks_by_worker"][worker] = len(shard)
        last_activity = {index: time.perf_counter() for index in pending.values()}
        finished_at = dict(last_activity)
        while pending:
            timeout = max(self.heartbeat_interval, 0.05) * 2
            try:
                worker, generation, frame = self._frames.get(timeout=timeout)
            except queue.Empty:
                worker = None
            else:
                if generation != self._generation[worker]:
                    # A replaced incarnation's leftovers (stale results,
                    # the EOF sentinel of a killed process): drop them.
                    worker = None
            now = time.perf_counter()
            if worker is not None:
                last_activity[worker] = now
            # Silence deadlines are evaluated every iteration — a busy
            # sibling heartbeating keeps the queue non-empty, which must
            # not shield a stalled worker from its chunk timeout.
            for index, seen in last_activity.items():
                if (
                    any(owner == index for owner in pending.values())
                    and now - seen > self.chunk_timeout
                ):
                    raise self._dead(index, "went silent", pending)
            if worker is None:
                continue
            if frame is None:
                if any(owner == worker for owner in pending.values()):
                    raise self._dead(worker, "exited", pending)
                continue
            if frame["kind"] == "heartbeat":
                continue
            if frame["kind"] != "result":
                raise protocol.FabricProtocolError(
                    "unexpected frame kind {!r} from worker {}".format(
                        frame["kind"], worker
                    )
                )
            chunk_index = frame["id"]
            pending.pop(chunk_index, None)
            outcomes = [protocol.decode_outcome(raw) for raw in frame["outcomes"]]
            placement["cells_by_worker"][worker] += len(outcomes)
            finished_at[worker] = time.perf_counter()
            yield chunk_index, outcomes
        placement["wall_by_worker"] = [
            round(finished_at.get(index, started) - started, 6)
            for index in range(self.workers)
        ]
        placement["straggler_seconds"] = max(
            placement["wall_by_worker"] or [0.0]
        )
        self._placement = placement

    def _dead(self, worker, reason, pending):
        """Build the :class:`FabricWorkerDied` for one incident.

        Every worker is torn down — mirroring the warm pool, where one
        dead worker poisons the whole executor — so the retry starts
        from a clean fleet (``ensure_workers`` respawns it).
        """
        unfinished = sorted(
            index for index, owner in pending.items() if owner == worker
        )
        for process in self._procs:
            if process is not None and process.poll() is None:
                process.kill()
                process.wait()
        self._procs = [None] * self.workers
        self._readers = [None] * self.workers
        return FabricWorkerDied(worker, reason, unfinished)

    def placement(self):
        """The last dispatch's per-worker cells, chunks and wall clock."""
        return dict(self._placement)


def _read_worker(index, generation, stream, frames):
    """Reader thread: funnel one incarnation's frames into the queue.

    Runs for the lifetime of one worker process — started at spawn,
    exiting at EOF (clean or torn) — and tags every frame with the
    incarnation's generation so the consumer can discard leftovers
    after the process is replaced.
    """
    try:
        while True:
            frame = protocol.read_frame(stream)
            frames.put((index, generation, frame))
            if frame is None:
                return
    except protocol.FabricProtocolError:
        frames.put((index, generation, None))


def _empty_placement(workers):
    return {
        "workers": workers,
        "cells_by_worker": [0] * workers,
        "chunks_by_worker": [0] * workers,
        "wall_by_worker": [0.0] * workers,
        "straggler_seconds": 0.0,
    }
