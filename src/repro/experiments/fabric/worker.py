"""The fabric worker: ``python -m repro.experiments.fabric.worker``.

One worker process serves one driver over stdin/stdout, speaking the
frame protocol of :mod:`repro.experiments.fabric.protocol`.  Startup
announces a ``hello`` (wire version, pid, worker index); a background
thread heartbeats so the driver can tell a long simulation from a dead
process; then the main loop executes ``chunk`` frames until
``shutdown`` or EOF.

A worker is a pure executor: each chunk is decoded, run through the
scheduler's :func:`~repro.experiments.scheduler.execute_chunk` — the
*same* worker-side path the local pool uses, through the one cell
executor, so fabric results are bit-identical to pooled and serial
ones — and
its outcomes are encoded back.  The driver looked every cell up in its
result cache before shipping it and writes the results there itself;
a worker reads only the optional analysis directory the ``configure``
frame names and never writes a result.

stdout carries frames only; anything a simulation prints would corrupt
the stream, so the worker rebinds ``sys.stdout`` to stderr after
claiming the real stream.

Fault injection (tests): the ``REPRO_FABRIC_FAULT`` environment
variable injects deterministic failures, each claimed by the single
incarnation that manages to create its ``<flagfile>`` first so a
respawned (or sibling) worker survives and the retry path is
deterministic.  ``die-after-result:<flagfile>`` exits hard after the
first result; ``freeze-on-chunk:<flagfile>`` goes completely silent on
the first chunk — heartbeats included, simulating a SIGSTOP or network
partition the driver must catch by chunk timeout.
"""

import argparse
import os
import sys
import threading

from repro.experiments.fabric import protocol

#: Seconds between heartbeat frames.
HEARTBEAT_INTERVAL = 1.0

_FAULT_VARIABLE = "REPRO_FABRIC_FAULT"


def _claim_fault(kind):
    """Whether this incarnation enacts ``kind`` (one winner per flag file)."""
    spec = os.environ.get(_FAULT_VARIABLE, "")
    if not spec.startswith(kind + ":"):
        return False
    flag = spec.partition(":")[2]
    try:
        with open(flag, "x"):
            pass
    except OSError:
        return False
    return True


def _execute_chunk(frame, analysis_dir):
    """The ``result`` frame for one ``chunk`` frame."""
    from repro.experiments import scheduler

    cells = [protocol.decode_cell(raw) for raw in frame["cells"]]
    outcomes = scheduler.execute_chunk(
        analysis_dir, frame["scale"], False, None, cells
    )
    return {
        "kind": "result",
        "id": frame["id"],
        "outcomes": [protocol.encode_outcome(outcome) for outcome in outcomes],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(prog="polyflow-fabric-worker")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=HEARTBEAT_INTERVAL,
    )
    arguments = parser.parse_args(argv)

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Anything the simulator (or a workload generator) prints must not
    # interleave with protocol frames.
    sys.stdout = sys.stderr

    write_lock = threading.Lock()

    def send(payload):
        with write_lock:
            protocol.write_frame(stdout, payload)

    send(
        {
            "kind": "hello",
            "wire_version": protocol.WIRE_VERSION,
            "pid": os.getpid(),
            "worker": arguments.index,
        }
    )

    stop = threading.Event()

    def beat():
        while not stop.wait(arguments.heartbeat):
            try:
                send({"kind": "heartbeat", "worker": arguments.index})
            except OSError:
                return

    heartbeat_thread = threading.Thread(target=beat, daemon=True)
    heartbeat_thread.start()

    analysis_dir = None
    try:
        while True:
            frame = protocol.read_frame(stdin)
            if frame is None or frame["kind"] == "shutdown":
                break
            if frame["kind"] == "configure":
                analysis_dir = frame.get("analysis_dir")
                if analysis_dir:
                    from repro.analysis.pipeline import configure_disk_cache

                    configure_disk_cache(analysis_dir)
                continue
            if frame["kind"] == "chunk":
                if _claim_fault("freeze-on-chunk"):
                    # A SIGSTOP/partition stand-in: stop heartbeating
                    # and never answer; only the driver's chunk
                    # timeout can unblock the dispatch.
                    stop.set()
                    threading.Event().wait()
                send(_execute_chunk(frame, analysis_dir))
                if _claim_fault("die-after-result"):
                    os._exit(3)
                continue
            raise protocol.FabricProtocolError(
                "unexpected frame kind {!r}".format(frame["kind"])
            )
    finally:
        stop.set()
    return 0


if __name__ == "__main__":
    sys.exit(main())
