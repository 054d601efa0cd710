"""The always-on exploration service: stdlib asyncio HTTP/JSON.

One :class:`ExplorationService` serves four endpoints over a tiny
HTTP/1.1 implementation on :func:`asyncio.start_server` (no runtime
dependencies):

``POST /query``
    Submit cells (see :mod:`repro.service.wire`); blocks until the
    admission batch containing them completes and returns the stats.
    A saturated queue answers ``429`` with a ``Retry-After`` header; a
    draining service answers ``503``.

``GET /healthz``
    Structured service state: admission telemetry, engine counters,
    the merged ``RunSummary`` fields (cells simulated, cache hits and
    shared, corrupt cache entries, pool restarts, scheduling and block
    cache telemetry), and drain status.  Its
    ``incidents.pool_restarts`` counts dead pool workers.

``GET /events``
    The JSONL progress stream (service events plus bridged simulation
    lifecycle events).  Streams live until the client disconnects or
    the service drains; ``?follow=0`` snapshots the current buffer and
    closes.

``POST /shutdown``
    Begin a graceful drain (the same path SIGTERM/SIGINT take):
    admitted queries complete, new ones are refused, the warm pool
    shuts down, event streams end, then the listener closes.

Request handling is asyncio; simulation happens on one dedicated
batch-executor thread, so the event loop stays responsive while grids
run and the engine's state is never touched concurrently.
"""

import asyncio
import json
import threading
import time

from repro.obs import EventJournal, service_event
from repro.service import wire
from repro.service.admission import (
    AdmissionController,
    QueuedQuery,
    QueueSaturated,
    ServiceDraining,
)
from repro.service.engine import ExplorationEngine

_JSON_HEADERS = (("Content-Type", "application/json"),)


class ExplorationService:
    """The long-lived policy-exploration server."""

    def __init__(
        self,
        host="127.0.0.1",
        port=0,
        engine=None,
        controller=None,
        journal=None,
        events_log=None,
        queue_depth=64,
        window_seconds=0.025,
        retry_after=0.5,
        **engine_kwargs,
    ):
        self.host = host
        self.port = port
        self._events_log_path = events_log
        self._events_log = None
        tee = None
        if events_log is not None:
            self._events_log = open(events_log, "w", encoding="utf-8")

            def tee(event, _stream=self._events_log):
                _stream.write(json.dumps(event, sort_keys=True) + "\n")
                _stream.flush()

        self.journal = journal if journal is not None else EventJournal(tee=tee)
        self.engine = (
            engine
            if engine is not None
            else ExplorationEngine(journal=self.journal, **engine_kwargs)
        )
        self.controller = (
            controller
            if controller is not None
            else AdmissionController(
                queue_depth=queue_depth,
                window_seconds=window_seconds,
                retry_after=retry_after,
            )
        )
        self._server = None
        self._executor = None
        self._loop = None
        self._closed = None
        self._shutdown_started = False
        self.started_at = None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self):
        """Bind the listener and start the batch-executor thread."""
        self._loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self._executor = threading.Thread(
            target=self._executor_loop, name="batch-executor", daemon=True
        )
        self._executor.start()
        self.journal.publish(
            service_event(
                "service_start",
                host=self.host,
                port=self.port,
                jobs=getattr(self.engine, "jobs", None),
                cache_dir=getattr(self.engine, "cache_dir", None),
            )
        )
        return self

    def _executor_loop(self):
        """Drain admission batches until the controller reports drained."""
        while True:
            batch = self.controller.next_batch()
            if not batch:
                return
            try:
                self.engine.execute_batch(batch)
            except BaseException as error:
                # A batch-executor crash must never strand clients:
                # fail every unresolved future with the cause.
                for query in batch:
                    if not query.future.done():
                        query.future.set_exception(error)
                self.journal.publish(
                    service_event("batch_failed", error=str(error))
                )

    async def shutdown(self):
        """Graceful drain: finish admitted work, then close everything."""
        if self._shutdown_started:
            await self._closed.wait()
            return
        self._shutdown_started = True
        self.journal.publish(service_event("service_draining"))
        self.controller.drain()
        if self._executor is not None:
            await asyncio.to_thread(self._executor.join)
        # No batch runs any more: shut the engine's warm pool down, so
        # its workers do not outlive the service.
        close = getattr(self.engine, "close", None)
        if close is not None:
            await asyncio.to_thread(close)
        self.journal.publish(service_event("service_stopped"))
        self.journal.close()
        if self._events_log is not None:
            self._events_log.close()
        self._server.close()
        await self._server.wait_closed()
        self._closed.set()

    def request_shutdown(self):
        """Thread/signal-safe trigger for :meth:`shutdown`."""
        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(self.shutdown())
        )

    async def wait_closed(self):
        await self._closed.wait()

    # -- HTTP plumbing ------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            try:
                method, target, _ = request_line.decode("latin-1").split(None, 2)
            except ValueError:
                await self._respond(writer, 400, {"error": "malformed request"})
                return
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length:
                body = await reader.readexactly(length)
            path, _, query_string = target.partition("?")
            await self._route(writer, method.upper(), path, query_string, body)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            try:
                if not writer.is_closing():
                    writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(self, writer, method, path, query_string, body):
        if path == "/query" and method == "POST":
            await self._handle_query(writer, body)
        elif path == "/healthz" and method == "GET":
            await self._respond(writer, 200, self.healthz())
        elif path == "/events" and method == "GET":
            await self._handle_events(writer, query_string)
        elif path == "/shutdown" and method == "POST":
            await self._respond(writer, 202, {"status": "draining"})
            self._loop.create_task(self.shutdown())
        else:
            await self._respond(
                writer, 404, {"error": "no route {} {}".format(method, path)}
            )

    async def _respond(self, writer, status, payload, headers=()):
        body = wire.canonical_json(payload)
        reason = {
            200: "OK",
            202: "Accepted",
            400: "Bad Request",
            404: "Not Found",
            429: "Too Many Requests",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "Response")
        lines = ["HTTP/1.1 {} {}".format(status, reason)]
        for name, value in _JSON_HEADERS + tuple(headers):
            lines.append("{}: {}".format(name, value))
        lines.append("Content-Length: {}".format(len(body)))
        lines.append("Connection: close")
        writer.write("\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()

    # -- endpoints ----------------------------------------------------------------

    async def _handle_query(self, writer, body):
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            await self._respond(
                writer, 400, {"error": "invalid JSON: {}".format(error)}
            )
            return
        try:
            cells, scale = wire.decode_query(payload)
            estimate = wire.decode_estimate(payload)
        except wire.WireError as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        query = QueuedQuery(cells, scale, estimate=estimate)
        try:
            self.controller.submit(query)
        except QueueSaturated as error:
            self.journal.publish(
                service_event("query_rejected", reason="saturated")
            )
            await self._respond(
                writer,
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers=(("Retry-After", "{:.3f}".format(error.retry_after)),),
            )
            return
        except ServiceDraining as error:
            self.journal.publish(
                service_event("query_rejected", reason="draining")
            )
            await self._respond(writer, 503, {"error": str(error)})
            return
        self.journal.publish(
            service_event(
                "query_admitted",
                cells=len(cells),
                scale=scale,
                queue_depth=self.controller.queue_depth,
            )
        )
        try:
            response = await asyncio.wrap_future(query.future)
        except Exception as error:
            await self._respond(
                writer, 500, {"error": "batch execution failed: {}".format(error)}
            )
            return
        await self._respond(writer, 200, response)

    def healthz(self):
        """The structured service-state payload of ``GET /healthz``."""
        return {
            "status": "draining" if self.controller.draining else "ok",
            "schema": wire.WIRE_SCHEMA_VERSION,
            "uptime_seconds": (
                0.0 if self.started_at is None else time.time() - self.started_at
            ),
            "admission": self.controller.snapshot(),
            "engine": self.engine.snapshot(),
            "events": {
                "published": self.journal.published,
                "buffered_through": self.journal.end_seq,
            },
        }

    async def _handle_events(self, writer, query_string):
        follow = "follow=0" not in query_string
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        seq = 0
        try:
            while True:
                if follow:
                    events, seq = await asyncio.to_thread(
                        self.journal.wait_since, seq, 0.25
                    )
                else:
                    events, seq = self.journal.since(seq)
                for event in events:
                    writer.write(
                        json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
                    )
                if events:
                    await writer.drain()
                if not follow or (
                    self.journal.closed and seq >= self.journal.end_seq
                ):
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
