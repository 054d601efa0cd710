"""The fabric wire protocol: length-prefixed JSON frames.

A worker and its driver exchange *frames*: a 4-byte big-endian length
followed by that many bytes of canonical JSON (sorted keys, compact
separators).  Every frame is an object led by a ``kind``:

``hello``
    Worker → driver, once, immediately after start:
    ``{"kind": "hello", "wire_version": N, "pid": …, "worker": i}``.
    The driver validates ``wire_version`` against its own
    :data:`WIRE_VERSION` and kills a mismatched worker before sending
    it any work — a stale checkout on a remote host fails loudly at
    handshake, never with corrupt results.

``configure``
    Driver → worker: ``{"kind": "configure", "analysis_dir": …}``
    enables the on-disk analysis cache layer.

``chunk``
    Driver → worker: one cost-balanced chunk of grid cells,
    ``{"kind": "chunk", "id": n, "scale": s, "cells": [cell, …]}``
    where each cell is the JSON form of one
    :class:`~repro.experiments.runner.Cell` (see :func:`encode_cell`).

``result``
    Worker → driver: the aligned outcomes of one chunk,
    ``{"kind": "result", "id": n, "outcomes": [...]}``.
    Each outcome is the JSON form of one
    :class:`~repro.experiments.runner.Outcome` (see
    :func:`encode_outcome`): the packed stats, the simulation seconds,
    the block-cache delta, its ``source`` (``simulated``) and the
    ``shared`` flag.

``heartbeat``
    Worker → driver, periodically from a background thread, so a
    driver can distinguish a long simulation from a dead worker.

``shutdown``
    Driver → worker: drain and exit.

The JSON round-trip of the scheduler's packed stat tuples is *exact*:
spawn categories are encoded by their enum value and restored to
:class:`~repro.spawn.points.SpawnCategory` members, and cache-stat
value pairs are restored to tuples, so ``unpack_stats`` of a decoded
payload is bit-identical to the worker's local stats object.
"""

import json
import struct

from repro.errors import ConfigurationError

#: Version of the fabric frame vocabulary.  Bump on any frame or
#: field change; drivers refuse workers that announce a different
#: version at handshake.  v2: result outcomes carry ``batched`` and
#: ``shared``.  v3: result frames carry no store counters (workers
#: only execute; the driver owns the result cache).
#: v4: outcomes drop ``batched`` (one executor runs every cell).
WIRE_VERSION = 4

#: Upper bound on one frame's body; anything larger is a protocol
#: violation (a desynchronized stream decodes garbage lengths).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FabricProtocolError(ConfigurationError):
    """A malformed frame or an incompatible worker."""


def canonical_json(payload):
    """The canonical JSON bytes of one frame body."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def write_frame(stream, payload):
    """Write one frame and flush (workers interleave with heartbeats)."""
    body = canonical_json(payload)
    stream.write(struct.pack(">I", len(body)) + body)
    stream.flush()


def _read_exact(stream, count):
    """Exactly ``count`` bytes, or ``None`` on a clean EOF at byte 0."""
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise FabricProtocolError(
                "stream truncated mid-frame ({} of {} bytes)".format(
                    count - remaining, count
                )
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream):
    """The next decoded frame, or ``None`` on a clean EOF."""
    header = _read_exact(stream, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise FabricProtocolError(
            "frame length {} exceeds the {} byte bound".format(
                length, MAX_FRAME_BYTES
            )
        )
    body = _read_exact(stream, length)
    if body is None:
        raise FabricProtocolError("stream truncated after frame header")
    try:
        frame = json.loads(body.decode("utf-8"))
    except ValueError as error:
        raise FabricProtocolError("undecodable frame: {}".format(error))
    if not isinstance(frame, dict) or "kind" not in frame:
        raise FabricProtocolError("frames must be objects with a 'kind'")
    return frame


def check_hello(frame):
    """Validate a worker's handshake frame against :data:`WIRE_VERSION`."""
    if frame is None or frame.get("kind") != "hello":
        raise FabricProtocolError(
            "worker did not announce itself (got {!r})".format(frame)
        )
    version = frame.get("wire_version")
    if version != WIRE_VERSION:
        raise FabricProtocolError(
            "worker speaks fabric wire version {!r}, driver speaks {}; "
            "refusing to ship work to a mismatched executor".format(
                version, WIRE_VERSION
            )
        )
    return frame


# -- packed-stat round-trip -------------------------------------------------------


def encode_packed(packed):
    """The JSON form of one :func:`~repro.experiments.scheduler.pack_stats`
    payload.

    Spawn-category keys travel as their enum *values* (``"loopFT"`` …)
    and cache-stat pairs as two-element arrays; :func:`decode_packed`
    restores both exactly.
    """
    plain, spawns, cache = packed
    return {
        "plain": [[name, value] for name, value in plain],
        "spawns": [[category.value, count] for category, count in spawns],
        "cache": [[level, list(counts)] for level, counts in cache],
    }


def decode_packed(payload):
    """The exact packed tuple :func:`encode_packed` serialized."""
    from repro.spawn.points import SpawnCategory

    plain = tuple((name, value) for name, value in payload["plain"])
    spawns = tuple(
        (SpawnCategory(code), count) for code, count in payload["spawns"]
    )
    cache = tuple((level, tuple(counts)) for level, counts in payload["cache"])
    return plain, spawns, cache


def encode_outcome(outcome):
    """The JSON form of one chunk outcome whose stats are packed.

    Fabric cells run plain, so there are no metrics to carry.
    """
    return {
        "packed": encode_packed(outcome.stats),
        "seconds": outcome.seconds,
        "blocks": outcome.blocks or {},
        "source": outcome.source,
        "shared": outcome.shared,
    }


def decode_outcome(payload):
    """The :class:`~repro.experiments.runner.Outcome` (stats still
    packed) :func:`encode_outcome` serialized."""
    from repro.experiments.runner import Outcome

    return Outcome(
        decode_packed(payload["packed"]),
        None,
        payload["seconds"],
        payload["blocks"],
        payload["source"],
        payload["shared"],
    )


# -- cell round-trip --------------------------------------------------------------


def encode_cell(name, spec, config, profile_distance):
    """The JSON form of one cell.

    The machine configuration travels as its override dict relative to
    the paper configuration (the exploration service's wire idiom), so
    the default machine costs four short keys, not forty fields.
    """
    from repro.service.wire import encode_config

    return {
        "workload": name,
        "spec": spec,
        "config": encode_config(config),
        "profile_distance": profile_distance,
    }


def decode_cell(payload):
    """The :class:`~repro.experiments.runner.Cell` of one encoded cell."""
    from repro.experiments.runner import Cell
    from repro.service.wire import decode_config

    return Cell(
        payload["workload"],
        payload["spec"],
        decode_config(payload.get("config") or None),
        payload["profile_distance"],
    )
