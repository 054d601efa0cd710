"""Wire schema of the exploration service: JSON in, JSON out.

Schema — version 2
==================

A **query** submits one or more grid cells at one workload scale::

    {
      "cells": [
        {"workload": "gzip", "spec": "control-equivalent"},
        {"workload": "synth/L2H1C0I0P1S0V0", "spec": "superscalar"},
        {"workload": "mcf", "spec": "postdoms",
         "config": {"rob_entries": 256}}
      ],
      "scale": 0.5
    }

``spec`` accepts the same policy strings and aliases as the CLI
(``control-equivalent``, ``best-heuristic``, ``superscalar``, …);
``config`` is an optional dict of :class:`MachineConfig` field
overrides applied on top of the paper configuration.  Cells may also be
two-element ``[workload, spec]`` arrays.

The **response** is positionally aligned with the request cells::

    {
      "schema": 1,
      "scale": 0.5,
      "results": [
        {"workload": "gzip", "spec": "postdoms",
         "config_fingerprint": "…", "source": "simulated",
         "stats": { … SimStats.as_dict() … }},
        …
      ],
      "batch": {"queries": 3, "cells": 7, "unique_cells": 5,
                "memo_hits": 1, "cache_hits": 2, "simulated": 2}
    }

``source`` records how the cell was answered: ``memo`` (the server's
in-memory result memo), ``cache`` (a verified entry of the
content-addressed on-disk
:class:`~repro.experiments.parallel.ResultCache`), ``simulated`` (a
fresh simulation, inline or pooled), ``estimated`` (the analytic
estimator — see below), or ``error`` (the cell failed — an ``error``
string replaces ``stats``).

Version 2 adds **estimate mode**: a query carrying ``"estimate":
true`` is answered entirely by the analytic estimator
(:mod:`repro.analysis.estimate`) — no simulation, no caches.  Each
result then carries an ``estimate`` object instead of ``stats``::

    {"workload": "gzip", "spec": "postdoms",
     "config_fingerprint": "…", "source": "estimated",
     "estimate": {"predicted_speedup": 31.2, "band": 52.7,
                  "baseline_cycles": 8143, "polyflow_cycles": 6205}}

``predicted_speedup`` is the estimator's speedup prediction in
percent, ``band`` its confidence half-width (the exact speedup lands
inside ``predicted_speedup ± band`` for roughly nine out of ten
catalog cells).  Estimated answers are labeled ``source=estimated``
end to end and are never byte-identical to simulation — clients that
need exact stats re-query without the flag.

**Byte identity** is the service's core invariant: ``stats`` is
exactly ``SimStats.as_dict()`` of the simulation the serial
:class:`~repro.experiments.runner.ExperimentRunner` would have run, so
:func:`canonical_json` of a service result equals :func:`canonical_json`
of the direct run, byte for byte, regardless of batching, caching, or
scheduling decisions.
"""

import collections
import dataclasses
import json

from repro.polyflow import PAPER_CONFIG
from repro.polyflow.config import MachineConfig
from repro.spawn import canonical_spec

#: Version of the request/response schema (bump on any field change).
WIRE_SCHEMA_VERSION = 2

#: Upper bound on cells per query; larger explorations should be
#: split into several queries (the admission batcher re-coalesces
#: them into one grid anyway).
MAX_CELLS_PER_QUERY = 256

#: Workload scales outside this range are rejected at the wire.
MAX_SCALE = 64.0

#: Result ``source`` labels.
SOURCE_MEMO = "memo"
SOURCE_CACHE = "cache"
SOURCE_SIMULATED = "simulated"
SOURCE_ESTIMATED = "estimated"
SOURCE_ERROR = "error"

#: One requested grid cell, decoded and canonicalized.
Cell = collections.namedtuple("Cell", ("workload", "spec", "config"))


class WireError(ValueError):
    """A malformed or invalid request (maps to HTTP 400)."""


def canonical_json(payload):
    """The canonical JSON bytes of ``payload`` (sorted keys, compact).

    Byte-identity assertions compare these bytes; two payloads are
    "the same result" exactly when their canonical JSON matches.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def encode_stats(stats):
    """The wire form of one ``SimStats``: its plain ``as_dict()``."""
    return stats.as_dict()


def encode_estimate(estimate):
    """The wire form of one analytic ``Estimate``."""
    return {
        "predicted_speedup": estimate.predicted_speedup,
        "band": estimate.band,
        "baseline_cycles": estimate.baseline_cycles,
        "polyflow_cycles": estimate.polyflow_cycles,
    }


_CONFIG_FIELDS = {field.name for field in dataclasses.fields(MachineConfig)}


def encode_config(config):
    """The overrides dict that :func:`decode_config` restores.

    Only fields differing from the paper configuration are included,
    so the default machine encodes as ``{}`` (clients may omit the
    ``config`` key entirely).
    """
    return {
        name: getattr(config, name)
        for name in sorted(_CONFIG_FIELDS)
        if getattr(config, name) != getattr(PAPER_CONFIG, name)
    }


def decode_config(payload):
    """A :class:`MachineConfig` from an overrides dict (or ``None``)."""
    if payload is None:
        return PAPER_CONFIG
    if not isinstance(payload, dict):
        raise WireError("cell config must be an object of field overrides")
    unknown = sorted(set(payload) - _CONFIG_FIELDS)
    if unknown:
        raise WireError(
            "unknown machine-config fields: {}".format(", ".join(unknown))
        )
    try:
        return dataclasses.replace(PAPER_CONFIG, **payload)
    except Exception as error:
        raise WireError("invalid machine config: {}".format(error))


def validate_workload(name):
    """``name`` if it is a known workload or valid synth/ code.

    Validation is cheap (a name lookup or a dial-code parse) so it can
    run at admission time, before the cell ever reaches the batch
    executor.
    """
    if not isinstance(name, str) or not name:
        raise WireError("cell workload must be a non-empty string")
    from repro.workloads import WORKLOAD_NAMES

    if name in WORKLOAD_NAMES:
        return name
    from repro.workloads.synth import CATALOG_PREFIX, Dials

    if name.startswith(CATALOG_PREFIX):
        try:
            Dials.from_code(name[len(CATALOG_PREFIX) :])
        except Exception as error:
            raise WireError("invalid synth scenario {!r}: {}".format(name, error))
        return name
    raise WireError(
        "unknown workload {!r}; choose from {} or a synth/ catalog "
        "name".format(name, WORKLOAD_NAMES)
    )


def decode_cell(raw):
    """One :class:`Cell` from its wire form (dict or 2-array)."""
    if isinstance(raw, (list, tuple)):
        if len(raw) != 2:
            raise WireError(
                "array cells must be [workload, spec], got {!r}".format(raw)
            )
        raw = {"workload": raw[0], "spec": raw[1]}
    if not isinstance(raw, dict):
        raise WireError("each cell must be an object or [workload, spec]")
    workload = validate_workload(raw.get("workload"))
    spec = raw.get("spec")
    if not isinstance(spec, str) or not spec.strip():
        raise WireError("cell spec must be a non-empty policy string")
    extra = sorted(set(raw) - {"workload", "spec", "config"})
    if extra:
        raise WireError("unknown cell fields: {}".format(", ".join(extra)))
    return Cell(workload, canonical_spec(spec), decode_config(raw.get("config")))


def decode_estimate(payload):
    """The query's estimate-mode flag (``False`` when omitted)."""
    estimate = payload.get("estimate", False) if isinstance(payload, dict) else False
    if not isinstance(estimate, bool):
        raise WireError("estimate must be a boolean")
    return estimate


def decode_query(payload):
    """``(cells, scale)`` from one decoded request body.

    Policy specs are canonicalized here, so admission-batch
    deduplication (and every cache underneath) is independent of which
    alias the client used.  The optional ``estimate`` flag is decoded
    separately by :func:`decode_estimate` (it is validated here so an
    ill-typed flag fails admission, not execution).
    """
    if not isinstance(payload, dict):
        raise WireError("request body must be a JSON object")
    raw_cells = payload.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise WireError("request must carry a non-empty 'cells' array")
    if len(raw_cells) > MAX_CELLS_PER_QUERY:
        raise WireError(
            "too many cells in one query ({} > {})".format(
                len(raw_cells), MAX_CELLS_PER_QUERY
            )
        )
    scale = payload.get("scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise WireError("scale must be a number")
    scale = float(scale)
    if not 0.0 < scale <= MAX_SCALE:
        raise WireError(
            "scale must be in (0, {}], got {}".format(MAX_SCALE, scale)
        )
    decode_estimate(payload)
    unknown = sorted(set(payload) - {"cells", "scale", "estimate"})
    if unknown:
        raise WireError("unknown request fields: {}".format(", ".join(unknown)))
    return [decode_cell(raw) for raw in raw_cells], scale


def encode_query(cells, scale=1.0, estimate=False):
    """The request body for ``cells`` (dicts, tuples, or ``Cell``\\ s)."""
    encoded = []
    for cell in cells:
        if isinstance(cell, dict):
            encoded.append(cell)
            continue
        if isinstance(cell, Cell):
            entry = {"workload": cell.workload, "spec": cell.spec}
            overrides = encode_config(cell.config)
            if overrides:
                entry["config"] = overrides
            encoded.append(entry)
            continue
        workload, spec = cell
        encoded.append({"workload": workload, "spec": spec})
    payload = {"cells": encoded, "scale": scale}
    if estimate:
        payload["estimate"] = True
    return payload
