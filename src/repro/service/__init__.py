"""Always-on policy-exploration service.

Turns the warm worker pool, batched grid scheduler, and
content-addressed caches of :mod:`repro.experiments` into a long-lived
asyncio service: clients submit ``(workload, policy-spec,
machine-config, scale)`` cells over local HTTP/JSON, concurrent
requests coalesce into one cost-scheduled grid, cache hits are
answered inline without pool dispatch, progress streams as JSONL, and
saturation produces explicit backpressure (HTTP 429 + ``Retry-After``)
instead of unbounded queueing.

Layering::

    client.ServiceClient ── HTTP/JSON ──► server.ExplorationService
                                              │  admission.AdmissionController
                                              ▼
                                          engine.ExplorationEngine
                                              │  (per-scale ParallelExperimentRunner)
                                              ▼
                              experiments.scheduler (warm pool, machine chunks)

Results are byte-identical to the direct serial
:class:`~repro.experiments.runner.ExperimentRunner` — batching,
caching, and fault recovery are invisible in the stats.
"""

from repro.service.admission import (
    AdmissionController,
    QueuedQuery,
    QueueSaturated,
    ServiceDraining,
    ServiceError,
)
from repro.service.client import (
    ServiceClient,
    ServiceQueryError,
    ServiceResponseError,
    ServiceSaturated,
)
from repro.service.engine import ExplorationEngine
from repro.service.server import ExplorationService
from repro.service.wire import (
    MAX_CELLS_PER_QUERY,
    WIRE_SCHEMA_VERSION,
    Cell,
    WireError,
    canonical_json,
    decode_config,
    decode_query,
    encode_config,
    encode_query,
    encode_stats,
)

__all__ = [
    "AdmissionController",
    "Cell",
    "ExplorationEngine",
    "ExplorationService",
    "MAX_CELLS_PER_QUERY",
    "QueueSaturated",
    "QueuedQuery",
    "ServiceClient",
    "ServiceDraining",
    "ServiceError",
    "ServiceQueryError",
    "ServiceResponseError",
    "ServiceSaturated",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "canonical_json",
    "decode_config",
    "decode_query",
    "encode_config",
    "encode_query",
    "encode_stats",
]
