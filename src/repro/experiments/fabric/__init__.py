"""The experiment fabric: sharded execution across worker processes.

The grid scheduler of :mod:`repro.experiments.scheduler` fans chunks
out to a warm in-process fork pool — bounded by one machine's cores.
This package ships the same cost-balanced chunks to *external*
executors instead:

* :mod:`~repro.experiments.fabric.protocol` — the length-prefixed
  JSON chunk protocol (wire-version guarded) workers speak over
  stdin/stdout, including an exact JSON round-trip of the scheduler's
  packed stat tuples.
* :mod:`~repro.experiments.fabric.transport` — the
  :class:`Transport` implementations: :class:`LocalPoolTransport`
  (today's warm pool behind the fabric interface) and
  :class:`SubprocessWorkerTransport` (worker processes launched
  locally or through an SSH command template).
* :mod:`~repro.experiments.fabric.worker` — the worker entry point
  (``python -m repro.experiments.fabric.worker``).

Workers and parents share results through a
:class:`~repro.experiments.parallel.ResultCache` root (``--fabric-store``):
the same sha256-verified entries the local result cache writes, so a
filled cache directory serves as a store as is.

Placement never changes results: cells are deterministic simulations
keyed by their job digests, outcomes merge into the same keyed memo
the serial runner reads, and the placement-invariance suite asserts
byte identity across transports, worker counts, and schedules.
"""

from repro.experiments.fabric.transport import (
    FabricWorkerDied,
    LocalPoolTransport,
    SubprocessWorkerTransport,
)

__all__ = [
    "FabricWorkerDied",
    "LocalPoolTransport",
    "SubprocessWorkerTransport",
]
