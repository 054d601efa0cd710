"""The experiment fabric: where planned chunks run.

:class:`~repro.experiments.parallel.ParallelExperimentRunner` plans
every pending grid once and runs its inline cells in the parent; the
chunks go to one of two transports, both running the scheduler's one
chunk executor (:func:`repro.sim.gridbatch.run_batch`):

* :mod:`~repro.experiments.fabric.transport` —
  :class:`LocalPoolTransport` (the warm fork pool, ``--jobs N``) and
  :class:`SubprocessWorkerTransport` (worker processes launched
  locally or through an SSH command template, ``--fabric-workers N``).
  They share ``workers``, ``execute`` and ``close``; a dead worker in
  either (``BrokenProcessPool`` or :class:`FabricWorkerDied`) reaches
  the runner's one retry loop.
* :mod:`~repro.experiments.fabric.protocol` — the length-prefixed
  JSON chunk protocol (wire-version guarded) subprocess workers speak
  over stdin/stdout, including an exact JSON round-trip of the
  scheduler's packed stat tuples.
* :mod:`~repro.experiments.fabric.worker` — the subprocess worker
  entry point (``python -m repro.experiments.fabric.worker``).

Workers are pure executors.  The parent looks every cell up in its one
:class:`~repro.experiments.parallel.ResultCache` root (``--cache-dir``)
before shipping it and is that root's only writer; a worker reads only
the optional analysis directory (``<cache-dir>/analysis``) and never
writes a result.  Runs that share a ``--cache-dir`` share results.

Placement never changes results: cells are deterministic simulations
addressed by their cell digests, outcomes merge into the same
cell-keyed memo the serial runner reads, and the placement-invariance suite asserts
byte identity across transports, worker counts, and chunk sizes.
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
