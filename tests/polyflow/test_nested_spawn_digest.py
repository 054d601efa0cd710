"""Pinned statistics of ``nested_spawns`` runs.

The nested-spawns extension (the paper's future work: non-tail tasks
split their own segment) runs on the event kernel like every other
non-verbose cell.  Each digest below is the SHA-256 of the run's
:func:`~repro.experiments.scheduler.pack_stats` payload, recorded while
these cells still ran on a separate fused cycle loop and reproduced by
the staged engine since; the kernel must reproduce them byte for byte.
Every pinned cell performs at least one nested spawn.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.runner import REC_PRED_SPEC, build_core
from repro.experiments.scheduler import pack_stats
from repro.polyflow import PAPER_CONFIG

_SCALE = 0.1

_NESTED_CONFIG = dataclasses.replace(PAPER_CONFIG, nested_spawns=True)

_PINNED = {
    ("mcf", "postdoms"): (
        "6cafed1c46f038a4e6eca599a0e852806a8cd87c7caff34cf648216876a7417c"
    ),
    ("twolf", "postdoms"): (
        "895b842f7845c09d81c696e2925f6af5602ead225b806cdfddade2236e5c0038"
    ),
    ("twolf", "loop+procFT+loopFT"): (
        "3e8dff93d8b4eb560bdc23191cbce19e3ab2bd65d6cc218ab8d9e826c5faa5f6"
    ),
    ("crafty", "postdoms"): (
        "2dc573b79dc4190276195b2aa356824d6d25aa182f5d3a893905c922c92d9633"
    ),
    ("crafty", "loop+procFT+loopFT"): (
        "c5d48ac87c72cdff4fe8657c91421b778a2bb4c69cd788e31dfbdf23d21dfbe8"
    ),
    ("crafty", REC_PRED_SPEC): (
        "2647a5407be09621a6c83d1045e49eb0e9ec7773eaae64d80953ed5f1a56798b"
    ),
}


@pytest.mark.parametrize("name,spec", sorted(_PINNED))
def test_nested_spawn_stats_pinned(name, spec):
    core = build_core(name, spec, _SCALE, _NESTED_CONFIG)
    assert not core.bus.verbose  # the kernel runs it
    stats = core.run()
    assert stats.nested_spawns > 0
    digest = hashlib.sha256(repr(pack_stats(stats)).encode("utf-8")).hexdigest()
    assert digest == _PINNED[(name, spec)]
