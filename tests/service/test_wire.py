"""Wire-schema tests: decoding, validation errors, canonical bytes."""

import dataclasses
import json

import pytest

from repro.polyflow import PAPER_CONFIG
from repro.service import wire
from repro.spawn import canonical_spec


def _query(cells, scale=0.1):
    return {"cells": cells, "scale": scale}


# -- decoding ---------------------------------------------------------------------


def test_decode_query_round_trip():
    cells, scale = wire.decode_query(
        _query(
            [
                {"workload": "gzip", "spec": "postdoms"},
                ["twolf", "control-equivalent"],
                {
                    "workload": "synth/L1H1C0I0P0S0V0",
                    "spec": "postdoms",
                    "config": {"rob_entries": 256},
                },
            ],
            scale=0.25,
        )
    )
    assert scale == 0.25
    assert [cell.workload for cell in cells] == [
        "gzip",
        "twolf",
        "synth/L1H1C0I0P0S0V0",
    ]
    assert cells[0].config is PAPER_CONFIG
    assert cells[2].config.rob_entries == 256
    # Every other field stays at the paper configuration.
    assert dataclasses.replace(cells[2].config, rob_entries=PAPER_CONFIG.rob_entries) == PAPER_CONFIG


def test_decode_query_canonicalizes_spec_aliases():
    cells, _ = wire.decode_query(
        _query(
            [
                {"workload": "gzip", "spec": "control-equivalent"},
                {"workload": "gzip", "spec": canonical_spec("control-equivalent")},
            ]
        )
    )
    # Both aliases decode to the same canonical cell, so admission
    # dedup (and every cache below it) collapses them.
    assert cells[0] == cells[1]


def test_decode_query_defaults_scale_to_one():
    _, scale = wire.decode_query({"cells": [["gzip", "postdoms"]]})
    assert scale == 1.0


def test_encode_decode_query_round_trip():
    cells, scale = wire.decode_query(
        _query([{"workload": "gzip", "spec": "postdoms"}], scale=0.5)
    )
    again, again_scale = wire.decode_query(wire.encode_query(cells, scale))
    assert again == cells
    assert again_scale == scale


def test_encode_config_only_carries_overrides():
    assert wire.encode_config(PAPER_CONFIG) == {}
    modified = dataclasses.replace(PAPER_CONFIG, rob_entries=256)
    assert wire.encode_config(modified) == {"rob_entries": 256}
    assert wire.decode_config({"rob_entries": 256}) == modified


# -- validation errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "JSON object"),
        ({"cells": []}, "non-empty 'cells'"),
        ({"cells": "gzip"}, "non-empty 'cells'"),
        (_query([["gzip", "postdoms"]], scale=0.0), "scale must be in"),
        (_query([["gzip", "postdoms"]], scale=-1), "scale must be in"),
        (_query([["gzip", "postdoms"]], scale=wire.MAX_SCALE * 2), "scale must be in"),
        (_query([["gzip", "postdoms"]], scale="big"), "scale must be a number"),
        (_query([["gzip", "postdoms"]], scale=True), "scale must be a number"),
        ({"cells": [["gzip", "postdoms"]], "grid": 1}, "unknown request fields"),
        (_query([{"workload": "nonesuch", "spec": "postdoms"}]), "unknown workload"),
        (_query([{"workload": "synth/bogus", "spec": "postdoms"}]), "invalid synth"),
        (_query([{"workload": "gzip", "spec": ""}]), "non-empty policy"),
        (_query([{"workload": "gzip"}]), "non-empty policy"),
        (_query([{"spec": "postdoms"}]), "workload must be"),
        (_query([["gzip", "postdoms", "extra"]]), "array cells"),
        (_query([42]), "each cell must be"),
        (
            _query([{"workload": "gzip", "spec": "postdoms", "color": "red"}]),
            "unknown cell fields",
        ),
        (
            _query([{"workload": "gzip", "spec": "postdoms", "config": {"warp": 9}}]),
            "unknown machine-config fields",
        ),
        (
            _query([{"workload": "gzip", "spec": "postdoms", "config": [1]}]),
            "config must be an object",
        ),
        # Two fetch ports on a 1-wide machine: zero fetch slots per task.
        (
            _query(
                [{"workload": "gzip", "spec": "postdoms", "config": {"width": 1}}]
            ),
            "invalid machine config",
        ),
    ],
)
def test_decode_query_rejects(payload, message):
    with pytest.raises(wire.WireError, match=message):
        wire.decode_query(payload)


def test_decode_query_enforces_cell_limit():
    cells = [["gzip", "postdoms"]] * (wire.MAX_CELLS_PER_QUERY + 1)
    with pytest.raises(wire.WireError, match="too many cells"):
        wire.decode_query(_query(cells))


# -- estimate mode ----------------------------------------------------------------


def test_decode_estimate_defaults_false_and_round_trips():
    assert wire.decode_estimate(_query([["gzip", "postdoms"]])) is False
    payload = wire.encode_query([("gzip", "postdoms")], scale=0.5, estimate=True)
    assert payload["estimate"] is True
    assert wire.decode_estimate(payload) is True
    # The flag is omitted entirely when off (older servers stay happy).
    assert "estimate" not in wire.encode_query([("gzip", "postdoms")])


def test_decode_estimate_rejects_non_boolean():
    payload = _query([["gzip", "postdoms"]])
    payload["estimate"] = "yes"
    with pytest.raises(wire.WireError, match="estimate must be a boolean"):
        wire.decode_estimate(payload)
    # decode_query validates the flag too, so admission rejects it.
    with pytest.raises(wire.WireError, match="estimate must be a boolean"):
        wire.decode_query(payload)


def test_encode_estimate_carries_the_decision_interval():
    from repro.analysis.estimate import estimate_speedup

    estimate = estimate_speedup("synth/L1H1C0I0P0S0V0", "postdoms", scale=0.3)
    encoded = wire.encode_estimate(estimate)
    assert set(encoded) == {
        "predicted_speedup",
        "band",
        "baseline_cycles",
        "polyflow_cycles",
    }
    assert encoded["band"] > 0


# -- canonical bytes --------------------------------------------------------------


def test_canonical_json_is_order_independent():
    assert wire.canonical_json({"b": 1, "a": [1, 2]}) == wire.canonical_json(
        {"a": [1, 2], "b": 1}
    )
    assert wire.canonical_json({"a": 1}) == b'{"a":1}'


def test_stats_survive_json_round_trip_byte_identically():
    """The byte-identity invariant depends on JSON float round-tripping
    exactly; prove it on a real simulation's stats."""
    from repro.experiments.runner import simulate_job

    stats = simulate_job("gzip", "postdoms", 0.05, PAPER_CONFIG)
    encoded = wire.encode_stats(stats)
    rebuilt = json.loads(wire.canonical_json(encoded).decode("utf-8"))
    assert wire.canonical_json(rebuilt) == wire.canonical_json(encoded)
