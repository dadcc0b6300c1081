"""Protocol layer: validation, normalisation, fingerprints, canonical JSON."""

import json
import math

import pytest

from repro.errors import ProtocolError
from repro.serve.protocol import (
    ANALYSES,
    MAX_SWEEP_CELLS,
    PROTOCOL_VERSION,
    Request,
    canonical_json,
    error_envelope,
    ok_envelope,
    parse_request,
)


def body(analysis, params, **extra):
    return {"v": PROTOCOL_VERSION, "analysis": analysis, "params": params, **extra}


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_non_finite_floats_become_strings(self):
        text = canonical_json({"x": float("inf"), "y": float("-inf"), "z": float("nan")})
        assert json.loads(text) == {"x": "inf", "y": "-inf", "z": "nan"}

    def test_tuples_serialise_as_lists(self):
        assert canonical_json({"t": (1, 2)}) == '{"t":[1,2]}'


class TestParseRequest:
    def test_accepts_bytes_str_and_mapping(self):
        payload = body("echo", {"payload": 1})
        for form in (payload, json.dumps(payload), json.dumps(payload).encode()):
            request = parse_request(form)
            assert request.analysis == "echo"
            assert request.params["payload"] == 1

    def test_defaults_filled_explicitly(self):
        request = parse_request(
            body("availability", {"workload": "memcached",
                                  "configuration": "NoDG",
                                  "technique": "sleep-l"})
        )
        assert request.params["years"] == 100
        assert request.params["servers"] == 16
        assert request.params["seed"] == 0
        assert request.params["faults"] is None

    def test_version_defaults_when_absent(self):
        request = parse_request({"analysis": "echo", "params": {}})
        assert request.analysis == "echo"

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            parse_request(body("echo", {}, v=99))

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ProtocolError, match="unknown analysis"):
            parse_request(body("frobnicate", {}))

    def test_unknown_param_rejected(self):
        with pytest.raises(ProtocolError, match="unknown params"):
            parse_request(body("echo", {"bogus": 1}))

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            parse_request(body("echo", {}, extra=True))

    def test_malformed_json_rejected(self):
        with pytest.raises(ProtocolError, match="not JSON"):
            parse_request("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request("[1,2]")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            parse_request(
                body("rank", {"workload": "doom"})
            )

    def test_bad_faults_spec_rejected(self):
        with pytest.raises(ProtocolError, match="faults"):
            parse_request(
                body("availability", {"workload": "memcached",
                                      "configuration": "NoDG",
                                      "technique": "sleep-l",
                                      "faults": "warp_core=1"})
            )

    def test_years_bounds(self):
        with pytest.raises(ProtocolError, match="years"):
            parse_request(
                body("availability", {"workload": "memcached",
                                      "configuration": "NoDG",
                                      "technique": "sleep-l",
                                      "years": 0})
            )

    @pytest.mark.parametrize(
        "analysis, params",
        [
            ("availability", {"workload": "memcached",
                              "configuration": "NoDG",
                              "technique": "sleep-l"}),
            ("fleet_frontier", {}),
        ],
    )
    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**63])
    def test_seed_bounded_to_what_seed_sequence_accepts(
        self, analysis, params, seed
    ):
        with pytest.raises(ProtocolError, match="seed"):
            parse_request(body(analysis, {**params, "seed": seed}))

    def test_largest_seed_accepted(self):
        request = parse_request(body("fleet_frontier", {"seed": 2**63 - 1}))
        assert request.params["seed"] == 2**63 - 1

    def test_bool_is_not_an_int(self):
        with pytest.raises(ProtocolError, match="years"):
            parse_request(
                body("availability", {"workload": "memcached",
                                      "configuration": "NoDG",
                                      "technique": "sleep-l",
                                      "years": True})
            )

    def test_sweep_grid_cap(self):
        with pytest.raises(ProtocolError, match="too large"):
            parse_request(
                body("sweep", {"workload": "memcached",
                               "rows": ["sleep-l"],
                               "outage_minutes": [float(i + 1) for i in
                                                  range(MAX_SWEEP_CELLS + 1)]})
            )

    def test_echo_sleep_bounds(self):
        with pytest.raises(ProtocolError, match="sleep_s"):
            parse_request(body("echo", {"sleep_s": 100.0}))

    def test_deadline_validation(self):
        request = parse_request(body("echo", {}, deadline_s=2))
        assert request.deadline_s == 2.0
        for bad in (0, -1, math.inf, True, "soon"):
            with pytest.raises(ProtocolError):
                parse_request(body("echo", {}, deadline_s=bad))

    def test_analyses_listing_is_sorted(self):
        assert list(ANALYSES) == sorted(ANALYSES)
        assert {"availability", "rank", "sweep", "whatif"} <= set(ANALYSES)


class TestFingerprint:
    def test_defaults_spelled_out_coalesce(self):
        implicit = parse_request(
            body("whatif", {"workload": "memcached", "configuration": "NoDG",
                            "technique": "sleep-l"})
        )
        explicit = parse_request(
            body("whatif", {"workload": "memcached", "configuration": "NoDG",
                            "technique": "sleep-l", "nodes_per_bucket": 3,
                            "servers": 16})
        )
        assert implicit.fingerprint == explicit.fingerprint

    def test_different_params_differ(self):
        a = parse_request(body("echo", {"payload": 1}))
        b = parse_request(body("echo", {"payload": 2}))
        assert a.fingerprint != b.fingerprint

    def test_deadline_not_part_of_identity(self):
        slow = parse_request(body("echo", {"payload": 1}))
        fast = parse_request(body("echo", {"payload": 1}, deadline_s=0.5))
        assert slow.fingerprint == fast.fingerprint


class TestEnvelopes:
    def test_ok_envelope_shape(self):
        request = Request(analysis="echo", params={"payload": 1, "sleep_s": 0.0})
        envelope = ok_envelope(request, {"echo": 1}, {"jobs": 1})
        assert envelope["ok"] is True
        assert envelope["v"] == PROTOCOL_VERSION
        assert envelope["result"] == {"echo": 1}
        assert envelope["fingerprint"] == request.fingerprint
        assert envelope["meta"] == {"jobs": 1}

    def test_error_envelope_shape(self):
        envelope = error_envelope("shed", "queue full")
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "shed"
