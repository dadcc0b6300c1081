"""Golden payloads: canonical ``availability`` results pinned across commits.

``availability.json`` lists canonical ``/v1/eval`` availability requests
and the SHA-256 of each ``canonical_json`` result payload.  The requests
cover every Table-3 configuration, study lengths from 1 to 1500 years, a
fault plan, and non-default ``servers``/``seed``.  A refactor must leave
every digest unchanged.  A deliberate behaviour change regenerates the
affected digests and names them in CHANGES.md::

    PYTHONPATH=src python -m tests.golden.test_golden
"""

import hashlib
import json
import os

import pytest

from repro.serve.analyses import evaluate_request
from repro.serve.protocol import canonical_json, parse_request

CORPUS = os.path.join(os.path.dirname(__file__), "availability.json")


def _load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def payload_digest(body):
    """SHA-256 of the canonical result payload of one request body."""
    result = evaluate_request(parse_request(body))
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", _load(), ids=lambda case: case["name"])
def test_availability_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


def test_corpus_covers_the_table3_grid_and_study_lengths():
    from repro.core.configurations import configuration_names

    params = [case["request"]["params"] for case in _load()]
    assert {p["configuration"] for p in params} == set(configuration_names())
    assert {1, 50, 200, 1000, 1500} <= {p.get("years", 100) for p in params}
    assert any(p.get("faults") for p in params)
    assert any(p.get("servers", 16) != 16 for p in params)
    assert any(p.get("seed", 0) != 0 for p in params)


def regenerate():
    """Recompute every digest in place; print the names that changed."""
    cases = _load()
    for case in cases:
        digest = payload_digest(case["request"])
        if digest != case["sha256"]:
            print(f"changed: {case['name']}")
        case["sha256"] = digest
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
