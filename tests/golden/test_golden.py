"""Golden payloads: canonical ``/v1/eval`` results pinned across commits.

Each corpus file lists canonical requests and the SHA-256 of each
``canonical_json`` result payload:

* ``availability.json`` covers every Table-3 configuration, study
  lengths from 1 to 1500 years, a fault plan, and non-default
  ``servers``/``seed``;
* ``fleet_frontier.json`` covers every named fleet, the default grid
  and subsets, 1 and 40 years, and non-default techniques and seeds.

A refactor must leave every digest unchanged.  Tier-1 runs this module,
and ``make golden`` runs it on its own as a CI step.  A deliberate
behaviour change regenerates the affected digests and names them in
CHANGES.md::

    PYTHONPATH=src python -m tests.golden.test_golden
"""

import hashlib
import json
import os

import pytest

from repro.serve.analyses import evaluate_request
from repro.serve.protocol import canonical_json, parse_request

HERE = os.path.dirname(__file__)
CORPORA = ("availability.json", "fleet_frontier.json")


def _load(corpus):
    with open(os.path.join(HERE, corpus), encoding="utf-8") as fh:
        return json.load(fh)


def payload_digest(body):
    """SHA-256 of the canonical result payload of one request body."""
    result = evaluate_request(parse_request(body))
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "case", _load("availability.json"), ids=lambda case: case["name"]
)
def test_availability_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


@pytest.mark.parametrize(
    "case", _load("fleet_frontier.json"), ids=lambda case: case["name"]
)
def test_fleet_frontier_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


def test_corpus_covers_the_table3_grid_and_study_lengths():
    from repro.core.configurations import configuration_names

    params = [case["request"]["params"] for case in _load("availability.json")]
    assert {p["configuration"] for p in params} == set(configuration_names())
    assert {1, 50, 200, 1000, 1500} <= {p.get("years", 100) for p in params}
    assert any(p.get("faults") for p in params)
    assert any(p.get("servers", 16) != 16 for p in params)
    assert any(p.get("seed", 0) != 0 for p in params)


def test_fleet_corpus_covers_every_named_fleet():
    from repro.fleet.spec import fleet_names

    params = [case["request"]["params"] for case in _load("fleet_frontier.json")]
    assert {p.get("fleet", "us-triad") for p in params} == set(fleet_names())
    assert any("configurations" not in p for p in params)
    assert any("configurations" in p for p in params)
    assert {1, 40} <= {p.get("years", 40) for p in params}
    assert any(p.get("technique", "full-service") != "full-service" for p in params)
    assert any(p.get("seed", 0) != 0 for p in params)


def regenerate():
    """Recompute every digest in place; print the names that changed."""
    for corpus in CORPORA:
        cases = _load(corpus)
        for case in cases:
            digest = payload_digest(case["request"])
            if digest != case["sha256"]:
                print(f"changed: {corpus[:-5]}:{case['name']}")
            case["sha256"] = digest
        with open(os.path.join(HERE, corpus), "w", encoding="utf-8") as fh:
            json.dump(cases, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    regenerate()
