"""Golden payloads: canonical ``/v1/eval`` results pinned across commits.

Each payload corpus file lists canonical requests, the request
``fingerprint`` each one normalises to, and the SHA-256 of each
``canonical_json`` result payload:

* ``availability.json`` covers every Table-3 configuration, study
  lengths from 1 to 1500 years, a fault plan, and non-default
  ``servers``/``seed``;
* ``fleet_frontier.json`` covers every named fleet, the default grid
  and subsets, 1 and 40 years, and non-default techniques and seeds;
  each case also pins ``unrouted_sha256``, the SHA-256 of the
  ``canonical_json`` list of its unrouted ``cells``, which
  ``regenerate()`` never rewrites: routing changes may move the routed
  cells, never the single-site ones;
* ``whatif.json`` covers every workload, quadrature from 1 to 20 nodes
  per bucket, and non-default ``servers``;
* ``rank.json`` covers every workload, outages from 30 s to 2 h, and a
  custom technique roster;
* ``sweep.json`` covers both ``kind``s with default and custom ``rows``
  and several duration grids;
* ``policy_frontier.json`` covers the default roster, custom
  ``static:``/``greedy:``/``lyapunov:``/``hindsight`` specs, and
  configuration subsets.

Every payload case also pins ``jobs_sha256``: the SHA-256 of its runner
jobs' fingerprints, in order, one per line.  The fingerprints key the
on-disk result cache, so a change that moves one orphans every cached
cell; ``regenerate()`` never rewrites this digest either.

``cli.json`` pins the CLI's table output: the SHA-256 of each
command's stdout with the ``[runner] ...`` line (elapsed time) dropped.

A refactor must leave every digest and fingerprint unchanged.  Tier-1
runs this module, and ``make golden`` runs it on its own as a CI step.
A deliberate behaviour change regenerates the affected digests and
names them in CHANGES.md::

    PYTHONPATH=src python -m tests.golden.test_golden
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from repro.serve.analyses import build, evaluate_request
from repro.serve.protocol import canonical_json, parse_request

HERE = os.path.dirname(__file__)
CORPORA = (
    "availability.json",
    "fleet_frontier.json",
    "whatif.json",
    "rank.json",
    "sweep.json",
    "policy_frontier.json",
)
CLI_CORPUS = "cli.json"


def _load(corpus):
    with open(os.path.join(HERE, corpus), encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_digest(body):
    """SHA-256 of the canonical result payload of one request body."""
    return _sha256(canonical_json(evaluate_request(parse_request(body))))


def jobs_digest(body):
    """SHA-256 of one request's job fingerprints, in order, one a line."""
    jobs, _ = build(parse_request(body))
    return _sha256("\n".join(job.fingerprint for job in jobs))


def cli_digest(argv):
    """SHA-256 of one CLI command's stdout, ``[runner]`` lines dropped."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}"
    lines = buffer.getvalue().splitlines(keepends=True)
    return _sha256("".join(l for l in lines if not l.startswith("[runner]")))


def _cases(corpus):
    return [pytest.param(case, id=case["name"]) for case in _load(corpus)]


def _payload_cases():
    return [
        pytest.param(case, id=f"{corpus[:-5]}:{case['name']}")
        for corpus in CORPORA
        for case in _load(corpus)
    ]


@pytest.mark.parametrize("case", _cases("availability.json"))
def test_availability_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


@pytest.mark.parametrize("case", _cases("fleet_frontier.json"))
def test_fleet_frontier_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


@pytest.mark.parametrize("case", _cases("fleet_frontier.json"))
def test_fleet_frontier_unrouted_cells_match_pinned_digest(case):
    payload = evaluate_request(parse_request(case["request"]))
    unrouted = [cell for cell in payload["cells"] if not cell["routing"]]
    assert _sha256(canonical_json(unrouted)) == case["unrouted_sha256"]


@pytest.mark.parametrize("case", _cases("whatif.json"))
def test_whatif_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


@pytest.mark.parametrize("case", _cases("rank.json"))
def test_rank_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


@pytest.mark.parametrize("case", _cases("sweep.json"))
def test_sweep_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


@pytest.mark.parametrize("case", _cases("policy_frontier.json"))
def test_policy_frontier_payload_matches_golden_digest(case):
    assert payload_digest(case["request"]) == case["sha256"]


@pytest.mark.parametrize("case", _payload_cases())
def test_request_fingerprint_matches_golden(case):
    assert parse_request(case["request"]).fingerprint == case["fingerprint"]


@pytest.mark.parametrize("case", _payload_cases())
def test_job_fingerprints_match_pinned_digest(case):
    assert jobs_digest(case["request"]) == case["jobs_sha256"]


@pytest.mark.parametrize("case", _cases(CLI_CORPUS))
def test_cli_table_matches_golden_digest(case):
    assert cli_digest(case["argv"]) == case["sha256"]


def _params(corpus):
    return [case["request"]["params"] for case in _load(corpus)]


def test_corpus_covers_the_table3_grid_and_study_lengths():
    from repro.core.configurations import configuration_names

    params = _params("availability.json")
    assert {p["configuration"] for p in params} == set(configuration_names())
    assert {1, 50, 200, 1000, 1500} <= {p.get("years", 100) for p in params}
    assert any(p.get("faults") for p in params)
    assert any(p.get("servers", 16) != 16 for p in params)
    assert any(p.get("seed", 0) != 0 for p in params)


def test_fleet_corpus_covers_every_named_fleet():
    from repro.fleet.spec import fleet_names

    params = _params("fleet_frontier.json")
    assert {p.get("fleet", "us-triad") for p in params} == set(fleet_names())
    assert any("configurations" not in p for p in params)
    assert any("configurations" in p for p in params)
    assert {1, 40} <= {p.get("years", 40) for p in params}
    assert any(p.get("technique", "full-service") != "full-service" for p in params)
    assert any(p.get("seed", 0) != 0 for p in params)


def test_whatif_corpus_covers_every_workload_and_quadrature_edges():
    from repro.workloads.registry import workload_names

    params = _params("whatif.json")
    assert {p["workload"] for p in params} == set(workload_names())
    assert {1, 3, 20} <= {p.get("nodes_per_bucket", 3) for p in params}
    assert any(p.get("servers", 16) != 16 for p in params)


def test_rank_corpus_covers_workloads_durations_and_rosters():
    from repro.workloads.registry import workload_names

    params = _params("rank.json")
    assert {p["workload"] for p in params} == set(workload_names())
    minutes = {p.get("outage_minutes", 30.0) for p in params}
    assert min(minutes) < 1 and max(minutes) >= 120 and 30.0 in minutes
    assert any("techniques" not in p for p in params)
    assert any("techniques" in p for p in params)
    assert any(p.get("servers", 16) != 16 for p in params)


def test_sweep_corpus_covers_both_kinds_and_custom_rows():
    params = _params("sweep.json")
    for kind in ("techniques", "configurations"):
        rows = [p for p in params if p.get("kind", "techniques") == kind]
        assert any("rows" not in p for p in rows), kind
        assert any("rows" in p for p in rows), kind
    grids = {tuple(p.get("outage_minutes", (5.0, 30.0, 60.0))) for p in params}
    assert len(grids) >= 4
    assert any(p.get("servers", 16) != 16 for p in params)


def test_policy_corpus_covers_every_spec_kind_and_subsets():
    params = _params("policy_frontier.json")
    assert any("policies" not in p for p in params)
    specs = [s for p in params for s in p.get("policies", ())]
    for prefix in ("static:", "greedy:", "lyapunov:", "hindsight"):
        assert any(s.startswith(prefix) for s in specs), prefix
    assert any("configurations" not in p for p in params)
    assert any("configurations" in p for p in params)
    assert any(p.get("nodes_per_bucket", 2) != 2 for p in params)


def test_cli_corpus_covers_every_table_path():
    argvs = [case["argv"] for case in _load(CLI_CORPUS)]
    commands = {argv[0] for argv in argvs}
    assert commands == {
        "rank", "availability", "whatif", "sweep", "policy", "fleet"
    }
    assert any(a[0] == "rank" and "--techniques" in a for a in argvs)
    assert any(a[0] == "rank" and "--techniques" not in a for a in argvs)
    assert any(a[0] == "availability" and "--faults" in a for a in argvs)
    assert any(a[0] == "availability" and "--faults" not in a for a in argvs)
    assert any(a[0] == "sweep" and "configurations" in a for a in argvs)
    assert any(a[0] == "sweep" and "configurations" not in a for a in argvs)
    assert any(a[0] == "fleet" and "--contingency" in a for a in argvs)
    assert any(a[0] == "fleet" and "--contingency" not in a for a in argvs)


def regenerate():
    """Recompute every digest in place; print the names that changed."""
    for corpus in CORPORA + (CLI_CORPUS,):
        cases = _load(corpus)
        for case in cases:
            if corpus == CLI_CORPUS:
                digest = cli_digest(case["argv"])
            else:
                digest = payload_digest(case["request"])
                case["fingerprint"] = parse_request(case["request"]).fingerprint
            if digest != case["sha256"]:
                print(f"changed: {corpus[:-5]}:{case['name']}")
            case["sha256"] = digest
        with open(os.path.join(HERE, corpus), "w", encoding="utf-8") as fh:
            json.dump(cases, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    regenerate()
