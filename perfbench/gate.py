"""The correctness gate every run passes before it reports numbers.

Three checks, each failure counted against the request it concerns:

1. every 2xx body is a well-formed success envelope for the analysis
   that was asked;
2. a request repeated within the run returns a byte-identical
   ``result`` payload (and the same fingerprint);
3. a seeded sample of each analysis kind is recomputed off the clock
   through the in-process reference path (``parse_request`` +
   ``evaluate_request``, as ``make serve-smoke`` does) and must match
   the served payload byte for byte.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

RESULT_TYPES = {
    "availability": dict,
    "rank": list,
    "sweep": list,
    "whatif": dict,
    "policy_frontier": dict,
    "fleet_frontier": dict,
}
ENVELOPE_KEYS = {"v", "ok", "analysis", "fingerprint", "result", "meta"}

#: One served request: (request bytes, HTTP status, response bytes).
Served = Tuple[bytes, int, bytes]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def envelope_error(request: bytes, status: int, body: bytes) -> Optional[str]:
    """Why this response is not a valid success envelope, or None."""
    if not 200 <= status < 300:
        return f"HTTP {status}: {body[:200]!r}"
    try:
        envelope = json.loads(body)
    except ValueError as exc:
        return f"body is not JSON: {exc}"
    if not isinstance(envelope, dict) or set(envelope) != ENVELOPE_KEYS:
        return f"envelope keys {sorted(envelope) if isinstance(envelope, dict) else type(envelope)}"
    analysis = json.loads(request)["analysis"]
    fingerprint = envelope["fingerprint"]
    if envelope["v"] != 1 or envelope["ok"] is not True:
        return "envelope v/ok wrong"
    if envelope["analysis"] != analysis:
        return f"analysis {envelope['analysis']!r} != {analysis!r}"
    if not (
        isinstance(fingerprint, str)
        and len(fingerprint) == 64
        and all(c in "0123456789abcdef" for c in fingerprint)
    ):
        return "fingerprint is not a sha256 hex digest"
    if not isinstance(envelope["result"], RESULT_TYPES[analysis]):
        return f"result of {analysis} is {type(envelope['result']).__name__}"
    if not isinstance(envelope["meta"], dict):
        return "meta is not an object"
    return None


def gate(served: Sequence[Served], seed: int, per_kind: int = 2) -> List[str]:
    """Every problem found in one run's responses; empty means correct."""
    problems: List[str] = []
    first: Dict[bytes, Tuple[str, str]] = {}
    valid: List[Served] = []
    for request, status, body in served:
        error = envelope_error(request, status, body)
        if error is not None:
            problems.append(f"{request[:120]!r}: {error}")
            continue
        valid.append((request, status, body))
        envelope = json.loads(body)
        seen = (envelope["fingerprint"], _canonical(envelope["result"]))
        if first.setdefault(request, seen) != seen:
            problems.append(f"{request[:120]!r}: repeat returned a different payload")
    problems.extend(_reference_mismatches(valid, seed, per_kind))
    return problems


def _reference_mismatches(valid: Sequence[Served], seed: int, per_kind: int) -> List[str]:
    from repro.serve.analyses import evaluate_request
    from repro.serve.protocol import canonical_json, parse_request

    by_kind: Dict[str, List[Served]] = {}
    for item in {request: (request, s, b) for request, s, b in valid}.values():
        by_kind.setdefault(json.loads(item[0])["analysis"], []).append(item)
    rng = random.Random(f"reference/{seed}")
    problems = []
    for kind in sorted(by_kind):
        items = by_kind[kind]
        for request, _status, body in rng.sample(items, min(per_kind, len(items))):
            expected = canonical_json(evaluate_request(parse_request(request)))
            if canonical_json(json.loads(body)["result"]) != expected:
                problems.append(f"{request[:120]!r}: payload differs from the reference path")
    return problems
