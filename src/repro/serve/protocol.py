"""The serve protocol: versioned, validated JSON requests and responses.

One request asks one performability question::

    {"v": 1, "analysis": "availability",
     "params": {"workload": "memcached", "configuration": "NoDG",
                "technique": "sleep-l", "years": 100, "seed": 0},
     "deadline_s": 30.0}

``parse_request`` normalises it — unknown analyses, unknown or
ill-typed parameters and version mismatches raise
:class:`~repro.errors.ProtocolError` (HTTP 400) — and fills every
default explicitly, so two requests that *mean* the same evaluation
also *encode* the same: the request fingerprint (a SHA-256 over the
canonical encoding, the same construction :class:`repro.runner.Job`
uses) is what the batcher coalesces duplicate in-flight requests on.

``canonical_json`` is the one serialisation everything response-shaped
goes through — key-sorted, compact separators — so a served payload can
be compared byte-for-byte against the same query run through the CLI.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ProtocolError

#: Version of the request/response schema; bumped on breaking changes.
PROTOCOL_VERSION = 1

#: Hard ceilings keeping a single request from monopolising the service.
MAX_YEARS = 10_000
MAX_SWEEP_CELLS = 512
MAX_ECHO_SLEEP_S = 5.0


def canonical_json(obj: Any) -> str:
    """The one canonical serialisation: key-sorted, compact, non-finite
    floats rendered as strings (JSON has no inf/nan)."""
    return json.dumps(
        _finite(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _finite(obj: Any) -> Any:
    """Replace non-finite floats with string markers, recursively."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


# -- parameter validators ------------------------------------------------------


def _require_str(params: Mapping[str, Any], key: str) -> str:
    value = params.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"param {key!r} must be a non-empty string")
    return value


def _workload(params: Mapping[str, Any]) -> str:
    from repro.workloads.registry import workload_names

    name = _require_str(params, "workload")
    if name not in workload_names():
        raise ProtocolError(
            f"unknown workload {name!r}; one of {workload_names()}"
        )
    return name


def _configuration(params: Mapping[str, Any]) -> str:
    from repro.core.configurations import get_configuration
    from repro.errors import ConfigurationError

    name = _require_str(params, "configuration")
    try:
        get_configuration(name)
    except (ConfigurationError, KeyError) as exc:
        raise ProtocolError(f"unknown configuration {name!r}: {exc}") from exc
    return name


def _technique(params: Mapping[str, Any]) -> str:
    from repro.errors import TechniqueError
    from repro.techniques.registry import get_technique

    name = _require_str(params, "technique")
    try:
        get_technique(name)
    except (TechniqueError, KeyError) as exc:
        raise ProtocolError(f"unknown technique {name!r}: {exc}") from exc
    return name


def _int_in(
    params: Mapping[str, Any], key: str, low: int, high: int
) -> int:
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"param {key!r} must be an integer")
    if not low <= value <= high:
        raise ProtocolError(f"param {key!r} must be in [{low}, {high}]")
    return value


def _positive_number(params: Mapping[str, Any], key: str) -> float:
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"param {key!r} must be a number")
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ProtocolError(f"param {key!r} must be a positive finite number")
    return value


def _faults(params: Mapping[str, Any]) -> Optional[str]:
    from repro.errors import FaultInjectionError
    from repro.faults import FaultPlan

    spec = params.get("faults")
    if spec is None:
        return None
    if not isinstance(spec, str):
        raise ProtocolError("param 'faults' must be a spec string or null")
    try:
        FaultPlan.parse(spec)
    except FaultInjectionError as exc:
        raise ProtocolError(f"invalid faults spec: {exc}") from exc
    return spec


def _name_list(
    params: Mapping[str, Any], key: str, valid: Tuple[str, ...]
) -> List[str]:
    names = params[key]
    if (
        not isinstance(names, (list, tuple))
        or not names
        or not all(isinstance(n, str) for n in names)
    ):
        raise ProtocolError(f"param {key!r} must be a non-empty list of names")
    for name in names:
        if name not in valid:
            raise ProtocolError(f"unknown name {name!r} in {key!r}")
    return list(names)


def _normalize_availability(params: Mapping[str, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {
        "years": 100,
        "servers": 16,
        "seed": 0,
        "faults": None,
        **params,
    }
    return {
        "workload": _workload(merged),
        "configuration": _configuration(merged),
        "technique": _technique(merged),
        "years": _int_in(merged, "years", 1, MAX_YEARS),
        "servers": _int_in(merged, "servers", 1, 1_000_000),
        "seed": _int_in(merged, "seed", 0, 2**63 - 1),
        "faults": _faults(merged),
    }


def _normalize_rank(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.techniques.registry import PAPER_TECHNIQUES

    merged: Dict[str, Any] = {
        "outage_minutes": 30.0,
        "servers": 16,
        "techniques": list(PAPER_TECHNIQUES),
        **params,
    }
    return {
        "workload": _workload(merged),
        "outage_minutes": _positive_number(merged, "outage_minutes"),
        "servers": _int_in(merged, "servers", 1, 1_000_000),
        "techniques": _name_list(
            merged, "techniques", tuple(_technique_names())
        ),
    }


def _technique_names() -> Tuple[str, ...]:
    from repro.techniques.registry import technique_names

    return tuple(technique_names())


def _normalize_sweep(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.core.configurations import PAPER_CONFIGURATIONS
    from repro.techniques.registry import PAPER_TECHNIQUES

    merged: Dict[str, Any] = {
        "kind": "techniques",
        "rows": None,
        "outage_minutes": [5.0, 30.0, 60.0],
        "servers": 16,
        **params,
    }
    kind = merged["kind"]
    if kind not in ("techniques", "configurations"):
        raise ProtocolError(
            "param 'kind' must be 'techniques' or 'configurations'"
        )
    if kind == "techniques":
        valid = _technique_names()
        default_rows = list(PAPER_TECHNIQUES)
    else:
        valid = tuple(c.name for c in PAPER_CONFIGURATIONS)
        default_rows = list(valid)
    if merged["rows"] is None:
        merged["rows"] = default_rows
    rows = _name_list(merged, "rows", valid)
    durations = merged["outage_minutes"]
    if not isinstance(durations, (list, tuple)) or not durations:
        raise ProtocolError("param 'outage_minutes' must be a non-empty list")
    minutes = [
        _positive_number({"outage_minutes": d}, "outage_minutes")
        for d in durations
    ]
    if len(rows) * len(minutes) > MAX_SWEEP_CELLS:
        raise ProtocolError(
            f"sweep grid too large ({len(rows)}x{len(minutes)}); "
            f"at most {MAX_SWEEP_CELLS} cells per request"
        )
    return {
        "workload": _workload(merged),
        "kind": kind,
        "rows": rows,
        "outage_minutes": minutes,
        "servers": _int_in(merged, "servers", 1, 1_000_000),
    }


def _normalize_whatif(params: Mapping[str, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"nodes_per_bucket": 3, "servers": 16, **params}
    return {
        "workload": _workload(merged),
        "configuration": _configuration(merged),
        "technique": _technique(merged),
        "nodes_per_bucket": _int_in(merged, "nodes_per_bucket", 1, 20),
        "servers": _int_in(merged, "servers", 1, 1_000_000),
    }


def _policy_specs(params: Mapping[str, Any]) -> List[str]:
    from repro.errors import PolicyError
    from repro.policy.parse import parse_policy

    specs = params["policies"]
    if (
        not isinstance(specs, (list, tuple))
        or not specs
        or not all(isinstance(s, str) and s for s in specs)
    ):
        raise ProtocolError(
            "param 'policies' must be a non-empty list of policy specs"
        )
    for spec in specs:
        try:
            parse_policy(spec)
        except PolicyError as exc:
            raise ProtocolError(f"invalid policy spec {spec!r}: {exc}") from exc
    return list(specs)


def _normalize_policy_frontier(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.core.configurations import PAPER_CONFIGURATIONS
    from repro.policy.frontier import DEFAULT_POLICY_SPECS

    merged: Dict[str, Any] = {
        "configurations": None,
        "policies": list(DEFAULT_POLICY_SPECS),
        "nodes_per_bucket": 2,
        "servers": 16,
        **params,
    }
    valid = tuple(c.name for c in PAPER_CONFIGURATIONS)
    if merged["configurations"] is None:
        merged["configurations"] = list(valid)
    configurations = _name_list(merged, "configurations", valid)
    policies = _policy_specs(merged)
    if len(configurations) * len(policies) > MAX_SWEEP_CELLS:
        raise ProtocolError(
            f"policy_frontier grid too large "
            f"({len(configurations)}x{len(policies)}); "
            f"at most {MAX_SWEEP_CELLS} cells per request"
        )
    return {
        "workload": _workload(merged),
        "configurations": configurations,
        "policies": policies,
        "nodes_per_bucket": _int_in(merged, "nodes_per_bucket", 1, 20),
        "servers": _int_in(merged, "servers", 1, 1_000_000),
    }


def _normalize_fleet_frontier(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.core.configurations import PAPER_CONFIGURATIONS
    from repro.fleet.frontier import DEFAULT_FLEET_YEARS
    from repro.fleet.spec import DEFAULT_FLEET, fleet_names

    merged: Dict[str, Any] = {
        "fleet": DEFAULT_FLEET,
        "configurations": None,
        "technique": "full-service",
        "years": DEFAULT_FLEET_YEARS,
        "seed": 0,
        **params,
    }
    fleet = _require_str(merged, "fleet")
    if fleet not in fleet_names():
        raise ProtocolError(
            f"unknown fleet {fleet!r}; known: {', '.join(fleet_names())}"
        )
    valid = tuple(c.name for c in PAPER_CONFIGURATIONS)
    if merged["configurations"] is None:
        merged["configurations"] = list(valid)
    configurations = _name_list(merged, "configurations", valid)
    # Each configuration runs routed and unrouted — two cells apiece.
    if len(configurations) * 2 > MAX_SWEEP_CELLS:
        raise ProtocolError(
            f"fleet_frontier grid too large ({len(configurations)}x2); "
            f"at most {MAX_SWEEP_CELLS} cells per request"
        )
    return {
        "fleet": fleet,
        "configurations": configurations,
        "technique": _technique(merged),
        "years": _int_in(merged, "years", 1, MAX_YEARS),
        "seed": _int_in(merged, "seed", 0, 2**63 - 1),
    }


def _normalize_echo(params: Mapping[str, Any]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {"payload": None, "sleep_s": 0.0, **params}
    sleep_s = merged["sleep_s"]
    if isinstance(sleep_s, bool) or not isinstance(sleep_s, (int, float)):
        raise ProtocolError("param 'sleep_s' must be a number")
    sleep_s = float(sleep_s)
    if not 0.0 <= sleep_s <= MAX_ECHO_SLEEP_S:
        raise ProtocolError(
            f"param 'sleep_s' must be in [0, {MAX_ECHO_SLEEP_S}]"
        )
    try:
        payload = json.loads(canonical_json(merged["payload"]))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"param 'payload' must be JSON-able: {exc}") from exc
    return {"payload": payload, "sleep_s": sleep_s}


#: analysis name -> (normalizer, allowed parameter keys)
_SCHEMAS: Dict[str, Tuple[Any, Tuple[str, ...]]] = {
    "availability": (
        _normalize_availability,
        ("workload", "configuration", "technique", "years", "servers",
         "seed", "faults"),
    ),
    "rank": (
        _normalize_rank,
        ("workload", "outage_minutes", "servers", "techniques"),
    ),
    "sweep": (
        _normalize_sweep,
        ("workload", "kind", "rows", "outage_minutes", "servers"),
    ),
    "whatif": (
        _normalize_whatif,
        ("workload", "configuration", "technique", "nodes_per_bucket",
         "servers"),
    ),
    "policy_frontier": (
        _normalize_policy_frontier,
        ("workload", "configurations", "policies", "nodes_per_bucket",
         "servers"),
    ),
    "fleet_frontier": (
        _normalize_fleet_frontier,
        ("fleet", "configurations", "technique", "years", "seed"),
    ),
    # Diagnostics: returns its payload after an optional bounded sleep.
    # Load tests and shedding tests want a request whose cost they
    # control exactly; 'echo' is that request.
    "echo": (_normalize_echo, ("payload", "sleep_s")),
}

ANALYSES: Tuple[str, ...] = tuple(sorted(_SCHEMAS))


@dataclass(frozen=True)
class Request:
    """One validated, normalised evaluation request.

    Attributes:
        analysis: One of :data:`ANALYSES`.
        params: Normalised parameters — every default filled, every
            value validated.
        deadline_s: Optional wall-clock budget (seconds, relative to
            admission).  Propagated into the runner's per-job timeout
            and enforced while queued.
    """

    analysis: str
    params: Mapping[str, Any]
    deadline_s: Optional[float] = None

    @property
    def fingerprint(self) -> str:
        """Stable identity of (version, analysis, normalised params).

        The coalescing key: two requests asking the same question carry
        the same fingerprint even when one spelt the defaults out.  The
        deadline is *not* part of the identity — a tight-deadline copy
        of an in-flight question should share its evaluation.
        """
        blob = canonical_json(
            {
                "v": PROTOCOL_VERSION,
                "analysis": self.analysis,
                "params": dict(self.params),
            }
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_request(body: Any) -> Request:
    """Validate and normalise a request body (bytes, str, or mapping).

    Raises:
        ProtocolError: On malformed JSON, version mismatch, unknown
            analysis, unknown parameter keys, or invalid values.
    """
    if isinstance(body, (bytes, bytearray)):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request body is not UTF-8: {exc}") from exc
    if isinstance(body, str):
        try:
            body = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not JSON: {exc}") from exc
    if not isinstance(body, Mapping):
        raise ProtocolError("request body must be a JSON object")

    unknown_top = set(body) - {"v", "analysis", "params", "deadline_s"}
    if unknown_top:
        raise ProtocolError(f"unknown request fields: {sorted(unknown_top)}")
    version = body.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} unsupported; this server speaks "
            f"v{PROTOCOL_VERSION}"
        )
    analysis = body.get("analysis")
    if analysis not in _SCHEMAS:
        raise ProtocolError(
            f"unknown analysis {analysis!r}; one of {list(ANALYSES)}"
        )
    params = body.get("params", {})
    if not isinstance(params, Mapping):
        raise ProtocolError("'params' must be a JSON object")
    normalizer, allowed = _SCHEMAS[analysis]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ProtocolError(
            f"unknown params for {analysis}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    deadline_s = body.get("deadline_s")
    if deadline_s is not None:
        if isinstance(deadline_s, bool) or not isinstance(
            deadline_s, (int, float)
        ):
            raise ProtocolError("'deadline_s' must be a number or null")
        deadline_s = float(deadline_s)
        if not math.isfinite(deadline_s) or deadline_s <= 0:
            raise ProtocolError("'deadline_s' must be positive and finite")
    return Request(
        analysis=analysis,
        params=normalizer(params),
        deadline_s=deadline_s,
    )


def ok_envelope(
    request: Request, result: Any, meta: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """The success response body around a result payload.

    Only ``result`` is part of the bit-identical contract with the CLI;
    ``meta`` carries serving-side facts (batch size, queue wait) that
    legitimately differ between transports.
    """
    return {
        "v": PROTOCOL_VERSION,
        "ok": True,
        "analysis": request.analysis,
        "fingerprint": request.fingerprint,
        "result": result,
        "meta": dict(meta) if meta else {},
    }


def error_envelope(
    kind: str,
    message: str,
    detail: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The failure response body.

    ``detail`` carries structured diagnostics when the refusal has a
    story worth machine-reading — poison quarantine reports the
    fingerprint and death count there.  Absent by default so existing
    error bodies stay byte-identical.
    """
    error: Dict[str, Any] = {"type": kind, "message": message}
    if detail:
        error["detail"] = dict(detail)
    return {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": error,
    }
