"""The serve protocol: versioned, validated JSON requests and responses.

One request asks one performability question::

    {"v": 1, "analysis": "availability",
     "params": {"workload": "memcached", "configuration": "NoDG",
                "technique": "sleep-l", "years": 100, "seed": 0},
     "deadline_s": 30.0}

``parse_request`` normalises it against the analysis' declaration in
:data:`repro.serve.analyses.ANALYSIS_SPECS` — unknown analyses, unknown
or ill-typed parameters and version mismatches raise
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
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ProtocolError
from repro.serve.analyses import ANALYSIS_SPECS
from repro.serve.spec import (  # noqa: F401 - re-exported protocol surface
    MAX_ECHO_SLEEP_S,
    MAX_SWEEP_CELLS,
    MAX_YEARS,
    Param,
    canonical_json,
)

#: Version of the request/response schema; bumped on breaking changes.
PROTOCOL_VERSION = 1

#: Every analysis a request may name, sorted.
ANALYSES: Tuple[str, ...] = tuple(sorted(ANALYSIS_SPECS))

#: The optional top-level ``deadline_s``: positive and finite, or null.
_DEADLINE = Param("deadline_s", float, default=None)


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
    def wire(self) -> Dict[str, Any]:
        """The request body that parses back to this request (without
        its deadline)."""
        return {
            "v": PROTOCOL_VERSION,
            "analysis": self.analysis,
            "params": dict(self.params),
        }

    @property
    def fingerprint(self) -> str:
        """Stable identity of (version, analysis, normalised params).

        The coalescing key: two requests asking the same question carry
        the same fingerprint even when one spelt the defaults out.  The
        deadline is *not* part of the identity — a tight-deadline copy
        of an in-flight question should share its evaluation.
        """
        blob = canonical_json(self.wire)
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
    if analysis not in ANALYSIS_SPECS:
        raise ProtocolError(
            f"unknown analysis {analysis!r}; one of {list(ANALYSES)}"
        )
    params = body.get("params", {})
    if not isinstance(params, Mapping):
        raise ProtocolError("'params' must be a JSON object")
    return Request(
        analysis=analysis,
        params=ANALYSIS_SPECS[analysis].normalize(params),
        deadline_s=_DEADLINE.normalize(body),
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
