"""Declaring an analysis: typed parameters and the :class:`AnalysisSpec`.

An analysis' :class:`Param` list is its whole request schema:
:meth:`AnalysisSpec.normalize` validates a request's ``params`` against
it and fills every default, and the CLI derives each flag from the same
declarations.  Nothing here knows any particular analysis; the table of
them is :mod:`repro.serve.analyses`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ProtocolError

#: Hard ceilings keeping a single request from monopolising the service.
MAX_YEARS = 10_000
MAX_SWEEP_CELLS = 512
MAX_ECHO_SLEEP_S = 5.0
MAX_SERVERS = 1_000_000
MAX_SEED = 2**63 - 1

#: ``Param.default`` of a parameter the request must supply.
REQUIRED = object()


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


@dataclass(frozen=True)
class Param:
    """One request parameter and the CLI flag that sets it.

    Attributes:
        name: Key in the request's ``params`` object.
        type: ``str``, ``int``, ``float``, ``list`` (of ``item``) or
            ``object`` (any JSON-able value).
        default: Value filled in when the key is absent; a zero-argument
            callable is called for it (registry lookups stay lazy);
            :data:`REQUIRED` when the request must supply it.  ``None``
            also admits an explicit ``null``; a ``null`` list with
            ``choices`` means every choice.
        low, high: Inclusive bounds of an ``int``/``float``.  A
            ``float`` without bounds must be positive and finite.
        choices: Zero-argument callable naming the valid values of a
            ``str``, or of each item of a ``list``.
        check: Validates one ``str`` value, or one item of a ``list``,
            raising :class:`~repro.errors.ProtocolError`.
        item: Item type of a ``list``: ``str`` or ``float``.
        flags: CLI option strings (default ``--<name-with-dashes>``).
        help, metavar: argparse help text and metavar.
        repeat: A ``list`` of ``str`` given on the CLI as a repeated
            flag instead of one comma-separated value.
        cli_type: argparse ``type`` overriding the one ``type`` implies.
    """

    name: str
    type: type
    default: Any = REQUIRED
    low: Optional[float] = None
    high: Optional[float] = None
    choices: Optional[Callable[[], Sequence[str]]] = None
    check: Optional[Callable[[str], None]] = None
    item: type = str
    flags: Tuple[str, ...] = ()
    help: Optional[str] = None
    metavar: Optional[str] = None
    repeat: bool = False
    cli_type: Optional[Callable[[str], Any]] = None

    def normalize(self, params: Mapping[str, Any]) -> Any:
        """This parameter's validated value in ``params`` (or its default)."""
        if self.name in params:
            value = params[self.name]
        elif self.default is REQUIRED:
            raise ProtocolError(f"param {self.name!r} is required")
        else:
            value = self.default() if callable(self.default) else self.default
        if value is None and self.default is None:
            if self.type is list and self.choices is not None:
                return list(self.choices())
            return None
        if self.type is str:
            if not isinstance(value, str):
                raise ProtocolError(f"param {self.name!r} must be a string")
            self._check_names([value])
            return value
        if self.type is list:
            return self._list(value)
        if self.type is object:
            try:
                return json.loads(canonical_json(value))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"param {self.name!r} must be JSON-able: {exc}"
                ) from exc
        return self._number(value)

    def _check_names(self, names: Sequence[str]) -> None:
        valid = self.choices() if self.choices is not None else None
        for name in names:
            if valid is not None and name not in valid:
                raise ProtocolError(
                    f"unknown {self.name} {name!r}; one of {list(valid)}"
                )
            if self.check is not None:
                self.check(name)

    def _list(self, values: Any) -> list:
        if not isinstance(values, (list, tuple)) or not values:
            raise ProtocolError(f"param {self.name!r} must be a non-empty list")
        if self.item is float:
            return [self._number(value) for value in values]
        if not all(isinstance(value, str) for value in values):
            raise ProtocolError(f"param {self.name!r} must be a list of strings")
        self._check_names(values)
        return list(values)

    def _number(self, value: Any) -> Any:
        kind = int if self.type is int else float
        accepted = int if kind is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, accepted):
            noun = "an integer" if kind is int else "a number"
            raise ProtocolError(f"param {self.name!r} must be {noun}")
        value = kind(value)
        if self.low is None:
            if not math.isfinite(value) or value <= 0:
                raise ProtocolError(
                    f"param {self.name!r} must be a positive finite number"
                )
        elif not self.low <= value <= self.high:
            raise ProtocolError(
                f"param {self.name!r} must be in [{self.low}, {self.high}]"
            )
        return value


@dataclass(frozen=True)
class AnalysisSpec:
    """One served analysis, declared once.

    The protocol's schema, the serve builder, the brownout class and
    the CLI subcommand are all read off this record.

    Attributes:
        name: The request's ``analysis`` value.
        params: The request schema, in validation order.
        build: Normalised params -> ``(jobs, finish)``; nothing runs yet.
            Heavy imports stay inside it.
        render: ``(params, payload)`` -> the CLI's table text.
        command: CLI subcommand name (``None``: not on the CLI).
        help: The subcommand's one-line help.
        check: Cross-field validation of the normalised params; may
            fill defaults that depend on other params.
        failure: ``payload`` -> an error message when the CLI must exit
            non-zero despite a complete run, else ``None``.
        expensive: Refused first under brownout (job fan-out one to two
            orders of magnitude above a point query).
        seed_flag: The CLI subcommand takes the runner's ``--seed``
            (retry backoff) although no param is named ``seed``.
    """

    name: str
    params: Tuple[Param, ...]
    build: Callable[[Mapping[str, Any]], Tuple[list, Callable]]
    render: Optional[Callable[[Mapping[str, Any], Any], str]] = None
    command: Optional[str] = None
    help: Optional[str] = None
    check: Optional[Callable[[Dict[str, Any]], None]] = None
    failure: Optional[Callable[[Any], Optional[str]]] = None
    expensive: bool = False
    seed_flag: bool = False

    def normalize(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """Validated params with every default filled in.

        Raises:
            ProtocolError: On unknown keys or invalid values.
        """
        unknown = set(params) - {p.name for p in self.params}
        if unknown:
            raise ProtocolError(
                f"unknown params for {self.name}: {sorted(unknown)}; "
                f"allowed: {sorted(p.name for p in self.params)}"
            )
        normalized = {p.name: p.normalize(params) for p in self.params}
        if self.check is not None:
            self.check(normalized)
        return normalized


def cap_grid(analysis: str, rows: int, columns: int) -> None:
    """Refuse a grid over :data:`MAX_SWEEP_CELLS` cells."""
    if rows * columns > MAX_SWEEP_CELLS:
        raise ProtocolError(
            f"{analysis} grid too large ({rows}x{columns}); "
            f"at most {MAX_SWEEP_CELLS} cells per request"
        )
