"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch domain failures without also swallowing programming errors.  Input
validation failures additionally derive from ``ValueError`` so that the
library behaves like idiomatic Python for callers who do not know about the
domain hierarchy.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid backup infrastructure configuration was supplied."""


class CapacityError(ReproError, ValueError):
    """A power or energy capacity constraint is violated.

    Raised, for example, when a load larger than the UPS power rating is
    switched onto its battery, or when a plan requires more battery energy
    than is provisioned.
    """


class SimulationError(ReproError, RuntimeError):
    """A simulation reached an inconsistent state."""


class InvariantViolation(SimulationError):
    """A runtime invariant guard caught an inconsistent simulation state.

    Raised by :class:`repro.checks.InvariantGuard` when strict checking is
    enabled and a physical invariant (state of charge in ``[0, 1]``, energy
    conservation, monotone discharge, non-negative downtime, ordered
    schedules) is violated mid-run.  Deriving from :class:`SimulationError`
    keeps existing ``except SimulationError`` handlers working.
    """


class WorkloadError(ReproError, ValueError):
    """An invalid workload description or parameter was supplied."""


class TechniqueError(ReproError, ValueError):
    """An outage-handling technique was misconfigured or misapplied."""


class InfeasibleError(ReproError):
    """A requested operating point cannot be met by any provisioning.

    Unlike :class:`CapacityError`, which flags a violated constraint inside a
    concrete simulation, this signals that a *search* (e.g. the provisioning
    planner) proved no feasible answer exists.
    """


class ObsError(ReproError, RuntimeError):
    """The observability subsystem was misused or fed malformed data.

    Raised for double activation of an ambient session, ending a span on
    the wrong thread, metric type mismatches (a counter re-registered as a
    gauge), and trace/event files that fail schema validation.  Never
    raised from a disabled-path hook — observability off cannot fail.
    """


class RunnerError(ReproError, RuntimeError):
    """The experiment-execution subsystem failed.

    Raised for malformed job lists (duplicate indices, unpicklable
    callables), invalid executor/cache parameters, and — under
    ``strict=True`` — when any job in a run fails.
    """


class PolicyError(ReproError, ValueError):
    """An outage-dispatch policy was misconfigured or misbehaved.

    Raised by :func:`repro.policy.parse_policy` for unknown policy names
    and out-of-range parameters, and by the policy engine when a
    controller returns a malformed :class:`~repro.policy.PolicyDecision`
    (no mode and no program, an unknown mode name, a program without a
    terminal phase).  Never raised on the plan path — simulations with no
    policy configured cannot see it.
    """


class FaultInjectionError(ReproError, ValueError):
    """A fault-injection plan or spec string is malformed.

    Raised by :meth:`repro.faults.FaultPlan.parse` for unknown keys and
    out-of-range probabilities, and by :class:`repro.faults.FaultInjector`
    for invalid seeding.  Never raised while a simulation is running —
    fault *activations* are legitimate simulated events, not errors.
    """


class ServeError(ReproError, RuntimeError):
    """The evaluation service failed or was misused.

    Base class for everything :mod:`repro.serve` raises; the HTTP front
    end maps subclasses onto status codes (400 / 429 / 504) and never
    lets one escape a request handler.
    """


class ProtocolError(ServeError, ValueError):
    """A request does not conform to the serve protocol.

    Raised for unknown analyses, missing or unknown parameters,
    out-of-range values and version mismatches.  Maps to HTTP 400.
    """


class QueueFullError(ServeError):
    """The admission queue is at its bound; the request was shed.

    Load shedding is a feature, not a failure: the HTTP front end maps
    this to 429 with a ``Retry-After`` hint instead of letting the queue
    (and every queued request's latency) grow without bound.
    """


class DeadlineError(ServeError):
    """A request's deadline expired before its evaluation finished.

    Raised for requests that were still queued when their deadline
    passed.  Maps to HTTP 504.
    """


class PoisonedRequestError(ServeError):
    """A request fingerprint is quarantined after repeated worker deaths.

    The supervisor's circuit breaker trips when the same fingerprint is
    in flight across ``threshold`` worker deaths; further identical
    requests are refused with a diagnostic 503 instead of being allowed
    to crash-loop the pool.  The attributes feed the response body.
    """

    def __init__(
        self,
        message: str,
        fingerprint: str = "",
        analysis: str = "",
        deaths: int = 0,
    ) -> None:
        super().__init__(message)
        self.fingerprint = fingerprint
        self.analysis = analysis
        self.deaths = deaths


class RetryExhaustedError(RunnerError):
    """A job kept failing with retryable errors until attempts ran out.

    Raised by executors under ``strict=True`` when a
    :class:`repro.runner.RetryPolicy` re-ran a failing job
    ``max_attempts`` times without success.  Deriving from
    :class:`RunnerError` keeps existing ``except RunnerError`` handlers
    working.
    """
