"""Every served analysis, declared once.

Each :class:`~repro.serve.spec.AnalysisSpec` in :data:`ANALYSIS_SPECS`
names an analysis' parameters, its job builder, its table renderer, its
brownout class and its CLI subcommand.  The protocol's schema, the
brownout controller's ``EXPENSIVE_ANALYSES`` and the CLI's analysis
subcommands are all derived from this table, so adding an analysis is
one more entry here.

A builder returns ``(jobs, finish)`` without running anything, which is
what lets the batcher concatenate the job lists of many requests into
**one** executor submission and still hand each caller exactly the
payload a dedicated run would have produced.  :func:`evaluate_batch`
is that batched path — the one function that evaluates a served batch,
whether the in-process dispatcher or a pool worker runs it — and
:func:`evaluate_request` is the unbatched reference path every CLI
analysis subcommand takes; the serve-smoke certification diffs its
payloads against the HTTP ones byte-for-byte.

The policy and fleet modules are imported only when a request needs
them, so they stay out of the server's start-up.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import time
from dataclasses import asdict, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.availability import AvailabilityAnalyzer
from repro.analysis.export import _jsonable, availability_record, sweep_records
from repro.analysis.report import format_table
from repro.analysis.sweep import configuration_sweep_jobs, technique_sweep_jobs
from repro.core.configurations import configuration_names, get_configuration
from repro.core.selection import rank_jobs, reduce_rank
from repro.core.whatif import whatif_cell
from repro.errors import ProtocolError, ReproError, ServeError
from repro.faults import FaultPlan
from repro.runner.executor import BaseExecutor, SerialExecutor
from repro.runner.jobs import Job, make_jobs
from repro.serve.spec import (
    MAX_ECHO_SLEEP_S,
    MAX_SEED,
    MAX_SERVERS,
    MAX_YEARS,
    AnalysisSpec,
    Param,
    cap_grid,
)
from repro.techniques.registry import PAPER_TECHNIQUES, get_technique, technique_names
from repro.units import minutes
from repro.workloads.registry import get_workload, workload_names

if TYPE_CHECKING:
    from repro.serve.protocol import Request

#: Folds executor values (the request's slice, submission order) into the
#: response's ``result`` payload — plain JSON-able data only.
FinishFn = Callable[[Sequence[Any]], Any]
Built = Tuple[List[Job], FinishFn]


# -- shared parameters ---------------------------------------------------------


def _lazy(target: str) -> Callable[..., Any]:
    """``module:attr``, imported on first use: called with the given
    arguments when it is a function, else returned as is."""
    module, _, attr = target.partition(":")

    @functools.lru_cache(maxsize=None)
    def resolve() -> Any:
        return getattr(importlib.import_module(module), attr)

    def proxy(*args: Any) -> Any:
        found = resolve()
        return found(*args) if callable(found) else found

    return proxy


def _resolves(what: str, resolve: Callable[[str], Any]) -> Callable[[str], None]:
    """A ``Param.check``: ``resolve`` accepts the value."""

    def check(value: str) -> None:
        try:
            resolve(value)
        except ReproError as exc:
            raise ProtocolError(f"invalid {what} {value!r}: {exc}") from exc

    return check


def _seed_arg(text: str) -> int:
    """``--seed``: an integer ``SeedSequence`` accepts, as the protocol bounds it."""
    try:
        value = int(text)
        if 0 <= value <= MAX_SEED:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer in [0, {MAX_SEED}], got {text!r}"
    )


WORKLOAD = Param("workload", str, choices=workload_names, flags=("-w", "--workload"))
CONFIGURATION = Param(
    "configuration", str, check=_resolves("configuration", get_configuration),
    flags=("-c", "--configuration"),
)
TECHNIQUE = Param(
    "technique", str, check=_resolves("technique", get_technique),
    flags=("-t", "--technique"),
)
CONFIGURATIONS = Param(
    "configurations", list, default=None, choices=configuration_names,
    metavar="A,B",
    help="comma-separated Table 3 configurations (default: all nine)",
)
SERVERS = Param("servers", int, default=16, low=1, high=MAX_SERVERS)
SEED = Param(
    "seed", int, default=0, low=0, high=MAX_SEED, cli_type=_seed_arg,
    help="root RNG seed for stochastic stages (deterministic analyses "
    "ignore it)",
)
YEARS = Param("years", int, default=100, low=1, high=MAX_YEARS)
FAULTS = Param(
    "faults", str, default=None, check=_resolves("faults spec", FaultPlan.parse),
    metavar="SPEC",
    help="inject backup-power faults, e.g. "
    "'dg_start=0.05,dg_mtbf_h=100,batt_fade=0.2,ats_fail=0.01,"
    "ats_delay=30,psu=0.001' (see docs/FAULTS.md)",
)
NODES_PER_BUCKET = Param(
    "nodes_per_bucket", int, default=3, low=1, high=20,
    help="quadrature nodes per duration bucket",
)
OUTAGE_MINUTES = Param(
    "outage_minutes", float, default=30.0, flags=("-m", "--outage-minutes")
)


def _quantities(rows, title: str) -> str:
    return format_table(("quantity", "value"), rows, title=title)


# -- availability --------------------------------------------------------------


def _build_availability(params: Mapping[str, Any]) -> Built:
    analyzer = AvailabilityAnalyzer(
        get_workload(params["workload"]),
        num_servers=params["servers"],
        seed=params["seed"],
    )
    jobs, reduce = analyzer.prepare(
        get_configuration(params["configuration"]),
        get_technique(params["technique"]),
        years=params["years"],
        faults=FaultPlan.parse(params["faults"]) if params["faults"] else None,
    )
    return jobs, lambda values: availability_record(reduce(values))


def _render_availability(params: Mapping[str, Any], record: Any) -> str:
    return _quantities(
        [
            ("years simulated", record["years_simulated"]),
            ("outages simulated", record["outages_simulated"]),
            ("mean down (min/yr)", record["mean_downtime_minutes_per_year"]),
            ("p95 down (min/yr)", record["p95_downtime_minutes_per_year"]),
            ("availability", record["availability"]),
            ("nines", record["nines"]),
            ("crash fraction", record["crash_fraction"]),
            ("expected loss ($/KW/yr)",
             record["expected_loss_dollars_per_kw_year"]),
        ],
        title="availability",
    )


AVAILABILITY = AnalysisSpec(
    name="availability",
    command="availability",
    help="Monte-Carlo yearly study",
    params=(WORKLOAD, CONFIGURATION, TECHNIQUE, YEARS, SERVERS, SEED, FAULTS),
    build=_build_availability,
    render=_render_availability,
)


# -- rank ----------------------------------------------------------------------


def _rank_records(ranking) -> List[Dict[str, Any]]:
    """Flatten a reduce_rank result (list of SizedBackup, cheapest first)."""
    return [
        {
            "technique": sized.point.technique_name,
            "normalized_cost": _jsonable(sized.normalized_cost),
            "performance": _jsonable(sized.point.performance),
            "downtime_minutes": _jsonable(sized.point.downtime_minutes),
            "crashed": sized.point.crashed,
            "configuration": {
                "name": sized.configuration.name,
                "dg_power_fraction": sized.configuration.dg_power_fraction,
                "ups_power_fraction": sized.configuration.ups_power_fraction,
                "ups_runtime_seconds": sized.configuration.ups_runtime_seconds,
            },
        }
        for sized in ranking
    ]


def _build_rank(params: Mapping[str, Any]) -> Built:
    jobs = rank_jobs(
        get_workload(params["workload"]),
        minutes(params["outage_minutes"]),
        technique_names=params["techniques"],
        num_servers=params["servers"],
    )
    return jobs, lambda values: _rank_records(reduce_rank(values))


def _render_rank(params: Mapping[str, Any], records: Any) -> str:
    return format_table(
        ("technique", "cost", "perf", "down (min)"),
        [
            (r["technique"], r["normalized_cost"], r["performance"],
             r["downtime_minutes"])
            for r in records
        ],
        title=f"{params['workload']}, {params['outage_minutes']} min outage "
        "(each at its lowest-cost UPS)",
    )


RANK = AnalysisSpec(
    name="rank",
    command="rank",
    help="rank techniques by sized cost",
    params=(
        WORKLOAD,
        OUTAGE_MINUTES,
        SERVERS,
        Param(
            "techniques", list, default=PAPER_TECHNIQUES,
            choices=technique_names, metavar="A,B",
            help="comma-separated technique names to rank (default: the "
            "paper roster; add geo-failover/cloud-burst to pit the fleet "
            "against local techniques)",
        ),
    ),
    build=_build_rank,
    render=_render_rank,
    seed_flag=True,
)


# -- sweep ---------------------------------------------------------------------


def _check_sweep(params: Dict[str, Any]) -> None:
    """Rows name techniques or configurations by ``kind``; default: the
    paper's set of that kind."""
    if params["kind"] == "techniques":
        valid, default_rows = technique_names(), PAPER_TECHNIQUES
    else:
        valid = default_rows = configuration_names()
    if params["rows"] is None:
        params["rows"] = list(default_rows)
    for name in params["rows"]:
        if name not in valid:
            raise ProtocolError(f"unknown name {name!r} in 'rows'")
    cap_grid("sweep", len(params["rows"]), len(params["outage_minutes"]))


def _build_sweep(params: Mapping[str, Any]) -> Built:
    workload = get_workload(params["workload"])
    durations = [minutes(m) for m in params["outage_minutes"]]
    if params["kind"] == "techniques":
        rows, grid_jobs = params["rows"], technique_sweep_jobs
    else:
        rows = [get_configuration(name) for name in params["rows"]]
        grid_jobs = configuration_sweep_jobs
    jobs = grid_jobs(workload, rows, durations, num_servers=params["servers"])
    return jobs, sweep_records


def _render_sweep(params: Mapping[str, Any], records: Any) -> str:
    return format_table(
        ("row", "outage (min)", "cost", "perf", "down (min)"),
        [
            (r["row_key"], r["outage_seconds"] / 60.0, r["normalized_cost"],
             r["performance"], r["downtime_minutes"])
            for r in records
        ],
        title=f"{params['workload']} {params['kind']} sweep",
    )


SWEEP = AnalysisSpec(
    name="sweep",
    command="sweep",
    help="technique or configuration grid over outage durations",
    params=(
        WORKLOAD,
        Param(
            "kind", str, default="techniques",
            choices=lambda: ("techniques", "configurations"),
            help="what the grid rows are",
        ),
        Param(
            "rows", list, default=None, metavar="A,B,...",
            help="comma list of technique/configuration names (default: "
            "paper set)",
        ),
        replace(
            OUTAGE_MINUTES, type=list, item=float, default=(5.0, 30.0, 60.0),
            help="outage durations (minutes) forming the grid columns",
        ),
        SERVERS,
    ),
    check=_check_sweep,
    build=_build_sweep,
    render=_render_sweep,
    expensive=True,
)


# -- whatif --------------------------------------------------------------------


def _whatif_record(report) -> Dict[str, Any]:
    """Flatten an ExpectedOutageReport; nodes as [duration, weight] pairs."""
    record = asdict(report)
    record["nodes"] = [[d, w] for d, w in report.nodes]
    record["expected_downtime_minutes"] = report.expected_downtime_minutes
    return record


def _build_whatif(params: Mapping[str, Any]) -> Built:
    label = (
        f"whatif:{params['workload']}/{params['configuration']}"
        f"/{params['technique']}"
    )
    jobs = make_jobs(whatif_cell, [dict(params)], labels=[label])
    return jobs, lambda values: _whatif_record(values[0])


def _render_whatif(params: Mapping[str, Any], record: Any) -> str:
    return _quantities(
        [
            ("configuration", record["configuration_name"]),
            ("technique", record["technique_name"]),
            ("E[downtime] (min)", record["expected_downtime_minutes"]),
            ("E[performance]", record["expected_performance"]),
            ("P[crash]", record["crash_probability"]),
            ("E[UPS charge]", record["expected_ups_charge"]),
            ("quadrature nodes", len(record["nodes"])),
        ],
        title="expected per-outage behaviour (Figure 1(b) weighting)",
    )


WHATIF = AnalysisSpec(
    name="whatif",
    command="whatif",
    help="expected per-outage behaviour (duration-weighted)",
    params=(WORKLOAD, CONFIGURATION, TECHNIQUE, NODES_PER_BUCKET, SERVERS),
    build=_build_whatif,
    render=_render_whatif,
)


# -- policy_frontier -----------------------------------------------------------


def _build_policy_frontier(params: Mapping[str, Any]) -> Built:
    from repro.policy.frontier import policy_frontier_jobs, reduce_policy_frontier

    jobs = policy_frontier_jobs(
        params["workload"],
        params["configurations"],
        params["policies"],
        nodes_per_bucket=params["nodes_per_bucket"],
        num_servers=params["servers"],
    )
    return jobs, reduce_policy_frontier


def _render_policy_frontier(params: Mapping[str, Any], payload: Any) -> str:
    rows = [
        (
            point["configuration"],
            point["policy"],
            point["normalized_cost"],
            point["expected_score"] if point["feasible"] else "-",
            point["expected_performance"] if point["feasible"] else "-",
            (
                point["expected_downtime_seconds"] / 60.0
                if point["feasible"]
                else "inf"
            ),
            "*" if point["on_frontier"] else "",
        )
        for point in payload["points"]
    ]
    bound = payload["hindsight_is_upper_bound"]
    return "\n".join(
        [
            format_table(
                ("configuration", "policy", "cost", "E[score]", "E[perf]",
                 "E[down] (min)", "frontier"),
                rows,
                title=f"{params['workload']} policy frontier "
                "(Figure 1(b) duration weighting)",
            ),
            f"hindsight upper bound holds: {'yes' if bound else 'NO'}",
            "adaptive-over-static dominations: "
            f"{len(payload['adaptive_dominations'])}",
        ]
    )


def _policy_failure(payload: Any) -> Optional[str]:
    if payload["hindsight_is_upper_bound"]:
        return None
    return "an online policy outscored the hindsight baseline"


POLICY_FRONTIER = AnalysisSpec(
    name="policy_frontier",
    command="policy",
    help="online-policy cost/performability frontier vs. static plans",
    params=(
        WORKLOAD,
        CONFIGURATIONS,
        Param(
            "policies", list,
            default=_lazy("repro.policy.frontier:DEFAULT_POLICY_SPECS"),
            check=_resolves(
                "policy spec", _lazy("repro.policy.parse:parse_policy")
            ),
            flags=("--policy",), repeat=True, metavar="SPEC",
            help="policy spec, repeatable: static:<technique>, "
            "greedy[:serve=..,save=..,floor=..,margin=..], "
            "lyapunov[:v=..,epoch=..,floor=..,horizon=..], hindsight "
            "(default: the standard roster, see docs/POLICY.md)",
        ),
        replace(NODES_PER_BUCKET, default=2),
        SERVERS,
    ),
    check=lambda p: cap_grid(
        "policy_frontier", len(p["configurations"]), len(p["policies"])
    ),
    build=_build_policy_frontier,
    render=_render_policy_frontier,
    failure=_policy_failure,
    expensive=True,
)


# -- fleet_frontier ------------------------------------------------------------


def _build_fleet_frontier(params: Mapping[str, Any]) -> Built:
    from repro.fleet.frontier import prepare_fleet_frontier

    return prepare_fleet_frontier(
        params["fleet"],
        params["configurations"],
        technique=params["technique"],
        years=params["years"],
        seed=params["seed"],
    )


def _render_fleet_frontier(params: Mapping[str, Any], payload: Any) -> str:
    frontier_keys = {
        (point["configuration"], point["routing"])
        for point in payload["frontier"]
    }
    rows = [
        (
            cell["configuration"],
            "fleet" if cell["routing"] else "solo",
            cell["normalized_cost"],
            cell["performability"],
            cell["availability"],
            cell["multi_site_outage_probability"],
            "*"
            if (cell["configuration"], cell["routing"]) in frontier_keys
            else "",
        )
        for cell in payload["cells"]
    ]
    dominations = [d for d in payload["dominations"] if d["cost_saving"] > 0]
    verdict = payload["fleet_dominates_single_site"]
    return "\n".join(
        [
            format_table(
                ("configuration", "mode", "cost", "performability",
                 "availability", "P(multi-site)", "frontier"),
                rows,
                title=f"{params['fleet']} fleet frontier "
                f"({params['years']} years/cell, "
                f"technique {params['technique']})",
            ),
            f"routed-over-solo dominations: {len(dominations)}",
            *(
                f"  fleet {d['routed']['configuration']} "
                f"(cost {d['routed']['normalized_cost']:.2f}) dominates "
                f"solo {d['single_site']['configuration']} "
                f"(cost {d['single_site']['normalized_cost']:.2f}), "
                f"saving {d['cost_saving']:.2f}"
                for d in dominations
            ),
            "fleet provisioning dominates the single-site frontier: "
            f"{'yes' if verdict else 'no'}",
        ]
    )


FLEET_FRONTIER = AnalysisSpec(
    name="fleet_frontier",
    command="fleet",
    help="multi-site fleet frontier and N-1/N-2 contingency analysis",
    params=(
        Param(
            "fleet", str, default=_lazy("repro.fleet.spec:DEFAULT_FLEET"),
            choices=_lazy("repro.fleet.spec:fleet_names"),
            help="named fleet scenario",
        ),
        replace(
            CONFIGURATIONS, flags=("-c", "--configurations"),
            help="comma-separated Table 3 configurations applied uniformly "
            "to every site (default: all nine)",
        ),
        replace(
            TECHNIQUE, default="full-service",
            help="local outage technique at every site",
        ),
        replace(
            YEARS, default=_lazy("repro.fleet.frontier:DEFAULT_FLEET_YEARS"),
            help="Monte-Carlo fleet years per frontier cell",
        ),
        SEED,
    ),
    # Each configuration runs routed and unrouted — two cells apiece.
    check=lambda p: cap_grid("fleet_frontier", len(p["configurations"]), 2),
    build=_build_fleet_frontier,
    render=_render_fleet_frontier,
    expensive=True,
)


# -- echo ----------------------------------------------------------------------


def _echo_cell(spec: Mapping[str, Any], seed: Any) -> Dict[str, Any]:
    """Diagnostics job: sleep as instructed, return the payload."""
    if spec["sleep_s"] > 0:
        time.sleep(spec["sleep_s"])
    return {"echo": spec["payload"]}


# Diagnostics: returns its payload after an optional bounded sleep.  Load
# tests and shedding tests want a request whose cost they control
# exactly; 'echo' is that request.
ECHO = AnalysisSpec(
    name="echo",
    params=(
        Param("payload", object, default=None),
        Param("sleep_s", float, default=0.0, low=0, high=MAX_ECHO_SLEEP_S),
    ),
    build=lambda params: (
        make_jobs(_echo_cell, [dict(params)], labels=["echo"]),
        lambda values: values[0],
    ),
)


#: analysis name -> its one declaration.
ANALYSIS_SPECS: Dict[str, AnalysisSpec] = {
    spec.name: spec
    for spec in (
        AVAILABILITY, RANK, SWEEP, WHATIF, POLICY_FRONTIER, FLEET_FRONTIER,
        ECHO,
    )
}


def build(request: "Request") -> Built:
    """The request's ``(jobs, finish)`` pair, nothing executed yet."""
    return ANALYSIS_SPECS[request.analysis].build(request.params)


def evaluate_batch(
    requests: Sequence["Request"], executor: BaseExecutor
) -> List[Dict[str, Any]]:
    """Evaluate a served batch: build, concatenate, run once, reduce.

    The one evaluation path of ``repro serve``, wherever the batch runs
    (the in-process dispatcher, or a pool worker).  Every request's
    jobs go into **one** ``executor.run``; each job keeps its own seed
    and fingerprint, so a batched payload is bit-identical to
    :func:`evaluate_request` on the same request.  A build, job or
    reduce failure fails that request alone.

    Returns one outcome dict per request, in order: ``ok`` plus
    ``payload`` or ``error`` (the exception); and, for every request
    whose jobs ran, ``jobs``, ``batch_size`` (requests in the
    submission), ``cache_hits`` (the submission's), and the stage
    timings ``execute`` and ``reduce`` as ``(wall start, seconds)``.
    """
    outcomes: List[Dict[str, Any]] = [{} for _ in requests]
    jobs: List[Job] = []
    ranges = []  # (outcome, finish, start, end)
    for outcome, request in zip(outcomes, requests):
        try:
            request_jobs, finish = build(request)
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            outcome.update(ok=False, error=exc)
            continue
        start = len(jobs)
        # Index is presentation-only (not in seeds or fingerprints), so
        # renumbering keeps the concatenated list's indices unique and
        # changes no result.
        jobs.extend(
            replace(job, index=start + i) for i, job in enumerate(request_jobs)
        )
        ranges.append((outcome, finish, start, len(jobs)))
    if not ranges:
        return outcomes
    started, started_unix = time.perf_counter(), time.time()
    try:
        report = executor.run(jobs, strict=False)
    except Exception as exc:  # noqa: BLE001 - executor-level failure
        for outcome, _, _, _ in ranges:
            outcome.update(ok=False, error=exc)
        return outcomes
    execute = (started_unix, time.perf_counter() - started)
    failed = {f.index: f for f in report.failures}
    for outcome, finish, start, end in ranges:
        outcome.update(
            jobs=end - start,
            batch_size=len(ranges),
            cache_hits=report.stats.cache_hits,
            execute=execute,
        )
        reduce_started, reduce_unix = time.perf_counter(), time.time()
        failures = [failed[i] for i in range(start, end) if i in failed]
        try:
            if failures:
                raise ServeError(
                    f"{len(failures)} of {end - start} jobs failed; "
                    f"first: {failures[0].label}: {failures[0].error}"
                )
            outcome.update(ok=True, payload=finish(report.values[start:end]))
        except Exception as exc:  # noqa: BLE001 - per-request isolation
            outcome.update(ok=False, error=exc)
        outcome["reduce"] = (reduce_unix, time.perf_counter() - reduce_started)
    return outcomes


def evaluate_request(
    request: "Request", executor: Optional[BaseExecutor] = None
) -> Any:
    """Run one request to its ``result`` payload — the reference path.

    This is exactly what the batched server computes for the same
    request; every CLI analysis subcommand prints it, as a table or
    (with ``--json``) canonically.
    """
    jobs, finish = build(request)
    if executor is None:
        executor = SerialExecutor()
    report = executor.run(jobs)
    return finish(report.values)
