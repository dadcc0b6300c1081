"""Command-line interface: run the paper's analyses without writing code.

Subcommands::

    python -m repro configs                      # Table 3
    python -m repro techniques                   # registered techniques
    python -m repro workloads                    # Table 7
    python -m repro evaluate  -w specjbb -c LargeEUPS -t sleep-l -m 30
    python -m repro plan      -w websearch -m 30 --min-perf 0.9 --max-down 0
    python -m repro rank      -w memcached -m 30
    python -m repro availability -w specjbb -c LargeEUPS -t throttle+sleep-l
    python -m repro whatif    -w memcached -c NoDG -t sleep-l
    python -m repro sweep     -w memcached --kind techniques -m 5 30
    python -m repro policy    -w memcached --configurations NoDG,LargeEUPS
    python -m repro fleet     -c NoDG,LargeEUPS --years 10
    python -m repro serve     --port 8321 --cache .cache
    python -m repro loadgen   --url http://127.0.0.1:8321 --duration 10
    python -m repro cache     .cache --max-bytes 100000000
    python -m repro selfcheck --fast
    python -m repro tco

The analysis subcommands — ``availability``, ``rank``, ``sweep``,
``whatif``, ``policy`` and ``fleet`` — are derived from the
:data:`~repro.serve.analyses.ANALYSIS_SPECS` table, one per served
analysis: a flag per parameter, the runner flags and ``--json``.  Each
runs one path, ``parse_request`` -> ``evaluate_request`` -> the
analysis' table, or with ``--json`` the canonical JSON payload,
byte-identical to the ``result`` field a running ``repro serve`` returns
for the same query (see docs/SERVE.md for the protocol and the
certification that enforces it).  Bad input is the protocol's one-line
``error: param ...`` (exit 2) either way.  ``fleet --contingency`` is
the one subcommand-specific extra.

The analysis subcommands, ``selfcheck`` and ``reproduce`` run on the
:mod:`repro.runner` subsystem and accept ``--jobs N`` (worker processes;
results are bit-identical at every worker count), ``--cache DIR`` (an
on-disk result cache — reruns skip already-computed jobs and report the
hits), ``--retries N`` (re-run transiently failed jobs with deterministic
backoff), ``--checkpoint FILE`` (crash-safe JSONL progress manifest) and
``--resume`` (skip work the checkpoint records, served from the cache);
those with a stochastic stage, and ``rank``, take ``--seed S`` (root of
the per-job RNG tree).  Each prints a ``[runner] ...`` telemetry line
after its table and exits non-zero if any job ultimately failed.

``evaluate`` and ``availability`` accept ``--faults SPEC`` — a comma list
like ``dg_start=0.01,dg_mtbf_h=100,batt_fade=0.2,ats_fail=0.01`` injecting
backup-component failures into the simulation (see docs/FAULTS.md) — and
``repro chaos`` breaks the runner itself on purpose (worker kills,
transient failures, cache corruption) and certifies that every recovery
path reproduces baseline-identical results.

Every subcommand additionally accepts the :mod:`repro.obs` flags:
``--trace FILE`` writes a Chrome/Perfetto ``trace_event`` JSON of the run
(open it at https://ui.perfetto.dev) and ``--metrics FILE`` writes a JSONL
event log (spans + metrics snapshot) that ``repro stats FILE`` renders as
a human summary.  With neither flag, observability stays off and costs
nothing.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.core.configurations import PAPER_CONFIGURATIONS, get_configuration
from repro.core.performability import evaluate_point
from repro.core.planner import ProvisioningPlanner
from repro.core.tco import TCOModel
from repro.errors import InfeasibleError, ReproError, RunnerError
from repro.faults import FaultInjector, FaultPlan
from repro.runner import ResultCache, RetryPolicy, SweepCheckpoint, make_executor
from repro.serve.analyses import (
    ANALYSIS_SPECS,
    CONFIGURATION,
    FAULTS,
    SEED,
    TECHNIQUE,
    WORKLOAD,
    evaluate_request,
)
from repro.serve.protocol import PROTOCOL_VERSION, canonical_json, parse_request
from repro.serve.spec import REQUIRED, Param
from repro.techniques.registry import get_technique, technique_names
from repro.units import minutes, to_minutes
from repro.workloads.registry import get_workload, workload_names


def _cmd_configs(_args: argparse.Namespace) -> int:
    rows = [
        (
            c.name,
            c.dg_power_fraction,
            c.ups_power_fraction,
            f"{to_minutes(c.ups_runtime_seconds):.0f} min",
            c.normalized_cost(),
        )
        for c in PAPER_CONFIGURATIONS
    ]
    print(
        format_table(
            ("configuration", "DG", "UPS power", "UPS energy", "cost"),
            rows,
            title="Table 3 configurations (cost normalised to MaxPerf)",
        )
    )
    return 0


def _cmd_techniques(_args: argparse.Namespace) -> int:
    for name in technique_names():
        print(name)
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = []
    for name in workload_names():
        workload = get_workload(name)
        rows.append(
            (
                name,
                f"{workload.memory_state_bytes / 1e9:.0f} GB",
                workload.cpu_bound_fraction,
                workload.metric.value,
            )
        )
    print(
        format_table(
            ("workload", "memory", "cpu-bound", "metric"),
            rows,
            title="Table 7 workloads",
        )
    )
    return 0


def _parse_faults(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The ``--faults`` spec as a :class:`FaultPlan`, or None when absent."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    return FaultPlan.parse(spec)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    plan = _parse_faults(args)
    draw = None
    if plan is not None and not plan.is_null:
        draw = FaultInjector(plan, seed=args.fault_seed).draw()
    point = evaluate_point(
        get_configuration(args.configuration),
        get_technique(args.technique),
        get_workload(args.workload),
        minutes(args.outage_minutes),
        num_servers=args.servers,
        faults=draw,
    )
    rows = [
        ("configuration", point.configuration_name),
        ("technique", point.technique_name),
        ("workload", point.workload_name),
        ("outage (min)", args.outage_minutes),
        ("normalized cost", point.normalized_cost),
        ("feasible", point.feasible),
        ("performance", point.performance),
        ("down time (min)", point.downtime_minutes),
        ("crashed", point.crashed),
    ]
    if draw is not None:
        rows.append(("faults", args.faults))
    print(format_table(("quantity", "value"), rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    planner = ProvisioningPlanner(get_workload(args.workload), num_servers=args.servers)
    max_down = float("inf") if args.max_down_minutes is None else minutes(
        args.max_down_minutes
    )
    try:
        result = planner.plan(
            outage_seconds=minutes(args.outage_minutes),
            min_performance=args.min_performance,
            max_downtime_seconds=max_down,
        )
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    config = result.configuration
    rows = [
        ("technique", result.technique_name),
        ("normalized cost", result.normalized_cost),
        ("UPS power fraction", config.ups_power_fraction),
        ("UPS runtime (min)", to_minutes(config.ups_runtime_seconds)),
        ("performance", result.point.performance),
        ("down time (min)", result.point.downtime_minutes),
    ]
    print(format_table(("quantity", "value"), rows, title="cheapest plan"))
    return 0


def _make_executor(args: argparse.Namespace):
    """Build the runner executor the ``--jobs/--cache/--retries/--checkpoint``
    flags describe."""
    cache = ResultCache(args.cache) if getattr(args, "cache", None) else None
    retry = None
    retries = getattr(args, "retries", 0) or 0
    if retries:
        retry = RetryPolicy(
            max_attempts=retries + 1, seed=getattr(args, "seed", 0) or 0
        )
    checkpoint = None
    checkpoint_path = getattr(args, "checkpoint", None)
    resume = bool(getattr(args, "resume", False))
    if resume and not checkpoint_path:
        raise RunnerError("--resume requires --checkpoint FILE")
    if resume and cache is None:
        raise RunnerError(
            "--resume requires --cache DIR (checkpointed results are "
            "served from the cache)"
        )
    if checkpoint_path:
        checkpoint = SweepCheckpoint(checkpoint_path, resume=resume)
    return make_executor(
        jobs=getattr(args, "jobs", 1),
        cache=cache,
        retry=retry,
        checkpoint=checkpoint,
    )


def _print_run_stats(executor) -> None:
    checkpoint = getattr(executor, "checkpoint", None)
    if checkpoint is not None:
        checkpoint.close()
    report = getattr(executor, "last_report", None)
    if report is not None:
        print(f"[runner] {report.stats.summary()}")


def _runner_exit(executor, code: int = 0) -> int:
    """Fold harness-level job failures into the exit code: non-zero with a
    one-line summary on stderr whenever the last run report is not ok."""
    report = getattr(executor, "last_report", None)
    if report is not None and not report.ok:
        first = report.failures[0]
        print(
            f"error: {len(report.failures)} of {report.stats.jobs_total} runner "
            f"jobs failed; first: {first.label}: {first.error}",
            file=sys.stderr,
        )
        return code or 1
    return code


def _cmd_analysis(args: argparse.Namespace) -> int:
    """Every analysis subcommand: the flags become a protocol request,
    evaluated exactly as ``repro serve`` evaluates it, then printed as the
    analysis' table — or, with ``--json``, as the canonical payload
    byte-identical to the HTTP response's ``result`` field."""
    spec = ANALYSIS_SPECS[args.analysis]
    request = parse_request(
        {
            "v": PROTOCOL_VERSION,
            "analysis": spec.name,
            "params": {
                p.name: getattr(args, p.name)
                for p in spec.params
                if getattr(args, p.name) is not None
            },
        }
    )
    executor = _make_executor(args)
    payload = evaluate_request(request, executor=executor)
    if args.json:
        print(canonical_json(payload))
        return _runner_exit(executor)
    print(spec.render(request.params, payload))
    _print_run_stats(executor)
    code = _runner_exit(executor)
    failure = spec.failure(payload) if spec.failure is not None else None
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return code or 1
    return code


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, run_all, run_experiment

    quick = not args.full
    executor = _make_executor(args)
    if args.experiment:
        results = [run_experiment(args.experiment, quick=quick)]
    else:
        results = run_all(quick=quick, executor=executor)
    for result in results:
        print(result.rendered)
        print()
    if args.csv_dir:
        import os

        from repro.analysis.export import to_csv

        os.makedirs(args.csv_dir, exist_ok=True)
        for result in results:
            to_csv(
                list(result.records),
                path=os.path.join(args.csv_dir, f"{result.experiment_id}.csv"),
            )
        print(f"wrote {len(results)} CSV files to {args.csv_dir}")
    if not args.experiment:
        missing = set(EXPERIMENTS) - {r.experiment_id for r in results}
        if missing:  # pragma: no cover - registry bookkeeping
            print(f"warning: experiments not run: {sorted(missing)}")
        _print_run_stats(executor)
    return _runner_exit(executor)


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.checks.fuzz import run_fuzz
    from repro.checks.selfcheck import run_selfcheck

    executor = _make_executor(args)
    report = run_selfcheck(
        fast=args.fast, workload=args.workload, executor=executor
    )
    by_check = Counter(r["check"] for r in report.records)
    failed_by_check = Counter(r["check"] for r in report.failures)
    rows = [
        (check, total, failed_by_check.get(check, 0))
        for check, total in sorted(by_check.items())
    ]
    print(
        format_table(
            ("check", "run", "failed"),
            rows,
            title="selfcheck: closed forms vs numeric oracles (Table 3 sweep)",
        )
    )
    for failure in report.failures:
        print(f"FAIL {failure['check']} {failure['subject']}: {failure['detail']}")
    _print_run_stats(executor)

    fuzz_cases = args.fuzz if args.fuzz is not None else (10 if args.fast else 40)
    fuzz_report = None
    if fuzz_cases > 0:
        fuzz_report = run_fuzz(cases=fuzz_cases, seed=args.seed, executor=executor)
        print(f"[fuzz] {fuzz_report.summary()}")
        for violation in fuzz_report.violations:
            print(f"FAIL fuzz: {violation}")
        _print_run_stats(executor)

    ok = report.ok and (fuzz_report is None or fuzz_report.ok)
    print(f"selfcheck: {'OK' if ok else 'FAILED'} ({report.summary()})")
    return _runner_exit(executor, 0 if ok else 1)


def _cmd_tiers(_args: argparse.Namespace) -> int:
    from repro.power.redundancy import ALL_TIERS
    from repro.units import megawatts

    peak = megawatts(1)
    rows = []
    for tier in ALL_TIERS:
        rows.append(
            (
                tier.name,
                tier.redundancy.value,
                tier.backup_cost(peak) / 1e3,
                tier.backup_delivery_probability(),
                tier.allowed_downtime_minutes_per_year,
            )
        )
    print(
        format_table(
            (
                "tier",
                "scheme",
                "backup k$/yr (1 MW)",
                "DG delivery prob",
                "allowed down (min/yr)",
            ),
            rows,
            title="Tier classification comparator",
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.events.startswith(("http://", "https://")):
        # Live-server mode: one dashboard frame from /healthz, /stats
        # and /slo — the SLO report rides along with the counters.
        from repro.serve.top import gather, render_dashboard

        snapshot = gather(args.events)
        print(render_dashboard(snapshot), end="")
        return 0 if snapshot.get("health") is not None else 1

    from repro.obs.export import read_events_jsonl, render_summary

    spans, metrics = read_events_jsonl(args.events)
    print(render_summary(spans, metrics))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    return run_top(
        args.url.rstrip("/"), interval_s=args.interval, once=args.once
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import bench as benchmod

    history_path = args.history
    if args.bench_command == "record":
        entries = benchmod.record(root=args.root, history_path=history_path)
        if not entries:
            if not benchmod.artifact_paths(args.root):
                print("[bench] no BENCH_*.json artifacts found")
                return 1
            print("[bench] every BENCH_*.json artifact is already recorded")
        for entry in entries:
            print(
                f"[bench] recorded {entry['bench']} from {entry['source']}: "
                + ", ".join(
                    f"{name}={metric['value']:g}"
                    for name, metric in sorted(entry["metrics"].items())
                )
            )
        return 0

    path = history_path or benchmod.HISTORY_FILENAME
    entries = benchmod.load_history(path)
    if args.bench_command == "show":
        for entry in entries:
            print(_json.dumps(entry, sort_keys=True))
        if not entries:
            print(f"[bench] no history at {path}", file=sys.stderr)
        return 0

    # check
    if not entries:
        print(f"[bench] no history at {path}; run 'repro bench record' first")
        return 1
    report = benchmod.check(entries, tolerance=args.tolerance)
    print(benchmod.format_report(report))
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.runner.chaos import run_chaos

    report = run_chaos(
        get_workload(args.workload),
        get_configuration(args.configuration),
        get_technique(args.technique),
        years=args.years,
        jobs=args.jobs,
        kills=args.kills,
        flaky=args.flaky,
        corrupt=args.corrupt,
        faults=_parse_faults(args),
        seed=args.seed,
        workdir=args.workdir,
        num_servers=args.servers,
    )
    print(report.summary())
    if not report.ok:
        print(
            "error: chaos certification FAILED — a recovery path diverged "
            "from the undisturbed baseline",
            file=sys.stderr,
        )
        return 1
    print("chaos: OK (every recovery path reproduced the baseline bit-for-bit)")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: the ``fleet_frontier`` analysis, or with ``--contingency``
    the deterministic N-1/N-2 table."""
    if not args.contingency:
        return _cmd_analysis(args)
    from repro.fleet.contingency import contingency_report
    from repro.fleet.spec import DEFAULT_FLEET, get_fleet

    fleet = args.fleet or DEFAULT_FLEET
    report = contingency_report(get_fleet(fleet), depth=args.depth)
    if args.json:
        print(canonical_json(report))
        return 0
    rows = [
        (
            f"N-{s['order']}",
            "+".join(s["lost_sites"]),
            s["displaced_load"],
            s["absorbed_load"],
            s["delivered_fraction"],
            "+".join(s["degraded_sites"]) or "-",
            "yes" if s["fully_served"] else "NO",
        )
        for s in report["scenarios"]
    ]
    print(
        format_table(
            ("loss", "sites", "displaced", "absorbed", "delivered",
             "degraded", "served"),
            rows,
            title=f"{fleet} contingency analysis",
        )
    )
    for order in range(1, report["depth"] + 1):
        safe = report[f"n{order}_safe"]
        print(f"N-{order} safe: {'yes' if safe else 'NO'}")
    worst = report["worst"]
    print(
        f"worst case: lose {'+'.join(worst['lost_sites'])} -> "
        f"{worst['delivered_fraction']:.3f} of demand served"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import ServeConfig, run_server

    slos = None
    if args.slo:
        from repro.obs.slo import parse_slo

        slos = tuple(parse_slo(spec) for spec in args.slo)
    return run_server(
        ServeConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_dir=args.cache,
            queue_bound=args.queue_bound,
            max_batch=args.max_batch,
            batch_wait_s=args.batch_wait_s,
            timeout_s=args.timeout_s,
            cache_max_bytes=args.cache_max_bytes,
            cache_max_age_s=args.cache_max_age_s,
            telemetry=not args.no_telemetry,
            telemetry_window_s=args.telemetry_window_s,
            trace_capacity=args.trace_capacity,
            slos=slos,
            workers=args.workers,
            poison_threshold=args.poison_threshold,
            brownout=not args.no_brownout,
        )
    )


def _cmd_drill(args: argparse.Namespace) -> int:
    import json

    from repro.serve.drill import DrillConfig, run_drill

    bench_workers = tuple(
        int(part) for part in args.bench_workers.split(",") if part.strip()
    )
    report = run_drill(
        DrillConfig(
            workers=args.workers,
            seed=args.seed,
            kills=args.kills,
            corrupt=args.corrupt,
            chaos_duration_s=args.duration,
            poison_threshold=args.poison_threshold,
            bench_workers=bench_workers,
        ),
        emit=print,
    )
    print(report.summary())
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[drill] wrote {args.report}")
    if args.bench and report.emit_bench(args.bench):
        print(f"[drill] wrote {args.bench}")
    return 0 if report.ok else 1


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.obs.bench import emit
    from repro.serve.loadgen import LoadgenConfig, parse_mix, run_loadgen

    report = run_loadgen(
        LoadgenConfig(
            base_url=args.url.rstrip("/"),
            concurrency=args.concurrency,
            duration_s=args.duration,
            mix=parse_mix(args.mix),
            seed=args.seed,
            deadline_s=args.deadline_s,
            timeout_s=args.timeout,
            net_retries=args.net_retries,
        )
    )
    print(f"[loadgen] {report.summary()}")
    if args.output:
        emit(args.output, **report.to_json())
        print(f"[loadgen] wrote {args.output}")
    return 0 if report.errors == 0 else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir)
    if args.max_bytes is not None or args.max_age_s is not None:
        report = cache.prune(max_bytes=args.max_bytes, max_age_s=args.max_age_s)
        print(f"[cache] {report.summary()}")
    stats = cache.stats()
    rows = [
        ("root", str(cache.root)),
        ("active version", cache.version),
        ("live entries", stats.entries),
        ("live bytes", stats.bytes),
        ("corrupt entries", stats.corrupt_entries),
        ("corrupt bytes", stats.corrupt_bytes),
        ("total bytes", stats.total_bytes),
    ]
    for version, (count, size) in stats.versions.items():
        rows.append((f"namespace {version}", f"{count} entries, {size} B"))
    print(format_table(("quantity", "value"), rows, title="result cache"))
    return 0


def _cmd_tco(_args: argparse.Namespace) -> int:
    model = TCOModel()
    rows = [
        ("loss rate ($/KW/min)", model.loss_per_kw_minute),
        ("DG savings ($/KW/yr)", model.dg_savings_per_kw_year),
        ("crossover (min/yr)", model.crossover_minutes_per_year()),
        ("crossover (h/yr)", model.crossover_minutes_per_year() / 60),
    ]
    print(format_table(("quantity", "value"), rows, title="Figure 10 TCO"))
    return 0


def _comma_list(text: str) -> Optional[List[str]]:
    return text.split(",") if text else None


def _add_param(parser: argparse.ArgumentParser, param: Param) -> None:
    """The CLI flag of one analysis parameter.  Unset flags stay ``None``
    and the protocol fills the parameter's default."""
    kwargs = {"dest": param.name, "help": param.help, "metavar": param.metavar}
    if param.default is REQUIRED:
        kwargs["required"] = True
    if param.type is not list:
        kwargs["type"] = param.cli_type or param.type
        if param.choices is not None:
            kwargs["choices"] = param.choices()
    elif param.item is float:
        kwargs.update(type=float, nargs="+")
    elif param.repeat:
        kwargs["action"] = "append"
    else:
        kwargs["type"] = _comma_list
    flags = param.flags or ("--" + param.name.replace("_", "-"),)
    parser.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Underprovisioning backup power for datacenters (ASPLOS'14)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("configs", help="list Table 3 configurations").set_defaults(
        func=_cmd_configs
    )
    sub.add_parser("techniques", help="list techniques").set_defaults(
        func=_cmd_techniques
    )
    sub.add_parser("workloads", help="list Table 7 workloads").set_defaults(
        func=_cmd_workloads
    )

    def add_common(p: argparse.ArgumentParser):
        _add_param(p, WORKLOAD)
        p.add_argument("-m", "--outage-minutes", type=float, default=30.0)
        p.add_argument("--servers", type=int, default=16)

    p_eval = sub.add_parser("evaluate", help="evaluate one operating point")
    add_common(p_eval)
    _add_param(p_eval, CONFIGURATION)
    _add_param(p_eval, TECHNIQUE)
    _add_param(p_eval, FAULTS)
    p_eval.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the single fault draw applied to this point",
    )
    p_eval.set_defaults(func=_cmd_evaluate)

    p_plan = sub.add_parser("plan", help="cheapest backup for targets")
    add_common(p_plan)
    p_plan.add_argument("--min-performance", type=float, default=0.0)
    p_plan.add_argument("--max-down-minutes", type=float, default=None)
    p_plan.set_defaults(func=_cmd_plan)

    def add_runner_flags(p: argparse.ArgumentParser, with_seed: bool = True):
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes (1 = serial; results identical either way)",
        )
        p.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="on-disk result cache directory (reruns skip computed jobs)",
        )
        if with_seed:
            p.add_argument("--seed", type=SEED.cli_type, default=0, help=SEED.help)
        p.add_argument(
            "--retries",
            type=int,
            default=0,
            metavar="N",
            help="re-run each transiently failed job up to N times with "
            "deterministic seeded backoff",
        )
        p.add_argument(
            "--checkpoint",
            default=None,
            metavar="FILE",
            help="crash-safe JSONL progress manifest recording finished jobs",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="skip jobs the --checkpoint records (served from --cache); "
            "resumed sweeps are bit-identical to uninterrupted ones",
        )

    for spec in ANALYSIS_SPECS.values():
        if spec.command is None:
            continue
        p = sub.add_parser(spec.command, help=spec.help)
        for param in spec.params:
            _add_param(p, param)
        add_runner_flags(p, with_seed=spec.seed_flag)
        p.add_argument(
            "--json",
            action="store_true",
            help="print the canonical JSON payload (byte-identical to the "
            "`repro serve` response body's `result` field for the same query)",
        )
        p.set_defaults(func=_cmd_analysis, analysis=spec.name)

    p_fleet = sub.choices["fleet"]
    p_fleet.add_argument(
        "--contingency",
        action="store_true",
        help="print the deterministic N-1/N-2 contingency table instead of "
        "the Monte-Carlo frontier",
    )
    p_fleet.add_argument(
        "--depth",
        type=int,
        default=2,
        help="contingency order (1 = N-1 only, 2 = N-1 and N-2)",
    )
    p_fleet.set_defaults(func=_cmd_fleet)

    p_check = sub.add_parser(
        "selfcheck",
        help="cross-check closed forms against numeric oracles + fuzz invariants",
    )
    p_check.add_argument(
        "--fast",
        action="store_true",
        help="coarser oracle grids and fewer cells (the CI smoke setting)",
    )
    p_check.add_argument(
        "-w",
        "--workload",
        default="specjbb",
        choices=workload_names(),
        help="workload driving the strict-simulation cells",
    )
    p_check.add_argument(
        "--fuzz",
        type=int,
        default=None,
        metavar="N",
        help="fuzz case count (default: 10 fast / 40 full; 0 disables)",
    )
    add_runner_flags(p_check)
    p_check.set_defaults(func=_cmd_selfcheck)

    sub.add_parser("tco", help="Figure 10 crossover").set_defaults(func=_cmd_tco)
    sub.add_parser("tiers", help="Tier classification comparator").set_defaults(
        func=_cmd_tiers
    )

    p_repro = sub.add_parser(
        "reproduce", help="regenerate the paper's tables and figures"
    )
    p_repro.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="one experiment id (figure5, table3, ...); default: all",
    )
    p_repro.add_argument(
        "--full", action="store_true", help="full duration grids (slower)"
    )
    p_repro.add_argument(
        "--csv-dir", default=None, help="also write each experiment as CSV here"
    )
    add_runner_flags(p_repro)
    p_repro.set_defaults(func=_cmd_reproduce)

    p_stats = sub.add_parser(
        "stats",
        help="render a --metrics JSONL event log as summary tables, or a "
        "live server's /stats+/slo when given an http(s) URL",
    )
    p_stats.add_argument(
        "events",
        help="events JSONL file written by --metrics, or a server base URL",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a running server"
    )
    p_top.add_argument(
        "--url", default="http://127.0.0.1:8321", help="server base URL"
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (seconds)"
    )
    p_top.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    p_top.set_defaults(func=_cmd_top)

    p_bench = sub.add_parser(
        "bench",
        help="record BENCH_*.json artifacts into the history ledger and "
        "gate regressions",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_record = bench_sub.add_parser(
        "record", help="append current BENCH_*.json metrics to the ledger"
    )
    p_bench_record.add_argument(
        "--root", default=".", help="directory holding the BENCH_*.json files"
    )
    p_bench_record.add_argument(
        "--history", default=None, metavar="FILE",
        help="ledger path (default: BENCH_history.jsonl under --root)",
    )
    p_bench_record.set_defaults(func=_cmd_bench)
    p_bench_check = bench_sub.add_parser(
        "check",
        help="fail when the newest entry regresses past tolerance vs the "
        "median of prior runs",
    )
    p_bench_check.add_argument(
        "--history", default=None, metavar="FILE",
        help="ledger path (default: ./BENCH_history.jsonl)",
    )
    p_bench_check.add_argument(
        "--tolerance", type=float, default=0.15,
        help="fractional bad-direction slack before failing (default 0.15)",
    )
    p_bench_check.set_defaults(func=_cmd_bench)
    p_bench_show = bench_sub.add_parser(
        "show", help="print the ledger entries as JSONL"
    )
    p_bench_show.add_argument(
        "--history", default=None, metavar="FILE",
        help="ledger path (default: ./BENCH_history.jsonl)",
    )
    p_bench_show.set_defaults(func=_cmd_bench)

    p_chaos = sub.add_parser(
        "chaos",
        help="break the runner on purpose and certify bit-identical recovery",
    )
    p_chaos.add_argument(
        "-w", "--workload", default="websearch", choices=workload_names()
    )
    p_chaos.add_argument("-c", "--configuration", default="MaxPerf")
    p_chaos.add_argument("-t", "--technique", default="full-service")
    p_chaos.add_argument("--servers", type=int, default=16)
    p_chaos.add_argument(
        "--years", type=int, default=8, help="year-cells in the chaos sweep"
    )
    p_chaos.add_argument(
        "--jobs", type=int, default=2, help="worker processes for the chaos run"
    )
    p_chaos.add_argument(
        "--kills", type=int, default=1, help="worker hard-kills to inject"
    )
    p_chaos.add_argument(
        "--flaky", type=int, default=1, help="transient job failures to inject"
    )
    p_chaos.add_argument(
        "--corrupt", type=int, default=1, help="cache entries to corrupt mid-run"
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="root seed shared by all passes"
    )
    p_chaos.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="scratch dir for cache/checkpoint/markers (default: a tempdir)",
    )
    _add_param(p_chaos, FAULTS)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the batched, backpressured HTTP evaluation service",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321)
    p_serve.add_argument(
        "--jobs", type=int, default=1, help="runner worker processes per batch"
    )
    p_serve.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="shared result cache; point the CLI at the same DIR for "
        "byte-identical responses served from the same entries",
    )
    p_serve.add_argument(
        "--queue-bound",
        type=int,
        default=64,
        help="admitted requests waiting before arrivals are shed with 429",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="most requests dispatched in one runner submission",
    )
    p_serve.add_argument(
        "--batch-wait-s",
        type=float,
        default=0.005,
        help="micro-batch accumulation window after the first arrival",
    )
    p_serve.add_argument(
        "--timeout-s",
        type=float,
        default=None,
        help="default per-job runner timeout for undeadlined batches",
    )
    p_serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="prune the cache to this size between batches",
    )
    p_serve.add_argument(
        "--cache-max-age-s",
        type=float,
        default=None,
        help="prune cache entries older than this between batches",
    )
    p_serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable request tracing, rolling windows and SLO tracking "
        "(every hook reverts to its single is-None check)",
    )
    p_serve.add_argument(
        "--telemetry-window-s",
        type=float,
        default=60.0,
        help="rolling-window width for /healthz and Prometheus summaries",
    )
    p_serve.add_argument(
        "--trace-capacity",
        type=int,
        default=256,
        help="finished request traces kept for /trace/<id> lookup",
    )
    p_serve.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="override the SLO roster; repeatable. SPECs: "
        "'latency:<ms>:<objective>', 'shed_rate:<objective>', "
        "'error_rate:<objective>', optionally '@win1,win2' seconds",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised worker processes behind the batcher "
        "(0 = in-process execution; >=1 adds crash supervision, "
        "fingerprint sharding and poison quarantine)",
    )
    p_serve.add_argument(
        "--poison-threshold",
        type=int,
        default=3,
        help="worker deaths on one fingerprint before it is quarantined",
    )
    p_serve.add_argument(
        "--no-brownout",
        action="store_true",
        help="disable the graded-degradation controller (never refuse "
        "for pressure, always linger the full batch window)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_drill = sub.add_parser(
        "drill",
        help="chaos-certify the serve tier: SIGKILL workers, corrupt the "
        "cache, flood into brownout, and assert every 2xx is "
        "bit-identical to a clean run",
    )
    p_drill.add_argument(
        "--workers", type=int, default=2, help="pool size under chaos"
    )
    p_drill.add_argument(
        "--kills", type=int, default=3, help="worker SIGKILLs to deliver"
    )
    p_drill.add_argument(
        "--corrupt",
        type=int,
        default=2,
        help="cache entries to overwrite with garbage mid-run",
    )
    p_drill.add_argument(
        "--duration",
        type=float,
        default=2.5,
        help="chaos-pass load duration (seconds)",
    )
    p_drill.add_argument(
        "--poison-threshold",
        type=int,
        default=2,
        help="deaths before quarantine in the poison pass",
    )
    p_drill.add_argument(
        "--bench-workers",
        default="0,2,4",
        help="comma-separated workers axis for the scaling bench "
        "(0 = in-process baseline)",
    )
    p_drill.add_argument("--seed", type=int, default=0)
    p_drill.add_argument(
        "--report",
        default="drill-report.json",
        metavar="FILE",
        help="write the full drill report here ('' disables)",
    )
    p_drill.add_argument(
        "--bench",
        default="BENCH_drill.json",
        metavar="FILE",
        help="write the workers-axis artifact (ledger stream serve-drill) "
        "here ('' disables)",
    )
    p_drill.set_defaults(func=_cmd_drill)

    p_load = sub.add_parser(
        "loadgen", help="closed-loop load generator against a running server"
    )
    p_load.add_argument(
        "--url", default="http://127.0.0.1:8321", help="server base URL"
    )
    p_load.add_argument(
        "--concurrency", type=int, default=4, help="closed-loop worker threads"
    )
    p_load.add_argument(
        "--duration", type=float, default=5.0, help="issuing window (seconds)"
    )
    p_load.add_argument(
        "--mix",
        default="whatif=2,availability=1,echo=1",
        help="weighted request mix, e.g. 'whatif=2,rank=1' "
        "(shapes: echo, whatif, availability, rank, sweep)",
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-request deadline forwarded in each body",
    )
    p_load.add_argument(
        "--timeout", type=float, default=60.0, help="client socket timeout"
    )
    p_load.add_argument(
        "--net-retries",
        type=int,
        default=2,
        help="per-request retry budget for connection refused/reset "
        "(a restarting worker pool seen from outside)",
    )
    p_load.add_argument(
        "--output",
        default="BENCH_serve.json",
        metavar="FILE",
        help="write the report here ('' disables)",
    )
    p_load.set_defaults(func=_cmd_loadgen)

    p_cache = sub.add_parser(
        "cache", help="show result-cache statistics and optionally prune it"
    )
    p_cache.add_argument("dir", help="cache directory (as given to --cache)")
    p_cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="prune oldest-first until the cache fits this many bytes",
    )
    p_cache.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        help="prune entries whose mtime is older than this many seconds",
    )
    p_cache.set_defaults(func=_cmd_cache)

    # Observability flags go on *every* subcommand (so they read naturally
    # after it: ``repro availability ... --trace out.json``).
    for p in sub.choices.values():
        group = p.add_argument_group("observability")
        group.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="write a Chrome/Perfetto trace_event JSON of this run",
        )
        group.add_argument(
            "--metrics",
            default=None,
            metavar="FILE",
            help="write a JSONL event log (spans + metrics) for `repro stats`",
        )
    return parser


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch to the subcommand, under an observability session when
    ``--trace``/``--metrics`` ask for one."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        return args.func(args)

    from repro import obs
    from repro.obs.export import write_chrome_trace, write_events_jsonl

    session = obs.activate()
    try:
        with session.tracer.span("cli", "cli", command=args.command) as span:
            code = args.func(args)
            span.set("exit_code", code)
    finally:
        obs.deactivate()
    if trace_path is not None:
        count = write_chrome_trace(trace_path, session.tracer)
        print(f"[obs] wrote {count} trace events to {trace_path}", file=sys.stderr)
    if metrics_path is not None:
        count = write_events_jsonl(
            metrics_path, session.tracer, session.metrics
        )
        print(f"[obs] wrote {count} event lines to {metrics_path}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
