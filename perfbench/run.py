"""End-to-end benchmark of ``repro serve``'s ``/v1/eval`` endpoint.

One run, from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 30 --trace 0

launches a fresh ``repro serve`` (defaults, plus an empty ``--cache``
directory per launch), sends the workload's seeded closed-loop request
sequence over HTTP for ``--seconds``, checks every response (see
``gate.py``) and prints every metric by name with its unit.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` those are the end-to-end metrics of
``specs.END_TO_END``; with ``--trace 1`` the run is split into an
untraced and a traced half, and they are the per-layer metrics of
``specs.LAYERS``, read from spans the server records through
``launch.py``.  Run records and Chrome traces go to ``.perfbench_out/``.

Timings are reported at reference speed.  The host is a share of a
machine whose speed flips by up to 2x, for stretches from under a second
to minutes (see ``STEADINESS.md``), so the server is held to one CPU and, every ``CALIBRATE_EVERY_S`` while no
request is in flight, the benchmark times a fixed computation of its own
(``calib.reference``) on that CPU.  Each request's latency is scaled by
``calib.REFERENCE_MS`` over the mean reference time measured just before and
just after it, each stretch of the window between two pauses likewise
for the rates, and each start-up by the reference time measured just
before it.  The pauses are not part of the window's seconds.  Wall-clock
values are printed and recorded beside the scaled ones.

Other modes::

    python3 perfbench/run.py --steadiness --runs 10 [--sets 2]   # see steady.py
    python3 -m pytest perfbench -q                               # harness self-tests
"""

from __future__ import annotations

import argparse
import bisect
import http.client
import importlib.metadata
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import calib
import gate
import layers
import specs
import traffic

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Launches per run whose start-up is timed; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: ``req_tail_ms`` is p90 where at least this many samples lie beyond
#: it (serve-mix), else the median (the heavy workloads send too few).
MIN_BEYOND = 10
START_TIMEOUT_S = 90.0
REQUEST_TIMEOUT_S = 120.0
#: The server runs on one CPU and the client on another (the same one on
#: a one-CPU host); the reference computation is timed on the server's.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = _CPUS[-1], _CPUS[0]
#: How often the callers pause so the host's speed can be timed, and how
#: many reference runs each pause times.
CALIBRATE_EVERY_S = 0.5
CALIBRATE_CALLS = 3
#: Untimed closed-loop seconds before each timed window.
WARMUP_S = 3.0


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q`` percentile and the count of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, (round(q * 1000) * len(ordered) + 999) // 1000)  # ceil(q n)
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """p90 if ``MIN_BEYOND`` samples lie beyond it, else the median; with
    the label of the one used."""
    value, beyond = percentile(values, 0.90)
    if beyond >= MIN_BEYOND:
        return value, "p90"
    return statistics.median(values), "p50"


# -- server --------------------------------------------------------------------


def _post(port: int, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
        response = conn.getresponse()
        return response.status, response.read()
    except OSError as exc:
        return 0, f"{type(exc).__name__}: {exc}".encode()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process with a fresh cache directory."""

    def __init__(self, workload: str, scratch: Path, spans: Optional[Path] = None):
        self.cache = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        prefix = (
            [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(spans)]
            if spans is not None
            else [sys.executable, "-m", "repro"]
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.log = open(scratch / "server.log", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            prefix + ["serve", "--port", "0", "--cache", str(self.cache)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {SERVER_CPU}),
        )
        try:
            self.port = self._await_listening()
            self._await_healthy()
            for body in traffic.warmups(workload):
                status, reply = _post(self.port, "/v1/eval", body)
                if status != 200:
                    raise RuntimeError(f"warm-up {body!r} -> {status} {reply[:200]!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if sel.select(timeout=0.1):
                    line = self.proc.stdout.readline()
                    if not line and self.proc.poll() is not None:
                        break
                    if "listening on http://" in line:
                        return int(line.split("listening on http://")[1].split()[0].split(":")[1])
                elif self.proc.poll() is not None:
                    break
        raise RuntimeError(f"server did not start (exit {self.proc.poll()}); see server.log")

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if _post(self.port, "/healthz")[0] == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def stats(self) -> Dict[str, float]:
        status, body = _post(self.port, "/stats")
        return json.loads(body) if status == 200 else {}

    def proc_facts(self) -> Dict[str, float]:
        """Peak RSS (VmHWM) and user+sys CPU seconds of the server so far."""
        facts = {"peak_rss_mb": 0.0, "cpu_s": 0.0}
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    facts["peak_rss_mb"] = int(line.split()[1]) / 1024.0
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        facts["cpu_s"] = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        return facts

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache, ignore_errors=True)


# -- closed-loop load ----------------------------------------------------------


@dataclass
class Phase:
    """What one timed window sent and got back."""

    served: List[gate.Served] = field(default_factory=list)
    latency_ms: List[float] = field(default_factory=list)
    #: When each request was sent, parallel to ``served``.
    sent_ns: List[int] = field(default_factory=list)
    #: ``(start_ns, end_ns, reference ms samples)`` of each pause, in
    #: order; one comes first and one last, so every request lies between
    #: two of them.
    pauses: List[Tuple[int, int, List[float]]] = field(default_factory=list)
    t0_ns: int = 0
    t1_ns: int = 0
    client_cpu_s: float = 0.0
    #: Share of the host's CPU time stolen by the hypervisor in the window.
    steal_frac: float = 0.0

    @property
    def wall_s(self) -> float:
        """Seconds of the window when requests could be in flight."""
        paused = sum(end - start for start, end, _ in self.pauses)
        return (self.t1_ns - self.t0_ns - paused) / 1e9

    @property
    def scaled_s(self) -> float:
        """``wall_s`` at reference speed: each stretch between two pauses
        scaled by the reference times of those two pauses."""
        total = 0.0
        for (_, start, before), (end, _, after) in zip(self.pauses, self.pauses[1:]):
            total += (end - start) / 1e9 * calib.scale(before + after)
        return total

    @property
    def scaled_latency_ms(self) -> List[float]:
        """Each latency at reference speed, scaled by the reference times
        of the pauses just before and just after the request."""
        starts = [start for start, _, _ in self.pauses]
        scaled = []
        for sent, latency in zip(self.sent_ns, self.latency_ms):
            after = bisect.bisect_left(starts, sent + int(latency * 1e6))
            samples = self.pauses[after - 1][2] + self.pauses[after][2]
            scaled.append(latency * calib.scale(samples))
        return scaled

    @property
    def reference_ms(self) -> float:
        return statistics.median(s for _, _, samples in self.pauses for s in samples)

    def _ok(self, values: Sequence) -> list:
        return [v for v, s in zip(values, self.served) if 200 <= s[1] < 300]

    @property
    def ok(self) -> List[gate.Served]:
        return self._ok(self.served)

    @property
    def ok_latency_ms(self) -> List[float]:
        return self._ok(self.latency_ms)

    @property
    def ok_scaled_latency_ms(self) -> List[float]:
        return self._ok(self.scaled_latency_ms)


def warm_up(server: Server, workload: str, seed: int) -> None:
    """``WARMUP_S`` of untimed closed loop on a sequence of its own (other
    Monte-Carlo seeds, so no cache entry the window reads), so the window
    starts with the server's code paths and memory warm."""
    until = time.monotonic_ns() + int(WARMUP_S * 1e9)

    def client(index: int) -> None:
        sequence = traffic.sequence(workload, f"{seed}/warm-up", index)
        while time.monotonic_ns() < until:
            _post(server.port, "/v1/eval", next(sequence))

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(traffic.CLIENTS[workload])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def drive(server: Server, workload: str, seed: int, seconds: float) -> Phase:
    """Closed-loop clients, each walking its own seeded sequence, paused
    every ``CALIBRATE_EVERY_S`` while the host's speed is timed."""
    phase = Phase()
    cond = threading.Condition()
    paused = False
    in_flight = 0

    def client(index: int) -> None:
        nonlocal in_flight
        sequence = traffic.sequence(workload, seed, index)
        while True:
            with cond:
                cond.wait_for(lambda: not paused)
                if time.monotonic_ns() >= deadline:
                    return
                in_flight += 1
            body = next(sequence)
            sent = time.monotonic_ns()
            started = time.perf_counter()
            status, reply = _post(server.port, "/v1/eval", body)
            latency = (time.perf_counter() - started) * 1000.0
            with cond:
                in_flight -= 1
                cond.notify_all()
                phase.served.append((body, status, reply))
                phase.latency_ms.append(latency)
                phase.sent_ns.append(sent)

    def calibrate() -> None:
        start = time.monotonic_ns()
        samples = calib.time_on(SERVER_CPU, CALIBRATE_CALLS)
        phase.pauses.append((start, time.monotonic_ns(), samples))

    def calibrator() -> None:
        nonlocal paused
        while True:
            left = (deadline - time.monotonic_ns()) / 1e9
            time.sleep(max(0.0, min(CALIBRATE_EVERY_S, left)))
            with cond:
                paused = True
                cond.wait_for(lambda: in_flight == 0)
            if time.monotonic_ns() >= deadline:
                return  # the callers stop as soon as they are let go
            calibrate()
            with cond:
                paused = False
                cond.notify_all()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(traffic.CLIENTS[workload])
    ]
    os.sched_setaffinity(0, {CLIENT_CPU})
    warm_up(server, workload, seed)
    # Write back what set-up and earlier runs left dirty (the previous
    # run's cache removal above all), so the window starts from a clean
    # page cache instead of paying for it.
    os.sync()
    cpu0 = time.process_time()
    host0 = _host_cpu()
    phase.t0_ns = time.monotonic_ns()
    calibrate()
    deadline = time.monotonic_ns() + int(seconds * 1e9)
    for thread in threads:
        thread.start()
    pacer = threading.Thread(target=calibrator, daemon=True)
    pacer.start()
    pacer.join()
    with cond:
        paused = False
        cond.notify_all()
    for thread in threads:
        thread.join()
    calibrate()
    phase.t1_ns = time.monotonic_ns()
    phase.client_cpu_s = time.process_time() - cpu0
    host = [b - a for a, b in zip(host0, _host_cpu())]
    phase.steal_frac = host[7] / sum(host) if sum(host) else 0.0
    return phase


def _host_cpu() -> List[int]:
    """The host-wide ``cpu`` line of ``/proc/stat`` (ticks by state)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


# -- runs ----------------------------------------------------------------------


def end_to_end(phase: Phase, setups: Sequence[float], rss_mb: float,
               scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics, at reference speed unless ``scaled`` is
    false (then ``setups`` are wall-clock too)."""
    ok_latency = phase.ok_scaled_latency_ms if scaled else phase.ok_latency_ms
    seconds = phase.scaled_s if scaled else phase.wall_s
    site_years = sum(traffic.site_years(s[0]) for s in phase.ok)
    return {
        "req_p50_ms": statistics.median(ok_latency),
        "req_tail_ms": tail(ok_latency)[0],
        "ok_rps": len(ok_latency) / seconds,
        "site_years_per_s": site_years / seconds,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


def run_untraced(workload: str, seed: int, seconds: float, scratch: Path):
    setups, wall_setups = [], []
    server = None
    try:
        for _ in range(SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            factor = calib.scale(calib.time_on(SERVER_CPU, CALIBRATE_CALLS))
            server = Server(workload, scratch)
            wall_setups.append(server.setup_s)
            setups.append(server.setup_s * factor)
        phase = drive(server, workload, seed, seconds)
        rss = server.proc_facts()["peak_rss_mb"]
    finally:
        if server is not None:
            server.stop()
    notes = {
        "tail_percentile": tail(phase.ok_latency_ms)[1],
        "setup_s_each": setups,
        "wall_clock": end_to_end(phase, wall_setups, rss, scaled=False),
    }
    return [phase], end_to_end(phase, setups, rss), notes


def run_traced(workload: str, seed: int, seconds: float, scratch: Path):
    half = seconds / 2.0
    server = Server(workload, scratch)
    try:
        cpu0 = server.proc_facts()["cpu_s"]
        plain = drive(server, workload, seed, half)
        cpu_s = server.proc_facts()["cpu_s"] - cpu0
    finally:
        server.stop()
    spans_path = scratch / "spans.json"
    server = Server(workload, scratch, spans=spans_path)
    try:
        before = server.stats()
        traced = drive(server, workload, seed, half)
        after = server.stats()
    finally:
        server.stop()
    with open(spans_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    spans = layers.in_window(dump["spans"], traced.t0_ns, traced.t1_ns)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in ("requests", "coalesced", "batches")}
    metrics = layers.layer_metrics(spans, traced.ok_latency_ms, delta)
    metrics["process.cpu_s_per_req"] = cpu_s / max(len(plain.ok), 1)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.ok_scaled_latency_ms)
        / statistics.median(plain.ok_scaled_latency_ms)
        - 1.0
    )
    trace_path = OUT / f"{workload}-seed{seed}.trace.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(layers.chrome_trace(spans, server.proc.pid, traced.t0_ns), fh,
                  separators=(",", ":"))
    check = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", str(trace_path)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True,
    )
    notes = {
        "hooks": dump["hooks"],
        "layers": layers.layer_status(dump["hooks"]),
        "spans_in_window": len(spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "trace_valid": check.returncode == 0,
        "trace_validate": (check.stdout or check.stderr).strip(),
    }
    return [plain, traced], metrics, notes


def host_facts() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "none"
    except OSError:
        commit = "none"
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    # Compile bytecode untimed: users pay it once per install, not per start.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT) as tmp:
        runner = run_traced if trace else run_untraced
        phases, metrics, notes = runner(workload, seed, seconds, Path(tmp))
    served = [s for p in phases for s in p.served]
    problems = gate.gate(served, seed)
    attempted = len(served)
    failed = min(attempted, len(problems))
    declared = specs.LAYERS if trace else specs.END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_facts(),
        "requests": attempted,
        "client_cpu_s": sum(p.client_cpu_s for p in phases),
        "steal_frac": [p.steal_frac for p in phases],
        # Median reference time per phase: the host's speed in the window.
        "reference_ms": [p.reference_ms for p in phases],
        "cpus": {"server": SERVER_CPU, "client": CLIENT_CPU},
        "error_frac": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        # Per phase, each request's [analysis, HTTP status, latency ms,
        # latency ms at reference speed, ns from window start to send].
        "samples": [
            [[json.loads(body)["analysis"], status, round(lat, 3), round(scaled, 3),
              sent - p.t0_ns]
             for (body, status, _), lat, scaled, sent
             in zip(p.served, p.latency_ms, p.scaled_latency_ms, p.sent_ns)]
            for p in phases
        ],
        "pauses": [[[s, e, samples] for s, e, samples in p.pauses] for p in phases],
        "notes": notes,
        "metrics": metrics,
    }
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("host " + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    print(
        f"requests attempted={attempted} failed={failed} "
        f"client_cpu_s={record['client_cpu_s']:.3f} "
        f"host_steal_frac={max(record['steal_frac']):.3f} "
        f"reference_ms={'/'.join(f'{r:.2f}' for r in record['reference_ms'])} "
        f"(at reference speed: {calib.REFERENCE_MS} ms)"
    )
    layer_state = notes.get("layers", {})
    for m in declared:
        state = layer_state.get(m.name.split(".", 1)[0], "ok")
        moves = f"  -> {m.moves} @ {m.on}" if trace else ""
        print(f"{m.name:34s} {metrics[m.name]:14.6g} {m.unit:6s}{moves}"
              + ("" if state == "ok" else f"  [{state}]"))
    print(f"{'error_frac':34s} {record['error_frac']:14.6g} frac")
    if "wall_clock" in notes:
        print("wall clock, unscaled: " + " ".join(
            f"{k}={v:.6g}" for k, v in notes["wall_clock"].items()))
    print("left out, the program fails on them: availability on "
          + ", ".join("/".join(pair) for pair in sorted(traffic.KNOWN_FAILING)))
    for key in ("tail_percentile", "trace_file", "trace_validate"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    for problem in problems[:20]:
        print(f"gate: {problem}")
    correct = not problems and notes.get("trace_valid", True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared
        },
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=specs.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.steadiness:
        import steady

        return steady.main(specs.WORKLOADS, args.runs, args.sets,
                           args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # SIGTERM unwinds like ^C, so every launched server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
