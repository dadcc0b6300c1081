"""The chaos drill's client path: loadgen's closed loop over fixed lists,
reference checks, no-retry tallies, and the drill's seeded corpora."""

import hashlib
import json
import random
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core.configurations import configuration_names
from repro.errors import ServeError
from repro.serve import EvalServer, ServeConfig
from repro.serve.analyses import evaluate_request
from repro.serve.drill import (
    DrillConfig,
    _chaos_corpus,
    _compiles,
    _drive,
    _request,
    run_drill,
)
from repro.serve.loadgen import (
    MAX_MISMATCHES,
    LoadgenConfig,
    flood_source,
    list_source,
    run_loadgen,
)
from repro.serve.protocol import canonical_json, parse_request
from repro.techniques.registry import technique_names
from repro.workloads.registry import workload_names


def _echoes(count, tag="n"):
    return [_request("echo", {"payload": {tag: i}}) for i in range(count)]


class _Recorder(BaseHTTPRequestHandler):
    """Answers every POST with a fixed 200 and records the body."""

    def do_POST(self):  # noqa: N802 - http.server's hook name
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.bodies.append(json.loads(body))
        reply = b'{"ok":true,"result":null}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def recorder():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Recorder)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.bodies = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestFixedList:
    def test_each_body_posted_exactly_once_across_workers(self, recorder):
        corpus = _echoes(25)
        report = run_loadgen(
            LoadgenConfig(_url(recorder), concurrency=4, duration_s=None),
            list_source(corpus),
        )
        posted = sorted(parse_request(b).fingerprint for b in recorder.bodies)
        assert posted == sorted(r.fingerprint for r in corpus)
        assert report.requests == report.ok == 25
        assert report.by_shape == {"echo": 25}

    def test_cycled_list_stops_at_its_stop_time(self, recorder):
        corpus = _echoes(3)
        report = run_loadgen(
            LoadgenConfig(_url(recorder), concurrency=2, duration_s=0.3),
            list_source(corpus, cycle=True),
        )
        assert report.requests > len(corpus)  # it cycled
        assert report.requests == len(recorder.bodies)
        assert 0.3 <= report.duration_s < 2.0

    def test_empty_list_rejected(self):
        with pytest.raises(ServeError, match="empty"):
            list_source([])


class TestReference:
    def test_wrong_reference_records_capped_mismatches(self):
        corpus = _echoes(MAX_MISMATCHES + 9)
        right = {
            r.fingerprint: canonical_json(evaluate_request(r)) for r in corpus
        }
        server = EvalServer(ServeConfig(port=0, queue_bound=64)).start()
        try:
            clean = _drive(
                server.base_url, list_source(corpus), 3, reference=right
            )
            wrong = _drive(
                server.base_url,
                list_source(corpus),
                3,
                reference={fp: '"wrong"' for fp in right},
            )
        finally:
            server.close(drain=True, timeout=10)
        assert clean["ok"] == len(corpus) and clean["mismatches"] == []
        assert wrong["ok"] == len(corpus)
        assert len(wrong["mismatches"]) == MAX_MISMATCHES
        first = wrong["mismatches"][0]
        assert first["analysis"] == "echo"
        assert first["fingerprint"] in right
        assert first["expected_bytes"] == len('"wrong"')


class TestNoRetries:
    def test_closed_port_is_an_error_and_not_retried(self):
        url = f"http://127.0.0.1:{_closed_port()}"
        phase = _drive(url, list_source(_echoes(3)), 2)
        assert phase["requests"] == 3
        assert phase["errors"] == 3 and phase["ok"] == 0
        assert phase["status_counts"] == {"0": 3}
        report = run_loadgen(
            LoadgenConfig(url, concurrency=1, duration_s=None,
                          net_retries=0),
            list_source(_echoes(3)),
        )
        assert report.retries == 0 and report.net_errors == 3

    def test_the_default_budget_does_retry(self):
        url = f"http://127.0.0.1:{_closed_port()}"
        report = run_loadgen(
            LoadgenConfig(url, concurrency=1, duration_s=None,
                          net_retries=2, retry_backoff_s=0.0),
            list_source(_echoes(2)),
        )
        assert report.retries == 4 and report.net_errors == 2


class TestFlood:
    def test_numbered_bodies_never_repeat_across_workers(self):
        source = flood_source(sleep_s=0.15)
        left, right = source(0), source(1)
        drawn = [next(w) for _ in range(5) for w in (left, right)]
        numbers = [r.params["payload"]["flood"] for r in drawn]
        assert numbers == list(range(1, 11))
        assert all(r.params["sleep_s"] == 0.15 for r in drawn)


def _whatif_probe(workload, configuration, technique):
    """The filter the drill used before: a full whatif evaluation."""
    try:
        evaluate_request(
            _request(
                "whatif",
                {
                    "workload": workload,
                    "configuration": configuration,
                    "technique": technique,
                },
            )
        )
    except Exception:  # noqa: BLE001 - any failure disqualified a cell
        return False
    return True


class TestCorpus:
    def test_plan_context_filter_equals_the_whatif_probe(self):
        cells = [
            (w, c, t)
            for w in workload_names()
            for c in configuration_names()
            for t in technique_names()
        ]
        accepted = [cell for cell in cells if _compiles(*cell)]
        assert accepted == [cell for cell in cells if _whatif_probe(*cell)]
        assert (len(cells), len(accepted)) == (576, 452)

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "25f22d5b07d97237656822e94aa4c33f863d4398fbbea1c2f60566c98f72e19a"),
            (1, "3707f87bbc5a7108ed0e33113ff9cb55a4a8c4e463dd0d00ad862664e9259f36"),
            (2, "403eae3a28f6aa7f415b22de43a74170edec012c23d46cefbd80040fefce7852"),
            (3, "797e2017c5a5c26d3e77acf882ceeff0b9a2c18bd9d5fbcb92c7731c779ac5bf"),
            (4, "882ff7579909bc06a9a0c07c74ed70376bd42cd4e3429e3793882711a3ac7cb6"),
        ],
    )
    def test_chaos_corpus_fingerprints_are_pinned(self, seed, digest):
        corpus = _chaos_corpus(random.Random(seed), 24)
        joined = "".join(request.fingerprint for request in corpus)
        assert hashlib.sha256(joined.encode()).hexdigest() == digest


class TestDrillConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"kills": -1},
            {"corrupt": -1},
            {"chaos_duration_s": 0.0},
            {"recovery_timeout_s": -1.0},
            {"concurrency": 0},
            {"bench_concurrency": 0},
            {"bench_requests": 0},
            {"bench_workers": ()},
            {"bench_workers": (0, -2)},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(ServeError, match="drill"):
            DrillConfig(**overrides)

    def test_workers_zero_fails_before_any_pass(self):
        with pytest.raises(ServeError, match="workers"):
            run_drill(
                DrillConfig(workers=0, kills=1, chaos_duration_s=0.3,
                            bench_workers=(0,))
            )

    def test_cli_exits_2_on_workers_zero(self, capsys):
        from repro.cli import main

        assert main(["drill", "--workers", "0", "--bench-workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
