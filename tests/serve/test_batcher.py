"""Batcher semantics: coalescing, batching, shedding, deadlines, drain."""

import threading
import time

import pytest

from repro.errors import DeadlineError, QueueFullError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import Batcher
from repro.serve.protocol import PROTOCOL_VERSION, parse_request


def echo_request(payload, sleep_s=0.0, deadline_s=None):
    body = {
        "v": PROTOCOL_VERSION,
        "analysis": "echo",
        "params": {"payload": payload, "sleep_s": sleep_s},
    }
    if deadline_s is not None:
        body["deadline_s"] = deadline_s
    return parse_request(body)


@pytest.fixture
def batcher():
    instance = Batcher(queue_bound=8, max_batch=8, max_wait_s=0.01)
    yield instance
    instance.close(drain=False, timeout=5)


class TestBasics:
    def test_single_request_resolves(self, batcher):
        batcher.start()
        outcome = batcher.submit(echo_request("hi")).result(timeout=10)
        assert outcome["result"] == {"echo": "hi"}
        assert outcome["meta"]["jobs"] == 1
        assert outcome["meta"]["coalesced_riders"] == 0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ServeError):
            Batcher(queue_bound=0)
        with pytest.raises(ServeError):
            Batcher(max_batch=0)
        with pytest.raises(ServeError):
            Batcher(max_wait_s=-1)


class TestCoalescing:
    def test_duplicates_share_one_future(self, batcher):
        # Not started: both submissions sit queued, so the second is
        # guaranteed to find the first in the pending map.
        first = batcher.submit(echo_request("dup"))
        second = batcher.submit(echo_request("dup"))
        assert first is second
        assert batcher.coalesced == 1
        batcher.start()
        assert first.result(timeout=10)["result"] == {"echo": "dup"}
        assert first.result(timeout=10)["meta"]["coalesced_riders"] == 1

    def test_coalesced_duplicates_do_not_consume_slots(self):
        tight = Batcher(queue_bound=1, max_batch=1, max_wait_s=0.0)
        try:
            tight.submit(echo_request("same"))
            tight.submit(echo_request("same"))  # rider, not a slot
            with pytest.raises(QueueFullError):
                tight.submit(echo_request("different"))
        finally:
            tight.close(drain=False, timeout=5)

    def test_different_payloads_not_coalesced(self, batcher):
        a = batcher.submit(echo_request("a"))
        b = batcher.submit(echo_request("b"))
        assert a is not b
        assert batcher.coalesced == 0


class TestBatching:
    def test_queued_requests_dispatch_as_one_batch(self, batcher):
        futures = [batcher.submit(echo_request(i)) for i in range(5)]
        batcher.start()
        outcomes = [f.result(timeout=10) for f in futures]
        assert [o["result"] for o in outcomes] == [{"echo": i} for i in range(5)]
        assert batcher.batches == 1
        assert batcher.jobs_run == 5
        assert all(o["meta"]["batch_size"] == 5 for o in outcomes)

    def test_max_batch_splits_dispatch(self):
        small = Batcher(queue_bound=16, max_batch=2, max_wait_s=0.0)
        try:
            futures = [small.submit(echo_request(i)) for i in range(6)]
            small.start()
            for future in futures:
                future.result(timeout=10)
            assert small.batches == 3
        finally:
            small.close(drain=False, timeout=5)


class _StubPool:
    """Records each submission; resolves nothing."""

    def __init__(self):
        self.submissions = []

    def shard_of(self, fingerprint):
        return 0

    def submit(self, items):
        self.submissions.append(list(items))


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


class TestLinger:
    def test_in_process_dispatch_does_not_linger(self):
        eager = Batcher(max_wait_s=30.0).start()
        try:
            future = eager.submit(echo_request("alone"))
            assert future.result(timeout=5)["result"] == {"echo": "alone"}
        finally:
            eager.close(drain=False, timeout=5)

    def test_arrivals_during_a_running_batch_form_the_next_batch(self):
        eager = Batcher(max_wait_s=30.0).start()
        try:
            slow = eager.submit(echo_request("slow", sleep_s=0.3))
            _wait_for(lambda: eager.batches == 1)
            riders = [eager.submit(echo_request(i)) for i in range(3)]
            outcomes = [f.result(timeout=5) for f in riders]
            assert slow.result(timeout=5)["meta"]["batch_size"] == 1
            assert all(o["meta"]["batch_size"] == 3 for o in outcomes)
            assert eager.batches == 2
        finally:
            eager.close(drain=False, timeout=5)

    def test_pool_mode_lingers_for_riders(self):
        pool = _StubPool()
        lingering = Batcher(max_wait_s=0.5, pool=pool).start()
        try:
            lingering.submit(echo_request("first"))
            time.sleep(0.02)
            lingering.submit(echo_request("second"))
            _wait_for(lambda: pool.submissions)
            assert [len(items) for items in pool.submissions] == [2]
        finally:
            lingering.close(drain=False, timeout=5)


class TestBackpressure:
    def test_overflow_sheds_with_queue_full(self):
        tight = Batcher(queue_bound=2, max_batch=2, max_wait_s=0.0)
        try:
            tight.submit(echo_request(0))
            tight.submit(echo_request(1))
            with pytest.raises(QueueFullError):
                tight.submit(echo_request(2))
            assert tight.sheds == 1
        finally:
            tight.close(drain=False, timeout=5)

    def test_shed_counter_in_metrics(self):
        metrics = MetricsRegistry()
        tight = Batcher(queue_bound=1, max_batch=1, max_wait_s=0.0,
                        metrics=metrics)
        try:
            tight.submit(echo_request(0))
            with pytest.raises(QueueFullError):
                tight.submit(echo_request(1))
        finally:
            tight.close(drain=False, timeout=5)
        snapshot = metrics.snapshot()
        assert snapshot["serve.shed"]["value"] == 1
        assert snapshot["serve.requests"]["value"] == 2


class TestDeadlines:
    def test_expired_while_queued_fails_with_deadline_error(self):
        paused = Batcher(queue_bound=8, max_batch=8, max_wait_s=0.0)
        try:
            future = paused.submit(echo_request("late", deadline_s=0.05))
            time.sleep(0.15)  # expire before the dispatcher ever runs
            paused.start()
            with pytest.raises(DeadlineError):
                future.result(timeout=10)
            assert paused.expired == 1
        finally:
            paused.close(drain=False, timeout=5)

    def test_live_deadline_still_completes(self, batcher):
        batcher.start()
        outcome = batcher.submit(
            echo_request("quick", deadline_s=30.0)
        ).result(timeout=10)
        assert outcome["result"] == {"echo": "quick"}


class TestFailureIsolation:
    def test_build_failure_fails_only_that_request(self, batcher, monkeypatch):
        from repro.serve import analyses

        real_build = analyses.build

        def flaky_build(request):
            if request.params.get("payload") == "poison":
                raise RuntimeError("boom")
            return real_build(request)

        monkeypatch.setattr(analyses, "build", flaky_build)
        bad = batcher.submit(echo_request("poison"))
        good = batcher.submit(echo_request("fine"))
        batcher.start()
        assert good.result(timeout=10)["result"] == {"echo": "fine"}
        with pytest.raises(RuntimeError, match="boom"):
            bad.result(timeout=10)

    def test_executor_failure_fails_and_counts_the_request(
        self, monkeypatch
    ):
        from repro.runner.executor import SerialExecutor

        def broken_run(self, jobs, strict=True):
            raise RuntimeError("executor down")

        monkeypatch.setattr(SerialExecutor, "run", broken_run)
        broken = Batcher(queue_bound=8, max_batch=8, max_wait_s=0.0)
        try:
            future = broken.submit(echo_request("doomed"))
            broken.start()
            with pytest.raises(RuntimeError, match="executor down"):
                future.result(timeout=10)
            stats = broken.stats()
            assert stats["failures"] == 1
            assert stats["analyses"]["echo"]["failures"] == 1
        finally:
            broken.close(drain=False, timeout=5)


class TestShutdown:
    def test_drain_completes_queued_work(self):
        batcher = Batcher(queue_bound=8, max_batch=8, max_wait_s=0.0)
        futures = [batcher.submit(echo_request(i)) for i in range(3)]
        batcher.start()
        batcher.close(drain=True, timeout=10)
        assert [f.result(timeout=0)["result"] for f in futures] == [
            {"echo": i} for i in range(3)
        ]

    def test_no_drain_fails_queued_work(self):
        batcher = Batcher(queue_bound=8, max_batch=8, max_wait_s=0.0)
        future = batcher.submit(echo_request("abandoned"))
        batcher.close(drain=False, timeout=10)
        with pytest.raises(ServeError):
            future.result(timeout=0)

    def test_submit_after_close_rejected(self):
        batcher = Batcher()
        batcher.close(drain=False, timeout=5)
        with pytest.raises(ServeError, match="shutting down"):
            batcher.submit(echo_request("too late"))


class TestConcurrency:
    def test_parallel_submitters_all_resolve(self, batcher):
        batcher.start()
        outcomes = {}
        lock = threading.Lock()

        def submitter(i):
            value = batcher.submit(echo_request(i)).result(timeout=10)
            with lock:
                outcomes[i] = value["result"]

        threads = [threading.Thread(target=submitter, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == {i: {"echo": i} for i in range(8)}
