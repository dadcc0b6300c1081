"""Served cache GC: one ticker-driven pass, the same in both modes."""

import time

import pytest

from repro.serve import EvalServer, ServeConfig, app, post_request
from repro.serve.protocol import PROTOCOL_VERSION

#: Generous ceiling for the prune to land; it takes one GC period plus
#: a ticker interval (well under a second) on an idle machine.
SETTLE_S = 5.0


def settled(server):
    """(entries on disk, files the server's GC has pruned so far)."""
    pruned = server.session.metrics.counter("serve.cache_pruned_files")
    return server.cache.stats().entries, pruned.value


def wait_until_pruned(server, files):
    deadline = time.monotonic() + SETTLE_S
    while time.monotonic() < deadline:
        entries, pruned = settled(server)
        if entries == 0 and pruned >= files:
            break
        time.sleep(0.02)
    return settled(server)


@pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "pool"])
def test_idle_server_prunes_cache_to_its_bound(monkeypatch, tmp_path, workers):
    monkeypatch.setattr(app, "CACHE_GC_PERIOD_S", 0.1)
    server = EvalServer(
        ServeConfig(
            port=0,
            workers=workers,
            brownout=False,
            brownout_interval_s=0.05,
            cache_dir=str(tmp_path),
            cache_max_bytes=1,
        )
    ).start()
    try:
        for i in range(4):
            status, body = post_request(
                server.base_url,
                {
                    "v": PROTOCOL_VERSION,
                    "analysis": "echo",
                    "params": {"payload": f"gc-{i}"},
                },
            )
            assert status == 200, body
        # Each request stored one entry and a 1-byte bound admits none,
        # so GC passes on the ticker must remove all four — including
        # the last one, written after the server went idle.
        entries, pruned = wait_until_pruned(server, 4)
        assert entries == 0
        assert pruned >= 4
    finally:
        server.close(drain=True, timeout=10)
