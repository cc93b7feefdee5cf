"""Behavioural pins for the concurrency fixes the host analyzer drove.

Each test targets one shipped change: the merged pinned-fingerprint
critical section, the keep-first transpose build race, the Event-based
accept flag on the server, and the locked ``ShardChannel.healthy`` read.
The point is that the *fix* — not just the analyzer's silence — survives
future edits.
"""

import socket
import threading

import numpy as np
import pytest

from repro.core.engine import PatternEngine, fingerprint_matrix
from repro.serve import (STATUS_OK, STATUS_REJECTED, PatternServer,
                         ServeRequest)
from repro.sparse import random_csr


def make_request(rng: int = 0) -> ServeRequest:
    X = random_csr(60, 12, 0.2, rng=rng)
    gen = np.random.default_rng(rng)
    return ServeRequest(X, gen.standard_normal(X.n),
                        z=gen.standard_normal(X.n), beta=0.3)


class TestPinnedFingerprint:
    def test_pin_hit_is_memoized_and_counted(self):
        engine = PatternEngine()
        X = random_csr(40, 10, 0.3, rng=1)
        fp = engine.pin(X)
        assert engine.fingerprint(X) == fp
        assert engine.stats().pinned_fingerprint_hits == 1

    def test_rebound_array_falls_back_to_hashing(self):
        # rebinding X.values to a fresh writable array breaks the pin:
        # the memo must not serve a stale fingerprint
        engine = PatternEngine()
        X = random_csr(40, 10, 0.3, rng=1)
        engine.pin(X)
        X.values = X.values.copy()
        X.values[0] += 1.0
        got = engine.fingerprint(X)
        assert engine.stats().pinned_fingerprint_hits == 0
        assert got == fingerprint_matrix(X)
        assert got != engine.fingerprint(random_csr(40, 10, 0.3, rng=2))

    def test_concurrent_pinned_lookups_count_exactly(self):
        # the whole check-ref-count-pop sequence now sits in one critical
        # section, so N racing lookups record exactly N hits
        engine = PatternEngine()
        X = random_csr(40, 10, 0.3, rng=1)
        fp = engine.pin(X)
        n, workers = 25, 8
        barrier = threading.Barrier(workers)

        def spin():
            barrier.wait()
            for _ in range(n):
                assert engine.fingerprint(X) == fp

        threads = [threading.Thread(target=spin) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert engine.stats().pinned_fingerprint_hits == n * workers


class TestTransposeKeepFirst:
    def test_losing_builder_returns_winner_artifact(self):
        engine = PatternEngine()
        X = random_csr(50, 12, 0.3, rng=3)
        fp = fingerprint_matrix(X)
        XT1, _, warm = engine._transpose_for(X, fp)
        assert not warm
        bytes_after_first = engine._artifact_bytes
        # simulate the losing side of the build race: the artifact is
        # already cached when the second builder re-enters the lock
        XT2, res, warm = engine._transpose_for(X, fp)
        assert warm and res is None
        assert XT2 is XT1
        # keep-first: no double insert, no byte-accounting drift
        assert engine._artifact_bytes == bytes_after_first
        assert engine.stats().transposes_built == 1


class TestServerAcceptFlag:
    def test_submit_after_stop_is_rejected_not_raced(self):
        server = PatternServer()
        try:
            assert server.evaluate(make_request()).status == STATUS_OK
            server.stop()
            resp = server.submit(make_request()).result(timeout=5.0)
            assert resp.status == STATUS_REJECTED
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = PatternServer()
        server.stop()
        server.stop()
        resp = server.submit(make_request()).result(timeout=5.0)
        assert resp.status == STATUS_REJECTED


class TestChannelHealthyRead:
    @pytest.fixture
    def channel(self):
        from repro.cluster.channel import ShardChannel
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        accepted = []
        t = threading.Thread(target=lambda: accepted.append(
            listener.accept()[0]), daemon=True)
        t.start()
        ch = ShardChannel(0, port)
        t.join(5.0)
        try:
            yield ch
        finally:
            ch.close(join_timeout_s=2.0)
            for s in accepted:
                s.close()
            listener.close()

    def test_healthy_flips_exactly_once_under_racing_readers(self, channel):
        stop = threading.Event()
        flips = []

        def watch():
            last = channel.healthy
            while not stop.is_set():
                cur = channel.healthy       # locked read of _healthy
                if cur != last:
                    flips.append((last, cur))
                    last = cur

        readers = [threading.Thread(target=watch) for _ in range(4)]
        for t in readers:
            t.start()
        assert channel.healthy
        channel._fail("test")
        stop.set()
        for t in readers:
            t.join(5.0)
        assert not channel.healthy
        assert all(flip == (True, False) for flip in flips)

    def test_failed_channel_fires_callbacks_with_none(self, channel):
        got = []
        channel._fail("test")
        channel.send({"op": "ping"}, on_reply=got.append)
        assert got == [None]
