"""Each matrix is content-hashed once: pin on upload, look up thereafter.

The serving path keys batches and plans by a matrix's content fingerprint.
These tests count full-content hashes (``repro.core.engine.
fingerprint_matrix``) on every path that must look the fingerprint up in
the engine's pin memo instead of recomputing it:

* a cluster worker pins each upload (the single hash) and verifies it
  against the announced fingerprint; warm evals then hash nothing, and a
  mismatching upload gets a typed ``bad-fingerprint`` reply on a live link;
* worker LRU eviction unpins without re-hashing;
* a warm DML expression over an uploaded matrix hashes nothing;
* the memo is trusted only while the pin is intact: an *unpinned* matrix
  mutated in place gets a new batch key, and a rebound array on a pinned
  matrix falls back to hashing.

Outputs stay bit-identical to uncached ``repro.core.api.evaluate``.
"""

import socket
import threading

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.cluster import (ClusterConfig, ClusterRequest, ShardRouter,
                           WorkerConfig)
from repro.cluster.protocol import (CODE_BAD_FINGERPRINT,
                                    CODE_UNKNOWN_FINGERPRINT, OP_EVAL,
                                    OP_OK, OP_PING, OP_PONG, OP_UPLOAD,
                                    recv_msg, send_msg)
from repro.cluster.worker import WorkerHost
from repro.core.api import evaluate as evaluate_uncached
from repro.core.engine import PatternEngine, fingerprint_matrix
from repro.ml.runtime import MLRuntime
from repro.serve import PatternServer, ServeRequest, ServerConfig
from repro.sparse import CsrMatrix, random_csr


@pytest.fixture
def hashes(monkeypatch):
    """Count full-content hashes made through the engine module."""
    calls = []

    def counting(X):
        calls.append(X)
        return fingerprint_matrix(X)

    monkeypatch.setattr(engine_mod, "fingerprint_matrix", counting)
    return calls


class WorkerLink:
    """A ``WorkerHost`` served over a ``socketpair`` on a handler thread."""

    def __init__(self, **config):
        self.host = WorkerHost(WorkerConfig(batch_linger_ms=0.0, **config))
        self.sock, theirs = socket.socketpair()
        self.thread = threading.Thread(
            target=self.host.handle_connection, args=(theirs,), daemon=True)
        self.thread.start()
        self.rid = 0

    def call(self, **msg) -> dict:
        self.rid += 1
        send_msg(self.sock, dict(msg, rid=self.rid))
        reply = recv_msg(self.sock)
        assert reply["rid"] == self.rid
        return reply

    def close(self) -> None:
        self.sock.close()
        self.thread.join(timeout=10)
        self.host.server.stop()


@pytest.fixture
def link():
    wl = WorkerLink()
    yield wl
    wl.close()


# ------------------------------------------------------- worker pins uploads
def test_warm_worker_evals_never_hash(link, hashes):
    X = random_csr(300, 40, 0.1, rng=1)
    fp = fingerprint_matrix(X)
    assert link.call(op=OP_UPLOAD, fingerprint=fp, matrix=X)["op"] == OP_OK
    assert len(hashes) == 1                # the pin is the single hash
    rng = np.random.default_rng(2)
    ys = [rng.normal(size=X.n) for _ in range(6)]
    # first eval plans/profiles/compiles; warm evals follow
    link.call(op=OP_EVAL, fingerprint=fp, y=ys[0], strategy="fused")
    hits0 = link.host.engine.stats().pinned_fingerprint_hits
    del hashes[:]
    for y in ys[1:]:
        reply = link.call(op=OP_EVAL, fingerprint=fp, y=y, z=y, beta=0.5,
                          strategy="fused")
        assert reply["status"] == "ok", reply
        assert reply["fingerprint"] == fp
        ref = evaluate_uncached(X, y, z=y, beta=0.5, strategy="fused")
        assert np.array_equal(reply["result"].output, ref.output)
        assert reply["result"].time_ms == ref.time_ms
    assert hashes == []
    n = len(ys) - 1
    assert link.host.engine.stats().pinned_fingerprint_hits - hits0 >= n


def test_reupload_keeps_pinned_object(link, hashes):
    X = random_csr(120, 20, 0.1, rng=3)
    fp = fingerprint_matrix(X)
    link.host.cache_matrix(fp, X)
    again = CsrMatrix(X.shape, X.values.copy(), X.col_idx.copy(),
                      X.row_off.copy())
    link.host.cache_matrix(fp, again)
    assert len(hashes) == 1                # the second upload is not hashed
    assert link.host.lookup_matrix(fp) is X
    assert again.values.flags.writeable    # and leaves no orphaned pin
    assert list(link.host.engine._pinned) == [id(X)]


def test_bad_fingerprint_upload_is_typed_and_link_survives(link):
    X = random_csr(120, 20, 0.1, rng=4)
    wrong = fingerprint_matrix(random_csr(120, 20, 0.1, rng=5))
    reply = link.call(op=OP_UPLOAD, fingerprint=wrong, matrix=X)
    assert (reply["status"], reply["code"]) == ("error",
                                                CODE_BAD_FINGERPRINT)
    assert link.host.cached_matrices == 0
    assert X.values.flags.writeable        # refused uploads stay unpinned
    assert not link.host.engine._pinned
    # a payload that cannot be hashed at all gets the same typed reply
    reply = link.call(op=OP_UPLOAD, fingerprint=wrong, matrix={"no": 1})
    assert reply["code"] == CODE_BAD_FINGERPRINT
    # the handler thread is alive: the link still answers
    assert link.call(op=OP_PING)["op"] == OP_PONG
    reply = link.call(op=OP_EVAL, fingerprint=wrong, y=np.ones(X.n))
    assert reply["code"] == CODE_UNKNOWN_FINGERPRINT


def test_lru_eviction_unpins_without_hashing(hashes):
    host = WorkerHost(WorkerConfig(max_matrices=1))
    try:
        A = random_csr(200, 30, 0.1, rng=6)
        B = random_csr(200, 30, 0.1, rng=7)
        fp_a, fp_b = fingerprint_matrix(A), fingerprint_matrix(B)
        host.cache_matrix(fp_a, A)
        assert host.server.evaluate(
            ServeRequest(A, np.ones(A.n), strategy="fused")).ok
        assert not A.values.flags.writeable
        del hashes[:]
        host.cache_matrix(fp_b, B)         # evicts A
        assert len(hashes) == 1            # B's pin; A's eviction is free
        assert host.lookup_matrix(fp_a) is None
        assert all(a.flags.writeable for a in (A.values, A.col_idx,
                                               A.row_off))
        assert id(A) not in host.engine._pinned
        assert list(host.engine._pinned) == [id(B)]
        # A's derived state went with it
        snap = host.engine.snapshot()
        assert snap.invalidations > 0
    finally:
        host.server.stop()


# ------------------------------------------------ the memo is pin-gated only
def test_rebound_array_on_pinned_matrix_rehashes(hashes):
    engine = PatternEngine()
    X = random_csr(80, 16, 0.2, rng=8)
    fp = engine.pin(X)
    del hashes[:]
    assert engine.fingerprint(X) == fp and hashes == []
    old_cols = X.col_idx
    X.values = X.values.copy()
    X.values[0] += 1.0
    got = engine.fingerprint(X)
    assert len(hashes) == 1
    assert got != fp and got == fingerprint_matrix(X)
    # the broken pin is dropped and its surviving arrays thawed
    assert not engine._pinned
    assert old_cols.flags.writeable


def test_unpinned_in_place_mutation_gets_new_batch_key():
    X = random_csr(150, 24, 0.1, rng=9)
    y = np.random.default_rng(10).normal(size=X.n)
    with PatternServer(config=ServerConfig(batch_linger_ms=0.0)) as server:
        first = server.evaluate(ServeRequest(X, y, strategy="fused"))
        X.values *= 2.0                    # unpinned: mutation is legal
        second = server.evaluate(ServeRequest(X, y, strategy="fused"))
    assert first.ok and second.ok
    assert first.fingerprint != second.fingerprint
    assert second.fingerprint == fingerprint_matrix(X)
    ref = evaluate_uncached(X, y, strategy="fused")
    assert np.array_equal(second.result.output, ref.output)
    assert second.result.time_ms == ref.time_ms


# ------------------------------------------------------ DML over a pinned X
@pytest.mark.parametrize("fuse", ["auto", "pattern", "off"])
def test_warm_run_expression_never_hashes(fuse, hashes):
    X = random_csr(400, 32, 0.05, rng=11)
    rng = np.random.default_rng(12)
    rt = MLRuntime("gpu-fused", fuse=fuse)
    rt.upload(X)
    expr = "t(X) %*% (X %*% p) + 0.001 * p"
    rt.run_expression(expr, {"X": X, "p": rng.normal(size=X.n)})
    del hashes[:]
    p = rng.normal(size=X.n)
    got = rt.run_expression(expr, {"X": X, "p": p})
    assert hashes == []
    ref = MLRuntime("gpu-fused", fuse="off").run_expression(
        expr, {"X": X, "p": p})
    assert np.array_equal(got, ref)


# ------------------------------------------------- real worker processes
@pytest.mark.cluster
def test_cluster_warm_requests_hit_the_pin_memo():
    X = random_csr(150, 24, 0.08, rng=13)
    router = ShardRouter(ClusterConfig(
        shards=1, heartbeat_interval_s=0.1,
        worker=WorkerConfig(max_batch=8, batch_linger_ms=0.5)))
    try:
        fp = router.register(X)
        rng = np.random.default_rng(14)
        n = 8
        for _ in range(n):
            y = rng.normal(size=X.n)
            resp = router.evaluate(ClusterRequest(fp, y, strategy="fused"),
                                   timeout=60)
            assert resp.ok, resp
            ref = evaluate_uncached(X, y, strategy="fused")
            assert np.array_equal(resp.result.output, ref.output)
        (shard,) = router.metrics_snapshot()["shards"].values()
        # every request is looked up twice (batch key + engine), never hashed
        assert shard["metrics"]["engine"]["pinned_fingerprint_hits"] >= 2 * n
    finally:
        router.stop()
