"""The call ladder: the same warm (matrix, vector) pairs, level by level.

Levels, from the numeric floor up:

* ``kernels`` — ``engine.compiled_for_pinned(X).fused(y)``;
* ``engine``  — ``PatternEngine.evaluate`` on the matrix as a server holds
  it (not pinned by the benchmark);
* ``serve``   — in-process ``PatternServer.evaluate`` with the workload's
  ``WorkerConfig.server_config()``;
* ``router``  — in-process 1-shard ``ShardRouter.evaluate``;
* ``client``  — ``SocketClusterClient.evaluate`` through that router's
  front door.

Pairs go through each level serially; a level's ``self_ms`` is its median
minus the median of the level below.  The wire layer is measured on its
own: frame sizes of the messages the cluster sends, and a
``send_msg``/``recv_msg`` round trip over a socketpair.
"""

from __future__ import annotations

import pickle
import socket
import time

from common import median

LEVELS = ("kernels", "engine", "serve", "router", "client")
_TX_BYTES = 128                    # bytes per simulated memory transaction


class _Timer:
    """Times calls into one level and records a span around each."""

    def __init__(self, rec):
        self.rec = rec

    def __call__(self, name: str, fn, reps: int) -> list[float]:
        out = []
        for _ in range(reps):
            with self.rec.around(f"ladder.{name}", name):
                t0 = time.perf_counter()
                fn()
                out.append((time.perf_counter() - t0) * 1e3)
        return out


def run_ladder(classes: dict[str, list[tuple]], worker: dict, reps: int,
               rec) -> dict:
    """Per-class ladder figures.

    ``classes`` maps a class name to its ``(X, y)`` pairs (the first pair
    of each matrix warms it).  Returns the per-class figures under
    ``"classes"``, plus the router's counters and the responses of the
    serve and router levels (``"served"``, ``"routed"``).
    """
    from repro.cluster import (ClusterConfig, ClusterRequest, ShardRouter,
                               SocketClusterClient, WorkerConfig)
    from repro.cluster.protocol import OP_EVAL, OP_UPLOAD, recv_msg, send_msg
    from repro.core.engine import PatternEngine, fingerprint_matrix
    from repro.serve import PatternServer, ServeRequest

    wcfg = WorkerConfig(**worker)

    def engine():
        return PatternEngine(max_plans=wcfg.max_plans,
                             max_artifact_bytes=wcfg.max_artifact_bytes)

    def matrices(pairs):
        seen = {}
        for X, y in pairs:
            seen.setdefault(id(X), (X, y))
        return list(seen.values())

    timed = _Timer(rec)
    calls: dict[str, dict[str, list[float]]] = {c: {} for c in classes}
    out: dict[str, dict[str, float]] = {c: {} for c in classes}

    # kernels: the compiled bundle of a pinned matrix, called directly
    floor = engine()
    for cls, pairs in classes.items():
        results = []
        for X, y in matrices(pairs):
            floor.pin(X)
            floor.evaluate(X, y)                          # builds the bundle
        for X, y in pairs:
            res = floor.evaluate(X, y)
            results.append(res)
            bundle = floor.compiled_for_pinned(X)
            if bundle is None:
                raise RuntimeError("no compiled bundle for a pinned matrix")
            calls[cls].setdefault("kernels", []).extend(
                timed("kernels", lambda: bundle.fused(y), reps))
        c = [r.counters for r in results]
        out[cls]["kernels.model_ms"] = median([r.time_ms for r in results])
        out[cls]["kernels.gld_transactions"] = median(
            [x.global_load_transactions for x in c])
        out[cls]["kernels.bytes_moved"] = median(
            [(x.global_load_transactions + x.global_store_transactions)
             * _TX_BYTES for x in c])

    # engine: unpinned, as a server holds it; first call per matrix is cold
    eng = engine()
    for cls, pairs in classes.items():
        cold = []
        for X, y in matrices(pairs):
            cold.extend(timed("engine", lambda: eng.evaluate(X, y), 1))
        out[cls]["engine.cold_ms"] = median(cold)
        out[cls]["engine.fingerprint_ms"] = median(
            [ms for X, _ in matrices(pairs)
             for ms in timed("engine", lambda: fingerprint_matrix(X), reps)])
        calls[cls]["engine"] = [ms for X, y in pairs for ms in
                                timed("engine", lambda: eng.evaluate(X, y),
                                      reps)]

    # serve: in-process server with the workload's shard configuration
    server = PatternServer(engine(), wcfg.server_config())
    served: list = []
    try:
        for cls, pairs in classes.items():
            for X, y in matrices(pairs):
                server.evaluate(ServeRequest(X, y))
            calls[cls]["serve"] = [
                ms for X, y in pairs for ms in
                timed("serve", lambda: served.append(
                    server.evaluate(ServeRequest(X, y))), reps)]
    finally:
        server.stop()

    # router, then client through the router's own front door
    router = ShardRouter(ClusterConfig(shards=1, worker=wcfg))
    client = None
    try:
        fps, routed = {}, []
        for cls, pairs in classes.items():
            for X, y in matrices(pairs):
                fps[id(X)] = router.register(X)
                router.evaluate(ClusterRequest(fps[id(X)], y), timeout=120)
            calls[cls]["router"] = [
                ms for X, y in pairs for ms in timed(
                    "router",
                    lambda: routed.append(router.evaluate(
                        ClusterRequest(fps[id(X)], y), timeout=120)), reps)]
        client = SocketClusterClient(port=router.listen())
        for cls, pairs in classes.items():
            out[cls]["client.register_ms"] = median(
                [ms for X, _ in matrices(pairs)
                 for ms in timed("client", lambda: client.register(X), 1)])
            calls[cls]["client"] = [
                ms for X, y in pairs for ms in timed(
                    "client",
                    lambda: client.evaluate(ClusterRequest(fps[id(X)], y),
                                            timeout=120), reps)]
        router_counters = router.metrics_snapshot()["counters"]
    finally:
        if client is not None:
            client.close()
        router.stop()

    # wire: frame sizes and a socketpair round trip of one eval + result
    a, b = socket.socketpair()
    try:
        for cls, pairs in classes.items():
            X, y = pairs[0]
            fp = fps[id(X)]
            res = floor.evaluate(X, y)
            eval_msg = dict(ClusterRequest(fp, y).to_wire(), op=OP_EVAL,
                            rid=1)
            result_msg = {"op": "result", "rid": 1, "status": "ok",
                          "result": res, "reason": "", "fingerprint": fp,
                          "wait_ms": 0.0, "service_ms": 0.0,
                          "batch_size": 1, "cached": True, "tier": ""}
            upload_msg = {"op": OP_UPLOAD, "fingerprint": fp, "matrix": X}

            def size(msg) -> float:
                return float(len(pickle.dumps(
                    msg, protocol=pickle.HIGHEST_PROTOCOL)) + 4)

            def roundtrip() -> None:
                send_msg(a, eval_msg)
                recv_msg(b)
                send_msg(b, result_msg)
                recv_msg(a)

            out[cls]["wire.eval_bytes"] = size(eval_msg)
            out[cls]["wire.result_bytes"] = size(result_msg)
            out[cls]["wire.upload_bytes"] = size(upload_msg)
            out[cls]["wire.roundtrip_ms"] = median(
                timed("wire", roundtrip, reps * max(1, len(pairs))))
    finally:
        a.close()
        b.close()

    for cls in classes:
        med = {lv: median(calls[cls][lv]) for lv in LEVELS}
        out[cls]["kernels.call_ms"] = med["kernels"]
        for lower, upper in zip(LEVELS, LEVELS[1:]):
            out[cls][f"{upper}.call_ms"] = med[upper]
            out[cls][f"{upper}.self_ms"] = med[upper] - med[lower]
    return {"classes": out, "router_counters": router_counters,
            "served": served, "routed": routed}
