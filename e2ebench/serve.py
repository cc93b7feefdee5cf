"""``serve-hot`` and ``serve-churn``: requests through the socket front door.

The path measured is ``SocketClusterClient`` -> router (its own process)
-> shard worker processes -> ``PatternServer`` -> ``PatternEngine`` ->
kernel.  Every request evaluates ``X^T (X y)`` for one (matrix, vector)
pair drawn from the seeded traffic; vectors come from a small per-matrix
pool so that every served output can be checked bit for bit against the
uncached ``repro.core.api.evaluate`` of the same pair.

Load comes in three phases: an open loop (Poisson arrivals at the frozen
rate, sent by one generator thread over one connection, each request timed
from its due time; write-path requests go to one writer thread beside
it), one serial caller (per-request latency without queueing), and a
closed loop (``closed_clients`` callers that each wait for their reply
before sending the next request).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import (RouterHost, Verifier, derive_rng, geomean, iq_mean,
                    median, quantile, tree_peak_rss_mb)


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement."""


@dataclass(frozen=True)
class Op:
    """One request: the (matrix, vector) pair, and whether the matrix is
    brand new (registered right before it is evaluated: the write path)."""

    matrix: str
    vector: int
    new: bool = False

    @property
    def key(self) -> tuple[str, int]:
        return (self.matrix, self.vector)


class ServeTraffic:
    """Seeded inputs of one serve workload: matrices, vectors, request
    sequences and arrival times.  The program sees only what this makes."""

    def __init__(self, params: dict, seed: int):
        from repro.sparse import random_csr

        self.p = params
        self.seed = seed
        self._random_csr = random_csr
        self.matrices: dict = {}
        self.classes: dict[str, list[str]] = {}
        # a fixed ``dataset_seed`` keeps the base working set (and so its
        # placement on the hash ring) the same for every run seed
        data_seed = params.get("dataset_seed", seed)
        for cls in params["classes"]:
            names = []
            for i in range(cls["count"]):
                name = f"{cls['name']}-{i}"
                self.matrices[name] = random_csr(
                    cls["rows"], cls["cols"], cls["density"],
                    rng=derive_rng(data_seed, "matrix", name))
                names.append(name)
            self.classes[cls["name"]] = names
        self.class_of = {n: c for c, ns in self.classes.items() for n in ns}
        self._vectors: dict[str, list[np.ndarray]] = {}
        # Zipf popularity over the base matrices, in a seeded rank order
        base = list(self.matrices)
        order = derive_rng(data_seed, "zipf-order").permutation(len(base))
        ranks = np.arange(1, len(base) + 1, dtype=np.float64)
        weights = ranks ** -params["zipf_s"] if params.get("zipf_s") \
            else np.ones(len(base))
        share = params.get("class_share")
        if share:                     # fixed traffic share per size class
            weights = np.array([share[self.class_of[base[i]]]
                                / len(self.classes[self.class_of[base[i]]])
                                for i in order])
        self._base = [base[i] for i in order]
        self._weights = weights / weights.sum()

    # -------------------------------------------------------------- inputs
    def vector(self, matrix: str, index: int) -> np.ndarray:
        pool = self._vectors.get(matrix)
        if pool is None:
            X = self.matrix(matrix)
            rng = derive_rng(self.seed, "vectors", matrix)
            pool = [rng.standard_normal(X.shape[1])
                    for _ in range(self.p["vectors_per_matrix"])]
            self._vectors[matrix] = pool
        return pool[index]

    def matrix(self, name: str):
        X = self.matrices.get(name)
        if X is None:                  # a write-path matrix, made on demand
            cls = self.p["new_matrix"]
            X = self._random_csr(cls["rows"], cls["cols"], cls["density"],
                                 rng=derive_rng(self.seed, "matrix", name))
            self.matrices[name] = X
            self.class_of[name] = cls["class"]
        return X

    def ops(self, stream: str, n: int) -> list[Op]:
        """The first ``n`` requests of one named request stream."""
        rng = derive_rng(self.seed, "ops", stream)
        picks = rng.choice(len(self._base), size=n, p=self._weights)
        vecs = rng.integers(0, self.p["vectors_per_matrix"], size=n)
        writes = rng.random(n) < self.p.get("write_share", 0.0)
        out = []
        for k in range(n):
            if writes[k]:
                out.append(Op(f"new-{stream}-{k}", 0, new=True))
            else:
                out.append(Op(self._base[picks[k]], int(vecs[k])))
        return out

    def arrivals(self, stream: str, rate: float, seconds: float
                 ) -> np.ndarray:
        """Poisson arrival offsets (s) in ``[0, seconds)``."""
        rng = derive_rng(self.seed, "arrivals", stream)
        n = int(rate * seconds * 1.5) + 16
        t = np.cumsum(rng.exponential(1.0 / rate, size=n))
        return t[t < seconds]

    def kind(self, op: Op) -> str:
        """Size class of an operation's matrix (``eval_ms`` and the model
        time take one figure per class, so the seeded class mix does not
        move them)."""
        return self.class_of[op.matrix]

    def prepare(self, ops) -> None:
        """Materialise every input ``ops`` needs (outside any timing)."""
        for op in ops:
            self.vector(op.matrix, op.vector)

    def stream(self, name: str, prefix: int):
        """Endless request stream whose first ``prefix`` requests have their
        inputs made now; later ones are made when first used."""
        ops = self.ops(name, max(prefix, 16))
        self.prepare(ops)
        return self._endless(name, ops)

    def _endless(self, name: str, ops: list[Op]):
        i = 0
        while True:
            if i == len(ops):
                ops = self.ops(name, 2 * len(ops))
            yield ops[i]
            i += 1


@dataclass
class Record:
    op: Op
    due: float
    sent: float
    future: object = None
    response: object = None


class ServeWorkload:
    """One serve workload: router host set-up, load phases, checks."""

    def __init__(self, params: dict, seed: int, src, rec):
        self.p = params
        self.seed = seed
        self.src = src
        self.rec = rec
        self.traffic = ServeTraffic(params, seed)
        self.host: RouterHost | None = None
        self.client = None
        self.fps: dict[str, str] = {}
        self.verifier = Verifier()
        self.records: list[tuple[Op, object]] = []   # (op, response)
        self.setup_times: list[float] = []

    # -------------------------------------------------------------- set-up
    def setup(self) -> None:
        """Start router + workers, register and warm every base matrix."""
        from repro.cluster import ClusterRequest, SocketClusterClient

        base = [n for names in self.traffic.classes.values() for n in names]
        for name in base:                               # inputs: untimed
            self.traffic.vector(name, 0)
        t0 = time.perf_counter()
        self.host = RouterHost(self.src, self.p["shards"], self.p["worker"])
        self.client = SocketClusterClient(port=self.host.start())
        self.fps = {name: self.client.register(self.traffic.matrix(name))
                    for name in base}
        for name in base:
            resp = self.client.evaluate(ClusterRequest(
                self.fps[name], self.traffic.vector(name, 0)), timeout=120.0)
            self.records.append((Op(name, 0), resp))
        self.setup_times.append(time.perf_counter() - t0)

    # ---------------------------------------------------------- load phases
    def run_window(self, seconds: float, tag: str) -> dict:
        """Open loop, then one serial caller, then the closed loop, for
        ``open_share``, ``serial_share`` and the rest of the window."""
        t_open = seconds * self.p["open_share"]
        t_serial = seconds * self.p["serial_share"]
        out = self._open_loop(t_open, tag)
        out.update(self._serial(t_serial, tag))
        out.update(self._closed_loop(seconds - t_open - t_serial, tag))
        out["peak_rss_mb"] = tree_peak_rss_mb()
        return out

    def _request(self, op: Op, client):
        """Register a write-path matrix if needed; build its request."""
        from repro.cluster import ClusterRequest

        if op.new:
            with self.rec.around("client.register", "client"):
                self.fps[op.matrix] = client.register(
                    self.traffic.matrix(op.matrix))
        return ClusterRequest(self.fps[op.matrix],
                              self.traffic.vector(op.matrix, op.vector))

    def _open_loop(self, seconds: float, tag: str) -> dict:
        from repro.cluster import SocketClusterClient

        stream = f"open-{tag}"
        arrivals = self.traffic.arrivals(stream, self.p["rate_rps"], seconds)
        ops = self.traffic.ops(stream, len(arrivals))
        self.traffic.prepare(ops)
        for op in ops:
            if op.new:
                self.traffic.matrix(op.matrix)
        records = []
        # write-path operations block on registration, so one writer with
        # its own connection runs them beside the generator, which then
        # keeps to the read schedule; both are timed from the due time
        writes: queue.Queue = queue.Queue()
        errors: list[BaseException] = []
        writer = threading.Thread(target=self._writer,
                                  args=(writes, errors))
        writer.start()
        # a connection of its own, which has carried no set-up uploads
        client = SocketClusterClient(port=self.host.port)
        start = time.monotonic() + 0.05
        try:
            try:
                for rid, (op, offset) in enumerate(zip(ops, arrivals)):
                    due = start + offset
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    record = Record(op, due, time.monotonic())
                    records.append(record)
                    if op.new:
                        writes.put((rid, record))
                        continue
                    with self.rec.around("client.submit", "client",
                                         rid=rid):
                        record.future = client.submit(
                            self._request(op, client))
            finally:
                writes.put(None)
                writer.join()
            if errors:
                raise errors[0]
            for r in records:
                r.response = r.future.result(120.0)
        finally:
            client.close()
        limit_ms = self.p["latency_limit_ms"]
        lat, late, ok_in_limit = [], [], 0
        model: dict[str, list[float]] = {}
        for rid, r in enumerate(records):
            late.append((r.sent - r.due) * 1e3)
            ms = (r.future.resolved_at - r.due) * 1e3
            self.rec.add("request", "client", r.due, r.future.resolved_at,
                         rid=rid)
            if r.response.ok:
                lat.append(ms)
                model.setdefault(self.traffic.kind(r.op), []).append(
                    r.response.result.time_ms)
                ok_in_limit += ms <= limit_ms
            self.records.append((r.op, r.response))
        if len(lat) < self.p["min_open_samples"]:
            raise BenchError(f"only {len(lat)} open-loop completions, fewer "
                             f"than {self.p['min_open_samples']}")
        late_p90 = quantile(late, 0.9)
        if late_p90 > self.p["gen_late_limit_ms"]:
            raise BenchError(
                f"open-loop generator fell behind schedule: p90 lateness "
                f"{late_p90:.2f} ms > {self.p['gen_late_limit_ms']} ms")
        return {
            "open_responses": [r.response for r in records],
            "open_lat_ms": lat,
            "open_sent": len(records),
            "open_in_limit": ok_in_limit,
            "open_model_ms": model,
            "lat_p50_ms": median(lat),
            "gen_late_ms_p90": late_p90,
        }

    def _writer(self, writes: queue.Queue, errors: list) -> None:
        """Open-loop write path: register each new matrix, then submit."""
        from repro.cluster import SocketClusterClient

        client = SocketClusterClient(port=self.host.port)
        futures = []
        try:
            while (item := writes.get()) is not None:
                rid, record = item
                with self.rec.around("client.submit", "client", rid=rid):
                    record.future = client.submit(
                        self._request(record.op, client))
                futures.append(record.future)
            for fut in futures:          # closing would fail them early
                fut.result(120.0)
        except BaseException as exc:     # re-raised by the generator
            errors.append(exc)
        finally:
            client.close()

    def _serial(self, seconds: float, tag: str) -> dict:
        """One caller, one request at a time: the wall time of a warm
        request without queueing behind other callers.  Cold requests
        (the engine built something for them) are sent but not timed
        here; their cost shows in the open loop's tail and in peak_rps."""
        ops = self.traffic.stream(
            f"serial-{tag}", int(self.p["serial_ops_hint_rps"] * seconds))
        wall: dict[str, list[float]] = {}
        model: dict[str, list[float]] = {}
        stop_at = time.monotonic() + seconds
        for i, op in enumerate(ops):
            if time.monotonic() >= stop_at:
                break
            t0 = time.perf_counter()
            with self.rec.around("client.evaluate", "client", rid=i):
                resp = self.client.evaluate(self._request(op, self.client),
                                            timeout=120.0)
            ms = (time.perf_counter() - t0) * 1e3
            self.records.append((op, resp))
            if resp.ok and resp.cached:
                kind = self.traffic.kind(op)
                wall.setdefault(kind, []).append(ms)
                model.setdefault(kind, []).append(resp.result.time_ms)
        if not wall:
            raise BenchError("no warm serial request completed")
        return {"serial_wall_ms": wall, "serial_model_ms": model}

    def _closed_loop(self, seconds: float, tag: str) -> dict:
        from repro.cluster import SocketClusterClient

        n_clients = self.p["closed_clients"]
        clients = [SocketClusterClient(port=self.host.port)
                   for _ in range(n_clients)]
        expect = int(self.p["closed_ops_hint_rps"] * seconds)
        streams = [self.traffic.stream(f"closed-{tag}-{k}", expect)
                   for k in range(n_clients)]
        results: list[list] = [[] for _ in range(n_clients)]
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_clients + 1)
        stop_at = [0.0]

        def caller(k: int) -> None:
            try:
                ops, client = streams[k], clients[k]
                barrier.wait()
                i = 0
                while time.monotonic() < stop_at[0]:
                    op = next(ops)
                    i += 1
                    with self.rec.around("client.evaluate", "client",
                                         rid=k * 1_000_000 + i):
                        resp = client.evaluate(self._request(op, client),
                                               timeout=120.0)
                    results[k].append((op, resp, time.monotonic()))
            except BaseException as exc:   # surfaced in the caller below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(k,))
                   for k in range(n_clients)]
        for t in threads:
            t.start()
        t0 = time.monotonic()
        stop_at[0] = t0 + seconds
        barrier.wait()
        for t in threads:
            t.join()
        for c in clients:
            c.close()
        if errors:
            raise errors[0]
        # completions per second up to the last one inside the window
        done = []
        for op, resp, t_done in (x for r in results for x in r):
            self.records.append((op, resp))
            if resp.ok and t_done < stop_at[0]:
                done.append(t_done)
        if len(done) < 2:
            raise BenchError("too few closed-loop requests completed")
        return {"peak_rps": len(done) / (max(done) - t0)}

    def summarize(self, windows: list[dict]) -> dict:
        """End-to-end figures of a run.  Latency quantiles, the SLO share
        and the per-class means pool the samples of all its windows (one
        window per set-up); ``peak_rps`` and memory are medians over the
        windows."""
        def pooled(key: str) -> dict[str, list[float]]:
            out: dict[str, list[float]] = {}
            for win in windows:
                for kind, vals in win[key].items():
                    out.setdefault(kind, []).extend(vals)
            return out

        lat = [ms for win in windows for ms in win["open_lat_ms"]]
        return {
            "lat_p50_ms": median(lat),
            "lat_p90_ms": quantile(lat, 0.9),
            "slo_attain": sum(win["open_in_limit"] for win in windows)
            / sum(win["open_sent"] for win in windows),
            "lat_model_ms": geomean(float(np.mean(v)) for v in
                                    pooled("open_model_ms").values()),
            "eval_ms": geomean(iq_mean(v) for v in
                               pooled("serial_wall_ms").values()),
            "eval_model_ms": geomean(float(np.mean(v)) for v in
                                     pooled("serial_model_ms").values()),
            "peak_rps": median([win["peak_rps"] for win in windows]),
            "peak_rss_mb": median([win["peak_rss_mb"] for win in windows]),
        }

    # --------------------------------------------------------------- checks
    def verify(self) -> tuple[int, int]:
        """(attempted, failed) over every request sent, checking each
        served output bit for bit against uncached ``evaluate``."""
        from repro.core.api import evaluate

        failed = 0
        for op, resp in self.records:
            if not resp.ok:
                failed += 1
                continue
            if not self.verifier.has(op.key):
                self.verifier.add_reference(op.key, evaluate(
                    self.traffic.matrix(op.matrix),
                    self.traffic.vector(op.matrix, op.vector)).output)
            if not self.verifier.check(op.key, resp.result.output):
                failed += 1
        return len(self.records), failed

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.host is not None:
            self.host.stop()
            self.host = None
