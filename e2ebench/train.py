"""``train``: in-process solver loop on one large pinned matrix.

Phase A runs ``repro.ml.linreg.linreg_cg`` with ``tolerance=0`` (every
solve does the same number of iterations) on targets drawn from a small
seeded pool.  Phase B calls ``MLRuntime(fuse="auto").run_expression`` on
each shipped DML script in turn, with fresh seeded vectors on every call,
the way a solver re-evaluates its per-iteration expression.  Only the
kernels, the warm engine, ``ml`` and ``systemml.fusion`` do work here.
"""

from __future__ import annotations

import time

import numpy as np

from common import Verifier, derive_rng, digest, geomean, median, quantile, \
    tree_peak_rss_mb


def clocked_runtime(rec, **kwargs):
    """An ``MLRuntime`` whose Eq.-1 calls are timestamped from outside.

    Linear-regression CG makes exactly one ``pattern`` call per iteration,
    so the gaps between consecutive calls are the iteration wall times.
    """
    from repro.ml.runtime import MLRuntime

    class ClockedRuntime(MLRuntime):
        def __init__(self, **kw):
            super().__init__(**kw)
            self.marks: list[tuple[float, float]] = []

        def pattern(self, *args, **kw):
            t0 = time.monotonic()
            out = super().pattern(*args, **kw)
            t1 = time.monotonic()
            self.marks.append((t0, t1))
            rec.add("ml.pattern", "engine", t0, t1)
            return out

    return ClockedRuntime(**kwargs)


class TrainWorkload:
    """The ``train`` workload: set-up, the two timed phases, checks."""

    def __init__(self, params: dict, seed: int, rec):
        from repro.sparse import random_csr
        from repro.systemml.fusion import SHIPPED_DML

        self.p = params
        self.seed = seed
        self.rec = rec
        m, n, d = params["rows"], params["cols"], params["density"]
        self.X = random_csr(m, n, d, rng=derive_rng(seed, "matrix"))
        self.targets = [derive_rng(seed, "target", i).standard_normal(m)
                        for i in range(params["targets"])]
        self.scripts = dict(SHIPPED_DML)
        self.rt = None
        self.setup_times: list[float] = []
        self.solves: list[tuple[int, np.ndarray]] = []     # (target, w)
        # (script, call index, output digest)
        self.dml_calls: list[tuple[str, int, bytes]] = []

    def env(self, script: str, call: int) -> dict:
        from repro.systemml.fusion import make_env

        return make_env(self.scripts[script], self.X,
                        rng=derive_rng(self.seed, "env", script, call))

    # -------------------------------------------------------------- set-up
    def setup(self) -> None:
        """A fresh runtime: upload (pin) the matrix, the cold first solve
        and the cold first evaluation of every script."""
        from repro.ml.linreg import linreg_cg

        envs = {s: self.env(s, -1) for s in self.scripts}   # inputs: untimed
        t0 = time.perf_counter()
        rt = clocked_runtime(self.rec, backend="gpu-fused", fuse="auto")
        rt.upload(self.X)
        linreg_cg(self.X, self.targets[0], runtime=rt, tolerance=0.0,
                  max_iterations=1, include_transfer=False)
        for name, spec in self.scripts.items():
            rt.run_expression(spec.dml, envs[name])
        self.setup_times.append(time.perf_counter() - t0)
        self.rt = rt
        self.setup_ledger_ms = dict(rt.ledger.by_category)

    # ---------------------------------------------------------- timed phases
    def run_window(self, seconds: float, tag: str) -> dict:
        out = self._cg_phase(seconds * self.p["cg_share"])
        out.update(self._dml_phase(seconds * (1 - self.p["cg_share"])))
        out["peak_rss_mb"] = tree_peak_rss_mb()
        return out

    def _cg_phase(self, seconds: float) -> dict:
        from repro.ml.linreg import linreg_cg

        rt, iters = self.rt, self.p["cg_iterations"]
        rt.ledger.reset()
        solve_p50, solve_p90, pattern_ms, iter_ms = [], [], [], []
        stop_at = time.monotonic() + seconds
        solve = 0
        while time.monotonic() < stop_at or not solve:
            target = solve % len(self.targets)
            rt.marks.clear()
            with self.rec.around("linreg_cg", "ml", rid=solve):
                res = linreg_cg(self.X, self.targets[target], runtime=rt,
                                tolerance=0.0, max_iterations=iters,
                                include_transfer=False)
                done = time.monotonic()
            if res.iterations != iters or len(rt.marks) != iters:
                raise RuntimeError(f"CG ran {res.iterations} iterations, "
                                   f"expected {iters}")
            starts = [t0 for t0, _ in rt.marks] + [done]
            this = [(b - a) * 1e3 for a, b in zip(starts, starts[1:])]
            for a, b in zip(starts, starts[1:]):
                self.rec.add("cg.iteration", "ml", a, b, rid=solve)
            iter_ms.extend(this)
            solve_p50.append(median(this))
            solve_p90.append(quantile(this, 0.9))
            pattern_ms.extend((t1 - t0) * 1e3 for t0, t1 in rt.marks)
            self.solves.append((target, res.w))
            solve += 1
        total_iters = solve * iters
        limit = self.p["latency_limit_ms"]
        # per solve, then averaged over solves (see common.py)
        return {
            "lat_p50_ms": float(np.mean(solve_p50)),
            "lat_p90_ms": float(np.mean(solve_p90)),
            "slo_attain": sum(ms <= limit for ms in iter_ms) / len(iter_ms),
            "lat_model_ms": rt.ledger.total_ms / total_iters,
            "ml_pattern_ms": median(pattern_ms),
            "ml_model_ms": {k: v / total_iters
                            for k, v in rt.ledger.by_category.items()},
        }

    def _dml_phase(self, seconds: float) -> dict:
        rt = self.rt
        model: dict[str, list[float]] = {s: [] for s in self.scripts}
        stop_at = time.monotonic() + seconds
        call = len(self.dml_calls)
        round_geo, busy = [], 0.0
        while time.monotonic() < stop_at or not round_geo:
            this = []
            for name, spec in self.scripts.items():
                env = self.env(name, call)          # fresh vectors, untimed
                before = rt.ledger.total_ms
                with self.rec.around("run_expression", "fusion", rid=call):
                    t0 = time.perf_counter()
                    out = rt.run_expression(spec.dml, env)
                    ms = (time.perf_counter() - t0) * 1e3
                model[name].append(rt.ledger.total_ms - before)
                self.dml_calls.append((name, call, digest(out)))
                this.append(ms)
                call += 1
            round_geo.append(geomean(this))
            busy += sum(this)
        return {
            "eval_ms": float(np.mean(round_geo)),
            "eval_model_ms": geomean(median(v) for v in model.values()),
            "peak_rps": len(round_geo) * len(self.scripts) / (busy / 1e3),
        }

    def summarize(self, windows: list[dict]) -> dict:
        """End-to-end figures of a run: medians over its windows."""
        return {key: median([win[key] for win in windows])
                for key in ("peak_rss_mb", "lat_p50_ms", "lat_p90_ms",
                            "slo_attain", "peak_rps", "eval_ms",
                            "lat_model_ms", "eval_model_ms")}

    # --------------------------------------------------------------- checks
    def verify(self) -> tuple[int, int]:
        """(attempted, failed): every CG solution against the same solve on
        interpreted kernels, every DML result against ``fuse="off"``."""
        from repro.core.engine import PatternEngine
        from repro.ml.linreg import linreg_cg
        from repro.ml.runtime import MLRuntime

        verifier = Verifier()
        ref_rt = MLRuntime("gpu-fused",
                           engine=PatternEngine(compile_kernels=False))
        failed = 0
        for target, w in self.solves:
            if not verifier.has(("cg", target)):
                ref = linreg_cg(self.X, self.targets[target], runtime=ref_rt,
                                tolerance=0.0,
                                max_iterations=self.p["cg_iterations"],
                                include_transfer=False)
                verifier.add_reference(("cg", target), ref.w)
            failed += not verifier.check(("cg", target), w)
        off = MLRuntime("gpu-fused", fuse="off")
        for name, call, got in self.dml_calls:
            ref = off.run_expression(self.scripts[name].dml,
                                     self.env(name, call))
            verifier.add_reference((name, call), ref)
            failed += not verifier.check((name, call), out_digest=got)
        self.verifier = verifier
        return len(self.solves) + len(self.dml_calls), failed

    def close(self) -> None:
        self.rt = None
