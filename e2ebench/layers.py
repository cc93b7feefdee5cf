"""Per-layer metrics of a traced run.

Every per-layer metric is reported on every workload, measured on that
workload's own inputs, so that "should not move on workload W" can be
checked.  Ladder metrics carry a ``.small`` / ``.large`` size-class
suffix; a workload whose matrices are all of one size reports its one
class under both suffixes.
"""

from __future__ import annotations

import time

import numpy as np

from common import derive_rng, median, quantile
from ladder import run_ladder
from train import clocked_runtime

ENGINE_COUNTERS = ("profiles_built", "compiled_kernels_built",
                   "transposes_built", "evictions", "pinned_fingerprint_hits")
ROUTER_COUNTERS = ("uploads", "reuploads", "retries", "routed_replica")
SIZE_CLASSES = ("small", "large")


def fusion_probe(X, rt, envs: int, rec) -> dict[str, float]:
    """``systemml.fusion`` split of one warm ``run_expression`` call.

    Per script: the DAG fingerprint (the plan-cache key), executing the
    lowered plan, and the whole warm call; the remainder is the layer's
    own time.  Timings are the mean over the five scripts of per-script
    medians; ``plan_ms`` is a cold ``optimize`` on a fresh engine.
    """
    from repro.core.engine import PatternEngine, fingerprint_device
    from repro.systemml.fusion import (SHIPPED_DML, evaluate_dag,
                                       fingerprint_dag, make_env, optimize)

    device_fp = fingerprint_device(rt.ctx)
    per: dict[str, list[float]] = {"fp": [], "exec": [], "eval": [],
                                   "plan": []}
    candidates = chosen = 0
    for name, spec in SHIPPED_DML.items():
        root = spec.parse()
        samples = {"fp": [], "exec": [], "eval": []}
        for k in range(envs):
            env = make_env(spec, X, rng=derive_rng(0, "fusion-env", name, k))
            plan = rt.engine.fusion_plan(root, env, expression=spec.dml)
            lowered = plan.lowered()
            for key, fn in (
                    ("fp", lambda: fingerprint_dag(root, env, device_fp)),
                    ("exec", lambda: evaluate_dag(lowered, env, rt.ctx,
                                                  engine=rt.engine)),
                    ("eval", lambda: rt.run_expression(spec.dml, env))):
                with rec.around(f"fusion.{key}", "fusion"):
                    t0 = time.perf_counter()
                    fn()
                    samples[key].append((time.perf_counter() - t0) * 1e3)
        for key, vals in samples.items():
            per[key].append(median(vals))
        env = make_env(spec, X, rng=derive_rng(0, "fusion-env", name, 0))
        with rec.around("fusion.optimize", "fusion"):
            t0 = time.perf_counter()
            cold = optimize(root, env, ctx=rt.ctx, engine=PatternEngine(),
                            expression=spec.dml)
            per["plan"].append((time.perf_counter() - t0) * 1e3)
        candidates += len(cold.candidates)
        chosen += len(cold.chosen)
    mean = {k: float(np.mean(v)) for k, v in per.items()}
    return {
        "fusion.fingerprint_ms": mean["fp"],
        "fusion.exec_ms": mean["exec"],
        "fusion.self_ms": mean["eval"] - mean["fp"] - mean["exec"],
        "fusion.plan_ms": mean["plan"],
        "fusion.candidates": float(candidates),
        "fusion.chosen": float(chosen),
    }


def ml_from_window(window: dict, transfer_ms: float) -> dict[str, float]:
    """``ml`` layer figures from a CG phase: an iteration minus its Eq.-1
    (engine) call, and simulated device ms per iteration by category."""
    model = window["ml_model_ms"]
    return {
        "ml.self_ms": window["lat_p50_ms"] - window["ml_pattern_ms"],
        "ml.model_ms.pattern": model.get("pattern", 0.0),
        "ml.model_ms.blas1": model.get("blas1", 0.0),
        "ml.model_ms.transfer": transfer_ms,
    }


def ml_probe(X, seed: int, iterations: int, solves: int, rec
             ) -> dict[str, float]:
    """Short fixed-iteration CG solves on ``X`` (for workloads whose own
    traffic runs no solver)."""
    from repro.ml.linreg import linreg_cg

    rt = clocked_runtime(rec, backend="gpu-fused")
    rt.upload(X)
    transfer_ms = rt.ledger.by_category.get("transfer", 0.0)
    y = derive_rng(seed, "ml-target").standard_normal(X.shape[0])
    linreg_cg(X, y, runtime=rt, tolerance=0.0, max_iterations=1,
              include_transfer=False)                       # cold
    rt.ledger.reset()
    iter_ms, pattern_ms = [], []
    for _ in range(solves):
        rt.marks.clear()
        linreg_cg(X, y, runtime=rt, tolerance=0.0, max_iterations=iterations,
                  include_transfer=False)
        done = time.monotonic()
        starts = [t0 for t0, _ in rt.marks] + [done]
        iter_ms.extend((b - a) * 1e3 for a, b in zip(starts, starts[1:]))
        pattern_ms.extend((t1 - t0) * 1e3 for t0, t1 in rt.marks)
    n = solves * iterations
    return ml_from_window({
        "lat_p50_ms": median(iter_ms), "ml_pattern_ms": median(pattern_ms),
        "ml_model_ms": {k: v / n for k, v in rt.ledger.by_category.items()},
    }, transfer_ms)


def engine_counters(stats: dict) -> dict[str, float]:
    out = {"engine.plan_hit_rate": float(stats.get("plan_hit_rate", 0.0))}
    for name in ENGINE_COUNTERS:
        out[f"engine.{name}"] = float(stats.get(name, 0))
    return out


def response_stats(responses) -> dict[str, float]:
    """Serve-layer and routing figures carried on responses."""
    ok = [r for r in responses if r.ok]
    shards: dict = {}
    for r in ok:
        key = getattr(r, "shard", 0)
        shards[key] = shards.get(key, 0) + 1
    return {
        "serve.wait_ms_p50": median([r.wait_ms for r in ok]),
        "serve.wait_ms_p90": quantile([r.wait_ms for r in ok], 0.9),
        "serve.service_ms_p50": median([r.service_ms for r in ok]),
        "serve.batch_size_mean": float(np.mean([r.batch_size for r in ok])),
        "router.warm_fraction": sum(r.cached for r in ok) / len(ok),
        "router.max_shard_share": max(shards.values()) / len(ok),
    }


def ladder_metrics(classes: dict, worker: dict, reps: int, rec) -> dict:
    """Run the ladder; flatten its per-class figures with suffixes."""
    lad = run_ladder(classes, worker, reps, rec)
    out = {}
    for suffix in SIZE_CLASSES:
        cls = suffix if suffix in lad["classes"] else next(
            iter(lad["classes"]))
        for name, value in lad["classes"][cls].items():
            out[f"{name}.{suffix}"] = float(value)
    lad["flat"] = out
    return lad


def train_layers(w, base: dict, traced: dict, rec) -> dict[str, float]:
    p = w.p
    y_pool = [derive_rng(w.seed, "ladder-y", k).standard_normal(w.X.shape[1])
              for k in range(p["ladder_pairs"])]
    lad = ladder_metrics({"large": [(w.X, y) for y in y_pool]},
                         p["ladder_worker"], p["ladder_reps"], rec)
    out = dict(lad["flat"])
    out.update(engine_counters(w.rt.engine.snapshot().to_dict()))
    for name in ROUTER_COUNTERS:
        out[f"router.{name}"] = float(lad["router_counters"].get(name, 0))
    # train serves nothing itself: the ladder's serve and router levels
    # carry its serve- and routing-layer figures
    served = response_stats(lad["served"])
    routed = response_stats(lad["routed"])
    out.update({k: v for k, v in served.items() if k.startswith("serve.")})
    out.update({k: v for k, v in routed.items() if k.startswith("router.")})
    out.update(ml_from_window(traced, w.setup_ledger_ms.get("transfer", 0.0)))
    out.update(fusion_probe(w.X, w.rt, p["fusion_envs"], rec))
    out["gen.late_ms_p90"] = 0.0          # closed loop: no send schedule
    out["trace.overhead_ms"] = traced["lat_p50_ms"] - base["lat_p50_ms"]
    return out


def serve_layers(w, base: dict, traced: dict, rec) -> dict[str, float]:
    p = w.p
    t = w.traffic
    classes = {}
    for cls, names in t.classes.items():
        classes[cls] = [(t.matrix(n), t.vector(n, k))
                        for n in names[:p["ladder_matrices"]]
                        for k in range(p["ladder_vectors"])]
    snap = w.client.metrics()
    out = {}
    out.update(engine_counters(snap["aggregate"].get("engine", {})))
    for name in ROUTER_COUNTERS:
        out[f"router.{name}"] = float(snap["counters"].get(name, 0))
    out.update(response_stats(traced["open_responses"]))
    lad = ladder_metrics(classes, p["worker"], p["ladder_reps"], rec)
    out.update(lad["flat"])
    largest = max(t.matrices.values(), key=lambda X: X.nnz)
    out.update(ml_probe(largest, w.seed, p["ml_iterations"], p["ml_solves"],
                        rec))
    rt = clocked_runtime(rec, backend="gpu-fused", fuse="auto")
    rt.upload(largest)
    out.update(fusion_probe(largest, rt, p["fusion_envs"], rec))
    out["gen.late_ms_p90"] = base["gen_late_ms_p90"]
    out["trace.overhead_ms"] = traced["lat_p50_ms"] - base["lat_p50_ms"]
    return out
