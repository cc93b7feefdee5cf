"""End-to-end benchmark of the pattern-evaluation stack, one workload a run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload serve-hot --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --selftest

Workloads (parameters and frozen rates/limits in ``e2ebench/spec.json``):

* ``serve-hot``   — socket client -> router process -> 1 shard, warm;
* ``serve-churn`` — the same front door, 2 shards, Zipf traffic over a
  working set larger than the shards' caches, plus new registrations;
* ``train``       — in-process CG solves and warm DML evaluations.  Not
  listed in ``BENCHMARK.json``: its host timings follow the host's speed,
  which drifts too far between runs for a bound.

A run generates its inputs from ``--seed``, sets the program up several
times (``setup_s`` is the median), measures for ``--seconds``, then checks
every output bit for bit against an uncached reference.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` replays the window with the
benchmark's own spans recorded (written as Chrome trace JSON under
``.e2ebench/``), runs the per-layer call ladder and prints the per-layer
metrics.  The last line of standard output is one JSON object.  The metric
names and units are those of ``BENCHMARK.json``.

Exit status: 0 on a correct run; 1 when an output diverged (the result is
still printed); 2 when the program or catalog is missing or the run could
not be measured (nothing printed); 3 when a process it started outlived
the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".e2ebench"
WORKLOADS = ("train", "serve-hot", "serve-churn")


class SetupError(RuntimeError):
    """The checkout lacks something the benchmark needs."""


def load_catalog() -> dict:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(f"program sources not found under {src}")
    catalog = ROOT / "BENCHMARK.json"
    if not catalog.is_file():
        raise SetupError(f"metric catalog {catalog} not found")
    sys.path.insert(0, str(src))
    with open(catalog) as f:
        return json.load(f)


def load_spec(tiny: bool) -> dict:
    with open(HERE / "spec.json") as f:
        spec = json.load(f)
    if tiny:
        with open(HERE / "tiny.json") as f:
            overrides = json.load(f)
        for name, params in overrides["workloads"].items():
            spec["workloads"][name].update(params)
    return spec


def make_workload(name: str, params: dict, seed: int, rec):
    if name == "train":
        from train import TrainWorkload
        return TrainWorkload(params, seed, rec)
    from serve import ServeWorkload
    return ServeWorkload(params, seed, ROOT / "src", rec)


def measure(args, spec: dict) -> dict:
    """Set up, run the timed window(s), check outputs; always tears down."""
    from common import Recorder, median
    from layers import serve_layers, train_layers

    params = spec["workloads"][args.workload]
    rec = Recorder(enabled=False)
    w = make_workload(args.workload, params, args.seed, rec)
    windows, layers = [], None
    try:
        if args.trace:
            # one instance: an untraced half, then the same length traced;
            # their lat_p50_ms difference is the tracing overhead
            w.setup()
            base = w.run_window(args.seconds / 2, "base")
            rec.enabled = True
            traced = w.run_window(args.seconds / 2, "traced")
            collect = train_layers if args.workload == "train" \
                else serve_layers
            layers = collect(w, base, traced, rec)
            rec.enabled = False
            windows.append(base)
        else:
            # each instance is set up from scratch and measured for its
            # share of the window; figures over all instances damp the
            # state one set-up happens to start in
            repeats = params["instances"]
            for i in range(repeats):
                if i:
                    w.close()
                w.setup()
                windows.append(w.run_window(args.seconds / repeats,
                                            f"i{i}"))
        attempted, failed = w.verify()
    finally:
        w.close()
    e2e = {"setup_s": median(w.setup_times),
           "ok_rate": 1.0 - failed / attempted}
    e2e.update(w.summarize(windows))
    if args.trace:
        trace = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        doc = rec.write(trace, f"e2ebench {args.workload}")
        print(f"# chrome trace: {trace} "
              f"({len(doc['traceEvents']) - 1} spans)")
    return {"attempted": attempted, "failed": failed,
            "divergent": w.verifier.divergent, "e2e": e2e, "layers": layers}


def reap_leftovers() -> list[int]:
    """Kill and reap any process this run started that is still alive."""
    from common import descendants

    left = descendants(os.getpid())
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in left:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return left


def format_result(catalog: dict, trace: bool, res: dict) -> dict:
    section = "per_layer" if trace else "end_to_end"
    values = res["layers"] if trace else res["e2e"]
    metrics = {}
    for m in catalog[section]:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']!r} was not measured "
                               f"(got {value!r})")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    extra = sorted(set(values) - set(metrics))
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    return {"correct": res["divergent"] == 0,
            "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (self-test scale, not for timing)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own checks and exit")
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still tears down the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        catalog = load_catalog()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        from selftest import run_selftest
        return run_selftest(HERE / "run.py", catalog)
    spec = load_spec(args.tiny)
    t0 = time.monotonic()
    try:
        res = measure(args, spec)
        result = format_result(catalog, bool(args.trace), res)
    except Exception as exc:                      # noqa: BLE001 - reported
        import traceback
        traceback.print_exc()
        print(f"error: run could not be measured: {exc}", file=sys.stderr)
        reap_leftovers()
        return 2
    left = reap_leftovers()
    if left:
        print(f"error: processes outlived the run and were killed: {left}",
              file=sys.stderr)
        return 3
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {res['attempted']} operations, {res['failed']} failed, "
          f"{res['divergent']} divergent; {time.monotonic() - t0:.1f} s")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
