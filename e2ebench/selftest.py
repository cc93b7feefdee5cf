"""The benchmark's own self-test (``python3 e2ebench/run.py --selftest``).

Runs every workload at the tiny size of ``tiny.json``, untraced and
traced, and checks that:

* every metric named in ``BENCHMARK.json`` is printed, with its unit, and
  nothing else is;
* a traced run writes a valid Chrome trace;
* the same seed gives identical inputs and request sequences, and a
  different seed gives different ones;
* a negative control works: one flipped bit in a copied output is counted
  as a failure by the same check the timed runs use.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import Recorder, digest

HERE = Path(__file__).resolve().parent


class Failures:
    def __init__(self):
        self.items: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.items.append(what)


def tiny_params(name: str) -> dict:
    from run import load_spec
    return load_spec(tiny=True)["workloads"][name]


def check_runs(run_py: Path, catalog: dict, f: Failures) -> None:
    from repro.trace import validate_chrome

    root = run_py.parent.parent
    for wl in ("train", "serve-hot", "serve-churn"):
        for trace in (0, 1):
            section = "per_layer" if trace else "end_to_end"
            cmd = [sys.executable, str(run_py), "--workload", wl, "--seed",
                   "3", "--seconds", "2", "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                               timeout=300)
            what = f"{wl} --trace {trace}"
            tail = p.stderr[-400:] if p.returncode else ""
            f.check(p.returncode == 0,
                    f"{what}: exit status 0 (got {p.returncode}){tail}")
            if p.returncode != 0:
                continue
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            f.check(set(res) == {"correct", "attempted", "failed", "metrics"}
                    and res["correct"] is True and res["attempted"] >= 1,
                    f"{what}: result object shape, correct outputs")
            want = {m["name"]: m["unit"] for m in catalog[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            f.check(got == want, f"{what}: every {section} metric printed "
                    f"with its unit ({len(got)}/{len(want)})")
            f.check(all(isinstance(v["value"], float)
                        and math.isfinite(v["value"])
                        for v in res["metrics"].values()),
                    f"{what}: every value a finite number")
            printed = {ln.split()[1] for ln in lines[:-1]
                       if ln.startswith(f"{wl} ")}
            f.check(printed == set(want), f"{what}: each metric also "
                    f"printed by name on its own line")
            if trace:
                path = root / ".e2ebench" / f"trace-{wl}-seed3.json"
                with open(path) as fh:
                    n = validate_chrome(json.load(fh))
                f.check(n > 0, f"{what}: Chrome trace valid ({n} spans)")


def check_determinism(f: Failures) -> None:
    from serve import ServeTraffic
    from train import TrainWorkload

    for wl in ("serve-hot", "serve-churn"):
        p = tiny_params(wl)
        a, b, c = (ServeTraffic(p, s) for s in (5, 5, 6))

        def seq(t):
            ops = t.ops("open-a", 300)
            return ([(o.matrix, o.vector, o.new) for o in ops],
                    t.arrivals("open-a", p["rate_rps"], 2.0).tolist(),
                    [digest(t.matrix(n).values) for c in sorted(t.classes)
                     for n in t.classes[c]],
                    [digest(t.vector(o.matrix, o.vector)) for o in ops[:50]])

        f.check(seq(a) == seq(b), f"{wl}: same seed, identical requests")
        f.check(seq(a) != seq(c), f"{wl}: other seed, other requests")
    p = tiny_params("train")
    rec = Recorder(False)
    a, b, c = (TrainWorkload(p, s, rec) for s in (5, 5, 6))

    def env_seq(w):
        return ([digest(w.X.values), digest(w.X.col_idx)]
                + [digest(t) for t in w.targets]
                + [digest(v) for k in range(3) for s in w.scripts
                   for n, v in sorted(w.env(s, k).items()) if n != "X"])

    f.check(env_seq(a) == env_seq(b), "train: same seed, identical inputs")
    f.check(env_seq(a) != env_seq(c), "train: other seed, other inputs")


def flip_bit(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.view(np.uint64)[0] ^= np.uint64(1)
    return out


def check_negative_control(f: Failures) -> None:
    from dataclasses import replace

    from repro.cluster import ClusterResponse
    from repro.core.api import evaluate
    from repro.ml.runtime import MLRuntime
    from serve import Op, ServeWorkload
    from train import TrainWorkload

    rec = Recorder(False)
    w = ServeWorkload(tiny_params("serve-hot"), 7, HERE.parent / "src", rec)
    op = Op("small-0", 1)
    res = evaluate(w.traffic.matrix(op.matrix),
                   w.traffic.vector(op.matrix, op.vector))
    w.records = [(op, ClusterResponse(id=1, status="ok", result=res))]
    f.check(w.verify() == (1, 0), "serve: an untouched output passes")
    bad = replace(res, output=flip_bit(res.output))
    w2 = ServeWorkload(tiny_params("serve-hot"), 7, HERE.parent / "src",
                       rec)
    w2.records = [(op, ClusterResponse(id=1, status="ok", result=bad))]
    f.check(w2.verify() == (1, 1) and w2.verifier.divergent == 1,
            "serve: one flipped bit in a copied output is a failure")

    t = TrainWorkload(tiny_params("train"), 7, rec)
    out = MLRuntime("gpu-fused", fuse="auto").run_expression(
        t.scripts["svm"].dml, t.env("svm", 0))
    t.dml_calls = [("svm", 0, digest(out))]
    f.check(t.verify() == (1, 0), "train: an untouched DML result passes")
    t.dml_calls = [("svm", 0, digest(flip_bit(out)))]
    f.check(t.verify() == (1, 1), "train: one flipped bit in a copied DML "
            "result is a failure")


def run_selftest(run_py: Path, catalog: dict) -> int:
    f = Failures()
    check_determinism(f)
    check_negative_control(f)
    check_runs(run_py, catalog, f)
    if f.items:
        print(f"self-test FAILED: {len(f.items)} check(s)")
        return 1
    print("self-test passed")
    return 0
