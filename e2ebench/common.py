"""Shared pieces of the end-to-end benchmark.

* statistics (quantiles, geometric means) over plain lists;
* process-tree accounting read from ``/proc`` (``psutil`` is not a
  dependency): peak resident memory and the leftover-process check;
* :class:`Recorder`, the benchmark's own in-memory span recorder, written
  out as Chrome trace-event JSON when a traced run ends;
* :class:`RouterHost`, a ``ShardRouter`` hosted in its own process and
  session, reached only through its socket front door;
* :class:`Verifier`, the bit-for-bit output check shared by all workloads.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from hashlib import blake2b
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------- statistics
# The host's speed can change by tens of percent within seconds (other
# tenants).  A median over samples from both speeds snaps to one of them,
# so figures over tight per-operation times are taken within short spans
# (one solve, one round of scripts) and then averaged over the spans.
def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (NumPy's default method)."""
    if len(values) == 0:
        raise ValueError("quantile of an empty sample")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 0.5)


def iq_mean(values) -> float:
    """Mean of the middle half of a sample (between its quartiles)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    lo, hi = int(len(v) * 0.25), int(np.ceil(len(v) * 0.75))
    return float(v[lo:max(hi, lo + 1)].mean())


def geomean(values) -> float:
    vals = [float(v) for v in values]
    if not vals or min(vals) <= 0:
        raise ValueError(f"geometric mean needs positive values, got {vals}")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def digest(arr) -> bytes:
    """Content digest of an output array (dtype, shape and every bit)."""
    a = np.ascontiguousarray(arr)
    h = blake2b(digest_size=16)
    h.update(str((a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())
    return h.digest()


def derive_rng(seed: int, *path) -> np.random.Generator:
    """Independent, reproducible stream for one named input of one seed."""
    words = [int(seed)] + [int.from_bytes(blake2b(str(p).encode(),
                                                  digest_size=4).digest(),
                                          "little") for p in path]
    return np.random.default_rng(np.random.SeedSequence(words))


# -------------------------------------------------------- process accounting
def _proc_stat(pid: int) -> tuple[int, str] | None:
    """(parent pid, state) of ``pid``; None when it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    # the command name may contain spaces: split after its closing paren
    rest = data[data.rindex(")") + 2:].split()
    return int(rest[1]), rest[0]


def descendants(pid: int) -> list[int]:
    """Every live (non-zombie) process below ``pid``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        st = _proc_stat(int(entry))
        if st is not None and st[1] != "Z":
            children.setdefault(st[0], []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return sorted(out)


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int | None = None) -> float:
    """Sum of ``VmHWM`` over ``pid`` and all its descendants, in MiB."""
    pid = os.getpid() if pid is None else pid
    return sum(vm_hwm_kb(p) for p in [pid, *descendants(pid)]) / 1024.0


# --------------------------------------------------------------------- spans
class Recorder:
    """Spans around the benchmark's calls into the program, kept in memory.

    Disabled recorders record nothing and cost one attribute check per
    call, so the untraced run pays (almost) nothing.  Each span has a name,
    a category (the layer it enters), start and end in
    ``time.monotonic()`` seconds (the clock cluster futures stamp), an
    optional parent span and an optional request id shared by one
    request's spans.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._lock = threading.Lock()

    def add(self, name: str, cat: str, t0: float, t1: float,
            parent: int | None = None, rid: int | None = None) -> int:
        if not self.enabled:
            return -1
        with self._lock:
            sid = len(self.spans)
            self.spans.append((sid, name, cat, t0, t1, parent, rid,
                               threading.get_ident()))
        return sid

    @contextmanager
    def around(self, name: str, cat: str, parent: int | None = None,
               rid: int | None = None):
        if not self.enabled:
            yield -1
            return
        with self._lock:       # reserve the id so children can name it
            sid = len(self.spans)
            self.spans.append(None)
        t0 = time.monotonic()
        try:
            yield sid
        finally:
            t1 = time.monotonic()
            with self._lock:
                self.spans[sid] = (sid, name, cat, t0, t1, parent, rid,
                                   threading.get_ident())

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.spans
                if s is not None and s[1] == name]

    def chrome(self, process_name: str) -> dict:
        spans = [s for s in self.spans if s is not None]
        base = min((s[3] for s in spans), default=0.0)
        events: list[dict] = [{"name": "process_name", "ph": "M", "pid": 1,
                               "tid": 0, "args": {"name": process_name}}]
        for sid, name, cat, t0, t1, parent, rid, tid in spans:
            args: dict = {"span_id": sid}
            if parent is not None:
                args["parent_id"] = parent
            if rid is not None:
                args["rid"] = rid
            events.append({"name": name, "cat": cat, "ph": "X",
                           "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                           "pid": 1, "tid": tid, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path, process_name: str) -> dict:
        doc = self.chrome(process_name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f)
            f.write("\n")
        return doc


# --------------------------------------------------------------- router host
class RouterHost:
    """A ``ShardRouter`` (and its worker processes) in a separate process.

    The host runs ``routerhost.py`` in a new session, so the router and the
    workers it forks form one process group that :meth:`stop` can always
    reap: first gracefully (closing the host's stdin drains the router),
    then by signalling the whole group.
    """

    def __init__(self, src: Path, shards: int, worker: dict):
        self.src = src
        self.config = {"shards": shards, "worker": worker}
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> int:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "routerhost.py"), str(self.src),
             json.dumps(self.config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        ready = threading.Event()
        line: list[str] = []

        def read_port() -> None:
            line.append(self.proc.stdout.readline())
            ready.set()

        reader = threading.Thread(target=read_port, daemon=True)
        reader.start()
        if not ready.wait(timeout_s) or not line[0].strip().isdigit():
            self.stop()
            raise RuntimeError("router host did not report its port")
        reader.join()
        self.port = int(line[0])
        return self.port

    def stop(self, timeout_s: float = 20.0) -> None:
        """Drain and reap the router and its workers; kill on timeout."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        group = proc.pid                   # session leader = group id
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            pass
        # the group outlives a crashed or hung host: signal what is left
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(group, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and _group_alive(group):
                time.sleep(0.05)
            if not _group_alive(group):
                break
        try:
            proc.wait(5.0)
        except subprocess.TimeoutExpired:
            pass
        proc.stdout.close()


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # members may all be zombies awaiting their (dead) parent's reaper
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getpgid(int(entry)) == pgid:
                    st = _proc_stat(int(entry))
                    if st is not None and st[1] != "Z":
                        return True
            except OSError:
                continue
    return False


# ----------------------------------------------------------------- verifier
class Verifier:
    """Bit-for-bit comparison of program outputs against references.

    References are keyed by the input they were computed from; every
    output checked against a key must have the same digest as that key's
    reference.  The count of mismatches feeds ``ok_rate``.
    """

    def __init__(self):
        self.refs: dict = {}
        self.divergent = 0

    def add_reference(self, key, output) -> None:
        self.refs[key] = digest(output)

    def has(self, key) -> bool:
        return key in self.refs

    def check(self, key, output=None, out_digest: bytes | None = None
              ) -> bool:
        got = out_digest if out_digest is not None else digest(output)
        ok = self.refs[key] == got
        if not ok:
            self.divergent += 1
        return ok
