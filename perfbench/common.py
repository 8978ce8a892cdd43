"""Helpers shared by the workload modules: the operation tally, model
artifact comparison, statistics, span self times, host-noise diagnostics
and the per-seed exact-count record."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Work space inside the checkout (registries, logs, span dumps);
#: each run uses its own fresh subdirectory and removes it at the end.
WORK_DIR = Path(".bench_work")
#: Per-seed exact counts and per-run records, kept across runs so that a
#: second run of a seed on the same code can be compared with the first.
OUT_DIR = Path(".bench_out")


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def model_artifacts(models) -> tuple:
    """Everything a context persists, as comparable plain values."""
    det = models.detector
    model = det.model
    inv = models.invariants
    return (
        tuple(model.order),
        model.ar.tolist(),
        model.ma.tolist(),
        model.intercept,
        model.sigma2,
        (det.threshold.rule.value, det.threshold.upper, det.threshold.lower),
        [tuple(p) for p in inv.pairs],
        inv.baseline.tolist(),
        [dataclasses.astuple(s) for s in models.database.signatures],
    )


def pct(values, q: float) -> float:
    """Linear-interpolated percentile; NaN for an empty sample."""
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def self_times(rows) -> dict[int, float]:
    """Span id -> self seconds: its duration minus the part of it that
    its child spans cover (children on other threads may overlap)."""
    children: dict[int, list] = defaultdict(list)
    for sid, _name, start, end, parent, _rid in rows:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[int, float] = {}
    for sid, _name, start, end, _parent, _rid in rows:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def self_table(rows, selfs) -> dict[str, float]:
    """Total self milliseconds per span name, largest first."""
    totals: dict[str, float] = defaultdict(float)
    for r in rows:
        totals[r[1]] += selfs[r[0]] * 1e3
    return {
        name: round(ms, 3)
        for name, ms in sorted(totals.items(), key=lambda kv: -kv[1])
    }


def top_level(rows, prefix: str):
    """Spans named ``prefix*`` whose parent is not itself ``prefix*``."""
    names = {sid: name for sid, name, *_ in rows}
    return [
        r for r in rows
        if r[1].startswith(prefix)
        and not names.get(r[4], "").startswith(prefix)
    ]


# ----------------------------------------------------------------------
# host noise: reported beside each run's metrics, never as a metric
# ----------------------------------------------------------------------
def steal_ticks() -> int:
    """Cumulative CPU steal time (USER_HZ ticks) from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop (same work on every run)."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    return time.perf_counter() - start


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set size of a process (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# exact counts: identical inputs must do identical work
# ----------------------------------------------------------------------
def code_fingerprint(bench_dir: Path) -> str:
    """sha256 over the program under test (``src/repro``) and the
    benchmark's own modules: a run of other code starts new records."""
    digest = hashlib.sha256()
    files = sorted(Path("src", "repro").rglob("*.py"))
    files += sorted(Path(bench_dir).glob("*.py"))
    for path in files:
        digest.update(path.as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_counts(
    code: str, workload: str, seed: int, seconds: int, counts: dict
) -> list[str]:
    """Compare ``counts`` with the record of an earlier run of the same
    code, workload, seed and length (if any), then add the counts the
    record lacks; recorded values are never overwritten.  The length is
    part of the key because it sets how much work a run does; the code
    fingerprint, because a correct change of the program may change what
    it counts.

    Returns one message per count that differs.
    """
    path = OUT_DIR / "counts" / code[:16] / f"{workload}-seed{seed}-{seconds}s.json"
    previous = {}
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
    diffs = [
        f"{key}: {previous[key]} before, {value} now"
        for key, value in sorted(counts.items())
        if key in previous and previous[key] != value
    ]
    merged = dict(counts)
    merged.update(previous)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged, indent=1, sort_keys=True), "utf-8")
    os.replace(tmp, path)
    return diffs


def untraced_throughput(code: str, workload: str, seed: int, seconds: int):
    """Median ``throughput_per_s`` of the recorded untraced runs of this
    code, workload, seed and length, or None if there are none."""
    path = OUT_DIR / "runs.jsonl"
    if not path.exists():
        return None
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec.get("code"), rec["workload"], rec["seed"],
                   rec["seconds"], rec["trace"])
            if key == (code, workload, seed, seconds, 0) and not rec["failures"]:
                values.append(rec["result"]["throughput_per_s"])
    return float(np.median(values)) if values else None


def append_record(record: dict) -> None:
    """Append one run's metrics, counts and host diagnostics."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
