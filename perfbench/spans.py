"""Span recording from outside the program under test.

The recorder wraps public entry points of the program's layers at the
names their callers resolve (for example ``repro.serve.fleet.fast_check``,
which the fleet calls through its own module globals).  Each call becomes
one span: name, start, end, parent span and request id.  Spans stay in
memory and are written once, at exit.  Nothing inside ``src/`` changes.

Request ids come from the ``X-Request-Id`` header the load generator
sends; the fleet hands them to its ingest pool threads as the
``request_id`` argument, which is how spans on pool threads find their
request and their parent ``fleet.ingest`` span.  Call counts skip
warm-up requests (ids starting ``w-``); spans keep them, tagged by id.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter

#: Which end-to-end request a span belongs to is carried by this prefix.
WARMUP_PREFIX = "w-"
TIMED_PREFIX = "t-"


class Recorder:
    """In-memory span store plus per-layer counters."""

    def __init__(self) -> None:
        self.spans: dict[int, tuple] = {}
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._tls = threading.local()
        self._ingest_by_rid: dict[str, int] = {}
        # counts are bumped from the ingest pool's threads too
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.rid = ""
        return tls

    def wrap(self, owner, attr, name, rid_of=None, on_result=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        Args:
            rid_of: ``(args, kwargs) -> request id`` for entry points that
                receive the id; the id then holds for the call's subtree.
            on_result: called with each return value outside warm-up
                requests (for counts).
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = rec._state()
            stack = tls.stack
            saved_rid = tls.rid
            if rid_of is not None:
                tls.rid = rid_of(args, kwargs) or saved_rid
            rid = tls.rid
            if stack:
                parent = stack[-1][0]
            else:
                parent = rec._ingest_by_rid.get(rid)
            sid = next(rec._ids)
            if name == "fleet.ingest":
                rec._ingest_by_rid[rid] = sid
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tls.rid = saved_rid
                rec.spans[sid] = (name, start, end, parent, rid)
            if on_result is not None and not rid.startswith(WARMUP_PREFIX):
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def bump(self, label: str) -> None:
        with self._count_lock:
            self.counts[label] += 1

    def count(self, owner, attr, key, per_span=False):
        """Count calls of ``owner.attr`` outside warm-up requests; with
        ``per_span`` the key is suffixed by the innermost open span."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = rec._state()
            if not tls.rid.startswith(WARMUP_PREFIX):
                label = key
                if per_span:
                    label += ":" + (tls.stack[-1][1] if tls.stack else "-")
                rec.bump(label)
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def reset(self) -> None:
        """Forget everything recorded so far (used between registry
        training repeats, and after training)."""
        self.spans.clear()
        self.counts.clear()
        self._ingest_by_rid.clear()

    def dump(self, path, extra=None) -> None:
        rows = [
            (sid, *span) for sid, span in sorted(self.spans.items())
        ]
        payload = {"spans": rows, "counts": dict(self.counts)}
        payload.update(extra or {})
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)


def instrument(rec: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import repro.core.invariants as invariants_mod
    import repro.core.pipeline as pipeline_mod
    import repro.obs.metrics as metrics_mod
    import repro.serve.fleet as fleet_mod
    import repro.stats.micfast as micfast_mod
    from repro.core.anomaly import AnomalyDetector
    from repro.core.online import OnlineMonitor
    from repro.obs.blackbox import FlightRecorder
    from repro.obs.ledger import RunLedger
    from repro.serve.http import FleetRequestHandler
    from repro.store.directory import DirectoryStore

    def header_rid(args, kwargs):
        return args[0].headers.get("X-Request-Id", "")

    def served(result):
        rec.bump(
            "fastpath.served" if result is not None else "fastpath.declined"
        )

    rec.wrap(FleetRequestHandler, "do_POST", "http.do_POST", rid_of=header_rid)
    rec.wrap(FleetRequestHandler, "do_GET", "http.do_GET", rid_of=header_rid)
    rec.wrap(
        fleet_mod.FleetMonitor, "ingest", "fleet.ingest",
        rid_of=lambda a, k: k.get("request_id", a[2] if len(a) > 2 else ""),
    )
    # the ingest pool's unit of work; the request id is its 4th argument
    rec.wrap(
        fleet_mod.FleetMonitor, "_drain", "fleet.drain",
        rid_of=lambda a, k: k.get("request_id", a[3] if len(a) > 3 else ""),
    )
    rec.wrap(fleet_mod, "fast_check", "fastpath.fast_check", on_result=served)
    rec.wrap(fleet_mod, "commit_bundle", "blackbox.commit")
    rec.wrap(OnlineMonitor, "observe", "online.observe")
    rec.wrap(AnomalyDetector, "check_next", "anomaly.check_next")
    rec.wrap(AnomalyDetector, "train", "anomaly.train")
    rec.wrap(FlightRecorder, "record", "blackbox.record")
    rec.wrap(RunLedger, "append", "ledger.append")
    rec.wrap(pipeline_mod.InvarNetX, "infer", "pipeline.infer")
    rec.wrap(pipeline_mod.InvarNetX, "train_from_runs", "pipeline.train_from_runs")
    rec.wrap(
        pipeline_mod.InvarNetX, "train_signature_from_run",
        "pipeline.train_signature",
    )
    rec.wrap(
        pipeline_mod.InvarNetX, "train_signature", "pipeline.train_signature"
    )
    rec.wrap(pipeline_mod.InvarNetX, "build_invariants", "invariants.build")
    rec.wrap(pipeline_mod.InvarNetX, "diagnose_run", "pipeline.diagnose_run")
    rec.wrap(
        pipeline_mod.InvarNetX, "run_association_matrix", "invariants.matrix"
    )
    rec.wrap(pipeline_mod, "select_invariants", "invariants.select")
    rec.wrap(micfast_mod, "mic_matrix_fast", "micfast.matrix")
    rec.wrap(invariants_mod, "mic_matrix_fast", "micfast.matrix")
    rec.wrap(DirectoryStore, "peek", "store.load")
    rec.wrap(DirectoryStore, "slot", "store.load")
    rec.wrap(DirectoryStore, "persist", "store.persist")
    rec.count(metrics_mod.Counter, "inc", "metrics.inc")
    rec.count(os, "fsync", "fsync", per_span=True)
