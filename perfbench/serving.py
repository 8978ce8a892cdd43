"""The serving workloads: ``invarnetx serve`` driven over HTTP.

One generator process, one keep-alive connection, closed loop: the next
request is sent when the previous reply has been read.  The server is
the shipped CLI (``python -m repro.cli serve``) in its own process with
its default flags: observability on, blackbox on, SLO tracker on.  Only
``--port 0`` and ``--shards`` are set; ``--shards`` is at most the CPU
count so the ingest pool has no more threads than cores.

Run shape (every input is built before the timed phase):

1. set-up: simulate the fleet's telemetry, train a fresh registry
   (repeated :data:`SETUP_REPEATS` times, see :func:`_setup`), build
   every request body, start the server, warm every lane past the
   600-sample CPI history bound with batched POSTs;
2. timed phase: replay the fixed request sequence (its length, derived
   from ``--seconds``, ends the phase, so every run of a seed does the
   same work);
3. checks: reply accounting, ``/health`` bundles, and the event stream
   of a fixed lane subset against an in-process reference fleet.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import gen
import spans

#: Timed rounds per --second, sized so the timed phase lasts about
#: --seconds on a 2-vCPU host.  A round is one tick of every lane.
ROUNDS_PER_SECOND = {"steady-fleet": 15, "incident-storm": 3}
SHARDS = min(2, os.cpu_count() or 1)
#: Lanes whose event streams are checked against the reference fleet.
REFERENCE_LANES = 4
SERVER_START_TIMEOUT = 120.0
SERVER_STOP_TIMEOUT = 30.0
PR_SET_PDEATHSIG = 1
#: Ticks from an alarm to its diagnosis: the 30-tick window starts with
#: the 5 lead-in rows buffered at alarm time.
WINDOW_FILL = 25
#: Registry training, the costliest part of set-up (CPU only, mostly MIC
#: matrices), runs this many times (MIC cache cleared, fresh registry
#: each time); setup_s counts the median repetition, so one slow stretch
#: of the host moves it less.
SETUP_REPEATS = 3


def _server_env() -> dict:
    # The BLAS thread pins set by run.py are inherited through os.environ.
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _child_setup() -> None:
    # A parent started in the background may pass SIGINT down ignored;
    # the server's clean shutdown (and the traced launcher's span dump)
    # runs on KeyboardInterrupt, so the child must see the default.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    # If the generator dies without stopping the server, the kernel
    # kills the server too (Linux prctl PR_SET_PDEATHSIG).
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Server:
    """``invarnetx serve`` as a child process (traced through the
    benchmark's launcher when ``spans_path`` is given)."""

    def __init__(self, registry: Path, log: Path, spans_path=None) -> None:
        cli = [
            "serve", str(registry), "--port", "0", "--shards", str(SHARDS),
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *cli]
        else:
            launcher = Path(__file__).with_name("launch.py")
            cmd = [sys.executable, str(launcher), str(spans_path), "--", *cli]
        self.log = log
        self._log_fh = open(log, "wb")
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log_fh,
            env=_server_env(),
            preexec_fn=_child_setup,
        )
        self.port = self._wait_port()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def _wait_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        pattern = re.compile(rb"on http://[0-9.]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        tail = self.log.read_bytes()[-2000:].decode("utf-8", "replace")
        raise RuntimeError(f"server did not start:\n{tail}")

    def request(self, method: str, path: str, body: bytes | None, rid: str):
        """One request on the keep-alive connection.

        Returns ``(status, reply bytes, start, end)``.
        """
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        end = time.perf_counter()
        return resp.status, data, start, end

    def stop(self) -> None:
        """Interrupt the server (its clean shutdown path) and reap it."""
        if hasattr(self, "conn"):
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
        self._log_fh.close()


def _ingest_ok(tally: common.Tally, status: int, data: bytes, ticks: int, rid: str):
    """Check one ``POST /ingest`` reply; returns its parsed body."""
    reply = None
    if status == 200:
        try:
            reply = json.loads(data)
        except ValueError:
            reply = None
    ok = (
        reply is not None
        and reply.get("accepted") == ticks
        and reply.get("rejected") == 0
        and reply.get("malformed") == 0
    )
    tally.check(ok, f"{rid}: status {status}, reply {data[:200]!r}")
    return reply or {}


def _event_key(event: dict) -> tuple:
    return (
        event["context"],
        event["type"],
        event["tick"],
        event.get("alarm_tick"),
        event.get("cause"),
    )


def _reference_events(registry: Path, lanes, rounds: int) -> dict:
    """Events of ``lanes`` from an in-process fleet fed the same ticks.

    Observability and blackbox off, ``workers=0``; this process never
    shares the server's MIC content-hash cache.
    """
    from repro.core import InvarNetX
    from repro.serve import FleetMonitor, Tick
    from repro.store import DirectoryStore

    pipeline = InvarNetX.attached_to(DirectoryStore(registry), ledger=False)
    out: dict[str, list] = {lane.name: [] for lane in lanes}
    with FleetMonitor(pipeline, shards=1, workers=0) as fleet:
        for r in range(rounds):
            batch = []
            for lane in lanes:
                tick = lane.tick(r)
                batch.append(
                    Tick(
                        lane.context,
                        np.asarray(tick["metrics"], dtype=float),
                        float(tick["cpi"]),
                    )
                )
            for fe in fleet.ingest(batch).events:
                ev = fe.event
                diag = hasattr(ev, "alarm_tick")
                out[str(fe.context)].append((
                    str(fe.context),
                    "diagnosis" if diag else "alarm",
                    ev.tick,
                    ev.alarm_tick if diag else None,
                    ev.root_cause if diag else None,
                ))
    return out


def _check_registry(tally, registry: Path, lanes, trained: dict) -> None:
    """The registry reopened in a fresh store holds what was trained, and
    its ledger one signature record per context."""
    from repro.store import DirectoryStore

    fresh = DirectoryStore(registry)
    for lane in lanes:
        reloaded = fresh.peek(lane.context.key())
        tally.check(
            reloaded is not None
            and common.model_artifacts(reloaded)
            == common.model_artifacts(trained[lane.name]),
            f"{lane.name}: reopened registry differs from memory",
        )
    signatures = sum(
        1 for entry in fresh.ledger().entries() if entry["kind"] == "signature"
    )
    tally.check(
        signatures == len(lanes),
        f"ledger has {signatures} signature records for {len(lanes)} contexts",
    )


def _reference_subset(lanes, workload):
    pool = [
        lane for lane in lanes
        if workload != "incident-storm" or lane.fault_round is not None
    ]
    fast = [lane for lane in pool if lane.order == gen.FAST_ORDER]
    full = [lane for lane in pool if lane.order == gen.FULL_ORDER]
    half = REFERENCE_LANES // 2
    return fast[:half] + full[:half]


def _parse_metrics(text: str) -> dict:
    """Series count and the counters the exact-count record reads."""
    series = 0
    checks: dict[str, float] = {}
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series += 1
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
        if name == "invarnetx_monitor_checks_total":
            ctx = re.search(r'context="([^"]*)"', name_labels).group(1)
            checks[ctx] = float(value)
    return {"series": series, "checks": checks, "totals": totals}


def _setup(workload, seed, seconds, workdir, rec):
    """Inputs, registry, server, warm-up; returns the live state and the
    seconds that set-up spent beyond the median training repetition."""
    from repro.stats.micfast import clear_association_cache

    phases = {}
    t = time.perf_counter()
    lanes = gen.fleet_lanes(seed)
    phases["simulate_s"] = time.perf_counter() - t
    repeats = []
    for k in range(SETUP_REPEATS):
        if rec is not None:
            rec.reset()  # the traced training spans are the last repeat's
        clear_association_cache()
        registry = workdir / f"registry-{k}"
        t = time.perf_counter()
        trained = gen.train_fleet_registry(registry, lanes)
        repeats.append(time.perf_counter() - t)
        if k:
            shutil.rmtree(workdir / f"registry-{k - 1}")
    phases["train_repeats_s"] = repeats
    training = None
    if rec is not None:
        training = (
            [(sid, *s) for sid, s in sorted(rec.spans.items())],
            dict(rec.counts),
        )
        rec.reset()
    timed_rounds = ROUNDS_PER_SECOND[workload] * seconds
    t = time.perf_counter()
    plan = gen.fleet_plan(lanes, workload, timed_rounds)
    phases["plan_s"] = time.perf_counter() - t
    t = time.perf_counter()
    server = Server(
        registry,
        workdir / "server.log",
        spans_path=workdir / "spans.json" if rec is not None else None,
    )
    phases["server_start_s"] = time.perf_counter() - t
    excess = sum(repeats) - statistics.median(repeats)
    return lanes, registry, trained, plan, server, training, phases, excess


def run(workload: str, seed: int, seconds: int, trace: bool, t0: float):
    """One run of a serving workload; returns the result fields."""
    workdir = common.WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, t0, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, t0, workdir):
    rec = None
    if trace:
        rec = spans.Recorder()
        spans.instrument(rec)
    tally = common.Tally()
    server = None
    try:
        (lanes, registry, trained, plan, server, training, phases,
         excess) = _setup(workload, seed, seconds, workdir, rec)
        events: list[tuple] = []
        backfill_lat: list[float] = []
        t = time.perf_counter()
        for i, (body, ticks) in enumerate(plan.warmup):
            rid = f"{spans.WARMUP_PREFIX}{i:05d}"
            status, data, c_start, c_end = server.request(
                "POST", "/ingest", body, rid
            )
            if i >= len(plan.warmup) - gen.BACKFILL_POSTS:
                backfill_lat.append(c_end - c_start)
            reply = _ingest_ok(tally, status, data, ticks, rid)
            events.extend(_event_key(e) for e in reply.get("events", ()))
        phases["warmup_s"] = time.perf_counter() - t
        setup_s = time.perf_counter() - t0 - excess

        # ---------------- timed phase: replies are parsed afterwards
        timed = []
        start = time.perf_counter()
        for i, (body, ticks) in enumerate(plan.timed):
            rid = f"{spans.TIMED_PREFIX}{i:05d}"
            timed.append(
                (rid, ticks, *server.request("POST", "/ingest", body, rid))
            )
        wall = time.perf_counter() - start

        status, data, _, _ = server.request("GET", "/health", None, "c-health")
        health = json.loads(data) if status == 200 else {}
        status_m, metrics_body, _, _ = server.request(
            "GET", "/metrics", None, "c-metrics"
        )
        rss_mb = common.vm_hwm_mib(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    # ---------------- checks and metrics
    t_checks = time.perf_counter()
    accepted = 0
    op_lat: list[float] = []
    # the heavy operation: a diagnosing POST on incident-storm, a
    # full-history backfill POST on steady-fleet (which never diagnoses)
    heavy_lat = backfill_lat if workload == "steady-fleet" else []
    client: dict[str, tuple] = {}
    for rid, ticks, status, data, t_start, t_end in timed:
        client[rid] = (t_start, t_end)
        reply = _ingest_ok(tally, status, data, ticks, rid)
        accepted += reply.get("accepted", 0)
        evs = [_event_key(e) for e in reply.get("events", ())]
        events.extend(evs)
        if any(e[1] == "diagnosis" for e in evs):
            heavy_lat.append(t_end - t_start)
        else:
            op_lat.append(t_end - t_start)
    alarms = sum(1 for e in events if e[1] == "alarm")
    diagnoses = sum(1 for e in events if e[1] == "diagnosis")
    tally.check(
        health.get("incident_bundles") == diagnoses,
        f"/health incident_bundles {health.get('incident_bundles')} "
        f"!= {diagnoses} diagnoses seen",
    )
    # every replayed fault window alarms exactly once, and each alarm
    # that has 25 more rounds to go is diagnosed on exactly that round
    alarm_ticks = sorted((e[0], e[2]) for e in events if e[1] == "alarm")
    tally.check(
        len(alarm_ticks) == plan.faults
        and len({c for c, _ in alarm_ticks}) == plan.faults,
        f"{alarms} alarms on {len({c for c, _ in alarm_ticks})} lanes, "
        f"expected one on each of {plan.faults} faulted lanes",
    )
    due = sorted(
        (c, a + WINDOW_FILL, a) for c, a in alarm_ticks
        if a + WINDOW_FILL < plan.rounds
    )
    got = sorted((e[0], e[2], e[3]) for e in events if e[1] == "diagnosis")
    tally.check(got == due, f"diagnoses {got} != due {due}")
    subset = _reference_subset(lanes, workload)
    reference = _reference_events(registry, subset, plan.rounds)
    for lane in subset:
        seen = [e for e in events if e[0] == lane.name]
        tally.check(
            seen == reference[lane.name],
            f"{lane.name}: served events {seen} != reference "
            f"{reference[lane.name]}",
        )
    _check_registry(tally, registry, lanes, trained)
    phases["checks_s"] = time.perf_counter() - t_checks
    tally.check(status_m == 200, "final GET /metrics failed")
    prom = _parse_metrics(metrics_body.decode("utf-8"))
    orders = {lane.name: lane.order for lane in lanes}
    counts = {
        "alarms": alarms,
        "diagnoses": diagnoses,
        "bundles": health.get("incident_bundles"),
        "lanes": health.get("contexts"),
        "metrics_series": prom["series"],
        "drift_checks_fast_lane": sum(
            v for c, v in prom["checks"].items()
            if orders.get(c) == gen.FAST_ORDER
        ),
        "drift_checks_full_recursion": sum(
            v for c, v in prom["checks"].items()
            if orders.get(c) == gen.FULL_ORDER
        ),
        "mic_cache_hits": prom["totals"].get("invarnetx_mic_cache_hits_total", 0),
        "mic_cache_misses": prom["totals"].get(
            "invarnetx_mic_cache_misses_total", 0
        ),
    }
    throughput = accepted / wall
    result = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "op_p50_ms": common.pct(op_lat, 50) * 1e3,
        "op_p90_ms": common.pct(op_lat, 90) * 1e3,
        "heavy_op_p50_ms": common.pct(heavy_lat, 50) * 1e3,
        "rss_mb": rss_mb,
    }
    info = {
        "timed_requests": len(timed),
        "op_samples": len(op_lat),
        "heavy_samples": len(heavy_lat),
        "timed_wall_s": wall,
        "ticks": accepted,
        **{
            k: [round(x, 3) for x in v] if isinstance(v, list) else round(v, 3)
            for k, v in phases.items()
        },
    }
    layers = None
    if trace:
        dump = json.loads((workdir / "spans.json").read_text("utf-8"))
        layers = _layers(
            dump, training, client, accepted, health, metrics_body,
            registry, throughput, len(lanes),
        )
        counts.update(layers.pop("_counts"))
        info["self_ms"] = layers.pop("_self_ms")
    return result, layers, counts, tally, info


def _layers(dump, training, client, ticks, health, metrics_body,
            registry, throughput, contexts):
    """Per-layer metrics of a traced serving run."""
    rows = [tuple(r) for r in dump["spans"]]
    selfs = common.self_times(rows)
    timed = [r for r in rows if r[5].startswith(spans.TIMED_PREFIX)]
    by_name: dict[str, list] = {}
    for r in timed:
        by_name.setdefault(r[1], []).append(r)

    def dur(name):
        return [r[3] - r[2] for r in by_name.get(name, ())]

    def self_sum(*names):
        return sum(selfs[r[0]] for n in names for r in by_name.get(n, ()))

    counts = dump["counts"]
    post = {r[5]: r for r in by_name.get("http.do_POST", ())}
    ingest = {r[5]: r for r in by_name.get("fleet.ingest", ())}
    transport, handler_self = [], []
    for rid, (c_start, c_end) in client.items():
        if rid not in post:
            continue
        p = post[rid]
        transport.append((c_end - c_start) - (p[3] - p[2]))
        if rid in ingest:
            i = ingest[rid]
            handler_self.append((p[3] - p[2]) - (i[3] - i[2]))
    fast_calls = len(by_name.get("fastpath.fast_check", ()))
    served = counts.get("fastpath.served", 0)
    commits = len(by_name.get("blackbox.commit", ()))
    bundle_bytes = 0
    incidents = Path(registry) / "incidents"
    if incidents.is_dir():
        for path in incidents.rglob("*"):
            if path.is_file():
                bundle_bytes += path.stat().st_size
    load_rows = [r for r in rows if r[1] == "store.load"]
    out = {
        "http.transport_ms": common.pct(transport, 50) * 1e3,
        "http.handler_self_ms": common.pct(handler_self, 50) * 1e3,
        "fleet.ingest_self_us_per_tick": self_sum("fleet.ingest", "fleet.drain")
        / max(ticks, 1) * 1e6,
        "fleet.lanes_built": health.get("contexts", 0),
        "fastpath.calls": fast_calls,
        "fastpath.served_share": served / fast_calls if fast_calls else 0.0,
        "anomaly.check_next_calls": len(by_name.get("anomaly.check_next", ())),
        "anomaly.check_next_us": common.mean(dur("anomaly.check_next")) * 1e6,
        "online.observe_self_us": common.mean(
            [selfs[r[0]] for r in by_name.get("online.observe", ())]
        ) * 1e6,
        "metrics.inc_calls_per_tick": counts.get("metrics.inc", 0) / max(ticks, 1),
        "metrics.series": _parse_metrics(metrics_body.decode("utf-8"))["series"],
        "metrics.body_bytes": len(metrics_body),
        "blackbox.record_us": common.mean(dur("blackbox.record")) * 1e6,
        "blackbox.commit_ms": common.mean(dur("blackbox.commit")) * 1e3,
        "blackbox.fsyncs_per_bundle": (
            counts.get("fsync:blackbox.commit", 0) / commits if commits else 0.0
        ),
        "blackbox.bytes_per_bundle": bundle_bytes / commits if commits else 0.0,
        "ledger.appends": len(by_name.get("ledger.append", ())),
        "ledger.append_us": common.mean(dur("ledger.append")) * 1e6,
        "pipeline.infer_calls": len(by_name.get("pipeline.infer", ())),
        "pipeline.infer_ms": common.mean(dur("pipeline.infer")) * 1e3,
        "micfast.matrices": len(by_name.get("micfast.matrix", ())),
        "micfast.matrix_ms": common.mean(dur("micfast.matrix")) * 1e3,
        "micfast.cache_hits": dump["mic_cache"]["hits"],
        "micfast.cache_misses": dump["mic_cache"]["misses"],
        "store.load_ms_per_context": sum(selfs[r[0]] for r in load_rows)
        / max(contexts, 1) * 1e3,
        "trace.throughput_per_s": throughput,
    }
    out.update(training_layers(*training, contexts))
    out["_self_ms"] = common.self_table(timed, selfs)
    out["_counts"] = {
        "fastpath_calls": fast_calls,
        "fastpath_served": served,
        "check_next_calls": out["anomaly.check_next_calls"],
        "metrics_inc_calls": counts.get("metrics.inc", 0),
        "fsyncs_per_bundle": out["blackbox.fsyncs_per_bundle"],
        "fsyncs_per_persist": out["store.fsyncs_per_persist"],
        "server_mic_cache": [dump["mic_cache"]["hits"], dump["mic_cache"]["misses"]],
    }
    return out


def training_layers(rows, counts, contexts) -> dict:
    """Per-layer metrics of registry training (offline stages, store)."""
    rows = [tuple(r) for r in rows]
    persists = [r for r in rows if r[1] == "store.persist"]
    fsyncs = counts.get("fsync:store.persist", 0)
    per_ctx = 1e3 / max(contexts, 1)

    def total(name_rows):
        return sum(r[3] - r[2] for r in name_rows)

    return {
        "store.persist_ms_per_context": total(persists) * per_ctx,
        "store.fsyncs_per_persist": fsyncs / len(persists) if persists else 0.0,
        "anomaly.train_ms_per_context": total(
            [r for r in rows if r[1] == "anomaly.train"]
        ) * per_ctx,
        "invariants.select_ms_per_context": total(
            common.top_level(rows, "invariants.")
        ) * per_ctx,
        "pipeline.train_signature_ms": common.mean(
            [r[3] - r[2] for r in common.top_level(rows, "pipeline.train_signature")]
        ) * 1e3,
    }
