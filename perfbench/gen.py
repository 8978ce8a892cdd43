"""Deterministic benchmark inputs: simulated telemetry, fault windows and
the trained model registries.

Everything here is a pure function of the seed, so the same seed gives
the same ticks, the same request bodies and the same registry on every
host.  Nothing here is timed by itself; the callers time whole phases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import HadoopCluster
from repro.core import InvarNetX, InvarNetXConfig, OperationContext
from repro.faults.spec import FaultSpec, build_fault
from repro.store import DirectoryStore

WINDOW = 30  # abnormal-window ticks (the monitor default)

#: The four batch workloads; every serving node runs all of them.
BATCH = ("wordcount", "sort", "grep", "bayes")

#: Serving fleet: 6 slaves x 4 workloads = 24 operation contexts.
FLEET_NODES = tuple(f"slave-{i}" for i in range(1, 7))

#: Fixed ARIMA orders of the serving fleet.  (2,0,0) is served by the
#: q == 0 fast lane, (1,0,1) goes through the full ARMA recursion.  The
#: orders are fixed at training, so the mix never depends on the seed.
FAST_ORDER = (2, 0, 0)
FULL_ORDER = (1, 0, 1)

#: Faults replayed into the incident storm.  At intensity 3 these two
#: trip the three-consecutive drift rule on the window's first three
#: ticks, so each replayed window yields one alarm and, 25 ticks later,
#: one diagnosis at a seed-independent round.
STORM_FAULTS = ("Mem-hog", "Net-drop")
STORM_INTENSITY = 3.0

FAULT_START = 20  # injection tick inside a simulated fault run
NORMAL_MIN_TICKS = 150  # length of each lane's normal block
#: Warm-up first fills every lane's CPI history to the monitor's
#: 600-sample bound (in posts of HISTORY_ROUNDS_PER_POST rounds), then
#: posts BACKFILL_POSTS batches of BACKFILL_ROUNDS rounds each.  The
#: backfill posts run at the steady per-tick cost, so they are identical
#: work; steady-fleet reports their median latency.
HISTORY_ROUNDS = 600
HISTORY_ROUNDS_PER_POST = 60
BACKFILL_POSTS = 24
BACKFILL_ROUNDS = 4
WARMUP_ROUNDS = HISTORY_ROUNDS + BACKFILL_POSTS * BACKFILL_ROUNDS


def _round_metrics(a: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(a, dtype=float), 4)


def _round_cpi(a: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(a, dtype=float), 5)


@dataclass
class Lane:
    """One serving context and its telemetry.

    The lane replays its normal block cyclically; the drift detector is
    trained on that block (twice over, so the wrap-around is part of the
    training residuals), hence the beta-max threshold never trips on
    normal ticks.  An incident-storm lane additionally replays one fault
    window starting at ``fault_round``.
    """

    workload: str
    node: str
    ip: str
    order: tuple[int, int, int]
    fault: str
    normal_cpi: np.ndarray
    normal_metrics: np.ndarray
    signature_window: np.ndarray
    fault_cpi: np.ndarray
    fault_metrics: np.ndarray
    fault_round: int | None = None

    @property
    def context(self) -> OperationContext:
        return OperationContext(self.workload, self.node, self.ip)

    @property
    def name(self) -> str:
        return f"{self.workload}@{self.node}"

    def tick(self, r: int) -> dict:
        """The JSON tick this lane's agent sends in round ``r``."""
        f = self.fault_round
        if f is not None and f <= r < f + WINDOW:
            row, cpi = self.fault_metrics[r - f], self.fault_cpi[r - f]
        else:
            i = r % self.normal_cpi.size
            row, cpi = self.normal_metrics[i], self.normal_cpi[i]
        return {
            "workload": self.workload,
            "node": self.node,
            "ip": self.ip,
            "metrics": row.tolist(),
            "cpi": float(cpi),
        }


def _multi_fault_run(cluster, workload, nodes, names, seed, intensity):
    faults = [
        build_fault(
            name,
            FaultSpec(
                target=node,
                start=FAULT_START,
                duration=WINDOW,
                intensity=intensity,
            ),
        )
        for node, name in zip(nodes, names)
    ]
    return cluster.run(workload, faults=faults, seed=seed)


def _fault_window(run, node):
    trace = run.node(node)
    stop = FAULT_START + WINDOW
    return (
        _round_metrics(trace.metrics[FAULT_START:stop]),
        _round_cpi(trace.cpi[FAULT_START:stop]),
    )


def fleet_lanes(seed: int) -> list[Lane]:
    """The 24 serving lanes of ``seed`` (half fast-lane, half full)."""
    cluster = HadoopCluster(n_slaves=len(FLEET_NODES))
    base = seed * 1000
    lanes: list[Lane] = []
    for wi, workload in enumerate(BATCH):
        runs = []
        while sum(r.execution_ticks for r in runs) < NORMAL_MIN_TICKS:
            runs.append(cluster.run(workload, seed=base + wi * 10 + len(runs)))
        names = [
            STORM_FAULTS[(ni + wi) % len(STORM_FAULTS)]
            for ni in range(len(FLEET_NODES))
        ]
        sig_run = _multi_fault_run(
            cluster, workload, FLEET_NODES, names, base + 500 + wi,
            STORM_INTENSITY,
        )
        storm_run = _multi_fault_run(
            cluster, workload, FLEET_NODES, names, base + 700 + wi,
            STORM_INTENSITY,
        )
        for ni, node in enumerate(FLEET_NODES):
            sig_metrics, _ = _fault_window(sig_run, node)
            fault_metrics, fault_cpi = _fault_window(storm_run, node)
            lanes.append(
                Lane(
                    workload=workload,
                    node=node,
                    ip=cluster.ip_of(node),
                    order=FAST_ORDER if (wi + ni) % 2 == 0 else FULL_ORDER,
                    fault=names[ni],
                    normal_cpi=_round_cpi(
                        np.concatenate([r.node(node).cpi for r in runs])
                    ),
                    normal_metrics=_round_metrics(
                        np.concatenate([r.node(node).metrics for r in runs])
                    ),
                    signature_window=sig_metrics,
                    fault_cpi=fault_cpi,
                    fault_metrics=fault_metrics,
                )
            )
    return lanes


def train_fleet_registry(root, lanes: list[Lane]) -> dict:
    """Train every lane's models into a fresh :class:`DirectoryStore`.

    Per context: the ARIMA model at its fixed order on the normal block,
    invariants from two 30-tick normal windows (one from each end of the
    block, i.e. from different simulated runs), one signature from a
    fault run simulated with another seed than the one the storm replays.

    Returns lane name -> the trained in-memory models.
    """
    store = DirectoryStore(root)
    pipes = {
        order: InvarNetX.attached_to(
            store, config=InvarNetXConfig(arima_order=order)
        )
        for order in (FAST_ORDER, FULL_ORDER)
    }
    trained = {}
    for lane in lanes:
        pipe = pipes[lane.order]
        ctx = lane.context
        block = lane.normal_cpi
        pipe.train_performance_model(ctx, [np.concatenate([block, block])])
        m = lane.normal_metrics
        pipe.build_invariants(ctx, [m[10 : 10 + WINDOW], m[-10 - WINDOW : -10]])
        pipe.train_signature(ctx, lane.fault, lane.signature_window)
        trained[lane.name] = pipe.context_models(ctx)
    return trained


@dataclass
class Plan:
    """The request sequence of one serving run.

    ``warmup`` holds ``(body, ticks)`` POSTs of many rounds each (set-up),
    the last :data:`BACKFILL_POSTS` of them at full history; ``timed``
    holds the closed-loop ``(body, ticks)`` POSTs.
    """

    rounds: int
    warmup: list[tuple[bytes, int]] = field(default_factory=list)
    timed: list[tuple[bytes, int]] = field(default_factory=list)
    faults: int = 0  # fault windows replayed; each must alarm once


def _body(ticks: list[dict]) -> bytes:
    return json.dumps({"ticks": ticks}).encode("utf-8")


def fleet_plan(lanes: list[Lane], workload: str, timed_rounds: int) -> Plan:
    """Build every request body of a serving run up front.

    steady-fleet: one POST per round carrying one tick of every lane.
    incident-storm: one POST per node per round with that node's four
    lanes; fault windows start two rounds apart so that diagnoses arrive
    at a steady rate, beginning right after warm-up.
    """
    plan = Plan(rounds=WARMUP_ROUNDS + timed_rounds)
    if workload == "incident-storm":
        # A window alarms on its 3rd tick and is diagnosed 25 ticks later:
        # fault k, starting 26 - 2k rounds before timing, is diagnosed in
        # timed round 2k + 1.  Three spare rounds at the end absorb an
        # alarm that comes a few ticks late.  Faults go node by node,
        # mixing fast-lane and full-recursion lanes.
        order = sorted(
            range(len(lanes)),
            key=lambda i: (i % len(FLEET_NODES), i // len(FLEET_NODES)),
        )
        plan.faults = max(1, min(len(lanes), (timed_rounds - 3) // 2))
        for k, i in enumerate(order[: plan.faults]):
            lanes[i].fault_round = WARMUP_ROUNDS - 26 + 2 * k
    bounds = list(range(0, HISTORY_ROUNDS, HISTORY_ROUNDS_PER_POST))
    bounds += list(range(HISTORY_ROUNDS, WARMUP_ROUNDS + 1, BACKFILL_ROUNDS))
    for start, stop in zip(bounds, bounds[1:]):
        ticks = [lane.tick(r) for r in range(start, stop) for lane in lanes]
        plan.warmup.append((_body(ticks), len(ticks)))
    for r in range(WARMUP_ROUNDS, plan.rounds):
        if workload == "incident-storm":
            for node in FLEET_NODES:
                ticks = [lane.tick(r) for lane in lanes if lane.node == node]
                plan.timed.append((_body(ticks), len(ticks)))
        else:
            ticks = [lane.tick(r) for lane in lanes]
            plan.timed.append((_body(ticks), len(ticks)))
    return plan
