"""Benchmark entry point.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload steady-fleet --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``steady-fleet`` and ``incident-storm`` (see
``perfbench/workloads.json`` for what each stresses and what each metric
means on it).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` repeats the run with every layer entry point wrapped and
prints the per-layer metrics instead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier ``#`` lines carry sample counts,
host-noise diagnostics (CPU steal, calibration loop) and any failure.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread

HERE = Path(__file__).resolve().parent
WORKLOADS = ("steady-fleet", "incident-storm")


def _metric_specs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the server child is stopped
    # and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path("src") / "repro" / "cli.py").is_file():
        print(
            "error: run from the root of an invarnet-x source checkout "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(HERE))
    import common
    import serving

    e2e, per_layer = _metric_specs()
    steal0 = common.steal_ticks()
    code = common.code_fingerprint(HERE)
    result, layers, counts, tally, info = serving.run(
        args.workload, args.seed, args.seconds, bool(args.trace), T0
    )
    for diff in common.check_counts(
        code, args.workload, args.seed, args.seconds, counts
    ):
        tally.check(False, f"exact count changed for this seed: {diff}")

    chosen = per_layer if args.trace else e2e
    source = layers if args.trace else result
    metrics = {}
    for spec in chosen:
        value = float(source[spec["name"]])
        if not math.isfinite(value):
            tally.check(False, f"metric {spec['name']} is not finite")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    host = {
        "steal_ticks": common.steal_ticks() - steal0,
        # after the run, so that it stays out of setup_s
        "calibration_s": round(common.calibration_s(), 4),
    }
    common.append_record({
        "code": code, "workload": args.workload, "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds, "result": result, "layers": layers,
        "counts": counts, "info": info, "host": host,
        "failures": tally.failures,
    })
    self_ms = info.pop("self_ms", None)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={json.dumps(v)}" for k, v in info.items()))
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print("# counts " + json.dumps(counts, sort_keys=True))
    if self_ms is not None:
        print("# self_ms " + json.dumps(self_ms))
    if args.trace:
        base = common.untraced_throughput(
            code, args.workload, args.seed, args.seconds
        )
        traced = layers["trace.throughput_per_s"]
        print(
            "# tracing_overhead "
            + (
                f"throughput untraced={base:.4g} traced={traced:.4g} "
                f"slowdown={1 - traced / base:.3f}"
                if base
                else "no untraced run of this code, workload, seed and "
                "length recorded yet"
            )
        )
    for failure in tally.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
