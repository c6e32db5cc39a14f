#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It drives the system only through
its public entry points (``DuetEngine.optimize``, ``.latency_stats``,
``.session``, ``.serve`` and ``ServingFrontend.submit``), checks every
output, and prints one JSON object as the last line of standard output.
With ``--trace 0`` the object holds the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics,
which come from a run whose layers are timed by wrapping their public
functions from this directory (see ``harness.Tracer``).

Each run also writes its full record -- host fingerprint, every metric,
the errors found -- and, when traced, its spans as Chrome trace-event
JSON, under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# BLAS thread pools must be pinned before NumPy is first imported: a
# free-running pool is what made host-clock comparisons on two cores
# flip between runs.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOADS = ("plan_paper", "infer_numpy", "infer_native", "serve_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment() -> None:
    os.environ.update(PINNED_ENV)
    # The native .so cache belongs to the benchmark, never to the user's
    # cache directory; infer_native warms it before anything is timed.
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(BENCH_DIR / ".native_cache")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no repro package under {src}; run from a full checkout"
        )
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "plan_paper":
        import plan

        return plan.run(seed, seconds, trace)
    if name.startswith("infer_"):
        import infer

        return infer.run(name, seed, seconds, trace)
    import serve

    return serve.run(seed, seconds, trace)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    _prepare_environment()
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    began = time.perf_counter()
    result = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e = dict(result["end_to_end"], rss_mb=harness.peak_rss_mb())

    if args.trace:
        layers = dict(result["layers"])
        layers["fail_ratio"] = result["failed"] / result["attempted"]
        traced = result["traced_end_to_end"]
        for name in ("latency_ms_p75", "latency_ms_p90"):
            layers[f"trace.overhead.{name}"] = traced[name] - e2e[name]
        layers["trace.overhead.share"] = (
            traced["latency_ms_p75"] / e2e["latency_ms_p75"] - 1.0
        )
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: e2e[m["name"]] for m in wanted}
    metrics = {
        m["name"]: {"value": harness.finite(float(values[m["name"]])), "unit": m["unit"]}
        for m in wanted
    }

    errors = result["errors"]
    record = {
        "fingerprint": harness.fingerprint(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - began,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "refusals": result.get("refusals", {}),
        "errors": errors[:50],
        "end_to_end": e2e,
        "metrics": metrics,
    }
    if args.trace:
        record["traced_end_to_end"] = result["traced_end_to_end"]
    out_dir = BENCH_DIR / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        result["tracer"].write(
            out_dir / f"{stem}.spans.json", record["fingerprint"]
        )

    for message in errors[:20]:
        harness.log(f"error: {message}")
    print(json.dumps({"fingerprint": record["fingerprint"]}))
    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
