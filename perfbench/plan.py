"""plan_paper: plan paper-scale graphs, no tensor numerics.

One planning op is what ``repro optimize --noisy --runs 5000`` does:
``DuetEngine.optimize`` plus a seeded 5000-sample
``DuetEngine.latency_stats``.  Every op builds its graph afresh, so no
cache inside the program can carry one op over to the next.

The pool is the seven-model zoo plus the distinct Wide&Deep variants of
the Fig. 14-17 sweeps.  A seed serves four of the five Fig. 17 frozen
batch sizes (the one left out is drawn from the seed), so the virtual
metrics differ from seed to seed while every other graph is planned in
every run.  Ops run in whole rounds, one seeded permutation of the pool
each, so every graph carries the same weight in the percentiles.
"""

from __future__ import annotations

import gc
import json
import time

import harness
from harness import BENCH_DIR, Tracer

N_STATS_RUNS = 5000
#: A run plans at least this many rounds, so p90 has >= 10 ops beyond it.
MIN_ROUNDS = 5
#: Timed set-ups before every round; setup_s is their median over the run.
SETUPS_PER_ROUND = 3


def graph_pool(seed: int) -> list[tuple[str, object]]:
    """(name, builder) for every graph of this seed's draw."""
    from repro.bench.workloads import (
        BATCH_SIZE_SWEEP,
        CNN_DEPTH_SWEEP,
        FFN_DEPTH_SWEEP,
        RNN_LAYER_SWEEP,
    )
    from repro.models import WideDeepConfig, build_model
    from repro.models.zoo import MODEL_NAMES

    base = WideDeepConfig()
    pool = [(name, lambda name=name: build_model(name)) for name in MODEL_NAMES]
    variants = (
        [("rnn", k, base.with_rnn_layers(k)) for k in RNN_LAYER_SWEEP]
        + [("cnn", k, base.with_cnn_depth(k)) for k in CNN_DEPTH_SWEEP]
        + [("ffn", k, base.with_ffn_layers(k)) for k in FFN_DEPTH_SWEEP]
    )
    batches = list(BATCH_SIZE_SWEEP)
    dropped = batches[int(harness.seed_rng(seed, "plan", "batch").integers(len(batches)))]
    variants += [("batch", b, base.with_batch(b)) for b in batches if b != dropped]
    for family, value, cfg in variants:
        if cfg == base:  # the zoo's wide_deep already covers it
            continue
        pool.append(
            (f"wide_deep_{family}{value}",
             lambda cfg=cfg: build_model("wide_deep", config=cfg))
        )
    return pool


def _check_plan(engine, graph, opt) -> list[str]:
    from repro.testing.invariants import check_plan, validate_schedule

    devices = engine.machine.device_names
    violations = validate_schedule(
        graph, opt.partition, opt.placement, opt.schedule.plan,
        devices=devices, host=engine.machine.host,
    )
    if opt.plan is not opt.schedule.plan:
        violations += check_plan(opt.plan, graph=graph, devices=devices)
    return violations


class _Virtual:
    """Virtual-clock results per graph; any repeat that differs fails."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, float]] = {}
        self.errors: list[str] = []

    def record(self, name: str, mean_ms: float, p99_ms: float) -> bool:
        seen = self.values.setdefault(name, (mean_ms, p99_ms))
        if seen != (mean_ms, p99_ms):
            self.errors.append(
                f"{name}: virtual latency {mean_ms!r}/{p99_ms!r} ms differs "
                f"from the earlier {seen[0]!r}/{seen[1]!r} ms in this run"
            )
            return False
        return True

    def check_against_earlier_runs(self, seed: int) -> None:
        """Runs of one seed on the same sources must agree exactly.

        The record is keyed by a digest of the program's and the
        benchmark's sources as well as the seed, so a change that moves
        the plans on purpose starts a record of its own instead of
        failing against the values of other code."""
        source = harness.source_digest()[:16]
        path = BENCH_DIR / ".state" / f"plan_virtual_{source}_seed{seed}.json"
        if path.exists():
            earlier = {k: tuple(v) for k, v in json.loads(path.read_text()).items()}
            for name, value in self.values.items():
                if name in earlier and earlier[name] != value:
                    self.errors.append(
                        f"{name}: virtual latency {value} differs from an "
                        f"earlier run of seed {seed}: {earlier[name]}"
                    )
            earlier.update(self.values)
        else:
            earlier = dict(self.values)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(earlier, indent=1, sort_keys=True))


def _one_op(engine, graph, stats_seed: int, tracer: Tracer | None = None):
    """One timed planning op; only this part is traced."""
    if tracer is not None:
        tracer.enabled = True
    try:
        began = time.perf_counter()
        opt = engine.optimize(graph)
        stats = engine.latency_stats(opt, n_runs=N_STATS_RUNS, seed=stats_seed)
        return opt, stats, time.perf_counter() - began
    finally:
        if tracer is not None:
            tracer.enabled = False


def _stats_seed(seed: int, name: str) -> int:
    return int(harness.seed_rng(seed, "plan", "stats", name).integers(2**31))


def _loop(engine, pool, seed: int, seconds: float, virtual: _Virtual,
          set_up, tracer: Tracer | None = None) -> tuple[list[dict], float]:
    """Plan whole rounds for ``seconds``; one record per op.  With a
    tracer, odd rounds are traced and even rounds are not.

    Timed set-ups precede every round, so the set-up median samples
    the host over the whole run, as the op percentiles do.
    """
    rng = harness.seed_rng(seed, "plan", "order")
    records: list[dict] = []
    setup_times: list[float] = []
    began = time.perf_counter()
    rounds = 0
    while True:
        round_began = time.perf_counter()
        setup_times += [set_up()[0] for _ in range(SETUPS_PER_ROUND)]
        traced = tracer is not None and rounds % 2 == 1
        for i in rng.permutation(len(pool)):
            name, builder = pool[i]
            graph = builder()
            if traced:
                tracer.set_request(f"op-{len(records)}")
            try:
                opt, stats, elapsed = _one_op(
                    engine, graph, _stats_seed(seed, name), tracer if traced else None
                )
            except Exception as exc:  # any failure is counted, not fatal
                virtual.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                records.append({"traced": traced, "ok": False})
                continue
            ok = virtual.record(name, opt.latency * 1e3, stats.p99_ms)
            violations = _check_plan(engine, graph, opt)
            if violations:
                virtual.errors.append(f"{name}: {violations[:3]}")
                ok = False
            compiled = [t.module for t in opt.schedule.plan.tasks] + [
                t.module for p in opt.degradation_plans.values() for t in p.tasks
            ]
            records.append({
                "traced": traced,
                "ok": ok,
                "op_s": elapsed,
                "fallback": opt.used_fallback,
                "corrections": len(opt.schedule.corrections),
                "simulations": opt.schedule.measurements,
                "hits": opt.schedule.cache_hits,
                "misses": opt.schedule.cache_misses,
                "phases": len(opt.partition.phases),
                "subgraphs": len(opt.partition.subgraphs),
                "kernels": sum(len(m.kernels) for m in compiled),
                "modules": len(compiled),
            })
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - began + (now - round_began) > seconds:
            break
    return records, harness.median(setup_times)


def _set_up(engine_factory, pool, seed: int) -> tuple[float, object]:
    """Time one set-up: engine construction plus one warm-up op."""
    name, builder = pool[0]
    graph = builder()
    gc.collect()  # no stray collection of earlier garbage inside the timing
    began = time.perf_counter()
    engine = engine_factory()
    _one_op(engine, graph, _stats_seed(seed, name))
    return time.perf_counter() - began, engine


def _end_to_end(records: list[dict], setup_s: float) -> dict:
    op_s = [r["op_s"] for r in records if "op_s" in r]
    op_ms = [t * 1e3 for t in op_s]
    return {
        "setup_s": setup_s,
        "latency_ms_p75": harness.percentile(op_ms, 75),
        "latency_ms_p90": harness.percentile(op_ms, 90),
        "throughput_per_s": len(op_s) / sum(op_s),
    }


def _install(tracer: Tracer) -> None:
    import repro.core.engine as engine_mod
    from repro.compiler.pipeline import Compiler
    from repro.core.profiler import CompilerAwareProfiler
    from repro.core.scheduler import GreedyCorrectionScheduler
    from repro.ir.graph import Graph

    tracer.wrap(engine_mod, "partition_graph", "partition")
    tracer.wrap(CompilerAwareProfiler, "profile_partition", "profiler")
    tracer.wrap(GreedyCorrectionScheduler, "schedule", "scheduler")
    tracer.wrap(Compiler, "compile", "compiler")
    tracer.wrap(engine_mod, "run_single_device", "simulator.single_device")
    tracer.wrap(engine_mod, "simulate_batch", "simulator.sample")
    tracer.wrap(Graph, "validate", "ir.validate")
    tracer.wrap(Graph, "materialize_params", "ir.materialize")


def _layers(tracer: Tracer, records: list[dict], virtual: _Virtual) -> dict:
    done = [r for r in records if "op_s" in r]
    ops = len(done)

    def mean(key: str) -> float:
        return sum(r[key] for r in done) / ops

    def per_op_ms(name: str) -> float:
        return tracer.total_s(name) * 1e3 / ops

    hits, misses = sum(r["hits"] for r in done), sum(r["misses"] for r in done)
    return {
        # Sorted, so the float sum does not depend on the round order.
        "plan_virtual_ms": harness.geomean(v[0] for _, v in sorted(virtual.values.items())),
        "plan_virtual_p99_ms": harness.geomean(v[1] for _, v in sorted(virtual.values.items())),
        "ir.validate_calls": tracer.count("ir.validate") / ops,
        "ir.validate_ms": per_op_ms("ir.validate"),
        "ir.materialize_ms": per_op_ms("ir.materialize"),
        "partition.ms": per_op_ms("partition"),
        "partition.phases": mean("phases"),
        "partition.subgraphs": mean("subgraphs"),
        "profiler.ms": tracer.self_s("profiler") * 1e3 / ops,
        "compiler.compile_calls": tracer.count("compiler") / ops,
        "compiler.compile_ms": per_op_ms("compiler"),
        "compiler.kernels": sum(r["kernels"] for r in done) / sum(r["modules"] for r in done),
        "scheduler.ms": tracer.self_s("scheduler") * 1e3 / ops,
        "scheduler.simulations": mean("simulations"),
        "scheduler.oracle_hit_ratio": hits / max(1, hits + misses),
        "scheduler.corrections_accepted": mean("corrections"),
        "scheduler.fallback_share": mean("fallback"),
        "simulator.single_device_ms": per_op_ms("simulator.single_device"),
        "simulator.sample_ms": per_op_ms("simulator.sample"),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.core.engine import DuetEngine
    from repro.devices.machine import default_machine

    def engine_factory():
        return DuetEngine(machine=default_machine(noisy=True))

    pool = graph_pool(seed)
    virtual = _Virtual()
    tracer = None
    if trace:
        tracer = Tracer()
        _install(tracer)
    try:
        _, engine = _set_up(engine_factory, pool, seed)
        records, setup_s = _loop(
            engine, pool, seed, seconds, virtual,
            lambda: _set_up(engine_factory, pool, seed), tracer,
        )
    finally:
        if tracer is not None:
            tracer.restore()
    untraced = [r for r in records if not r["traced"]]
    result = {
        "end_to_end": _end_to_end(untraced, setup_s),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
    }
    if trace:
        traced = [r for r in records if r["traced"]]
        result["traced_end_to_end"] = _end_to_end(traced, setup_s)
        result["layers"] = _layers(tracer, traced, virtual)
        result["tracer"] = tracer
    virtual.check_against_earlier_runs(seed)
    result["errors"] = virtual.errors
    return result
