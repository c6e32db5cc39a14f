"""Chaos benchmark: resilient execution recovers correctly and cheaply.

Three claims about the resilient execution path:

1. **Recovery correctness** — under a deterministic chaos cocktail
   (transient kernel faults, a poisoned transfer, then a permanent GPU
   loss mid-run) the inference still completes with outputs matching the
   reference interpreter, and the report records the full failover event
   chain, reproducibly under a fixed seed.
2. **Degradation restart** — a device lost before any subgraph completes
   restarts on the standing single-device plan and still matches the
   reference.
3. **No-fault overhead** — with no faults injected, the resilient path
   costs < 5% wall-clock over the plain threaded executor (best-of-N to
   filter scheduler noise, with a small absolute floor because these
   tiny-model runs are only milliseconds long).
"""

import time

import numpy as np
from conftest import emit

from repro.bench import format_table
from repro.core import CompilerAwareProfiler, DuetEngine, partition_graph
from repro.core.placement import build_hetero_plan
from repro.ir import make_inputs, run_graph
from repro.models import build_model
from repro.runtime import (
    DispatchKernel,
    ResilienceConfig,
    ResilientExecutor,
    RetryPolicy,
    ThreadedWorkers,
)
from repro.runtime.faults import (
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    KernelFault,
    TransferFault,
)

N_REPS = 30
MAX_OVERHEAD_FRAC = 0.05
ABS_FLOOR_S = 0.002  # tiny-model runs are ~ms; allow 2ms absolute slack


def _mixed_plan(machine):
    graph = build_model("siamese", tiny=True)
    partition = partition_graph(graph)
    profiles = CompilerAwareProfiler(machine=machine).profile_partition(partition)
    placement = {
        sg.id: ("cpu" if i == 0 else "gpu")
        for i, sg in enumerate(partition.subgraphs)
    }
    return graph, build_hetero_plan(graph, partition, profiles, placement)


def _best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_chaos_recovery_correct_and_cheap(machine):
    graph, plan = _mixed_plan(machine)
    feeds = make_inputs(graph)
    ref = run_graph(graph, feeds)
    cpu_root = plan.tasks[0].task_id
    gpu_tasks = [t.task_id for t in plan.tasks if t.device == "gpu"]
    # The first gpu task consumes host-resident model inputs, so its
    # external feed crosses devices — poison that transfer.
    gpu_root = next(
        t for t in plan.tasks
        if t.device == "gpu"
        and all(s.kind == "external" for s in t.sources.values())
    )
    crossing_ref = next(iter(gpu_root.sources.values())).ref

    # ------------------------------------------------------------------
    # 1. Recovery correctness under a chaos cocktail.
    cocktail = FaultPlan(
        kernel_faults=(KernelFault(cpu_root, fail_attempts=2),),
        transfer_faults=(TransferFault(crossing_ref, "gpu", mode="corrupt"),),
        device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[-1]),),
        seed=42,
    )
    config = ResilienceConfig(
        retry=RetryPolicy(max_attempts=4, backoff_base_s=1e-4), seed=42
    )

    def chaos_run():
        return ResilientExecutor(
            plan, config, FaultInjector(cocktail)
        ).run(feeds)

    report = chaos_run()
    assert report.completed
    assert report.degraded_device == "cpu"
    for got, want in zip(report.outputs, ref):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)
    kinds = [e.kind for e in report.events]
    assert "device-lost" in kinds and "failover-migrate" in kinds
    assert report.counters["faults"] >= 3  # 2 kernel faults + corruption
    assert report.counters["device_losses"] == 1
    # Reproducible under the fixed seed.
    again = chaos_run()
    assert [e.kind for e in again.events] == kinds
    assert again.counters == report.counters
    for x, y in zip(report.outputs, again.outputs):
        np.testing.assert_array_equal(x, y)

    # ------------------------------------------------------------------
    # 2. Degradation restart via the engine's standing plans.
    engine = DuetEngine(machine=machine)
    opt = engine.optimize(graph)
    import dataclasses

    opt = dataclasses.replace(opt, plan=plan, fallback_device=None)
    restart_report = engine.run_resilient(
        opt,
        feeds,
        faults=FaultPlan(
            device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[0]),),
        ),
    )
    assert restart_report.completed
    assert restart_report.degraded_device == "cpu"
    for got, want in zip(restart_report.outputs, ref):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    # ------------------------------------------------------------------
    # 3. No-fault overhead of the resilient path.
    def threaded_run():
        # A fresh kernel per run, as the resilient executor builds one.
        return DispatchKernel(plan, workers=ThreadedWorkers()).run(feeds)

    resilient = ResilientExecutor(plan)
    # Warm both paths (parameter materialization, thread start costs).
    threaded_run()
    resilient.run(feeds)
    t_threaded = _best_of(threaded_run, N_REPS)
    t_resilient = _best_of(lambda: resilient.run(feeds), N_REPS)
    overhead = t_resilient - t_threaded

    emit(
        format_table(
            [
                {
                    "executor": "threaded",
                    "best_of_n_ms": t_threaded * 1e3,
                    "chaos_events": "-",
                },
                {
                    "executor": "resilient (no faults)",
                    "best_of_n_ms": t_resilient * 1e3,
                    "chaos_events": "0",
                },
                {
                    "executor": "resilient (chaos cocktail)",
                    "best_of_n_ms": report.wall_time_s * 1e3,
                    "chaos_events": str(len(report.events)),
                },
            ],
            title=(
                f"Chaos resilience — siamese(tiny), best of {N_REPS}; "
                "recovery from 2 kernel faults + 1 poisoned transfer + "
                "GPU loss"
            ),
        )
    )

    assert overhead < max(MAX_OVERHEAD_FRAC * t_threaded, ABS_FLOOR_S), (
        f"resilient no-fault overhead {overhead * 1e3:.3f}ms over "
        f"threaded {t_threaded * 1e3:.3f}ms exceeds budget"
    )
