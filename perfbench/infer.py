"""infer_numpy / infer_native: one closed-loop client over the tiny zoo.

Each of the seven tiny zoo models gets one ``EngineSession``.  The
client issues a seeded model sequence -- whole rounds, each a seeded
permutation of the seven models, so every model carries the same weight
-- and each request takes one of a seeded pool of inputs for its model.

infer_numpy runs the default NumPy kernels; every response must be
bit-identical to ``repro.ir.run_graph``, the independent interpreter.
infer_native runs ``DuetEngine(backend="native")`` over a native .so
cache owned by the benchmark and warmed (in a child process) before
anything is timed; every response must stay within the graph's
``graph_ulp_budget`` of the interpreter, and the timed part must
compile nothing.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import harness
from harness import BENCH_DIR, Tracer

INPUTS_PER_MODEL = 4
#: A throwaway set-up is timed whenever this much time has passed since
#: the last one, and a run times at least MIN_SETUPS of them.
SETUP_GAP_S = 2.0
MIN_SETUPS = 5
MIN_ROUNDS = 40

#: Kernel families for the per-family kernel times, from each kernel's
#: cost kind (pooling is told apart from other reductions by name).
_FAMILY = {
    "conv": "conv2d",
    "gemm": "gemm",
    "recurrent": "recurrent",
    "reduction": "reduce_norm",
}
FAMILIES = ("conv2d", "gemm", "recurrent", "pool", "elementwise", "reduce_norm")


def _family(kernel) -> str:
    if "pool" in kernel.name:
        return "pool"
    return _FAMILY.get(kernel.cost.kind.value, "elementwise")


def _graphs() -> dict:
    from repro.models import build_model
    from repro.models.zoo import MODEL_NAMES

    return {name: build_model(name, tiny=True) for name in MODEL_NAMES}


def _engine(backend: str, cache_root=None):
    """The engine and, for the native backend, its .so cache."""
    from repro.core.engine import DuetEngine

    if backend == "numpy":
        return DuetEngine(), None
    from repro.compiler.native import NativeCache, NativeOptions
    from repro.compiler.pipeline import Compiler

    # A cache object per engine, so every set-up loads the kernels from
    # disk the way a fresh process would, instead of from an in-process
    # memo filled by the set-up before it.
    cache = NativeCache(root=cache_root or os.environ["REPRO_NATIVE_CACHE_DIR"])
    return DuetEngine(
        backend="native", compiler=Compiler(native=NativeOptions(cache=cache))
    ), cache


def warm_native_cache() -> None:
    """Compile every kernel the workload needs into the benchmark cache."""
    engine, _ = _engine("native")
    for graph in _graphs().values():
        engine.optimize(graph)


def _warm_cache() -> list[str]:
    """Warm the benchmark cache in a child process, before any timing.

    It runs on every infer_native run: on a warm cache it only loads the
    kernels from disk (under a second), and after a change to the
    kernels' signatures it builds the new ones here instead of inside a
    timed set-up."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import infer; infer.warm_native_cache()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR.parent / "src"), str(BENCH_DIR)],
        capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        return [f"warming the native cache failed: {proc.stderr[-2000:]}"]
    return []


def _setup(backend: str, graphs: dict, inputs: dict):
    """Optimize, open a session and serve one warm-up request per model."""
    engine, cache = _engine(backend)
    sessions = {}
    for name, graph in graphs.items():
        session = engine.session(engine.optimize(graph))
        session.run(inputs[name][0])
        sessions[name] = session
    return sessions, cache


class _SetUps:
    """Timed set-ups.  The first one serves the requests; the loop builds,
    times and drops more of them spread over the run, so their median
    samples the host over the whole run, as the request percentiles do."""

    def __init__(self, backend: str, graphs: dict, inputs: dict) -> None:
        self.backend, self.graphs, self.inputs = backend, graphs, inputs
        self.times: list[float] = []
        self.compiles = 0

    def __call__(self):
        gc.collect()  # no stray collection of earlier garbage inside the timing
        began = time.perf_counter()
        sessions, cache = _setup(self.backend, self.graphs, self.inputs)
        self.times.append(time.perf_counter() - began)
        self.compiles += cache.stats.compiles if cache else 0
        return sessions, cache


def _loop(sessions: dict, inputs: dict, seed: int, seconds: float,
          set_up: _SetUps, tracer: Tracer | None = None) -> dict:
    """Closed-loop requests in whole rounds for ``seconds``, with a
    throwaway set-up every ``SETUP_GAP_S``.  With a tracer, odd rounds
    are traced and even rounds are not; the results are split the same
    way."""
    names = list(sessions)
    rng = harness.seed_rng(seed, "infer", "sequence")
    allocations = {n: s.arena.allocations for n, s in sessions.items()}
    parts = {
        traced: {"served": [], "latency": {n: [] for n in names}, "wall_s": 0.0}
        for traced in (False, True)
    }
    rounds = 0
    began = last_setup = time.perf_counter()
    while True:
        if time.perf_counter() - last_setup >= SETUP_GAP_S:
            if tracer is not None:
                tracer.enabled = False
            set_up()
            last_setup = time.perf_counter()
        round_began = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        part = parts[traced]
        for i in rng.permutation(len(names)):
            name = names[i]
            k = int(rng.integers(INPUTS_PER_MODEL))
            if traced:
                tracer.set_request(f"request-{len(part['served'])}")
            t0 = time.perf_counter()
            result = sessions[name].run(inputs[name][k])
            part["latency"][name].append(time.perf_counter() - t0)
            part["served"].append((name, k, result.outputs))
        rounds += 1
        now = time.perf_counter()
        part["wall_s"] += now - round_began
        if (rounds >= MIN_ROUNDS and len(set_up.times) >= MIN_SETUPS
                and now - began + (now - round_began) > seconds):
            break
    if tracer is not None:
        tracer.enabled = False
    return {
        "untraced": parts[False],
        "traced": parts[True],
        "served": parts[False]["served"] + parts[True]["served"],
        "allocations_warm": sum(
            s.arena.allocations - allocations[n] for n, s in sessions.items()
        ),
    }


def _check(backend: str, graphs: dict, references: dict, served: list) -> tuple[int, float, list[str]]:
    """Failed responses, the worst drift / budget ratio, and messages."""
    from repro.compiler.native import graph_ulp_budget, max_ulp_diff

    budgets = {n: graph_ulp_budget(g) for n, g in graphs.items()}
    failed, worst, errors = 0, 0.0, []
    for name, k, outputs in served:
        want = references[name][k]
        ok = len(outputs) == len(want)
        for got, ref in zip(outputs, want):
            if backend == "numpy" or budgets[name] == 0.0:
                ok &= got.dtype == ref.dtype and np.array_equal(got, ref)
            else:
                ratio = max_ulp_diff(got, ref) / budgets[name]
                worst = max(worst, ratio)
                ok &= ratio <= 1.0
        if not ok:
            failed += 1
            if len(errors) < 10:
                errors.append(f"{name} input {k}: output differs from run_graph")
    return failed, worst, errors


def _end_to_end(part: dict, setup_s: float) -> dict:
    per_model = part["latency"].values()
    return {
        "setup_s": setup_s,
        "latency_ms_p75": harness.geomean(harness.percentile(v, 75) * 1e3 for v in per_model),
        "latency_ms_p90": harness.geomean(harness.percentile(v, 90) * 1e3 for v in per_model),
        "throughput_per_s": len(part["served"]) / part["wall_s"],
    }


def _wrap_kernels(tracer: Tracer, sessions: dict) -> None:
    """Time each kernel callable of the benchmark's own sessions."""
    for session in sessions.values():
        for task in session.plan.tasks:
            kernels = task.module.kernels
            for i, k in enumerate(kernels):
                name = f"kernel.{_family(k)}"
                kernels[i] = dataclasses.replace(
                    k,
                    fn=tracer.timed(name, k.fn),
                    run_into=tracer.timed(name, k.run_into) if k.run_into else None,
                )


def _cross_device_bytes(plan) -> float:
    """Bytes one request moves between devices, from declared tensor sizes."""
    device = {t.task_id: t.device for t in plan.tasks}
    total = 0.0
    for task in plan.tasks:
        graph = task.module.graph
        for input_id, src in task.sources.items():
            produced_on = "cpu" if src.kind == "external" else device[src.ref]
            if produced_on != task.device:
                total += graph.node(input_id).ty.size_bytes
    return total


def _arena_bytes(plan) -> float:
    return float(sum(
        t.module.graph.node(k.output_id).ty.size_bytes
        for t in plan.tasks for k in t.module.kernels
    ))


def _cold_compile_s(graphs: dict) -> float:
    """First-deploy cost: build every kernel into an empty cache."""
    root = BENCH_DIR / ".state" / f"cold-cache-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        engine, _ = _engine("native", cache_root=root)
        began = time.perf_counter()
        for graph in graphs.values():
            engine.optimize(graph)
        return time.perf_counter() - began
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _layers(tracer, traced, sessions, backend, graphs) -> dict:
    requests = len(traced["served"])
    served_count = {n: len(v) for n, v in traced["latency"].items()}
    layers = {
        "kernel.calls": sum(tracer.count(f"kernel.{f}") for f in FAMILIES) / requests,
        "dispatch.resolve_us": tracer.total_s("dispatch.resolve") * 1e6 / requests,
        "dispatch.kernels_ms": tracer.total_s("dispatch.kernels") * 1e3 / requests,
        "dispatch.self_us": tracer.self_s("session.run") * 1e6 / requests,
        "dispatch.tasks_per_request": sum(
            served_count[n] * len(s.plan.tasks) for n, s in sessions.items()
        ) / requests,
        "dispatch.cross_device_bytes": sum(
            served_count[n] * _cross_device_bytes(s.plan) for n, s in sessions.items()
        ) / requests,
        "arena.bytes": sum(_arena_bytes(s.plan) for s in sessions.values()),
    }
    for family in FAMILIES:
        layers[f"kernel.ms.{family}"] = tracer.total_s(f"kernel.{family}") * 1e3 / requests
    if backend == "native":
        kernels = [k for s in sessions.values() for t in s.plan.tasks for k in t.module.kernels]
        native = sum(k.backend == "native" for k in kernels)
        layers.update({
            "native.coverage": native / len(kernels),
            "native.fallbacks": len(kernels) - native,
            "native.cold_compile_s": _cold_compile_s(graphs),
        })
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.ir import run_graph

    backend = "native" if workload == "infer_native" else "numpy"
    errors = _warm_cache() if backend == "native" else []
    graphs = _graphs()
    inputs = harness.input_pool(graphs, seed, "infer", INPUTS_PER_MODEL)
    references = {
        n: [run_graph(g, feeds) for feeds in inputs[n]] for n, g in graphs.items()
    }
    tracer = None
    if trace:
        tracer = Tracer()
        harness.install_runtime_wrappers(tracer)
        tracer.enabled = True
        tracer.set_request("setup")
    set_up = _SetUps(backend, graphs, inputs)
    try:
        sessions, cache = set_up()
        if trace:
            tracer.enabled = False
            materialize_ms = tracer.total_s("ir.materialize") * 1e3
            mark = len(tracer.spans)
            _wrap_kernels(tracer, sessions)
        compiled_in_setup = cache.stats.compiles if cache else 0
        loop = _loop(sessions, inputs, seed, seconds, set_up, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    compiles = set_up.compiles
    compiles += (cache.stats.compiles - compiled_in_setup) if cache else 0
    setup_s = harness.median(set_up.times)

    failed, worst, check_errors = _check(backend, graphs, references, loop["served"])
    errors += check_errors
    if compiles:
        errors.append(f"{compiles} native kernels compiled after the cache was warmed")
    result = {
        "end_to_end": _end_to_end(loop["untraced"], setup_s),
        "attempted": len(loop["served"]),
        "failed": failed,
        "errors": errors,
    }
    if trace:
        layers = _layers(tracer.since(mark), loop["traced"], sessions, backend, graphs)
        layers.update({
            "ir.materialize_ms": materialize_ms,
            "arena.allocations_warm": loop["allocations_warm"],
            "native.max_ulp_ratio": worst,
            "native.compiles": compiles,
            "native.disk_hits": cache.stats.disk_hits if cache else 0,
        })
        result.update(
            layers=layers,
            traced_end_to_end=_end_to_end(loop["traced"], setup_s),
            tracer=tracer,
        )
    return result
