"""serve_mixed: open-loop Poisson traffic into one ServingFrontend.

Two lanes share the frontend: the stack-safe ``elementwise_chain``,
whose batches run as one stacked dispatch, and tiny ``wide_deep``, a
five-task cross-device plan that runs per request.  Arrivals are mixed
4:1 by count (one wide_deep request in every block of five, at a seeded
position).

One generator thread -- the main thread -- submits on a fixed schedule,
whatever the frontend is doing, in two phases: nominal, then peak.  The
rates are constants; a phase's arrival count is fixed and its arrival
times are uniform order statistics over the phase, which is a Poisson
process conditioned on that count.  One collector thread stamps each
request's completion as it happens.  Latency runs from the request's
*due* time to that stamp, so a late generator, batcher linger or a
stalled lane shows up in the latency instead of hiding in it.

Every response must be bit-identical to a solo ``EngineSession`` run of
the same inputs.  Refused, shed, expired, failed and wrong requests all
count as failed.
"""

from __future__ import annotations

import collections
import gc
import queue
import threading
import time

import numpy as np

import harness
from harness import Tracer

WIDE_DEEP_EVERY = 5
#: What the wide_deep lane serves closed-loop on a 2-core x86 host
#: (requests/s, 60-65 measured).  The phase rates load that lane to a
#: third and 0.65 of it; they are fixed, never derived from a run.  At
#: three quarters the chain traffic beside it slowed the lane enough on a
#: slow spell of the host that its queue filled and requests were refused.
WIDE_DEEP_CAPACITY_RPS = 65.0
NOMINAL_RPS = WIDE_DEEP_EVERY * WIDE_DEEP_CAPACITY_RPS / 3
PEAK_RPS = WIDE_DEEP_EVERY * WIDE_DEEP_CAPACITY_RPS * 0.65
INPUTS_PER_LANE = 4
#: Timed set-ups before, between and after the phases.
SETUP_REPEATS = 4
#: Requests served within this latency count towards goodput.
LATENCY_LIMIT_S = 0.1
#: A run is invalid when the generator's p99 lateness exceeds this share
#: of the nominal mean gap between arrivals.
MAX_LAG_SHARE = 1.0
RESULT_TIMEOUT_S = 30.0
#: How often the collector thread looks at the lane it is not blocked on
#: while both lanes have open requests.
POLL_S = 5e-4


def _graphs() -> dict:
    from repro.bench import elementwise_chain
    from repro.models import build_model

    return {"chain": elementwise_chain(), "wide_deep": build_model("wide_deep", tiny=True)}


def _schedule(seed: int, label: str, rate: float, duration: float, start: float) -> list[dict]:
    rng = harness.seed_rng(seed, "serve", "arrivals", label)
    count = max(WIDE_DEEP_EVERY, int(round(rate * duration)))
    due = start + np.sort(rng.uniform(0.0, duration, count))
    wide = set()
    for block in range(0, count, WIDE_DEEP_EVERY):
        wide.add(block + int(rng.integers(WIDE_DEEP_EVERY)))
    return [
        {
            "phase": label,
            "due": float(t),
            "lane": "wide_deep" if i in wide else "chain",
            "input": int(rng.integers(INPUTS_PER_LANE)),
        }
        for i, t in enumerate(due)
    ]


def _setup(graphs: dict, inputs: dict):
    """Optimize both models, open the frontend, one request per lane."""
    from repro.core.engine import DuetEngine
    from repro.serving import ServingConfig

    engine = DuetEngine()
    opts = {lane: engine.optimize(graph) for lane, graph in graphs.items()}
    frontend = engine.serve(
        opts,
        # Requests carry no deadline.  With a 1 s deadline the adaptive
        # shedder refuses a few peak-phase wide_deep requests: it predicts
        # about 1.06 s (backlog times a service estimate that is a whole
        # batch's wall time) for requests that finish within ~100 ms.
        config=ServingConfig(admission="reject"),
    )
    for lane in graphs:
        frontend.request(inputs[lane][0], model=lane, timeout_s=RESULT_TIMEOUT_S)
    return opts, frontend


def _timed_setups(graphs: dict, inputs: dict, times: list[float]):
    """``SETUP_REPEATS`` timed set-ups, each closed before the next is
    built; returns the last one, still open."""
    opts = frontend = None
    for _ in range(SETUP_REPEATS):
        if frontend is not None:
            frontend.close()
            opts = frontend = None
        gc.collect()  # frees the closed frontend outside the timing
        began = time.perf_counter()
        opts, frontend = _setup(graphs, inputs)
        times.append(time.perf_counter() - began)
    return opts, frontend


def _drive(frontend, arrivals: list[dict], submitted: queue.Queue) -> None:
    """Submit each arrival at its due time and hand every arrival, admitted
    or refused, to the collector; never wait for a result."""
    from repro.errors import ReproError

    for arrival in arrivals:
        delay = arrival["due"] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        arrival["lag_s"] = sent - arrival["due"]
        try:
            arrival["future"] = frontend.submit(
                arrival["inputs"], model=arrival["lane"]
            )
        except ReproError as exc:
            arrival["refused"] = type(exc).__name__
        arrival["admit_s"] = time.perf_counter() - sent
        submitted.put(arrival)


def _stamp_completions(arrivals: list[dict], submitted: queue.Queue) -> None:
    """The collector thread: stamp each request's completion as it happens.

    A lane has one worker serving its queue in order, so its requests
    complete in submission order and only the oldest open request of each
    lane needs watching.  With one lane open, the thread blocks on its
    oldest request until the other lane's next arrival is due, since
    nothing else can complete before then.  With both lanes open it blocks
    on the older of their oldest requests, waking every ``POLL_S`` to look
    at the other lane.  With nothing open it blocks until the next
    submission.  Waking no more often than that keeps the thread from
    taking the interpreter lock away from the lane workers.
    """
    from repro.errors import ReproError

    lanes: dict[str, collections.deque] = {"chain": collections.deque(),
                                           "wide_deep": collections.deque()}
    received = 0  # arrivals handed over by the generator, in due order
    while received < len(arrivals) or any(lanes.values()):
        block = received < len(arrivals) and not any(lanes.values())
        try:
            while received < len(arrivals):
                arrival = submitted.get(block=block)
                block = False
                received += 1
                if "future" in arrival:
                    lanes[arrival["lane"]].append(arrival)
        except queue.Empty:
            pass
        now = time.perf_counter()
        for pending in lanes.values():
            while pending and (
                pending[0]["future"].done() or now > pending[0]["due"] + RESULT_TIMEOUT_S
            ):
                pending.popleft()["done_at"] = now
        open_lanes = [lane for lane, pending in lanes.items() if pending]
        if not open_lanes:
            continue
        if len(open_lanes) == 1:
            other = next(
                (a["due"] for a in arrivals[received:] if a["lane"] != open_lanes[0]),
                now + RESULT_TIMEOUT_S,
            )
            timeout = max(POLL_S, other - now)
        else:
            timeout = POLL_S
        head = min((lanes[lane][0] for lane in open_lanes), key=lambda a: a["due"])
        try:
            head["future"].result(timeout_s=timeout)
        except ReproError:
            pass  # not done yet, or failed: _check reads the outcome


def _check(arrivals: list[dict], references: dict) -> list[str]:
    """Read every admitted request's outcome and compare its outputs."""
    from repro.errors import ReproError

    errors = []
    for a in arrivals:
        future = a.get("future")
        if future is None:
            continue
        if not future.done():
            a["refused"] = "NoResult"
            continue
        try:
            res = future.result(timeout_s=0)
        except ReproError as exc:
            a["refused"] = type(exc).__name__
            continue
        a["result"] = res
        a["latency_s"] = a["done_at"] - a["due"]
        want = references[a["lane"]][a["input"]]
        a["ok"] = len(res.outputs) == len(want) and all(
            got.dtype == ref.dtype and np.array_equal(got, ref)
            for got, ref in zip(res.outputs, want)
        )
        if not a["ok"] and len(errors) < 10:
            errors.append(f"{a['lane']} input {a['input']}: differs from a solo session")
    return errors


def _run_schedule(frontend, inputs, seed, seconds, label, references, between):
    """The nominal phase, then ``between()``, then the peak phase."""
    arrivals: list[dict] = []
    for phase, rate in (("nominal", NOMINAL_RPS), ("peak", PEAK_RPS)):
        if phase == "peak":
            between()
        mine = _schedule(seed, f"{label}-{phase}", rate, seconds / 2,
                         time.perf_counter() + 0.05)
        for a in mine:
            a["inputs"] = inputs[a["lane"]][a["input"]]
        submitted: queue.Queue = queue.Queue()
        collector = threading.Thread(
            target=_stamp_completions, args=(mine, submitted), name="bench-collector"
        )
        collector.start()
        _drive(frontend, mine, submitted)
        collector.join()
        arrivals += mine
    return arrivals, _check(arrivals, references)


def _end_to_end(arrivals: list[dict], setup_s: float) -> dict:
    # Per lane, then the geomean over lanes, as infer_* does over models:
    # a percentile of the 4:1 mix would sit in the chain lane's tail.
    nominal = {lane: [] for lane in ("chain", "wide_deep")}
    for a in arrivals:
        if a["phase"].endswith("nominal") and a.get("ok"):
            nominal[a["lane"]].append(a["latency_s"] * 1e3)
    peak = [a for a in arrivals if a["phase"].endswith("peak")]
    done = [a for a in peak if a.get("ok")]
    good = sum(a["latency_s"] <= LATENCY_LIMIT_S for a in done)
    span = max(a["due"] + a["latency_s"] for a in done) - peak[0]["due"]
    return {
        "setup_s": setup_s,
        "latency_ms_p75": harness.geomean(harness.percentile(v, 75) for v in nominal.values()),
        "latency_ms_p90": harness.geomean(harness.percentile(v, 90) for v in nominal.values()),
        "throughput_per_s": good / span,
    }


def _labelled(samples: dict, **labels) -> float:
    want = set(labels.items())
    return sum(v for k, v in samples.items() if want <= set(k))


def _layers(arrivals: list[dict], before: dict, after: dict, tracer: Tracer) -> dict:
    served_total = sum("result" in a for a in arrivals)
    per_request_runs = tracer.count("session.run")
    layers = {
        "dispatch.resolve_us": tracer.total_s("dispatch.resolve") * 1e6 / served_total,
        "dispatch.kernels_ms": tracer.total_s("dispatch.kernels") * 1e3 / served_total,
        "dispatch.self_us": (
            tracer.self_s("session.run") * 1e6 / per_request_runs if per_request_runs else 0.0
        ),
    }

    def delta(metric: str, **labels) -> float:
        return (_labelled(after[metric]["samples"], **labels)
                - _labelled(before[metric]["samples"], **labels))

    for lane in ("chain", "wide_deep"):
        mine = [a for a in arrivals if a["lane"] == lane]
        served = [a["result"] for a in mine if "result" in a]
        layers.update({
            f"serve.admit_us_p50.{lane}": harness.percentile([a["admit_s"] * 1e6 for a in mine], 50),
            f"serve.queue_wait_ms_p50.{lane}": harness.percentile([r.queue_wait_s * 1e3 for r in served], 50),
            f"serve.queue_wait_ms_p99.{lane}": harness.percentile([r.queue_wait_s * 1e3 for r in served], 99),
            f"serve.exec_ms_p50.{lane}": harness.percentile([r.wall_time_s * 1e3 for r in served], 50),
            f"serve.batch_size_mean.{lane}": float(np.mean([r.batch_size for r in served])),
            f"serve.stacked_share.{lane}": float(np.mean([r.stacked for r in served])),
            f"serve.device_busy_s.cpu.{lane}": delta("duet_device_busy_seconds_total", model=lane, device="cpu"),
            f"serve.device_busy_s.gpu.{lane}": delta("duet_device_busy_seconds_total", model=lane, device="gpu"),
            f"serve.shed.{lane}": delta("duet_shed_total", model=lane) - delta("duet_shed_total", model=lane, reason="expired"),
            f"serve.rejected.{lane}": delta("duet_requests_total", model=lane, outcome="rejected"),
            f"serve.expired.{lane}": delta("duet_shed_total", model=lane, reason="expired"),
        })
    return layers


def _failures(arrivals: list[dict]) -> tuple[int, dict]:
    """Failed requests, and the refused or lost ones by phase and reason."""
    refusals: dict[str, int] = {}
    failed = 0
    for a in arrivals:
        if "refused" in a:
            key = f"{a['phase']}:{a['refused']}"
            refusals[key] = refusals.get(key, 0) + 1
        if not a.get("ok"):
            failed += 1
    return failed, refusals


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.runtime.session import EngineSession

    graphs = _graphs()
    inputs = harness.input_pool(graphs, seed, "serve", INPUTS_PER_LANE)
    tracer = None
    if trace:
        tracer = Tracer()
        harness.install_runtime_wrappers(tracer, preemptible=True)
        tracer.enabled = True
        tracer.set_request("setup")
    setup_times: list[float] = []

    def more_setups() -> None:
        """Throwaway set-ups between and after the phases, untraced, so
        the set-up median samples the host over the whole run."""
        traced = tracer is not None and tracer.enabled
        if traced:
            tracer.enabled = False
        _timed_setups(graphs, inputs, setup_times)[1].close()
        if traced:
            tracer.enabled = True

    frontend = None
    try:
        opts, frontend = _timed_setups(graphs, inputs, setup_times)
        if tracer is not None:
            tracer.enabled = False
            materialize_ms = tracer.total_s("ir.materialize") * 1e3 / SETUP_REPEATS
        # References come from solo sessions on the same optimizations.
        references = {}
        for lane, opt in opts.items():
            solo = EngineSession(opt.plan)
            references[lane] = [solo.run(feeds).outputs for feeds in inputs[lane]]
        passes = [("untraced", seconds / 2 if trace else seconds)]
        if trace:
            passes.append(("traced", seconds / 2))
        outcomes = {}
        for label, duration in passes:
            if tracer is not None:
                tracer.enabled = label == "traced"
                mark = len(tracer.spans)
            before = frontend.metrics_snapshot()
            arrivals, errors = _run_schedule(
                frontend, inputs, seed, duration, label, references, more_setups
            )
            after = frontend.metrics_snapshot()
            outcomes[label] = (arrivals, errors, before, after)
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.restore()
        if frontend is not None:
            frontend.close()
    more_setups()

    setup_s = harness.median(setup_times)
    arrivals = [a for outcome in outcomes.values() for a in outcome[0]]
    errors = [e for outcome in outcomes.values() for e in outcome[1]]
    failed, refusals = _failures(arrivals)
    untraced = outcomes["untraced"][0]
    lag_p99 = harness.percentile([a["lag_s"] for a in untraced], 99)
    if lag_p99 > MAX_LAG_SHARE / NOMINAL_RPS:
        errors.append(
            f"invalid run: the load generator's p99 lateness {lag_p99 * 1e3:.2f} ms "
            f"exceeds {MAX_LAG_SHARE} of the nominal mean arrival gap"
        )
    result = {
        "end_to_end": _end_to_end(untraced, setup_s),
        "attempted": len(arrivals),
        "failed": failed,
        "refusals": refusals,
        "errors": errors,
    }
    if trace:
        arrivals_t, _, before, after = outcomes["traced"]
        layers = _layers(arrivals_t, before, after, tracer.since(mark))
        layers["loadgen.lag_ms_p99"] = lag_p99 * 1e3
        layers["ir.materialize_ms"] = materialize_ms
        result.update(
            layers=layers,
            traced_end_to_end=_end_to_end(arrivals_t, setup_s),
            tracer=tracer,
        )
    return result
