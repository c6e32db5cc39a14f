"""Overlapped (double-buffered) timeline replay of heterogeneous plans.

The baseline simulator (:func:`repro.runtime.simulator.simulate`) prices
transfers *lazily*: a cross-device tensor is put on the PCIe link when the
consuming task is visited, so the shared link serves transfers in
task-iteration order.  That models a synchronous executor whose device
workers issue their own copies.  A double-buffered runtime behaves
differently: a dedicated transfer stage issues every copy the moment its
producer finishes (and prefetches host-resident model inputs at request
arrival), so the link serves transfers in *ready order* and copies overlap
with compute on both devices.

This module is the shared discrete-event core for that overlapped
discipline.  It replays one plan over a sequence of request arrivals with

* one serialized timeline per device (tasks in plan-priority order, the
  executor's per-device queue order);
* one serialized link timeline that always serves the pending transfer
  with the earliest ready time (ties broken by issue order);
* eager transfer issue: task outputs are enqueued for every cross-device
  consumer at producer-finish time, external inputs at request arrival,
  and model outputs produced off-host are enqueued for host landing;
* the usual transfer cache — repeated consumers of one tensor on one
  device within a request share a single copy.

Events are committed in globally non-decreasing start-time order, which
makes the earliest-ready link discipline exact: when the link is granted
to a transfer starting at ``s``, every transfer issued later has a ready
time ``>= s`` (its producer had not started yet), so no earlier-ready
transfer can be preempted retroactively.

Consumers: :func:`repro.runtime.simulator.simulate` with ``overlap=True``
(single request) and :func:`repro.runtime.stream.simulate_stream` (many
requests) — both therefore agree bit-for-bit on a one-request stream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.devices.machine import Machine, _pair
from repro.errors import ExecutionError
from repro.runtime.plan import HeteroPlan, TaskSpec
from repro.runtime.simulator import (
    TaskRecord,
    TransferRecord,
    _kernel_durations,
    _kernel_records,
    _label,
    _output_bytes,
    _transfer_time,
)

__all__ = ["ReplayResult", "replay_plan"]


@dataclass
class ReplayResult:
    """Outcome of one overlapped replay.

    Attributes:
        tasks: committed task executions (with their kernel records), in
            commit order, across all requests.
        transfers: committed link transfers, in link-service order.
        completions: per-request completion time (all model outputs
            host-resident), indexed like the ``arrivals`` argument.
    """

    tasks: list[TaskRecord]
    transfers: list[TransferRecord]
    completions: list[float]


class _Statics:
    """Plan structure shared by every request of a replay."""

    def __init__(self, plan: HeteroPlan, host: str):
        self.plan = plan
        self.host = host
        self.task_by_id = {t.task_id: t for t in plan.tasks}
        self.devices = sorted({t.device for t in plan.tasks} | {host})
        # (producer id, output index) -> cross-device consumer destinations,
        # in first-consumer order.  Model outputs produced off-host gain the
        # host as a destination (the landing transfer).
        self.consumers: dict[tuple[str, int], list[str]] = {}
        # External tensors consumed off-host: (input name, dest, bytes),
        # deduplicated, in plan order — these transfers are issued at
        # request arrival (the prefetch of the double buffer).
        self.external: list[tuple[str, str, float]] = []
        seen_ext: set[tuple[str, str]] = set()
        for task in plan.tasks:
            for input_id, src in task.sources.items():
                if src.kind == "external":
                    if task.device == host:
                        continue
                    if (src.ref, task.device) in seen_ext:
                        continue
                    seen_ext.add((src.ref, task.device))
                    n_bytes = float(
                        task.module.graph.node(input_id).ty.size_bytes
                    )
                    self.external.append((src.ref, task.device, n_bytes))
                else:
                    producer = self.task_by_id[src.ref]
                    if producer.device == task.device:
                        continue
                    dests = self.consumers.setdefault(
                        (src.ref, src.output_index), []
                    )
                    if task.device not in dests:
                        dests.append(task.device)
        for tid, idx in plan.outputs:
            if self.task_by_id[tid].device == host:
                continue
            dests = self.consumers.setdefault((tid, idx), [])
            if host not in dests:
                dests.append(host)


def replay_plan(
    plan: HeteroPlan,
    machine: Machine,
    arrivals: Sequence[float],
    rng: np.random.Generator | None = None,
    kernel_times: Mapping[str, Sequence[float]] | None = None,
) -> ReplayResult:
    """Replay ``plan`` once per arrival under the overlapped discipline.

    Args:
        plan: the heterogeneous plan (also used for single-device plans).
        machine: devices + interconnect pricing the virtual clock.
        arrivals: request arrival times, non-decreasing; one replayed
            inference per entry.  ``[0.0]`` prices a single request.
        rng: pass a generator to sample noisy kernel/transfer latencies
            (drawn in commit order — deterministic for a seeded rng);
            ``None`` uses cost-model means.
        kernel_times: optional precomputed mean per-kernel durations
            (task id -> one duration per kernel).  Mean mode only.
    """
    if not arrivals:
        raise ExecutionError("replay_plan needs at least one arrival")
    if any(b < a for a, b in zip(arrivals, list(arrivals)[1:])):
        raise ExecutionError("request arrivals must be non-decreasing")
    host = machine.host
    statics = _Statics(plan, host)
    n_req = len(arrivals)

    # Per-device FIFO of (request, task) in request-major plan order — the
    # executor's queue discipline.
    device_queue: dict[str, list[tuple[int, TaskSpec]]] = {
        d: [] for d in statics.devices
    }
    for req in range(n_req):
        for task in plan.tasks:
            device_queue[task.device].append((req, task))
    head: dict[str, int] = {d: 0 for d in statics.devices}

    device_free: dict[str, float] = {d: 0.0 for d in statics.devices}
    # Every device pair is its own serialized FIFO link with its own free
    # cursor and pending queue; the default machine has exactly one pair,
    # recovering the historical single-link timeline event for event.
    link_free: dict[tuple[str, str], float] = {}
    finish: dict[tuple[int, str], float] = {}
    # (request, tensor key, dest) -> arrival time of the committed copy.
    arrived: dict[tuple[int, tuple, str], float] = {}

    # Per-link pending transfers: (ready, seq, request, key, dest, bytes);
    # the global ``seq`` keeps issue order comparable across links.
    pending: dict[
        tuple[str, str], list[tuple[float, int, int, tuple, str, float]]
    ] = {}
    seq = 0

    def push_transfer(
        ready: float, req: int, src_dev: str, key: tuple, dest: str,
        n_bytes: float,
    ) -> None:
        nonlocal seq
        queue = pending.setdefault(_pair(src_dev, dest), [])
        heapq.heappush(queue, (ready, seq, req, key, dest, n_bytes))
        seq += 1

    for req in range(n_req):
        for ref, dest, n_bytes in statics.external:
            push_transfer(
                float(arrivals[req]), req, host, ("external", ref), dest, n_bytes
            )

    def issue_outputs(req: int, task: TaskSpec, at: float) -> None:
        for (tid, idx), dests in statics.consumers.items():
            if tid != task.task_id:
                continue
            n_bytes = _output_bytes(task, idx)
            for dest in dests:
                push_transfer(at, req, task.device, ("task", tid, idx), dest, n_bytes)

    def task_start(req: int, task: TaskSpec) -> float | None:
        """Earliest start of the queue head, or ``None`` while blocked."""
        start = max(device_free[task.device], float(arrivals[req]))
        for input_id, src in task.sources.items():
            if src.kind == "external":
                if task.device == host:
                    continue  # host-resident, ready at arrival
                at = arrived.get((req, ("external", src.ref), task.device))
                if at is None:
                    return None
                start = max(start, at)
            else:
                done = finish.get((req, src.ref))
                if done is None:
                    return None
                if statics.task_by_id[src.ref].device == task.device:
                    start = max(start, done)
                else:
                    at = arrived.get(
                        (req, ("task", src.ref, src.output_index), task.device)
                    )
                    if at is None:
                        return None
                    start = max(start, at)
        return start

    tasks_out: list[TaskRecord] = []
    transfers_out: list[TransferRecord] = []
    remaining = n_req * len(plan.tasks)

    def pending_left() -> bool:
        return any(pending.values())

    while remaining > 0 or pending_left():
        # Candidate actions, committed in non-decreasing start order.
        # (start, kind-rank, tie, payload); transfers rank first on ties
        # so the rng draw order is deterministic, and the globally unique
        # issue ``seq`` orders transfer ties across links.
        best: tuple | None = None
        for pair in sorted(pending):
            queue = pending[pair]
            if not queue:
                continue
            ready, tseq, *_ = queue[0]
            start = max(link_free.get(pair, 0.0), ready)
            cand = (start, 0, tseq, "xfer", pair)
            if best is None or cand < best:
                best = cand
        for di, dev in enumerate(statics.devices):
            if head[dev] >= len(device_queue[dev]):
                continue
            req, task = device_queue[dev][head[dev]]
            start = task_start(req, task)
            if start is None:
                continue
            cand = (start, 1, di, "task", (req, task))
            if best is None or cand < best:
                best = cand
        if best is None:
            raise ExecutionError(
                "overlapped replay deadlocked: no startable task or "
                "transfer (plan order is not dependency-consistent)"
            )

        start, _, _, kind, payload = best
        if kind == "xfer":
            pair = payload
            _, _, req, key, dest, n_bytes = heapq.heappop(pending[pair])
            duration = _transfer_time(machine.link(*pair), n_bytes, rng)
            done = start + duration
            link_free[pair] = done
            arrived[(req, key, dest)] = done
            transfers_out.append(
                TransferRecord(
                    what=_label(key), dest_device=dest, n_bytes=n_bytes,
                    start=start, finish=done,
                )
            )
        else:
            req, task = payload
            times = _kernel_durations(task, machine, rng, kernel_times=kernel_times)
            done = start
            for duration in times:
                done += duration
            head[task.device] += 1
            device_free[task.device] = done
            finish[(req, task.task_id)] = done
            remaining -= 1
            tasks_out.append(
                TaskRecord(
                    task_id=task.task_id, device=task.device, start=start,
                    finish=done, kernels=_kernel_records(task, start, times),
                )
            )
            issue_outputs(req, task, done)

    completions: list[float] = []
    for req in range(n_req):
        done = float(arrivals[req])
        for tid, idx in plan.outputs:
            if statics.task_by_id[tid].device == host:
                done = max(done, finish[(req, tid)])
            else:
                done = max(done, arrived[(req, ("task", tid, idx), host)])
        completions.append(done)
    return ReplayResult(
        tasks=tasks_out, transfers=transfers_out, completions=completions
    )
