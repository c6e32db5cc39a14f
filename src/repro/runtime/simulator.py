"""Discrete-event simulation of heterogeneous plan execution.

Implements the executor semantics of paper §IV-D on a virtual clock:

* one worker per device, executing its assigned subgraphs one at a time in
  plan-priority order (footnote 2: subgraphs on a device run sequentially);
* a tensor consumed on the device that produced it is free; crossing the
  PCIe link costs ``base_latency + bytes/bandwidth``, the link is a shared,
  serialized resource, and repeated consumers of the same tensor on the
  same device reuse one transfer;
* model inputs start host-resident: GPU tasks pay host→device transfers
  for them, and outputs produced on the GPU pay a device→host transfer
  before the inference counts as complete.

Two modes: ``mean`` (deterministic cost-model times — what the scheduler's
``measure_latency`` uses) and ``sample`` (per-kernel/per-transfer noise —
what the tail-latency experiments use).  The virtual clock is a pure
timing walk, written once per transfer discipline: the lazy walk here
(scalar for one run, vectorized across runs for :func:`simulate_batch`)
and the overlapped replay in :mod:`repro.runtime.overlap`.  When inputs
are given, the kernels also execute numerically through the dispatch
kernel (:class:`~repro.runtime.core.DispatchKernel`, inline workers), so
correctness tests can compare heterogeneous execution bit-for-bit
against the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.devices.interconnect import Interconnect
from repro.devices.machine import Machine, _pair
from repro.errors import ExecutionError
from repro.runtime.core import DispatchKernel, InlineWorkers
from repro.runtime.plan import HeteroPlan, Source, TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import FaultInjector

__all__ = [
    "KernelRecord",
    "TaskRecord",
    "TransferRecord",
    "ExecutionResult",
    "simulate",
    "simulate_batch",
]


@dataclass(frozen=True)
class KernelRecord:
    """Timing of one kernel inside a task."""

    name: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class TaskRecord:
    """Timing of one executed task."""

    task_id: str
    device: str
    start: float
    finish: float
    kernels: tuple[KernelRecord, ...] = ()

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class TransferRecord:
    """One PCIe transfer."""

    what: str  # e.g. "task:rnn_branch[0]" or "external:image"
    dest_device: str
    n_bytes: float
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class ExecutionResult:
    """Outcome of one simulated inference."""

    latency: float
    tasks: list[TaskRecord]
    transfers: list[TransferRecord]
    outputs: list[np.ndarray] | None = None

    def task_record(self, task_id: str) -> TaskRecord:
        for rec in self.tasks:
            if rec.task_id == task_id:
                return rec
        raise ExecutionError(f"no record for task {task_id!r}")

    @property
    def total_transfer_bytes(self) -> float:
        return sum(t.n_bytes for t in self.transfers)


def _output_bytes(task: TaskSpec, index: int) -> float:
    """Size in bytes of a task output."""
    try:
        out_id = task.module.output_ids[index]
    except IndexError as exc:
        raise ExecutionError(
            f"task {task.task_id!r} has no output index {index}"
        ) from exc
    return float(task.module.graph.node(out_id).ty.size_bytes)


def _label(key: tuple) -> str:
    """Transfer label of a tensor key: ``external:<name>`` or
    ``task:<id>[<output index>]``."""
    if key[0] == "external":
        return f"external:{key[1]}"
    return f"task:{key[1]}[{key[2]}]"


def _transfer_time(
    link: Interconnect,
    n_bytes: float,
    rng: np.random.Generator | None,
    n_runs: int | None = None,
):
    """One transfer's duration: the mean, one sample, or ``n_runs``
    samples drawn at once."""
    if rng is None:
        return link.transfer_time(n_bytes)
    if n_runs is None:
        return link.sample_transfer_time(n_bytes, rng)
    return link.sample_transfer_time_batch(n_bytes, rng, n_runs)


def _kernel_durations(
    task: TaskSpec,
    machine: Machine,
    rng: np.random.Generator | None,
    n_runs: int | None = None,
    kernel_times: Mapping[str, Sequence[float]] | None = None,
) -> Iterable:
    """Per-kernel durations of one task, drawn in kernel order.

    Mean mode (``rng is None``) uses the precomputed ``kernel_times`` of
    the task when given, else the cost model; sampled mode draws one
    value per kernel, or one ``(n_runs,)`` vector per kernel.  The
    vectors are yielded lazily, so a batch holds one kernel's draws at a
    time rather than the whole task's.
    """
    device = machine.device(task.device)
    kernels = task.module.kernels
    if rng is None:
        times = (
            kernel_times.get(task.task_id) if kernel_times is not None else None
        )
        if times is None:
            times = [device.kernel_time(k.cost) for k in kernels]
        return times
    if n_runs is None:
        return [device.sample_kernel_time(k.cost, rng) for k in kernels]
    return (device.sample_kernel_time_batch(k.cost, rng, n_runs) for k in kernels)


def _kernel_records(
    task: TaskSpec, start: float, durations: Sequence[float]
) -> tuple[KernelRecord, ...]:
    """Back-to-back kernel records of one task starting at ``start``."""
    records = []
    cursor = start
    for kernel, duration in zip(task.module.kernels, durations):
        records.append(
            KernelRecord(name=kernel.name, start=cursor, finish=cursor + duration)
        )
        cursor += duration
    return tuple(records)


class _LinkTimeline:
    """The mesh's serialized links with a transfer cache.

    Each device pair is one serialized FIFO resource with its own free
    cursor; on the default 2-device machine there is exactly one pair, so
    this degenerates to the historical single PCIe timeline (same event
    order, same noise draws).  With ``n_runs`` every time is an
    ``(n_runs,)`` array and no records are kept.
    """

    def __init__(
        self,
        machine: Machine,
        rng: np.random.Generator | None,
        n_runs: int | None = None,
    ):
        self._machine = machine
        self._rng = rng
        self._n_runs = n_runs
        self._max = max if n_runs is None else np.maximum
        self._free_at: dict[tuple[str, str], float] = {}
        # (source key, device) -> arrival time of the tensor on that device
        self._arrivals: dict[tuple[tuple, str], float] = {}
        self.records: list[TransferRecord] = []

    def arrival(
        self,
        key: tuple,
        produced_at: float,
        produced_on: str,
        dest: str,
        n_bytes: float,
    ) -> float:
        """When the tensor becomes visible on ``dest`` (scheduling the
        transfer if needed)."""
        if produced_on == dest:
            return produced_at
        cached = self._arrivals.get((key, dest))
        if cached is not None:
            return cached
        duration = _transfer_time(
            self._machine.link(produced_on, dest), n_bytes, self._rng, self._n_runs
        )
        pair = _pair(produced_on, dest)
        start = self._max(self._free_at.get(pair, 0.0), produced_at)
        finish = start + duration
        self._free_at[pair] = finish
        self._arrivals[(key, dest)] = finish
        if self._n_runs is None:
            self.records.append(
                TransferRecord(
                    what=_label(key), dest_device=dest, n_bytes=n_bytes,
                    start=start, finish=finish,
                )
            )
        return finish


def _lazy_walk(
    plan: HeteroPlan,
    machine: Machine,
    rng: np.random.Generator | None,
    n_runs: int | None = None,
    *,
    record_kernels: bool = True,
    kernel_times: Mapping[str, Sequence[float]] | None = None,
    injector: "FaultInjector | None" = None,
):
    """The lazy discipline's virtual clock, written once for both shapes.

    Tasks run in plan order, each on its device's timeline; a task's
    cross-device inputs are put on their link when the task is visited.
    A single run keeps every time a Python float (``max``); a batch
    (``n_runs`` given) keeps every time an ``(n_runs,)`` array
    (``np.maximum``) and draws each event's noise as one vector, in the
    same event order — so ``n_runs=1`` reproduces a single sampled run
    bit for bit.

    Returns ``(latency, task records, transfer records)``; a batch keeps
    no records.
    """
    batch = n_runs is not None
    vmax = np.maximum if batch else max
    zero = np.zeros(n_runs) if batch else 0.0
    link = _LinkTimeline(machine, rng, n_runs)
    host = machine.host
    device_free = {name: zero for name in machine.device_names}
    task_finish: dict[str, float] = {}
    task_device: dict[str, str] = {}
    task_records: list[TaskRecord] = []

    def source_arrival(task: TaskSpec, input_id: str, src: Source) -> float:
        if src.kind == "external":
            n_bytes = float(task.module.graph.node(input_id).ty.size_bytes)
            # Model inputs are host-resident at time zero.
            return link.arrival(
                ("external", src.ref), 0.0, host, task.device, n_bytes
            )
        n_bytes = _output_bytes(plan.task(src.ref), src.output_index)
        return link.arrival(
            ("task", src.ref, src.output_index),
            task_finish[src.ref],
            task_device[src.ref],
            task.device,
            n_bytes,
        )

    for task in plan.tasks:
        start = device_free[task.device]
        for input_id, src in task.sources.items():
            start = vmax(start, source_arrival(task, input_id, src))
        if injector is not None:
            # Stalls extend the task on the virtual clock; kernel faults
            # and device losses raise (no retry here — the simulator is
            # the cheap chaos probe, recovery lives in the resilient
            # executor).
            start += injector.on_virtual_task(task.task_id, task.device, start)
        durations = _kernel_durations(task, machine, rng, n_runs, kernel_times)
        finish = start
        for duration in durations:
            finish = finish + duration
        device_free[task.device] = finish
        task_finish[task.task_id] = finish
        task_device[task.task_id] = task.device
        if not batch:
            task_records.append(
                TaskRecord(
                    task_id=task.task_id,
                    device=task.device,
                    start=start,
                    finish=finish,
                    kernels=(
                        _kernel_records(task, start, durations)
                        if record_kernels
                        else ()
                    ),
                )
            )

    # Results must land on the host.
    latency = zero
    for tid, idx in plan.outputs:
        arrival = link.arrival(
            ("task", tid, idx),
            task_finish[tid],
            task_device[tid],
            host,
            _output_bytes(plan.task(tid), idx),
        )
        latency = vmax(latency, arrival)
    return latency, task_records, link.records


def simulate(
    plan: HeteroPlan,
    machine: Machine,
    rng: np.random.Generator | None = None,
    inputs: Mapping[str, np.ndarray] | None = None,
    *,
    record_kernels: bool = True,
    kernel_times: Mapping[str, Sequence[float]] | None = None,
    injector: "FaultInjector | None" = None,
    overlap: bool = False,
) -> ExecutionResult:
    """Run one inference of ``plan`` on ``machine``.

    Args:
        plan: the heterogeneous execution plan.
        machine: CPU + GPU + interconnect.
        rng: pass a generator to sample noisy latencies; ``None`` uses
            deterministic mean times.
        inputs: pass model inputs to also execute kernels numerically (the
            result then carries ``outputs``).  Numerics run through the
            dispatch kernel with inline workers, independent of the
            virtual clock.
        record_kernels: set ``False`` to skip per-kernel timing records — a
            timing-only fast path for callers (the scheduler's latency
            oracle) that need just the end-to-end latency.
        kernel_times: optional precomputed per-task mean kernel durations
            (task id -> one duration per kernel, in kernel order).  Used
            only in mean mode (``rng is None``); latencies are bit-identical
            to recomputing because the same per-kernel values accumulate in
            the same order.
        injector: optional :class:`~repro.runtime.faults.FaultInjector`
            consulted as each task starts on the virtual clock: injected
            stalls add virtual time, kernel faults raise
            :class:`~repro.errors.TransientKernelError`, and device losses
            (``at_task``/``at_time``) raise
            :class:`~repro.errors.DeviceLostError` — so chaos scenarios
            can be explored without threads.  With ``None`` or an empty
            fault plan, latencies are bit-identical to the uninstrumented
            simulation.
        overlap: price the plan under the double-buffered transfer
            discipline (:mod:`repro.runtime.overlap`): transfers are issued
            eagerly at producer finish (external inputs at arrival) and the
            link serves them in ready order, so copies overlap with compute.
            Numerics are unaffected — only the virtual clock changes.
            Incompatible with ``injector`` (chaos runs use the lazy clock).
    """
    if overlap:
        if injector is not None:
            raise ExecutionError(
                "overlap=True does not support fault injection; "
                "use the lazy simulation for chaos probes"
            )
        # Imported here: the overlap core builds on this module's records.
        from repro.runtime.overlap import replay_plan

        replay = replay_plan(
            plan, machine, arrivals=[0.0], rng=rng, kernel_times=kernel_times
        )
        latency, tasks, transfers = (
            replay.completions[0], replay.tasks, replay.transfers
        )
        if not record_kernels:
            tasks = [replace(rec, kernels=()) for rec in tasks]
    else:
        latency, tasks, transfers = _lazy_walk(
            plan,
            machine,
            rng,
            record_kernels=record_kernels,
            kernel_times=kernel_times,
            injector=injector,
        )
    outputs = None
    if inputs is not None:
        outputs = DispatchKernel(plan, workers=InlineWorkers()).run(inputs).outputs
    return ExecutionResult(
        latency=latency, tasks=tasks, transfers=transfers, outputs=outputs
    )


def simulate_batch(
    plan: HeteroPlan,
    machine: Machine,
    rng: np.random.Generator,
    n_runs: int,
) -> np.ndarray:
    """``n_runs`` sampled end-to-end latencies of ``plan`` in one pass.

    The lazy walk of :func:`simulate` with every time an ``(n_runs,)``
    array: the sequence of noise events (which kernel / which transfer,
    in which order) is fixed by the plan's structure, so per-event noise
    is drawn as one batched NumPy call instead of ``n_runs`` sequential
    simulator walks.

    Draw-order convention: noise is drawn event-major (for each event, a
    vector across runs) in the same event order :func:`simulate` uses, so
    for ``n_runs=1`` the result is bit-identical to one scalar sampled
    simulation with the same generator.  Results are reproducible for a
    given seeded ``rng``.
    """
    if n_runs <= 0:
        raise ExecutionError(f"n_runs must be positive, got {n_runs}")
    latency, _, _ = _lazy_walk(plan, machine, rng, n_runs)
    return latency
