"""Resilient execution: retries, deadlines, and device-loss failover.

A shim over the unified dispatch kernel (:mod:`repro.runtime.core`):
the worker-per-device architecture, retry loop, and failover logic all
live in the core as composable pieces — this module assembles them into
the recovery behaviour a serving engine needs when run time is not merely
"unpredictable" (paper §IV-C) but actively hostile:

* **per-task retry** (:class:`~repro.runtime.core.RetryMiddleware`) with
  exponential backoff and seeded jitter for transient faults (kernel soft
  errors, failed transfers, corrupted tensors caught by the NaN guard);
* **deadlines** — per task attempt
  (:class:`~repro.runtime.core.TaskDeadlineMiddleware`) and end-to-end —
  surfacing as :class:`~repro.errors.DeadlineExceededError`;
* **device-loss failover** (:class:`~repro.runtime.core.FailoverPolicy`):
  on a permanent :class:`~repro.errors.DeviceLostError` the dead device's
  remaining tasks migrate to the survivor (the NumPy kernels are
  numerically device-agnostic), or — when nothing has completed yet — the
  run restarts on the survivor's standing single-device degradation plan
  (the fallback modules :meth:`DuetEngine.optimize` already compiles,
  §VI-E).

Every recovery action lands in a structured event log on the returned
:class:`ExecutionReport`; terminal failures raise with the partial report
attached as ``exc.report`` so post-mortems keep the evidence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.core import (
    DEVICES,
    CoreResult,
    DispatchKernel,
    ExecutionEvent,
    FailoverPolicy,
    RestartOnSurvivor,
    RetryMiddleware,
    TaskDeadlineMiddleware,
    ThreadedWorkers,
    plan_worker_devices,
)
from repro.runtime.plan import HeteroPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import FaultInjector

__all__ = [
    "RetryPolicy",
    "ResilienceConfig",
    "ExecutionEvent",
    "ExecutionReport",
    "ResilientExecutor",
    "survivor_plan",
]

def survivor_plan(
    degradation_plans: Mapping[str, HeteroPlan],
    lost: "set[str] | frozenset[str]",
    devices: "tuple[str, ...] | None" = None,
) -> tuple[str, HeteroPlan] | None:
    """Pick a standing single-device plan that avoids every lost device.

    Serving lanes use this when a worker slot observes a
    :class:`~repro.errors.DeviceLostError`: the slot's session must be
    rebuilt onto a surviving device, and the degradation plans
    :meth:`DuetEngine.optimize` already compiled are exactly the
    candidates.  Returns ``(device, plan)`` for the first surviving
    device in preference order — ``devices`` when given, else the
    canonical :data:`~repro.runtime.core.DEVICES` pair followed by any
    other devices with standing plans, sorted (deterministic across
    runs) — or ``None`` when no survivor has a standing plan: the lane
    then has nothing to fail over to and must keep failing requests
    until a device is restored.
    """
    if devices is None:
        devices = DEVICES + tuple(sorted(set(degradation_plans) - set(DEVICES)))
    for device in devices:
        if device in lost:
            continue
        plan = degradation_plans.get(device)
        if plan is not None:
            return device, plan
    return None


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient per-task faults.

    Attempt *n* (1-based) that fails sleeps
    ``backoff_base_s * backoff_multiplier**(n-1)``, scaled by a uniform
    jitter in ``[1-jitter, 1+jitter]`` drawn from the executor's seeded
    generator, before attempt *n+1*.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.001
    backoff_multiplier: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ExecutionError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Sleep before the retry following failed attempt ``attempt``."""
        delay = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilient execution path.

    Attributes:
        retry: per-task retry/backoff policy for transient faults.
        task_deadline_s: budget for one task *attempt*; an attempt that
            overruns is treated as a (retryable) fault.
        deadline_s: end-to-end wall-clock budget for the whole inference.
        failover: allow migrating/restarting work off a lost device.
        validate_transfers: guard cross-device float tensors against
            non-finite corruption (poisoned transfers become retryable
            :class:`~repro.errors.TransferError` faults).
        seed: seeds the backoff-jitter generators, keeping chaos runs
            reproducible end to end.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    task_deadline_s: float | None = None
    deadline_s: float | None = None
    failover: bool = True
    validate_transfers: bool = True
    seed: int = 0


@dataclass
class ExecutionReport:
    """Outcome of one resilient execution, recovery actions included.

    Attributes:
        outputs: model outputs (``None`` when the run failed).
        wall_time_s: end-to-end wall-clock time.
        task_worker: task id -> device worker that *actually* ran it
            (after any migration).
        task_order: completion order of the executed plan.
        events: chronological structured log of faults and recovery.
        counters: aggregate counts (``faults``, ``retries``,
            ``giveups``, ``device_losses``, ``failovers``,
            ``migrated_tasks``, ``task_deadline_misses``).
        completed: whether the inference produced outputs.
        degraded_device: the surviving device after a failover, else
            ``None``; when set, subsequent requests should be served from
            the matching standing degradation plan.
        restarted: True when failover restarted on the degradation plan
            rather than migrating in place.
    """

    outputs: list[np.ndarray] | None
    wall_time_s: float
    task_worker: dict[str, str]
    task_order: list[str]
    events: list[ExecutionEvent]
    counters: dict[str, int]
    completed: bool
    degraded_device: str | None = None
    restarted: bool = False

    def events_of(self, kind: str) -> list[ExecutionEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]


_COUNTER_KEYS = (
    "faults",
    "retries",
    "giveups",
    "task_deadline_misses",
    "device_losses",
    "failovers",
    "migrated_tasks",
)


class ResilientExecutor:
    """Fault-tolerant execution of a :class:`HeteroPlan`.

    With a default config and no injected faults the behaviour — outputs,
    task placements, completion semantics — is identical to a plain
    threaded :class:`~repro.runtime.core.DispatchKernel` run; the resilience
    machinery only activates when something actually goes wrong.

    Args:
        plan: the heterogeneous plan to execute.
        config: retry/deadline/failover knobs.
        fault_injector: optional deterministic chaos hooks.
        degradation_plans: device -> standing single-device plan, used to
            restart on the survivor when a device dies before any task
            completed (carried on
            :class:`~repro.core.engine.DuetOptimization`).
        join_timeout: seconds to wait for worker shutdown.
    """

    def __init__(
        self,
        plan: HeteroPlan,
        config: ResilienceConfig | None = None,
        fault_injector: "FaultInjector | None" = None,
        degradation_plans: Mapping[str, HeteroPlan] | None = None,
        join_timeout: float = 5.0,
    ):
        self.plan = plan
        self.config = config or ResilienceConfig()
        self.fault_injector = fault_injector
        self.degradation_plans = dict(degradation_plans or {})
        self.join_timeout = join_timeout

    # ------------------------------------------------------------------

    def run(self, inputs: Mapping[str, np.ndarray]) -> ExecutionReport:
        """Execute with recovery; raises on terminal failure.

        Terminal errors (retries exhausted, every device lost, end-to-end
        deadline) raise the matching :class:`~repro.errors.ExecutionError`
        subclass with the partial :class:`ExecutionReport` attached as
        ``exc.report``.
        """
        t0 = time.perf_counter()
        events: list[ExecutionEvent] = []
        counters = {key: 0 for key in _COUNTER_KEYS}
        try:
            return self._run_with_failover(inputs, t0, events, counters)
        except ExecutionError as exc:
            exc.report = ExecutionReport(
                outputs=None,
                wall_time_s=time.perf_counter() - t0,
                task_worker={},
                task_order=[],
                events=events,
                counters=counters,
                completed=False,
            )
            raise

    def _dispatch_kernel(
        self,
        plan: HeteroPlan,
        t0: float,
        events: list[ExecutionEvent],
        counters: dict[str, int],
        allow_restart: bool,
    ) -> DispatchKernel:
        """Assemble the core dispatch kernel for one plan attempt."""
        config = self.config

        def clock() -> float:
            return time.perf_counter() - t0

        # Fresh per-dispatch jitter generators, exactly as the standalone
        # executor seeded them (restarts reset the draw sequence); the
        # worker set — and hence the seed order — is the plan's (the
        # canonical pair for default-machine plans).
        devices = plan_worker_devices(plan)
        rngs = {
            dev: np.random.default_rng((config.seed, i))
            for i, dev in enumerate(devices)
        }
        middleware = [
            RetryMiddleware(config.retry, events, counters, rngs, clock)
        ]
        if config.task_deadline_s is not None:
            middleware.append(TaskDeadlineMiddleware(config.task_deadline_s))
        policy = FailoverPolicy(
            events,
            counters,
            failover=config.failover,
            restart_devices=set(self.degradation_plans),
            allow_restart=allow_restart,
            devices=devices,
        )
        return DispatchKernel(
            plan,
            workers=ThreadedWorkers(join_timeout=self.join_timeout),
            middleware=middleware,
            fault_injector=self.fault_injector,
            failure_policy=policy,
            deadline_s=config.deadline_s,
            validate_transfers=config.validate_transfers,
        )

    def _run_with_failover(
        self,
        inputs: Mapping[str, np.ndarray],
        t0: float,
        events: list[ExecutionEvent],
        counters: dict[str, int],
    ) -> ExecutionReport:
        degraded: str | None = None
        restarted = False
        try:
            result = self._dispatch_kernel(
                self.plan, t0, events, counters, allow_restart=True
            ).run(inputs, t0=t0)
            if self.fault_injector is not None:
                devices = plan_worker_devices(self.plan)
                survivors = [
                    dev
                    for dev in devices
                    if not self.fault_injector.device_is_lost(dev)
                ]
                # With exactly one survivor the engine should serve from
                # that device's standing plan; with >= 2 survivors the
                # mesh re-places in flight instead of degrading.
                if len(survivors) < len(devices) and len(survivors) == 1:
                    degraded = survivors[0]
        except RestartOnSurvivor as sig:
            counters["failovers"] += 1
            restarted = True
            degraded = sig.survivor
            events.append(
                ExecutionEvent(
                    kind="failover-restart",
                    time_s=time.perf_counter() - t0,
                    device=sig.survivor,
                    detail=(
                        f"restarting on {sig.survivor!r} single-device plan "
                        f"after: {sig.cause}"
                    ),
                )
            )
            result = self._dispatch_kernel(
                self.degradation_plans[sig.survivor],
                t0,
                events,
                counters,
                allow_restart=False,
            ).run(inputs, t0=t0)
        return self._report(result, t0, events, counters, degraded, restarted)

    def _report(
        self,
        result: CoreResult,
        t0: float,
        events: list[ExecutionEvent],
        counters: dict[str, int],
        degraded: str | None,
        restarted: bool,
    ) -> ExecutionReport:
        return ExecutionReport(
            outputs=result.outputs,
            wall_time_s=time.perf_counter() - t0,
            task_worker=result.task_worker,
            task_order=result.task_order,
            events=events,
            counters=counters,
            completed=True,
            degraded_device=degraded,
            restarted=restarted,
        )
