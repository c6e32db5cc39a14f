"""Runtime: plans, the unified dispatch core, executors, faults, sessions."""

from repro.runtime.core import (
    AbortPolicy,
    CoreResult,
    DispatchKernel,
    ExecutionEvent,
    FailoverPolicy,
    FaultInjectionMiddleware,
    InlineWorkers,
    InvariantMiddleware,
    MetricsMiddleware,
    RetryMiddleware,
    TaskDeadlineMiddleware,
    ThreadedWorkers,
    TracingMiddleware,
    TransferGuardMiddleware,
    execute_kernels,
    resolve_feeds,
)
from repro.runtime.faults import (
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    KernelFault,
    StallFault,
    TransferFault,
)
from repro.runtime.measurement import (
    LatencyStats,
    measure_latency,
    measure_latency_batch,
)
from repro.runtime.resilient import (
    ExecutionReport,
    ResilienceConfig,
    ResilientExecutor,
    RetryPolicy,
)
from repro.runtime.memory import (
    DeviceMemory,
    MemoryReport,
    TensorArena,
    memory_report,
)
from repro.runtime.plan import HeteroPlan, Source, TaskSpec
from repro.runtime.session import EngineSession, SessionResult
from repro.runtime.simulator import (
    ExecutionResult,
    KernelRecord,
    TaskRecord,
    TransferRecord,
    simulate,
    simulate_batch,
)
from repro.runtime.single import run_single_device, single_device_plan
from repro.runtime.stream import StreamResult, simulate_stream

__all__ = [
    "AbortPolicy",
    "CoreResult",
    "DeviceLoss",
    "DispatchKernel",
    "EngineSession",
    "ExecutionEvent",
    "ExecutionReport",
    "ExecutionResult",
    "FailoverPolicy",
    "FaultInjectionMiddleware",
    "FaultInjector",
    "FaultPlan",
    "InlineWorkers",
    "InvariantMiddleware",
    "KernelFault",
    "MetricsMiddleware",
    "ResilienceConfig",
    "ResilientExecutor",
    "RetryMiddleware",
    "RetryPolicy",
    "SessionResult",
    "StallFault",
    "TaskDeadlineMiddleware",
    "ThreadedWorkers",
    "TracingMiddleware",
    "TransferFault",
    "TransferGuardMiddleware",
    "HeteroPlan",
    "KernelRecord",
    "LatencyStats",
    "Source",
    "TaskRecord",
    "TaskSpec",
    "TransferRecord",
    "execute_kernels",
    "measure_latency",
    "measure_latency_batch",
    "memory_report",
    "resolve_feeds",
    "DeviceMemory",
    "MemoryReport",
    "TensorArena",
    "run_single_device",
    "simulate",
    "simulate_batch",
    "single_device_plan",
    "simulate_stream",
    "StreamResult",
]
