"""Single-device execution: the Operators-in-Sequence schedule.

This is how TVM executes a compiled model in the paper (§III-A): kernels
run synchronously in topological order on one device.  It is expressed as
a one-task :class:`~repro.runtime.plan.HeteroPlan`, so the same simulator
prices it — including host↔device transfers when the device is the GPU —
and the same unified dispatch kernel (:class:`~repro.runtime.core.
DispatchKernel` with :class:`~repro.runtime.core.InlineWorkers`) executes
it numerically.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.compiler.lowering import CompiledModule
from repro.devices.machine import Machine
from repro.runtime.plan import HeteroPlan, Source, TaskSpec
from repro.runtime.simulator import ExecutionResult, simulate

__all__ = ["single_device_plan", "run_single_device"]


def single_device_plan(module: CompiledModule, device: str) -> HeteroPlan:
    """Wrap a whole-model module as a one-task plan on ``device``."""
    task = TaskSpec(
        task_id=f"{module.graph.name}@{device}",
        device=device,
        module=module,
        sources={
            iid: Source(kind="external", ref=iid) for iid in module.input_ids
        },
    )
    outputs = [(task.task_id, i) for i in range(len(module.output_ids))]
    return HeteroPlan(tasks=[task], outputs=outputs)


def run_single_device(
    module: CompiledModule,
    device: str,
    machine: Machine,
    rng: np.random.Generator | None = None,
    inputs: Mapping[str, np.ndarray] | None = None,
    overlap: bool = False,
) -> ExecutionResult:
    """One inference of ``module`` entirely on ``device``.

    Simulates the one-task plan (``overlap`` selects the lazy vs.
    double-buffered transfer discipline); when ``inputs`` are given the
    kernels also execute numerically through the unified dispatch kernel
    (inline worker strategy), exactly like every other executor.
    """
    return simulate(
        single_device_plan(module, device),
        machine,
        rng=rng,
        inputs=inputs,
        overlap=overlap,
    )
