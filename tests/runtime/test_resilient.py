"""Tests for the resilient executor: retries, deadlines, failover."""

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    DeviceLostError,
    ExecutionError,
)
from repro.runtime import DispatchKernel, ThreadedWorkers, single_device_plan
from repro.runtime.faults import (
    DeviceLoss,
    FaultInjector,
    FaultPlan,
    KernelFault,
    StallFault,
    TransferFault,
)
from repro.runtime.resilient import (
    ExecutionReport,
    ResilienceConfig,
    ResilientExecutor,
    RetryPolicy,
)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=1e-4)


def _assert_matches_reference(outputs, reference):
    assert len(outputs) == len(reference)
    for got, want in zip(outputs, reference):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.01, backoff_multiplier=2.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert policy.backoff_s(1, rng) == pytest.approx(0.01)
        assert policy.backoff_s(3, rng) == pytest.approx(0.04)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.01, jitter=0.5)
        rng = np.random.default_rng(0)
        for attempt in range(1, 5):
            delay = policy.backoff_s(attempt, rng)
            nominal = 0.01 * 2.0 ** (attempt - 1)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_validation(self):
        with pytest.raises(ExecutionError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutionError, match="jitter"):
            RetryPolicy(jitter=1.5)


class TestNoFaultEquivalence:
    """Empty fault plan => bit-identical to the plain threaded path."""

    def test_outputs_and_placement_identical(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        baseline = DispatchKernel(plan, workers=ThreadedWorkers()).run(feeds)
        report = ResilientExecutor(
            plan, fault_injector=FaultInjector(FaultPlan())
        ).run(feeds)
        assert report.completed
        assert len(report.outputs) == len(baseline.outputs)
        for got, want in zip(report.outputs, baseline.outputs):
            np.testing.assert_array_equal(got, want)
        assert report.task_worker == baseline.task_worker
        assert sorted(report.task_order) == sorted(baseline.task_order)

    def test_no_events_no_counters(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        report = ResilientExecutor(plan).run(feeds)
        assert report.events == []
        assert all(v == 0 for v in report.counters.values())
        assert report.degraded_device is None
        assert not report.restarted
        assert report.wall_time_s > 0


class TestTransientRetry:
    def test_transient_kernel_fault_retried_to_success(self, siamese_mixed):
        plan, _, feeds, ref = siamese_mixed
        tid = plan.tasks[-1].task_id
        injector = FaultInjector(
            FaultPlan(kernel_faults=(KernelFault(tid, fail_attempts=2),))
        )
        report = ResilientExecutor(
            plan, ResilienceConfig(retry=FAST_RETRY), injector
        ).run(feeds)
        _assert_matches_reference(report.outputs, ref)
        assert report.counters["faults"] == 2
        assert report.counters["retries"] == 2
        assert report.counters["giveups"] == 0
        kinds = [e.kind for e in report.events]
        assert kinds == ["fault", "backoff", "retry", "fault", "backoff", "retry"]
        fault = report.events[0]
        assert fault.task_id == tid and fault.attempt == 1

    def test_retries_exhausted_raises_with_report(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        tid = plan.tasks[0].task_id
        injector = FaultInjector(
            FaultPlan(kernel_faults=(KernelFault(tid, fail_attempts=99),))
        )
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=1e-4)
        )
        with pytest.raises(ExecutionError, match="after 2 attempt"):
            ResilientExecutor(plan, config, injector).run(feeds)
        try:
            ResilientExecutor(plan, config, FaultInjector(
                FaultPlan(kernel_faults=(KernelFault(tid, fail_attempts=99),))
            )).run(feeds)
        except ExecutionError as exc:
            report = exc.report
        assert isinstance(report, ExecutionReport)
        assert not report.completed and report.outputs is None
        assert report.counters["giveups"] == 1
        assert [e.kind for e in report.events][-1] == "giveup"

    def test_corrupted_transfer_detected_and_retried(self, siamese_mixed):
        plan, _, feeds, ref = siamese_mixed
        # Corrupt the CPU root's tensor on its way to the GPU consumer:
        # the NaN guard turns it into a retryable TransferError and the
        # second fetch is clean.
        cpu_root = plan.tasks[0]
        assert cpu_root.device == "cpu"
        injector = FaultInjector(
            FaultPlan(
                transfer_faults=(
                    TransferFault(cpu_root.task_id, "gpu", mode="corrupt"),
                )
            )
        )
        report = ResilientExecutor(
            plan, ResilienceConfig(retry=FAST_RETRY), injector
        ).run(feeds)
        _assert_matches_reference(report.outputs, ref)
        assert report.counters["faults"] == 1
        assert "non-finite" in report.events[0].detail

    def test_failed_transfer_retried(self, siamese_mixed):
        plan, _, feeds, ref = siamese_mixed
        cpu_root = plan.tasks[0]
        injector = FaultInjector(
            FaultPlan(
                transfer_faults=(
                    TransferFault(cpu_root.task_id, "gpu", mode="fail"),
                )
            )
        )
        report = ResilientExecutor(
            plan, ResilienceConfig(retry=FAST_RETRY), injector
        ).run(feeds)
        _assert_matches_reference(report.outputs, ref)
        assert report.counters["retries"] == 1

    def test_deterministic_under_fixed_seed(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        tid = plan.tasks[-1].task_id

        def chaos_run():
            injector = FaultInjector(
                FaultPlan(kernel_faults=(KernelFault(tid, fail_attempts=2),))
            )
            return ResilientExecutor(
                plan, ResilienceConfig(retry=FAST_RETRY, seed=7), injector
            ).run(feeds)

        a, b = chaos_run(), chaos_run()
        assert [e.kind for e in a.events] == [e.kind for e in b.events]
        assert [(e.task_id, e.attempt) for e in a.events] == [
            (e.task_id, e.attempt) for e in b.events
        ]
        assert a.counters == b.counters
        assert a.task_worker == b.task_worker
        for x, y in zip(a.outputs, b.outputs):
            np.testing.assert_array_equal(x, y)
        # Same seed => identical jitter choices in the backoff log.
        backoffs = lambda r: [
            e.detail for e in r.events if e.kind == "backoff"
        ]
        assert backoffs(a) == backoffs(b)


class TestDeadlines:
    def test_end_to_end_deadline(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        injector = FaultInjector(
            FaultPlan(stalls=(StallFault(plan.tasks[0].task_id, 0.5),))
        )
        config = ResilienceConfig(deadline_s=0.05)
        with pytest.raises(DeadlineExceededError, match="end-to-end"):
            ResilientExecutor(plan, config, injector).run(feeds)
        try:
            ResilientExecutor(plan, config, FaultInjector(
                FaultPlan(stalls=(StallFault(plan.tasks[0].task_id, 0.5),))
            )).run(feeds)
        except DeadlineExceededError as exc:
            assert [e.kind for e in exc.report.events] == ["deadline"]
            assert not exc.report.completed

    def test_task_deadline_miss_is_retryable(self, siamese_mixed):
        plan, _, feeds, ref = siamese_mixed
        tid = plan.tasks[0].task_id
        # Attempt 1 stalls past the per-task budget; attempt 2 is clean.
        injector = FaultInjector(
            FaultPlan(stalls=(StallFault(tid, 0.2, stall_attempts=1),))
        )
        config = ResilienceConfig(retry=FAST_RETRY, task_deadline_s=0.1)
        report = ResilientExecutor(plan, config, injector).run(feeds)
        _assert_matches_reference(report.outputs, ref)
        assert report.counters["task_deadline_misses"] == 1
        assert report.events[0].kind == "task-deadline"
        assert report.events[0].task_id == tid

    def test_no_deadline_means_no_timeout(self, siamese_mixed):
        plan, _, feeds, ref = siamese_mixed
        report = ResilientExecutor(plan, ResilienceConfig()).run(feeds)
        _assert_matches_reference(report.outputs, ref)


class TestDeviceLossFailover:
    def test_mid_run_gpu_loss_migrates_to_cpu(self, siamese_mixed):
        plan, _, feeds, ref = siamese_mixed
        gpu_tasks = [t.task_id for t in plan.tasks if t.device == "gpu"]
        assert len(gpu_tasks) >= 2
        # The GPU dies when its *second* task is dispatched: the first
        # GPU task has already completed, so this is a mid-run loss and
        # the executor migrates in place instead of restarting.
        injector = FaultInjector(
            FaultPlan(device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[1]),))
        )
        report = ResilientExecutor(plan, fault_injector=injector).run(feeds)
        _assert_matches_reference(report.outputs, ref)
        assert report.completed
        assert report.degraded_device == "cpu"
        assert not report.restarted
        assert report.counters["device_losses"] == 1
        assert report.counters["failovers"] == 1
        assert report.counters["migrated_tasks"] >= 1
        kinds = [e.kind for e in report.events]
        assert kinds[0] == "device-lost"
        assert "failover-migrate" in kinds
        # The first GPU task kept its placement; everything after the
        # loss ran on the surviving CPU worker.
        assert report.task_worker[gpu_tasks[0]] == "gpu"
        for tid in gpu_tasks[1:]:
            assert report.task_worker[tid] == "cpu"

    def test_loss_before_any_completion_restarts_on_survivor(
        self, siamese_mixed, machine
    ):
        plan, _, feeds, ref = siamese_mixed
        first = plan.tasks[0].task_id  # the CPU root: nothing done yet
        gpu_root = next(t.task_id for t in plan.tasks if t.device == "gpu")
        # Stall the concurrent GPU root so the loss is handled while no
        # task has completed — the condition for the restart path.
        injector = FaultInjector(
            FaultPlan(
                device_losses=(DeviceLoss("cpu", at_task=first),),
                stalls=(StallFault(gpu_root, 0.25),),
            )
        )
        # Build a standing degradation plan for the survivor (gpu).
        gpu_task = [t for t in plan.tasks if t.device == "gpu"][0]
        from repro.compiler import Compiler
        from repro.compiler.target import GPU_TARGET

        graph = siamese_mixed[1]
        module = Compiler().compile(graph, GPU_TARGET)
        degradation = {"gpu": single_device_plan(module, "gpu")}
        report = ResilientExecutor(
            plan, fault_injector=injector, degradation_plans=degradation
        ).run(feeds)
        _assert_matches_reference(report.outputs, ref)
        assert report.restarted
        assert report.degraded_device == "gpu"
        assert report.counters["failovers"] == 1
        assert [e.kind for e in report.events] == [
            "device-lost", "failover-restart",
        ]
        # The executed tasks are the degradation plan's, all on the GPU.
        assert set(report.task_worker.values()) == {"gpu"}

    def test_loss_without_degradation_plan_migrates(self, siamese_mixed):
        plan, _, feeds, ref = siamese_mixed
        first = plan.tasks[0].task_id
        injector = FaultInjector(
            FaultPlan(device_losses=(DeviceLoss("cpu", at_task=first),))
        )
        report = ResilientExecutor(plan, fault_injector=injector).run(feeds)
        _assert_matches_reference(report.outputs, ref)
        assert not report.restarted
        assert report.degraded_device == "gpu"
        assert set(report.task_worker.values()) == {"gpu"}

    def test_both_devices_lost_is_terminal(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        first = plan.tasks[0].task_id
        injector = FaultInjector(
            FaultPlan(
                device_losses=(
                    DeviceLoss("cpu", at_task=first),
                    DeviceLoss("gpu", at_task=first),
                )
            )
        )
        with pytest.raises(ExecutionError, match="all devices lost"):
            ResilientExecutor(plan, fault_injector=injector).run(feeds)

    def test_failover_disabled_propagates_loss(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        gpu_tasks = [t.task_id for t in plan.tasks if t.device == "gpu"]
        injector = FaultInjector(
            FaultPlan(device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[1]),))
        )
        with pytest.raises(DeviceLostError):
            ResilientExecutor(
                plan, ResilienceConfig(failover=False), injector
            ).run(feeds)

    def test_failover_deterministic_under_seed(self, siamese_mixed):
        plan, _, feeds, _ = siamese_mixed
        gpu_tasks = [t.task_id for t in plan.tasks if t.device == "gpu"]

        def chaos_run():
            injector = FaultInjector(
                FaultPlan(
                    device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[1]),),
                    seed=3,
                )
            )
            return ResilientExecutor(
                plan, ResilienceConfig(seed=3), injector
            ).run(feeds)

        a, b = chaos_run(), chaos_run()
        assert [e.kind for e in a.events] == [e.kind for e in b.events]
        assert a.task_worker == b.task_worker
        assert a.counters == b.counters
        for x, y in zip(a.outputs, b.outputs):
            np.testing.assert_array_equal(x, y)
