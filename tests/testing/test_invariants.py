"""Tests for the plan/schedule invariant validator."""

import dataclasses

import pytest

from repro.core import CompilerAwareProfiler, partition_graph
from repro.core.placement import build_hetero_plan
from repro.core.scheduler import GreedyCorrectionScheduler
from repro.errors import InvariantViolation
from repro.ir.interpreter import make_inputs
from repro.models import build_model
from repro.runtime.simulator import simulate
from repro.testing.invariants import (
    assert_valid,
    check_execution,
    check_partition,
    check_placement,
    check_plan,
    check_task_order,
    validate_schedule,
)


@pytest.fixture(scope="module")
def pipeline(machine_module):
    graph = build_model("wide_deep", tiny=True)
    partition = partition_graph(graph)
    profiles = CompilerAwareProfiler(machine=machine_module).profile_partition(
        partition
    )
    schedule = GreedyCorrectionScheduler(machine=machine_module).schedule(
        graph, partition, profiles
    )
    plan = build_hetero_plan(graph, partition, profiles, schedule.placement)
    return graph, partition, profiles, schedule.placement, plan


@pytest.fixture(scope="module")
def machine_module():
    from repro.devices import default_machine

    return default_machine(noisy=False)


class TestCleanPipeline:
    def test_everything_valid(self, pipeline, machine_module):
        graph, partition, _, placement, plan = pipeline
        result = simulate(plan, machine_module, inputs=make_inputs(graph))
        assert validate_schedule(graph, partition, placement, plan, result) == []

    def test_assert_valid_passes_on_empty(self):
        assert_valid([])  # no raise

    def test_assert_valid_raises_with_all_violations(self):
        with pytest.raises(InvariantViolation) as excinfo:
            assert_valid(["first", "second", "third"])
        assert excinfo.value.violations == ["first", "second", "third"]
        assert "+2 more" in str(excinfo.value)


class TestPlacementChecks:
    def test_missing_subgraph_caught(self, pipeline):
        _, partition, _, placement, _ = pipeline
        broken = dict(placement)
        broken.pop(next(iter(broken)))
        assert any("never placed" in v for v in check_placement(partition, broken))

    def test_unknown_subgraph_caught(self, pipeline):
        _, partition, _, placement, _ = pipeline
        broken = dict(placement, ghost="cpu")
        assert any("unknown" in v for v in check_placement(partition, broken))

    def test_invalid_device_caught(self, pipeline):
        _, partition, _, placement, _ = pipeline
        broken = dict(placement)
        broken[next(iter(broken))] = "tpu"
        assert any("invalid device" in v for v in check_placement(partition, broken))


class TestPartitionChecks:
    def test_clean_partition_passes(self, pipeline):
        graph, partition, *_ = pipeline
        assert check_partition(graph, partition) == []

    def test_partition_of_wrong_graph_caught(self, pipeline):
        _, partition, *_ = pipeline
        other = build_model("siamese", tiny=True)
        violations = check_partition(other, partition)
        assert violations  # coverage cannot match a different model


class TestPlanChecks:
    def test_clean_plan_passes(self, pipeline):
        graph, partition, _, placement, plan = pipeline
        assert check_plan(plan, graph=graph, partition=partition,
                          placement=placement) == []

    def test_non_topological_order_caught(self, pipeline):
        *_, plan = pipeline
        shuffled = dataclasses.replace(plan)
        shuffled.tasks = list(reversed(plan.tasks))
        assert any(
            "not topological" in v or "does not precede" in v
            for v in check_plan(shuffled)
        )

    def test_device_disagreement_with_placement_caught(self, pipeline):
        graph, partition, _, placement, plan = pipeline
        flipped = dict(placement)
        first = plan.tasks[0].task_id
        flipped[first] = "gpu" if plan.tasks[0].device == "cpu" else "cpu"
        assert any(
            "placement says" in v
            for v in check_plan(plan, placement=flipped)
        )

    def test_missing_model_output_caught(self, pipeline):
        graph, *_ , plan = pipeline
        truncated = dataclasses.replace(plan)
        truncated.outputs = plan.outputs[:-1] if len(plan.outputs) > 1 else []
        violations = check_plan(truncated, graph=graph)
        assert any("plan outputs compute" in v for v in violations)


class TestTaskOrderChecks:
    def test_executor_orders_pass(self, pipeline, machine_module):
        graph, *_ , plan = pipeline
        from repro.runtime.core import DispatchKernel, ThreadedWorkers

        result = DispatchKernel(plan, workers=ThreadedWorkers()).run(make_inputs(graph))
        assert check_task_order(plan, result.task_order) == []

    def test_dependency_inversion_caught(self, pipeline):
        *_, plan = pipeline
        order = [t.task_id for t in plan.tasks]
        inverted = list(reversed(order))
        if len(order) > 1:
            assert any(
                "before its" in v for v in check_task_order(plan, inverted)
            )

    def test_missing_and_duplicate_completions_caught(self, pipeline):
        *_, plan = pipeline
        order = [t.task_id for t in plan.tasks]
        assert any("never completed" in v for v in check_task_order(plan, order[:-1]))
        assert any("2 times" in v for v in check_task_order(plan, order + order[-1:]))


class TestExecutionChecks:
    def test_clean_simulation_passes(self, pipeline, machine_module):
        graph, *_ , plan = pipeline
        result = simulate(plan, machine_module, inputs=make_inputs(graph))
        assert check_execution(plan, result) == []

    def test_tampered_record_device_caught(self, pipeline, machine_module):
        graph, *_ , plan = pipeline
        result = simulate(plan, machine_module, inputs=make_inputs(graph))
        rec = result.tasks[0]
        result.tasks[0] = dataclasses.replace(
            rec, device="gpu" if rec.device == "cpu" else "cpu"
        )
        assert check_execution(plan, result)

    def test_dropped_transfer_caught(self, pipeline, machine_module):
        graph, *_ , plan = pipeline
        if len(plan.devices_used()) < 2:
            pytest.skip("single-device plan has no transfers")
        result = simulate(plan, machine_module, inputs=make_inputs(graph))
        assert result.transfers, "cross-device plan must transfer"
        result.transfers.pop()
        assert check_execution(plan, result)
