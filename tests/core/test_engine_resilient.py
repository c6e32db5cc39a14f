"""Engine-level tests: run_resilient plumbing and robust profile saving."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core import DuetEngine
from repro.core.engine import DuetOptimization
from repro.errors import ProfilingError
from repro.ir import make_inputs, run_graph
from repro.models import build_model
from repro.runtime import (
    DispatchKernel,
    ResilienceConfig,
    RetryPolicy,
    ThreadedWorkers,
)
from repro.runtime.faults import DeviceLoss, FaultInjector, FaultPlan, KernelFault


@pytest.fixture(scope="module")
def optimized(machine):
    graph = build_model("siamese", tiny=True)
    engine = DuetEngine(machine=machine)
    return engine, graph, engine.optimize(graph)


class TestRunResilient:
    def test_optimize_builds_degradation_plans(self, optimized):
        _, _, opt = optimized
        assert set(opt.degradation_plans) == {"cpu", "gpu"}
        for dev, plan in opt.degradation_plans.items():
            assert plan.devices_used() == {dev}
            assert len(plan.tasks) == 1

    def test_no_fault_matches_threaded_path(self, optimized):
        engine, graph, opt = optimized
        feeds = make_inputs(graph)
        baseline = DispatchKernel(opt.plan, workers=ThreadedWorkers()).run(feeds)
        report = engine.run_resilient(opt, feeds)
        assert report.completed
        for got, want in zip(report.outputs, baseline.outputs):
            np.testing.assert_array_equal(got, want)
        assert report.task_worker == baseline.task_worker
        assert report.events == []

    def test_accepts_fault_plan_or_injector(self, optimized):
        engine, graph, opt = optimized
        feeds = make_inputs(graph)
        tid = opt.plan.tasks[0].task_id
        fp = FaultPlan(kernel_faults=(KernelFault(tid, fail_attempts=1),))
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=1e-4)
        )
        by_plan = engine.run_resilient(opt, feeds, config=config, faults=fp)
        by_injector = engine.run_resilient(
            opt, feeds, config=config, faults=FaultInjector(fp)
        )
        assert by_plan.counters["retries"] == 1
        assert by_plan.counters == by_injector.counters

    def test_gpu_loss_mid_run_completes_on_cpu(self, optimized, machine):
        """The acceptance scenario: permanent GPU loss mid-run."""
        engine, graph, opt = optimized
        # Force a genuinely heterogeneous plan (tiny models may fall back
        # to a single device) while keeping the engine's standing
        # degradation plans.
        from repro.core import CompilerAwareProfiler, partition_graph
        from repro.core.placement import build_hetero_plan

        partition = partition_graph(graph)
        profiles = CompilerAwareProfiler(machine=machine).profile_partition(
            partition
        )
        placement = {
            sg.id: ("cpu" if i == 0 else "gpu")
            for i, sg in enumerate(partition.subgraphs)
        }
        hetero = build_hetero_plan(graph, partition, profiles, placement)
        opt = dataclasses.replace(opt, plan=hetero, fallback_device=None)
        feeds = make_inputs(graph)
        ref = run_graph(graph, feeds)
        gpu_tasks = [t.task_id for t in hetero.tasks if t.device == "gpu"]

        def chaos():
            return engine.run_resilient(
                opt,
                feeds,
                faults=FaultPlan(
                    device_losses=(DeviceLoss("gpu", at_task=gpu_tasks[1]),),
                    seed=11,
                ),
            )

        report = chaos()
        assert report.completed
        assert report.degraded_device == "cpu"
        for got, want in zip(report.outputs, ref):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)
        kinds = [e.kind for e in report.events]
        assert kinds[0] == "device-lost"
        assert "failover-migrate" in kinds
        # Deterministic under the fixed seed: same event chain, same
        # placements, same outputs.
        again = chaos()
        assert [e.kind for e in again.events] == kinds
        assert again.task_worker == report.task_worker
        for x, y in zip(report.outputs, again.outputs):
            np.testing.assert_array_equal(x, y)


class TestRobustProfileSaving:
    """An unwritable artifact path must not sink the optimization."""

    def test_unwritable_path_warns_and_continues(self, machine, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        bad_path = blocker / "profiles.json"  # OSError on write
        graph = build_model("wide_deep", tiny=True)
        engine = DuetEngine(machine=machine)
        with pytest.warns(RuntimeWarning, match="could not write"):
            opt = engine.optimize(graph, profile_path=str(bad_path))
        # The freshly profiled results are intact and usable.
        assert opt.profiles
        assert opt.latency > 0

    def test_read_only_directory_warns_and_continues(
        self, machine, tmp_path, monkeypatch
    ):
        # Simulate a read-only directory / full disk regardless of the
        # privileges the test runs under (root ignores mode bits).
        import repro.core.profile_store as store

        def denied(partition, profiles, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(store, "save_profiles", denied)
        graph = build_model("wide_deep", tiny=True)
        engine = DuetEngine(machine=machine)
        with pytest.warns(RuntimeWarning, match="could not write"):
            opt = engine.optimize(
                graph, profile_path=str(tmp_path / "ro" / "profiles.json")
            )
        assert opt.profiles

    def test_profiling_error_on_load_still_reprofiles(self, machine, tmp_path):
        # Sanity: artifact problems keep triggering re-profiling (not the
        # new OSError path).
        path = tmp_path / "profiles.json"
        path.write_text("{broken")
        graph = build_model("wide_deep", tiny=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning expected here
            opt = DuetEngine(machine=machine).optimize(
                graph, profile_path=str(path)
            )
        assert opt.profiles
        # The artifact was rewritten with good contents.
        from repro.core import load_profiles, partition_graph

        reloaded = load_profiles(partition_graph(graph), path)
        assert set(reloaded) == set(opt.profiles)
