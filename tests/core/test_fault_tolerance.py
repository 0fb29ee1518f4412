"""Fault-tolerance tests: side-task failures never hurt training.

Paper section 8: "since FreeRide deploys side tasks in Docker containers
as processes that are independent of the pipeline training, failures of
side tasks, such as illegal memory access, will not impact the main
pipeline training workload."
"""

from __future__ import annotations

import pytest

from repro.core.middleware import FreeRide
from repro.gpu.cluster import make_server_i
from repro.pipeline.config import TrainConfig, model_config
from repro.pipeline.engine import PipelineEngine
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workloads.misbehaving import MemoryLeakTask, NonPausingTask
from repro.workloads.registry import workload_factory


@pytest.fixture(scope="module")
def config() -> TrainConfig:
    return TrainConfig(model=model_config("3.6B"), epochs=3, op_jitter=0.01,
                       seed=0)


@pytest.fixture(scope="module")
def baseline_time(config) -> float:
    sim = Engine()
    return PipelineEngine(
        sim, make_server_i(sim), config, rng=RandomStreams(0).spawn("pipeline")
    ).run().total_time


class TestFaultIsolation:
    def test_oom_task_does_not_break_training(self, config, baseline_time):
        freeride = FreeRide(config)
        freeride.submit(lambda: MemoryLeakTask(), name="leaker",
                        memory_limit_gb=2.5)
        result = freeride.run()
        report = result.task("leaker")
        assert report.failure is not None and "OOM" in report.failure
        # Training completed all epochs at normal speed.
        assert len(result.training.trace.epochs) == config.epochs
        assert result.training.total_time / baseline_time - 1 < 0.05

    def test_killed_task_does_not_break_training(self, config, baseline_time):
        freeride = FreeRide(config)
        freeride.submit(lambda: NonPausingTask(actual_kernel_s=8.0),
                        name="runaway")
        result = freeride.run()
        report = result.task("runaway")
        assert report.failure is not None and "time limit" in report.failure
        assert len(result.training.trace.epochs) == config.epochs

    def test_failed_task_memory_returns_to_device(self, config):
        freeride = FreeRide(config)
        freeride.submit(lambda: MemoryLeakTask(), name="leaker",
                        memory_limit_gb=2.5)
        freeride.run()
        stage = freeride._submissions[0][2]
        gpu = freeride.servers[0].gpu(stage)
        # Only the training allocation remains.
        training_gb = freeride.pipelines[0].memory.stage_memory_gb(stage)
        assert gpu.used_gb == pytest.approx(training_gb, abs=0.01)

    def test_healthy_task_unaffected_by_failing_neighbour(self, config):
        freeride = FreeRide(config)
        freeride.submit(workload_factory("pagerank"), name="healthy")
        freeride.submit(lambda: MemoryLeakTask(), name="leaker",
                        memory_limit_gb=2.5)
        result = freeride.run()
        assert result.task("healthy").failure is None
        assert result.task("healthy").steps_done > 0
        assert result.task("leaker").failure is not None

    def test_container_records_the_fault(self, config):
        freeride = FreeRide(config)
        freeride.submit(lambda: MemoryLeakTask(), name="leaker",
                        memory_limit_gb=2.5)
        freeride.run()
        stage = freeride._submissions[0][2]
        faults = freeride.workers[stage].container.faults
        assert faults and "OOM" in faults[0][1]

    def test_queued_task_runs_after_failed_predecessor(self, config):
        freeride = FreeRide(config)
        # Both tasks target the same worker: the leaker dies, PageRank
        # must then be served from the queue.
        freeride.submit(lambda: MemoryLeakTask(), name="leaker",
                        memory_limit_gb=2.5)
        from repro.core.policies import first_fit_policy
        freeride.manager.policy = first_fit_policy
        freeride.submit(workload_factory("pagerank"), name="queued")
        leak_stage = freeride._submissions[0][2]
        queued_stage = freeride._submissions[1][2]
        result = freeride.run()
        assert result.task("leaker").failure is not None
        if queued_stage == leak_stage:
            assert result.task("queued").steps_done > 0
