"""Unit tests for the user-facing side-task interfaces."""

from __future__ import annotations

import pytest

from repro import calibration
from repro.core.interfaces import IterativeSideTask, SideTaskContext
from repro.gpu.process import GPUProcess
from repro.sim.rng import RandomStreams
from repro.workloads.model_training import make_resnet18


@pytest.fixture
def ctx(engine, gpu):
    proc = GPUProcess(engine, gpu, "task")
    return SideTaskContext(engine, proc, RandomStreams(0), "task")


class TestContext:
    def test_now_tracks_engine(self, engine, ctx):
        assert ctx.now == 0.0
        engine.run(until=2.0)
        assert ctx.now == 2.0

    def test_jitter_of_zero_is_zero(self, ctx):
        assert ctx.jitter(0.0) == 0.0

    def test_jitter_is_deterministic_per_task_name(self, engine, gpu):
        first = SideTaskContext(engine, GPUProcess(engine, gpu, "a"),
                                RandomStreams(1), "a")
        second = SideTaskContext(engine, GPUProcess(engine, gpu, "a"),
                                 RandomStreams(1), "a")
        assert first.jitter(1.0) == second.jitter(1.0)


class TestIterativeDefaults:
    def test_default_step_realizes_profiled_duration(self, engine, ctx):
        task = make_resnet18()
        task.create_side_task()
        task.init_side_task(ctx)

        def body():
            yield from task.run_next_step(ctx)

        proc = engine.process(body())
        engine.run(until=proc)
        assert engine.now == pytest.approx(
            calibration.RESNET18.step_time_s, rel=0.15
        )
        assert task.steps_done == 1
        assert task.units_done == 64.0

    def test_default_init_allocates_profiled_memory(self, engine, ctx):
        task = make_resnet18()
        task.create_side_task()
        task.init_side_task(ctx)
        assert ctx.proc.memory_gb == pytest.approx(
            calibration.RESNET18.memory_gb
        )
        task.stop_side_task(ctx)
        assert ctx.proc.memory_gb == 0.0

    def test_stop_is_idempotent(self, engine, ctx):
        task = make_resnet18()
        task.create_side_task()
        task.init_side_task(ctx)
        task.stop_side_task(ctx)
        task.stop_side_task(ctx)  # second call must not raise
        assert ctx.proc.memory_gb == 0.0

    def test_endless_by_default(self):
        assert make_resnet18().is_finished is False

    def test_step_splits_host_and_kernel_by_gpu_duty(self, engine, ctx):
        task = make_resnet18()
        task.create_side_task()
        task.init_side_task(ctx)

        def body():
            yield from task.run_next_step(ctx)

        engine.process(body())
        engine.run()
        # The GPU was busy for ~gpu_duty of the step.
        gpu = ctx.proc.device
        busy = gpu.busy_time
        expected = (calibration.RESNET18.step_time_s
                    * calibration.RESNET18.gpu_duty)
        assert busy == pytest.approx(expected, rel=0.2)


class TestStepPhases:
    def test_overriding_run_next_step_raises(self):
        with pytest.raises(TypeError, match="host_phase, launch_step or "
                                            "after_step"):
            class Custom(IterativeSideTask):  # noqa: F841 - never built
                def compute_step(self) -> None:
                    pass

                def run_next_step(self, ctx):
                    yield from super().run_next_step(ctx)

    def test_run_next_step_runs_the_phases_in_order(self, engine, ctx):
        """The stock generator step: the host phase's timeout, then
        ``launch_step``'s kernel, the step's accounting and
        ``after_step``."""
        seen = []

        class Recorded(IterativeSideTask):
            def host_phase(self, ctx):
                seen.append(("host", engine.now))
                return 0.25

            def compute_step(self) -> None:
                seen.append(("compute", engine.now))

            def after_step(self, ctx):
                seen.append(("after", engine.now, self.steps_done))

        task = Recorded(calibration.RESNET18)

        def body():
            yield from task.run_next_step(ctx)

        engine.run(until=engine.process(body()))
        assert [entry[:2] for entry in seen[:2]] == [("host", 0.0),
                                                     ("compute", 0.25)]
        assert seen[2] == ("after", engine.now, 1) and engine.now > 0.25
