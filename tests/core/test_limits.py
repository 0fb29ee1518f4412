"""Tests for the GPU resource-limit mechanisms (paper section 4.5, Fig. 8)."""

from __future__ import annotations

import pytest

from repro.core.manager import SideTaskManager
from repro.core.profiler import profile_side_task
from repro.core.runtime import _step_fits
from repro.core.states import SideTaskState
from repro.core.task_spec import TaskSpec
from repro.core.worker import ManagedBubble, SideTaskWorker
from repro.gpu.cluster import make_server_i
from repro.sim.engine import Engine
from repro.workloads.misbehaving import MemoryLeakTask, NonPausingTask
from repro.workloads.model_training import make_resnet18


def build(engine, workload_factory, memory_gb=20.0, limit=None,
          interface="iterative"):
    # record_occupancy: the program-directed-limit test reads the trace.
    server = make_server_i(engine, record_occupancy=True)
    worker = SideTaskWorker(engine, server.gpu(0), 0,
                            side_task_memory_gb=memory_gb, mps=server.mps)
    manager = SideTaskManager(engine, [worker])
    # Profile a fresh probe instance so the serving instance starts clean.
    profile = profile_side_task(workload_factory(), interface=interface)
    workload = workload_factory()
    spec = TaskSpec(workload=workload, profile=profile, memory_limit_gb=limit)
    manager.submit(spec, interface)
    runtime = worker.all_tasks[0]
    engine.run(until=engine.now + 1.0)  # create + init settle
    return server, worker, manager, runtime, workload


class TestProgramDirectedLimit:
    def test_step_not_started_when_remaining_time_too_short(self, engine):
        _server, _worker, manager, runtime, workload = build(
            engine, make_resnet18)
        # A bubble shorter than one step: the gate must refuse.
        manager.add_bubble(ManagedBubble(stage=0, start=engine.now,
                                         expected_end=engine.now + 0.02,
                                         available_gb=20.0))
        engine.run(until=engine.now + 0.5)
        assert workload.steps_done == 0

    def test_insufficient_time_is_accounted(self, engine):
        _server, _worker, manager, runtime, workload = build(
            engine, make_resnet18)
        manager.add_bubble(ManagedBubble(stage=0, start=engine.now,
                                         expected_end=engine.now + 0.3,
                                         available_gb=20.0))
        engine.run(until=engine.now + 1.0)
        assert workload.steps_done > 0
        assert runtime.insufficient_s > 0  # the unusable bubble tail

    def test_steps_fit_within_bubble(self, engine):
        _server, _worker, manager, runtime, workload = build(
            engine, make_resnet18)
        end = engine.now + 0.5
        manager.add_bubble(ManagedBubble(stage=0, start=engine.now,
                                         expected_end=end,
                                         available_gb=20.0))
        engine.run(until=engine.now + 1.0)
        # All step kernels must have completed before (approximately) the
        # bubble end the manager announced.
        last_point = max(
            (t for t, _tot, _hi, lo in _server.gpu(0).occupancy_trace if lo > 0),
            default=0.0,
        )
        assert last_point <= end + 0.02


@pytest.mark.parametrize("now, reach, bubble_end, fits", [
    (1.0, 0.25, 1.25, True),  # the step ends exactly at the bubble's end
    (1.0, 0.25, 1.2, False),
    (1.0, 0.25, float("nan"), False),  # a NaN bubble end never fits
    (1.0, 0.25, None, True),  # no bubble end announced
])
def test_step_fit_check(now, reach, bubble_end, fits):
    """The program-directed limit the running loop and the step driver
    share: a step may start when ``now + reach`` does not pass the
    bubble's end. An iterative task always has a profiled step time
    (``IterativeRuntime`` refuses one without)."""
    assert _step_fits(now, reach, bubble_end) is fits


class TestFrameworkEnforcedLimit:
    def test_non_pausing_task_is_killed_after_grace_period(self, engine):
        """Figure 8(a): the worker terminates the task via SIGKILL."""
        server, worker, manager, runtime, workload = build(
            engine, NonPausingTask)
        # One bubble long enough for the 16 honest steps plus the runaway
        # kernel that then refuses to pause at the bubble's end.
        bubble_end = engine.now + 0.65
        manager.add_bubble(ManagedBubble(stage=0, start=engine.now,
                                         expected_end=bubble_end,
                                         available_gb=20.0))
        engine.run(until=engine.now + 3.0)
        assert workload.steps_done >= workload.honest_steps
        assert not runtime.proc.alive
        assert runtime.machine.terminated
        assert worker.kills and "time limit" in worker.kills[0][1]
        # The kill lands about one grace period after the pause attempt.
        stopped_at = [
            when for when, state in runtime.machine.history
            if state.value == "STOPPED"
        ][-1]
        from repro import calibration
        assert stopped_at - bubble_end == pytest.approx(
            calibration.GRACE_PERIOD_S, abs=0.1
        )

    def test_well_behaved_task_is_not_killed(self, engine):
        _server, worker, manager, runtime, workload = build(
            engine, make_resnet18)
        for _ in range(3):
            manager.add_bubble(ManagedBubble(stage=0, start=engine.now,
                                             expected_end=engine.now + 0.4,
                                             available_gb=20.0))
            engine.run(until=engine.now + 1.2)
        assert runtime.proc.alive
        assert not worker.kills


class TestMemoryLimit:
    def test_leaking_task_is_oom_killed_at_its_limit(self, engine):
        """Figure 8(b): the 8 GB cap kills the leaking side task."""
        server, worker, manager, runtime, workload = build(
            engine, MemoryLeakTask, limit=8.0
        )
        manager.add_bubble(ManagedBubble(stage=0, start=engine.now,
                                         expected_end=engine.now + 5.0,
                                         available_gb=20.0))
        engine.run(until=engine.now + 6.0)
        assert not runtime.proc.alive
        assert runtime.failure is not None and "OOM" in runtime.failure
        # The process never exceeded its cap and its memory returned to 0.
        peak = max(gb for _t, gb in runtime.proc.memory_trace)
        assert peak <= 8.0 + 1e-6
        assert runtime.proc.memory_trace[-1][1] == 0.0

    def test_oom_leaves_other_processes_untouched(self, engine):
        server, worker, manager, runtime, workload = build(
            engine, lambda: MemoryLeakTask(leak_gb_per_step=2.0), limit=6.0)
        from repro.gpu.process import GPUProcess
        bystander = GPUProcess(engine, server.gpu(0), "training-sim")
        bystander.allocate(20.0)
        manager.add_bubble(ManagedBubble(stage=0, start=engine.now,
                                         expected_end=engine.now + 5.0,
                                         available_gb=20.0))
        engine.run(until=engine.now + 6.0)
        assert not runtime.proc.alive
        assert bystander.alive
        assert bystander.memory_gb == pytest.approx(20.0)
