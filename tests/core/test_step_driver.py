"""Callback steps ≡ generator steps.

A task that keeps the stock ``IterativeSideTask.run_next_step`` and its
phases ``_host_phase`` and ``_launch_step`` runs its steps as callbacks
on the step's own events (``_StepDriver``, which resolves the stock step
once per START); a task that overrides any of the three, even with a
pass-through ``yield from super().run_next_step(ctx)``, takes the
generator step loop. Each case below runs both ways and compares what a
run leaves behind: the machine history, the bubble-time accounting,
steps, units, the failure and the number of events processed. No option
selects the path: the override does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import calibration
from repro.api.session import Session
from repro.api.spec import ObsSpec, ScenarioSpec, TrainingSpec, WorkloadSpec
from repro.core.interfaces import IterativeSideTask
from repro.core.manager import SideTaskManager
from repro.core.runtime import Command, CommandKind, _stock_steps
from repro.core.states import SideTaskState
from repro.core.task_spec import TaskProfile, TaskSpec
from repro.core.worker import SideTaskWorker
from repro.errors import GpuOutOfMemoryError
from repro.faults.checkpoint import CheckpointPolicy
from repro.fuzz.digest import digest_result
from repro.gpu.cluster import make_server_i
from repro.gpu.device import SimGPU
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workloads.adapters import FiniteJob
from repro.workloads.graph_analytics import PageRankTask
from repro.workloads.model_training import ModelTrainingTask

RUNNING = SideTaskState.RUNNING
#: the first START lands here, after INIT's upload has finished
START_AT = 1.0


class Probe(IterativeSideTask):
    """ResNet18's step shape with a trivial compute step that raises
    the MPS out-of-memory error at step ``oom_at``."""

    def __init__(self, perf=calibration.RESNET18, oom_at=None):
        super().__init__(perf, name="probe")
        self.oom_at = oom_at

    def compute_step(self) -> None:
        if self.steps_done == self.oom_at:
            raise GpuOutOfMemoryError("probe: out of memory at launch")


class ProbeTwin(Probe):
    def run_next_step(self, ctx):
        yield from super().run_next_step(ctx)


class LongHost(Probe):
    """Host phases twice the stock one's."""

    def _host_phase(self, ctx):
        return 2 * super()._host_phase(ctx)


class LongKernel(Probe):
    """Kernels twice the stock one's."""

    def _launch_step(self, ctx):
        self.compute_step()
        perf = self.perf
        return ctx.proc.launch_kernel(
            2 * ctx.jitter(perf.step_time_s * perf.gpu_duty), perf.sm_demand,
            self.name)


class FiniteTwin(FiniteJob):
    def run_next_step(self, ctx):
        yield from super().run_next_step(ctx)


def _probe(generator: bool, **kwargs) -> Probe:
    return (ProbeTwin if generator else Probe)(**kwargs)


def _finite(generator: bool) -> FiniteJob:
    return (FiniteTwin if generator else FiniteJob)(Probe(), job_steps=5)


def _start(bubble_end):
    def action(runtime, _gpu):
        runtime.deliver(Command(CommandKind.START, bubble_end=bubble_end))
    return action


def _pause(runtime, _gpu):
    runtime.deliver(Command(CommandKind.PAUSE))


def _phase(runtime, gpu) -> str:
    """Where the running step is: overhead window, host phase or kernel."""
    if gpu.has_kernels_of(runtime.proc):
        return "kernel"
    applied = sum(state is RUNNING for _t, state in runtime.machine.history)
    # one RUNNING entry is the START; the rest are RunNextStep
    return "host" if applied - 1 > runtime.workload.steps_done else "overhead"


def _kill(runtime, gpu):
    phase = _phase(runtime, gpu)
    runtime.kill("probe kill")
    return phase


def _run(workload, actions, until=2.0, checkpoint=None) -> dict:
    """One task on one worker. The manager INITs it; ``actions`` are
    ``(time, action(runtime, gpu))``, each returning what it saw."""
    engine = Engine()
    server = make_server_i(engine)
    gpu = server.gpu(0)
    worker = SideTaskWorker(engine, gpu, 0, side_task_memory_gb=20.0,
                            mps=server.mps)
    manager = SideTaskManager(engine, [worker])
    profile = TaskProfile(gpu_memory_gb=workload.perf.memory_gb,
                          step_time_s=workload.perf.step_time_s)
    # A fixed name: the task's jitter stream is keyed by it.
    manager.submit(TaskSpec(workload=workload, profile=profile,
                            name="probe", checkpoint=checkpoint),
                   "iterative")
    runtime = worker.all_tasks[0]
    seen = []
    for at, action in actions:
        engine.timeout(at).callbacks.append(
            lambda _ev, action=action: seen.append(action(runtime, gpu)))
    engine.run(until=until)
    return {
        "history": list(runtime.machine.history),
        "overhead_s": runtime.overhead_s,
        "running_s": runtime.running_s,
        "insufficient_s": runtime.insufficient_s,
        "checkpoint_s": runtime.checkpoint_s,
        "checkpoints": runtime.checkpoints,
        "steps": workload.steps_done,
        "units": workload.units_done,
        "failure": runtime.failure,
        "events": engine.events_processed,
        "busy_s": gpu.busy_time,
        "seen": seen,
    }


def _both(make, actions, **kwargs) -> dict:
    """Run ``make(generator)`` both ways; return the common outcome."""
    callbacks, generator = make(False), make(True)
    assert _stock_steps(callbacks) and not _stock_steps(generator)
    outcome = _run(callbacks, actions, **kwargs)
    assert outcome == _run(generator, actions, **kwargs)
    return outcome


def _step_marks() -> list[float]:
    """RunNextStep instants of an undisturbed run started at START_AT."""
    history = _run(_probe(False), [(START_AT, _start(None))],
                   until=START_AT + 0.2)["history"]
    marks = [when for when, state in history if state is RUNNING]
    return marks[1:]  # the first RUNNING entry is the START


def test_pause_mid_bubble():
    outcome = _both(_probe, [
        (START_AT, _start(None)),
        (START_AT + 0.1234, _pause),
        (START_AT + 0.3, _start(START_AT + 0.45)),
        (START_AT + 0.3711, _pause),
    ])
    paused = [when for when, state in outcome["history"]
              if state is SideTaskState.PAUSED]
    assert len(paused) == 3  # INIT, then both PAUSEs
    assert outcome["steps"] == 4 and outcome["insufficient_s"] == 0.0


def test_fit_check_idles_out_a_bubble_tail():
    outcome = _both(_probe, [
        (START_AT, _start(START_AT + 0.31)),
        (START_AT + 0.32, _pause),
    ])
    assert outcome["insufficient_s"] > 0.0
    assert outcome["history"][-1][1] is SideTaskState.PAUSED


def test_finite_request_finishes_mid_bubble():
    outcome = _both(_finite, [(START_AT, _start(START_AT + 0.5))])
    assert outcome["steps"] == 5
    assert outcome["history"][-1][1] is SideTaskState.STOPPED
    assert outcome["history"][-1][0] < START_AT + 0.5


def test_checkpoint_policy_without_faults():
    policy = CheckpointPolicy(interval_steps=3, checkpoint_cost_s=0.004)
    outcome = _both(_probe, [
        (START_AT, _start(START_AT + 0.4)),
        (START_AT + 0.41, _pause),
    ], checkpoint=policy)
    assert outcome["checkpoints"] >= 2 and outcome["checkpoint_s"] > 0.0
    states = [state for _t, state in outcome["history"]]
    assert SideTaskState.CHECKPOINTED in states


@pytest.mark.parametrize("phase, offset", [
    # the kill's timeout was scheduled first, so it runs before the
    # overhead timeout that ends at the same instant
    ("overhead", 0.0),
    ("overhead", -calibration.ITERATIVE_STEP_OVERHEAD_S / 2),
    ("host", 0.001),
    ("kernel", 0.012),
])
def test_kill_mid_step(phase, offset):
    kill_at = _step_marks()[2] + offset
    outcome = _both(_probe, [(START_AT, _start(None)), (kill_at, _kill)])
    assert outcome["seen"] == [None, phase]
    assert outcome["failure"] == "probe kill"
    assert outcome["history"][-1] == (kill_at, SideTaskState.STOPPED)


def test_oom_at_launch_kills_the_task_at_the_same_instant():
    outcome = _both(lambda generator: _probe(generator, oom_at=3),
                    [(START_AT, _start(None))])
    assert outcome["steps"] == 3
    assert outcome["failure"].startswith("OOM: probe")
    assert outcome["history"][-1][1] is SideTaskState.STOPPED


def test_zero_overhead_and_host_time(monkeypatch):
    """The first phases run before the process waits; an exception there
    raises directly into the generator."""
    monkeypatch.setattr(calibration, "ITERATIVE_STEP_OVERHEAD_S", 0.0)
    all_gpu = dataclasses.replace(calibration.RESNET18, gpu_duty=1.0)
    for oom_at in (None, 0, 4):
        outcome = _both(
            lambda generator: _probe(generator, perf=all_gpu, oom_at=oom_at),
            [(START_AT, _start(START_AT + 0.3)), (START_AT + 0.31, _pause)])
        assert outcome["overhead_s"] == calibration.TASK_RESUME_LATENCY_S
        assert outcome["steps"] == (8 if oom_at is None else oom_at)


def _pass_through(self, ctx):
    yield from IterativeSideTask.run_next_step(self, ctx)


def _session_outputs(spec: ScenarioSpec) -> tuple:
    with Session(spec) as session:
        result = session.run().results()
        runner = session.runner
        pool = runner.cluster if runner.kind == "cluster" else runner.freeride
        outputs = {"result": digest_result(spec, result)}
        if getattr(result, "trace", None) is not None:
            outputs["trace"] = result.trace.to_jsonl()
        events = pool.sim.events_processed
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), events


@pytest.mark.parametrize("spec", [
    ScenarioSpec(name="steps-traced", kind="batch", seed=4,
                 training=TrainingSpec(epochs=1),
                 workloads=(WorkloadSpec(name="resnet18"),),
                 obs=ObsSpec(trace=True)),
    ScenarioSpec(name="steps-cluster", kind="cluster", seed=1,
                 training=TrainingSpec(epochs=1), jobs=2,
                 workloads=(WorkloadSpec(name="pagerank"),
                            WorkloadSpec(name="resnet18"))),
], ids=["traced", "cluster"])
def test_whole_runs_match(monkeypatch, spec):
    callbacks = _session_outputs(spec)
    for cls in (ModelTrainingTask, PageRankTask):
        monkeypatch.setattr(cls, "run_next_step", _pass_through,
                            raising=False)
    assert _session_outputs(spec) == callbacks


def _next_normal(runtime, _gpu) -> float:
    """The next value of the task's jitter source (drawn while paused)."""
    return runtime.ctx.normal_source()()


def test_all_host_step_launches_an_empty_kernel(monkeypatch):
    """With ``gpu_duty`` 0 the kernel has no work: the step makes no
    kernel draw, and the kernel completes through ``SimGPU._complete``
    as a heap event of its own, not at the tail of a device timer."""
    completions = []
    complete = SimGPU._complete

    def spy(gpu, kernel):
        completions.append(kernel.work_s)
        complete(gpu, kernel)

    monkeypatch.setattr(SimGPU, "_complete", spy)
    all_host = dataclasses.replace(calibration.RESNET18, gpu_duty=0.0)
    outcome = _both(
        lambda generator: _probe(generator, perf=all_host),
        [(START_AT, _start(START_AT + 0.3)), (START_AT + 0.31, _pause),
         (START_AT + 0.35, _next_normal)])
    steps = outcome["steps"]
    assert steps > 0 and outcome["busy_s"] == 0.0
    assert completions == [0.0] * (2 * steps)
    # one draw per step, its host phase's: the next value is the
    # stream's (steps + 1)-th
    fresh = RandomStreams(0).spawn("probe").normal("task:probe")
    for _ in range(steps):
        fresh()
    assert outcome["seen"][-1] == fresh()


def _with_pass_through(cls):
    return type(f"{cls.__name__}Twin", (cls,),
                {"run_next_step": _pass_through})


@pytest.mark.parametrize("cls", [LongHost, LongKernel])
def test_an_overridden_phase_takes_the_generator_loop(cls):
    """The driver stands in for all three stock hooks, so overriding one
    phase is enough to take the generator loop, which runs the
    override."""
    assert not _stock_steps(cls())
    actions = [(START_AT, _start(START_AT + 0.4)), (START_AT + 0.41, _pause)]
    outcome = _run(cls(), actions)
    assert outcome == _run(_with_pass_through(cls)(), actions)
    stock = _run(Probe(), actions)
    assert 0 < outcome["steps"] < stock["steps"]

