"""The step driver runs every iterative step.

``_StepDriver`` (``repro.core.runtime``) runs each step of an iterative
task as callbacks on the step's own timers and kernel. It resolves the
stock phases once per START, calls a phase the task's class overrides
(``host_phase``, ``launch_step``, ``after_step``), and runs a fault
injector's failed steps and straggler delays as bare timers. Each case
below pins what a run leaves behind: the machine history (its state
changes), the bubble-time accounting, steps, units, the failure, the
events processed, the GPU's busy time and what the case's actions saw.

The digests in ``GOLDEN`` were captured while a generator step loop
still ran fault-injected runs and overridden steps, on that loop, and
while every stock case also ran through it and matched. They hold the
driver to that loop's heap entries, draws and order. The history then
also held one RUNNING entry per ``RunNextStep``; it now lists state
changes only, and each digest is the captured outcome's with every
history entry that repeats its predecessor's state removed. The
``RunNextStep`` instants the cases read come from a spy on the driver
(:func:`_run_next_steps`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
from unittest import mock

import pytest

from repro import calibration
from repro.api.session import Session
from repro.api.spec import ObsSpec, ScenarioSpec, TrainingSpec, WorkloadSpec
from repro.core.interfaces import IterativeSideTask, SideTaskContext
from repro.core.manager import SideTaskManager
from repro.core.runtime import Command, CommandKind, _StepDriver
from repro.core.states import SideTaskState
from repro.core.task_spec import TaskProfile, TaskSpec
from repro.core.worker import SideTaskWorker
from repro.errors import GpuOutOfMemoryError, SideTaskError
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SlowdownWindow
from repro.fuzz.digest import digest_result
from repro.gpu.cluster import make_server_i
from repro.gpu.device import SimGPU
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workloads.adapters import FiniteJob
from repro.workloads.misbehaving import MemoryLeakTask

#: the first START lands here, after INIT's upload has finished
START_AT = 1.0
OVERHEAD_S = calibration.ITERATIVE_STEP_OVERHEAD_S

#: sha256 of each case's outcome (:func:`_sha`)
GOLDEN = {
    "LongHost":
        "df3a9ad4db7090698ea33b3c637750768ab94b3c30fc668451f9fb181e80d68e",
    "LongKernel":
        "d0c3263aeb5cf5d548c2f0dcac9c8ab2b015deccd24e761b4b57bd9d95793d67",
    "all_host":
        "447f3cf98f847e32473753f7a175d367bddc003c7f007b49b7ad2f3a8132ee47",
    "checkpoint_policy":
        "daf20a8671a60dfcf05b346bb15f3b8306a3f607b1eff8d6669406f01423917e",
    "failed_step[failed]":
        "bf6b2926bcbd9912c159fb90296e1fae07faae8f0c2bf37202f1cbee14c0ad55",
    "failed_step[host]":
        "37d668b4a56933ba80aa576a0fe188383a496f5b4d031ee625e80ce8dd9f06e6",
    "failed_step[kernel]":
        "417969306fe5d2425b75d6baf68a4d2f019d60410ddf9202a6d20166317b0357",
    "failed_step[overhead]":
        "3f73e97c3b0a82f39795b3d430dc5229c304efad34f69dbd90d38fdcd369143c",
    "finite_request":
        "5526fca653d68e10f7b25cecaf59c628957744e55b0ec506c5c1e7412e017d20",
    "fit_check":
        "e2a9dc97e4e346d67e56d7428811e66b5e8ab5dd4c84f0e179529c3c848b27f5",
    "kill_mid_step[host0.001]":
        "05df8cdc95babfc30ba5a397defffdae9ef14bd3e9be47de0d02558b26f9e6bb",
    "kill_mid_step[kernel0.012]":
        "b24ca5785ece1644840088aa714ca46a5ba5d75947ddc8ae5d811e1028590585",
    "kill_mid_step[overhead-0.00025]":
        "5819364902b40a2e4a3a9b7bbcaa61a5b1eb7f7b9c4f6574e054c35dec36521e",
    "kill_mid_step[overhead0.0]":
        "87299855a2c2d8022ce3b4432ba9d820aa29f6b68d6d3655a72f6d4faa99edcd",
    "leak[4.0]":
        "16b0409edb31a1abb925a910a39bebb75b7b6f163c0067f6f4c6e4e480e26f76",
    "leak[6.5]":
        "7d999d5a08bd9f7c1455ea86b7c4a4f8514c429a1439ab15f9539ee9b4ecaf96",
    "oom_at_launch":
        "82eb675fb54f5108fc01f1f12031afae8c8963c2912ff29ee188f5deb623f18f",
    "pause_mid_bubble":
        "dddb87ad25f485ecf7803575e5a065907cbaba1c8629a4cfbbfc6722f00bd518",
    "straggler[host]":
        "9d2bf9c90868fc98d75207a4f8ea8da23f90cda6bb71045f19bceddca785a95e",
    "straggler[kernel]":
        "d2f21dd6defc9d34d88afea1d7a4e7e414287e1c1e88201bf20174fed1fb3d70",
    "straggler[slowed]":
        "cb021be68040a6027428f00dbe5fd4a6d7c35a086e8df0cb00ed9197c23edbb2",
    "zero_overhead[0]":
        "dde603ae46d88d203d5c304c37fe9ed7f2002b5e2a75e2aa03d167ae8612c9f4",
    "zero_overhead[4]":
        "5a1f6ea3581f1ca89e43823a388f5c4f07397c151ee776714c6493464ebc28f5",
    "zero_overhead[None]":
        "42d2cf1df3d3d68391c10316a1306f7926eb28493457ef30d8d381125387a7ad",
}

#: (sha256, events) of each whole run (:func:`_session_outputs`)
WHOLE_RUN_GOLDEN = {
    "steps-cluster": (
        "73e6ce6bfe5410f9c2e1da8434bbe539d7e231a57a0ba7028723d9a7f7dc571d",
        16531),
    "steps-traced": (
        "8e37ca3ddc79f45090bc0bc116e685da8407a920305506c810458a228aa2b60e",
        1218),
}


class Probe(IterativeSideTask):
    """ResNet18's step shape with a trivial compute step that raises
    the MPS out-of-memory error at step ``oom_at``."""

    def __init__(self, perf=calibration.RESNET18, oom_at=None):
        super().__init__(perf, name="probe")
        self.oom_at = oom_at

    def compute_step(self) -> None:
        if self.steps_done == self.oom_at:
            raise GpuOutOfMemoryError("probe: out of memory at launch")


class LongHost(Probe):
    """Host phases twice the stock one's."""

    def host_phase(self, ctx):
        return 2 * super().host_phase(ctx)


class LongKernel(Probe):
    """Kernels twice the stock one's."""

    def launch_step(self, ctx):
        self.compute_step()
        perf = self.perf
        return ctx.proc.launch_kernel(
            2 * ctx.jitter(perf.step_time_s * perf.gpu_duty), perf.sm_demand,
            self.name)


class LoggedInjector(FaultInjector):
    """A fault injector that records its answers: ``fails`` holds
    ``(now, failed)`` per step attempt, ``slowed`` ``(now, step_start)``
    per step a straggler window lengthens."""

    def arm(self, pool) -> None:
        super().arm(pool)
        self.engine = pool.sim
        self.fails = []
        self.slowed = []

    def step_fails(self, task_name: str) -> bool:
        failed = super().step_fails(task_name)
        self.fails.append((self.engine.now, failed))
        return failed

    def slowdown_factor(self, stage: int, now: float) -> float:
        factor = super().slowdown_factor(stage, now)
        if factor > 1.0:
            self.slowed.append((self.engine.now, now))
        return factor


@dataclasses.dataclass
class _Pool:
    """What :meth:`FaultInjector.arm` reads of a pool."""

    sim: Engine
    workers: list
    manager: SideTaskManager


def _sha(outcome: dict) -> str:
    blob = json.dumps(outcome, sort_keys=True,
                      default=lambda state: state.value)
    return hashlib.sha256(blob.encode()).hexdigest()


def _start(bubble_end):
    def action(runtime, _gpu, _marks):
        runtime.deliver(Command(CommandKind.START, bubble_end=bubble_end))
    return action


def _pause(runtime, _gpu, _marks):
    runtime.deliver(Command(CommandKind.PAUSE))


def _phase(runtime, gpu, marks) -> str:
    """Where the running step is: overhead window, host phase or kernel."""
    if gpu.has_kernels_of(runtime.proc):
        return "kernel"
    # a step past its RunNextStep and not yet counted is in its host phase
    return "host" if len(marks) > runtime.workload.steps_done else "overhead"


def _kill(runtime, gpu, marks):
    phase = _phase(runtime, gpu, marks)
    runtime.kill("probe kill")
    return phase


@contextlib.contextmanager
def _run_next_steps(marks: list):
    """Append each ``RunNextStep``'s instant to ``marks``: every step
    attempt of the step driver on a RUNNING task that no fault injector
    fails, where the history used to log the self-loop. It leaves no
    entry now, so it is read off the driver."""
    step, step_fails = _StepDriver._step, FaultInjector.step_fails
    failed = []

    def spy_fails(injector, task_name):
        failed.append(step_fails(injector, task_name))
        return failed[-1]

    def spy_step(driver):
        failed.clear()
        running = driver.machine.state is SideTaskState.RUNNING
        try:
            step(driver)
        finally:
            if running and not any(failed):
                marks.append(driver.engine.now)

    with mock.patch.object(_StepDriver, "_step", spy_step), \
            mock.patch.object(FaultInjector, "step_fails", spy_fails):
        yield


def _run(workload, actions, until=2.0, checkpoint=None, faults=None,
         memory_limit_gb=None, marks=None) -> dict:
    """One task on one worker. The manager INITs it; ``actions`` are
    ``(time, action(runtime, gpu, marks))``, each returning what it saw,
    where ``marks`` (a new list unless given) collects the run's
    ``RunNextStep`` instants. ``faults`` is a :class:`FaultInjector`,
    armed on the worker."""
    marks = [] if marks is None else marks
    engine = Engine()
    server = make_server_i(engine)
    gpu = server.gpu(0)
    worker = SideTaskWorker(engine, gpu, 0, side_task_memory_gb=20.0,
                            mps=server.mps)
    manager = SideTaskManager(engine, [worker])
    if faults is not None:
        faults.arm(_Pool(engine, [worker], manager))
    profile = TaskProfile(gpu_memory_gb=workload.perf.memory_gb,
                          step_time_s=workload.perf.step_time_s)
    # A fixed name: the task's jitter stream is keyed by it.
    manager.submit(TaskSpec(workload=workload, profile=profile,
                            name="probe", checkpoint=checkpoint,
                            memory_limit_gb=memory_limit_gb),
                   "iterative")
    runtime = worker.all_tasks[0]
    seen = []
    for at, action in actions:
        engine.timeout(at).callbacks.append(
            lambda _ev, action=action: seen.append(
                action(runtime, gpu, marks)))
    with _run_next_steps(marks):
        engine.run(until=until)
    return {
        "history": list(runtime.machine.history),
        "overhead_s": runtime.overhead_s,
        "running_s": runtime.running_s,
        "insufficient_s": runtime.insufficient_s,
        "checkpoint_s": runtime.checkpoint_s,
        "checkpoints": runtime.checkpoints,
        "slowdown_s": runtime.slowdown_s,
        "step_failures": runtime.step_failures,
        "wasted_s": runtime.wasted_s,
        "steps": workload.steps_done,
        "units": workload.units_done,
        "failure": runtime.failure,
        "events": engine.events_processed,
        "busy_s": gpu.busy_time,
        "seen": seen,
    }


def _pinned(case: str, outcome: dict) -> dict:
    assert _sha(outcome) == GOLDEN[case], case
    return outcome


def _step_marks() -> list[float]:
    """RunNextStep instants of an undisturbed run started at START_AT."""
    marks = []
    _run(Probe(), [(START_AT, _start(None))], until=START_AT + 0.2,
         marks=marks)
    return marks


def test_pause_mid_bubble():
    outcome = _pinned("pause_mid_bubble", _run(Probe(), [
        (START_AT, _start(None)),
        (START_AT + 0.1234, _pause),
        (START_AT + 0.3, _start(START_AT + 0.45)),
        (START_AT + 0.3711, _pause),
    ]))
    paused = [when for when, state in outcome["history"]
              if state is SideTaskState.PAUSED]
    assert len(paused) == 3  # INIT, then both PAUSEs
    assert outcome["steps"] == 4 and outcome["insufficient_s"] == 0.0


def test_fit_check_idles_out_a_bubble_tail():
    outcome = _pinned("fit_check", _run(Probe(), [
        (START_AT, _start(START_AT + 0.31)),
        (START_AT + 0.32, _pause),
    ]))
    assert outcome["insufficient_s"] > 0.0
    assert outcome["history"][-1][1] is SideTaskState.PAUSED


def test_finite_request_finishes_mid_bubble():
    outcome = _pinned("finite_request", _run(
        FiniteJob(Probe(), job_steps=5), [(START_AT, _start(START_AT + 0.5))]))
    assert outcome["steps"] == 5
    assert outcome["history"][-1][1] is SideTaskState.STOPPED
    assert outcome["history"][-1][0] < START_AT + 0.5


def test_checkpoint_policy_without_faults():
    policy = CheckpointPolicy(interval_steps=3, checkpoint_cost_s=0.004)
    outcome = _pinned("checkpoint_policy", _run(Probe(), [
        (START_AT, _start(START_AT + 0.4)),
        (START_AT + 0.41, _pause),
    ], checkpoint=policy))
    assert outcome["checkpoints"] >= 2 and outcome["checkpoint_s"] > 0.0
    states = [state for _t, state in outcome["history"]]
    assert SideTaskState.CHECKPOINTED in states


@pytest.mark.parametrize("phase, offset", [
    # the kill's timeout was scheduled first, so it runs before the
    # overhead timer that ends at the same instant
    ("overhead", 0.0),
    ("overhead", -OVERHEAD_S / 2),
    ("host", 0.001),
    ("kernel", 0.012),
])
def test_kill_mid_step(phase, offset):
    kill_at = _step_marks()[2] + offset
    outcome = _pinned(f"kill_mid_step[{phase}{offset}]", _run(
        Probe(), [(START_AT, _start(None)), (kill_at, _kill)]))
    assert outcome["seen"] == [None, phase]
    assert outcome["failure"] == "probe kill"
    assert outcome["history"][-1] == (kill_at, SideTaskState.STOPPED)


def test_oom_at_launch_kills_the_task_at_the_same_instant():
    outcome = _pinned("oom_at_launch", _run(
        Probe(oom_at=3), [(START_AT, _start(None))]))
    assert outcome["steps"] == 3
    assert outcome["failure"].startswith("OOM: probe")
    assert outcome["history"][-1][1] is SideTaskState.STOPPED


@pytest.mark.parametrize("oom_at", [None, 0, 4])
def test_zero_overhead_and_host_time(monkeypatch, oom_at):
    """The first phases run before the process waits; an exception there
    raises directly into the generator."""
    monkeypatch.setattr(calibration, "ITERATIVE_STEP_OVERHEAD_S", 0.0)
    all_gpu = dataclasses.replace(calibration.RESNET18, gpu_duty=1.0)
    outcome = _pinned(f"zero_overhead[{oom_at}]", _run(
        Probe(perf=all_gpu, oom_at=oom_at),
        [(START_AT, _start(START_AT + 0.3)), (START_AT + 0.31, _pause)]))
    assert outcome["overhead_s"] == calibration.TASK_RESUME_LATENCY_S
    assert outcome["steps"] == (8 if oom_at is None else oom_at)


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
def test_whole_runs(spec):
    assert _session_outputs(spec) == WHOLE_RUN_GOLDEN[spec.name]


def _next_normal(runtime, _gpu, _marks) -> float:
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
    outcome = _pinned("all_host", _run(
        Probe(perf=all_host),
        [(START_AT, _start(START_AT + 0.3)), (START_AT + 0.31, _pause),
         (START_AT + 0.35, _next_normal)]))
    steps = outcome["steps"]
    assert steps > 0 and outcome["busy_s"] == 0.0
    assert completions == [0.0] * steps
    # one draw per step, its host phase's: the next value is the
    # stream's (steps + 1)-th
    fresh = RandomStreams(0).spawn("probe").normal("task:probe")
    for _ in range(steps):
        fresh()
    assert outcome["seen"][-1] == fresh()


@pytest.mark.parametrize("cls", [LongHost, LongKernel])
def test_an_overridden_phase_runs_in_the_driver(cls):
    """The driver calls a phase the task's class overrides, in place of
    the stock step it resolves."""
    actions = [(START_AT, _start(START_AT + 0.4)), (START_AT + 0.41, _pause)]
    outcome = _pinned(cls.__name__, _run(cls(), actions))
    stock = _run(Probe(), actions)
    assert 0 < outcome["steps"] < stock["steps"]


class _Launches:
    """A process stand-in that records each kernel's seconds."""

    def __init__(self):
        self.work_s = []

    def launch_kernel(self, work_s, sm_demand, name):
        self.work_s.append(work_s)


def test_the_resolved_step_draws_what_the_phases_draw(monkeypatch):
    """The driver draws a stock step's host and kernel seconds itself,
    from the split and normal source it resolves once per START. They
    are the seconds ``host_phase`` and ``launch_step`` draw, in the same
    order, on a fresh copy of the task's stream. The driver launches
    its kernel once per START and relaunches it for every later step,
    so the spy sits on the device's launch, which both take."""
    launches = []
    launch = SimGPU.launch

    def spy(gpu, kernel):
        if kernel.proc.name.endswith(":probe"):  # the task's process
            launches.append((gpu.engine.now, kernel.work_s))
        return launch(gpu, kernel)

    monkeypatch.setattr(SimGPU, "launch", spy)
    marks = []
    outcome = _run(Probe(), [(START_AT, _start(START_AT + 0.3)),
                             (START_AT + 0.31, _pause)], marks=marks)
    assert len(marks) == len(launches) == outcome["steps"] > 0

    reference = Probe()
    proc = _Launches()
    ctx = SideTaskContext(Engine(), proc, RandomStreams(0).spawn("probe"),
                          "probe")
    for mark, (launched_at, work_s) in zip(marks, launches):
        # the host timer is due at mark + host seconds, added once
        assert launched_at == mark + reference.host_phase(ctx)
        reference.launch_step(ctx)
        assert work_s == proc.work_s[-1]


def _injected(plan: FaultPlan) -> LoggedInjector:
    """The injector of an undisturbed run of ``plan``, with its log."""
    injector = LoggedInjector(plan)
    _run(Probe(), [(START_AT, _start(None))], faults=injector)
    return injector


FAILURES = FaultPlan(step_failure_rate=0.4, step_failure_seed=3)
STRAGGLER = FaultPlan(slowdowns=(SlowdownWindow(
    stage=0, start_s=START_AT + 0.1, end_s=START_AT + 0.3, factor=3.0),))


@pytest.mark.parametrize("phase", ["overhead", "failed", "host", "kernel"])
def test_kill_in_each_phase_of_a_failed_step(phase):
    """Killed in the overhead before a failed step, in the failed step's
    lost time, or in the host phase or kernel of the step that re-runs
    it; the failure counts once its lost time has passed."""
    attempts = _injected(FAILURES).fails
    # attempts 2-7 fail, 8 runs, 9 fails again and 10 re-runs it
    assert [failed for _when, failed in attempts[:11]] == (
        [False] * 2 + [True] * 6 + [False, True, False])
    failed_at, rerun_at = attempts[9][0], attempts[10][0]
    kill_at = {
        "overhead": failed_at - OVERHEAD_S / 2,
        "failed": failed_at + calibration.RESNET18.step_time_s / 2,
        "host": rerun_at + 0.001,
        "kernel": rerun_at + 0.012,
    }[phase]
    outcome = _pinned(f"failed_step[{phase}]", _run(
        Probe(), [(START_AT, _start(None)), (kill_at, _kill)],
        faults=FaultInjector(FAILURES)))
    assert outcome["step_failures"] == (7 if phase in ("host", "kernel")
                                        else 6)
    assert outcome["failure"] == "probe kill"
    assert outcome["history"][-1] == (kill_at, SideTaskState.STOPPED)
    if phase != "failed":
        assert outcome["seen"] == [None, phase]


def test_an_iterative_task_without_a_step_time_is_refused():
    """Without a profiled step time an iterative task would have no
    program-directed limit and a failed step would lose no time: its
    submission raises."""
    engine = Engine()
    server = make_server_i(engine)
    worker = SideTaskWorker(engine, server.gpu(0), 0,
                            side_task_memory_gb=20.0, mps=server.mps)
    manager = SideTaskManager(engine, [worker])
    workload = Probe()
    profile = TaskProfile(gpu_memory_gb=workload.perf.memory_gb,
                          step_time_s=None)
    with pytest.raises(SideTaskError, match="profiled step time"):
        manager.submit(TaskSpec(workload=workload, profile=profile,
                                name="probe"), "iterative")
    assert worker.all_tasks == []


@pytest.mark.parametrize("phase", ["host", "kernel", "slowed"])
def test_kill_during_a_straggler_window(phase):
    """Killed in a 3x straggler window: in a step's host phase or
    kernel, or in the time the window adds after the kernel."""
    done_at, step_start = _injected(STRAGGLER).slowed[1]
    added = (done_at - step_start) * 2.0
    kill_at = {
        "host": step_start + 0.001,
        "kernel": step_start + 0.012,
        "slowed": done_at + added / 2,
    }[phase]
    outcome = _pinned(f"straggler[{phase}]", _run(
        Probe(), [(START_AT, _start(None)), (kill_at, _kill)],
        faults=FaultInjector(STRAGGLER)))
    assert outcome["slowdown_s"] > 0.0
    assert outcome["failure"] == "probe kill"
    assert outcome["history"][-1] == (kill_at, SideTaskState.STOPPED)
    if phase != "slowed":
        assert outcome["seen"] == [None, phase]


@pytest.mark.parametrize("cap_gb", [4.0, 6.5])
def test_a_leak_is_oom_killed_from_after_step(cap_gb):
    """``MemoryLeakTask`` allocates in ``after_step``, once its step is
    counted; the allocation that crosses the cap kills the task at the
    kernel's completion."""
    outcome = _pinned(f"leak[{cap_gb}]", _run(
        MemoryLeakTask(), [(START_AT, _start(None))],
        memory_limit_gb=cap_gb))
    # 2 GB at INIT, 1 GB more per step
    assert outcome["steps"] == int(cap_gb - 2.0) + 1
    assert outcome["failure"].startswith("OOM: ")
    assert outcome["history"][-1][1] is SideTaskState.STOPPED
