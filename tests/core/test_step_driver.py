"""The step driver runs every iterative step.

``_StepDriver`` (``repro.core.runtime``) runs each step of an iterative
task as callbacks on the step's own timers and kernel. It resolves the
stock phases once per START, calls a phase the task's class overrides
(``host_phase``, ``launch_step``, ``after_step``), and runs a fault
injector's failed steps and straggler delays as bare timers. Each case
below pins what a run leaves behind: the machine history, the
bubble-time accounting, steps, units, the failure, the events
processed, the GPU's busy time and what the case's actions saw.

The digests in ``GOLDEN`` were captured while a generator step loop
still ran fault-injected runs and overridden steps, on that loop, and
while every stock case also ran through it and matched. They hold the
driver to that loop's heap entries, draws and order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import calibration
from repro.api.session import Session
from repro.api.spec import ObsSpec, ScenarioSpec, TrainingSpec, WorkloadSpec
from repro.core.interfaces import IterativeSideTask, SideTaskContext
from repro.core.manager import SideTaskManager
from repro.core.runtime import Command, CommandKind
from repro.core.states import SideTaskState
from repro.core.task_spec import TaskProfile, TaskSpec
from repro.core.worker import SideTaskWorker
from repro.errors import GpuOutOfMemoryError
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

RUNNING = SideTaskState.RUNNING
#: the first START lands here, after INIT's upload has finished
START_AT = 1.0
OVERHEAD_S = calibration.ITERATIVE_STEP_OVERHEAD_S

#: sha256 of each case's outcome (:func:`_sha`)
GOLDEN = {
    "LongHost":
        "5f569585b86531a8b41e57261c071495cc62cbb37896fc08668f15b47f8441f8",
    "LongKernel":
        "e3c3ad7ba9815125659a250a275490df9af1c79ac7b42f1007edc9c7b87f7532",
    "all_host":
        "3875f394aecc7913ac65bb48e67edbe7b89806bb64a5b32d3fe7a398aa59526a",
    "checkpoint_policy":
        "5977d65a0b1e0b728e7aa02391e12e123551f65fbe0dd858a75e0f7c281687f9",
    "failed_step[failed]":
        "1668b242f9d9a243dc271d27c44792f1a182c110b3cc3c8e645e2e08a2ed5e1b",
    "failed_step[host]":
        "1d0c100eeb8cbe57e85a63bb8609621b51510e270be46b049530bea0f95e77a1",
    "failed_step[kernel]":
        "c23976df5a6ef5790c593998fe702d8e4f8b6805b9ba7f18740ccd360c929e7e",
    "failed_step[overhead]":
        "0e756011c15e447ade6d1627a7a3a6626c79752a250b47f295f646ab0471a72f",
    "failed_step[unprofiled, 0.0005]":
        "c3e7548865d729867b28fe2964130321ee0ef884869f67c06b216e94146f4baa",
    "failed_step[unprofiled, 0.0]":
        "1aed7fcefcaf276e286063a786446f68b5d01a5318af903f7a117f5c11dba04c",
    "finite_request":
        "bcab3b9b5e5a4686df7ff078f93b356d6fc01d6aa1fe3ff33757db07697f6f69",
    "fit_check":
        "0cc38cc8fcf951e2910ad891f3b19eb85137a29477df2233c6d8a764204db5c0",
    "kill_mid_step[host0.001]":
        "98defb84a2758f2eefb93fdf00df56ea151cf678a36d98fe395c9b4b8539e3a0",
    "kill_mid_step[kernel0.012]":
        "011f84248c2c82845075d1372905f682c90d47ee34be8c25bf2de0ae8642bf15",
    "kill_mid_step[overhead-0.00025]":
        "3a139624a99a92f2d4bd5e0cf1d0ca2db61b2d0c6eb17f1465fdce7d43763257",
    "kill_mid_step[overhead0.0]":
        "2f6fcca36847ea84bd73ca5bac76942329ac116bac4b187234362f20d5c6cddd",
    "leak[4.0]":
        "fc482841dfc167689dfc2d21bd6ff7d3bbfab70f5432ab60c6730cf622becf3c",
    "leak[6.5]":
        "369e109b7b4084cfc7db323725afc4874812a326d50e519b28f48c1175da4c26",
    "oom_at_launch":
        "4427e8adfd92494bbadf9e455e2be5dbc895d3e6e4f13b01f55e898e24dd2055",
    "pause_mid_bubble":
        "f97daabfed5e91e0a9f4504a06db80fe289bd8ed0f1a41dd0de8aed117dcdd20",
    "straggler[host]":
        "4780b16116f5af40d974725a7790604190df0ddba8e8ffb57fe638bf3266a32d",
    "straggler[kernel]":
        "3169be79fc226e35cc1fb975f99b6ca496100cc63fab22f1f1f6034407698f0b",
    "straggler[slowed]":
        "9c4760bf3b8fc66ac64deae172a360654dcdb6fa3adea32b428bf80848880df4",
    "zero_overhead[0]":
        "e6b225fe3986885e7518e946e5ffdc26f8cb8f3524183a3f4be2f1841ca0d7f2",
    "zero_overhead[4]":
        "0ea1dd442b4465773576d1ef0db08f532b29a0b55a60cd3ee885e5eecc2f2c26",
    "zero_overhead[None]":
        "bb08b0713c084555d851488b04433cd91aa3da05fef00c59e8cd4a6266b7ffa3",
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


def _run(workload, actions, until=2.0, checkpoint=None, faults=None,
         memory_limit_gb=None, profiled=True) -> dict:
    """One task on one worker. The manager INITs it; ``actions`` are
    ``(time, action(runtime, gpu))``, each returning what it saw.
    ``faults`` is a :class:`FaultInjector`, armed on the worker; an
    unprofiled task's profile has no step time."""
    engine = Engine()
    server = make_server_i(engine)
    gpu = server.gpu(0)
    worker = SideTaskWorker(engine, gpu, 0, side_task_memory_gb=20.0,
                            mps=server.mps)
    manager = SideTaskManager(engine, [worker])
    if faults is not None:
        faults.arm(_Pool(engine, [worker], manager))
    profile = TaskProfile(
        gpu_memory_gb=workload.perf.memory_gb,
        step_time_s=workload.perf.step_time_s if profiled else None)
    # A fixed name: the task's jitter stream is keyed by it.
    manager.submit(TaskSpec(workload=workload, profile=profile,
                            name="probe", checkpoint=checkpoint,
                            memory_limit_gb=memory_limit_gb),
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
    history = _run(Probe(), [(START_AT, _start(None))],
                   until=START_AT + 0.2)["history"]
    marks = [when for when, state in history if state is RUNNING]
    return marks[1:]  # the first RUNNING entry is the START


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
    outcome = _run(Probe(), [(START_AT, _start(START_AT + 0.3)),
                             (START_AT + 0.31, _pause)])
    marks = [when for when, state in outcome["history"]
             if state is RUNNING][1:]
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


@pytest.mark.parametrize("overhead_s", [OVERHEAD_S, 0.0])
def test_a_failed_step_without_a_step_time_loses_none(monkeypatch,
                                                      overhead_s):
    """A task profiled without a step time has no fit check to pass and
    loses no time to a failed step: its next attempt starts at once,
    with a zero overhead before the process first waits."""
    monkeypatch.setattr(calibration, "ITERATIVE_STEP_OVERHEAD_S", overhead_s)
    outcome = _pinned(f"failed_step[unprofiled, {overhead_s}]", _run(
        Probe(), [(START_AT, _start(START_AT + 0.2)),
                  (START_AT + 0.2, _pause)],
        faults=FaultInjector(FAILURES), profiled=False))
    assert outcome["step_failures"] >= 6 and outcome["wasted_s"] == 0.0
    assert outcome["history"][-1][1] is SideTaskState.PAUSED


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
