"""Figure 8: demonstration of FreeRide's GPU resource limits.

(a) a side task that fails to pause at a bubble's end is SIGKILLed by the
framework-enforced mechanism after the grace period — without the limit
its kernels would keep occupying SMs into training time;
(b) a side task that keeps allocating past its 8 GB MPS memory limit is
OOM-killed, releasing its memory; without the limit it would grow until
it endangered the training process.

Both demonstrations are millisecond-scale staged scenarios (a hand-built
worker + manager, not a full training run); the spec's params carry the
stage knobs (memory cap, runaway kernel length, bubble lengths).
"""

from __future__ import annotations

from repro.api import registry
from repro.api.spec import ScenarioSpec
from repro.core.manager import SideTaskManager
from repro.core.profiler import profile_side_task
from repro.core.task_spec import TaskSpec
from repro.core.worker import ManagedBubble, SideTaskWorker
from repro.gpu.cluster import make_server_i
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.workloads.misbehaving import MemoryLeakTask, NonPausingTask

MEMORY_CAP_GB = 8.0


def default_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="fig8",
        kind="batch",
        params={
            "memory_cap_gb": MEMORY_CAP_GB,
            "runaway_kernel_s": 6.0,
            "time_bubble_s": 0.65,
            "leak_bubble_s": 3.0,
            "horizon_s": 4.0,
        },
    )


def _stage(spec, workload_factory, limit_gb, bubble_s, horizon_s,
           interface="iterative"):
    sim = Engine()
    # Figure 8(a) plots the SM-occupancy trace, so recording is opted in.
    server = make_server_i(sim, record_occupancy=True)
    worker = SideTaskWorker(sim, server.gpu(0), 0, side_task_memory_gb=20.0,
                            mps=server.mps, rng=RandomStreams(spec.seed))
    manager = SideTaskManager(sim, [worker], **spec.policy.freeride_kwargs())
    profile = profile_side_task(workload_factory(), interface=interface)
    workload = workload_factory()
    # Explicit name: the default embeds a process-global counter, and the
    # name seeds the task's jitter stream — without it this figure's
    # traces would depend on whatever ran earlier in the process.
    task = TaskSpec(workload=workload, profile=profile,
                    memory_limit_gb=limit_gb, name=f"{workload.name}-fig8")
    manager.submit(task, interface)
    runtime = worker.all_tasks[0]
    sim.run(until=sim.now + 1.0)
    bubble_start = sim.now
    manager.add_bubble(ManagedBubble(stage=0, start=sim.now,
                                     expected_end=sim.now + bubble_s,
                                     available_gb=20.0))
    sim.run(until=bubble_start + horizon_s)
    return manager, server, runtime, bubble_start


def _time_limit_scenario(spec: ScenarioSpec) -> dict:
    """(a) execution-time limit: the task launches a runaway kernel inside
    the bubble and ignores the pause."""
    bubble_s = spec.param("time_bubble_s", 0.65)
    manager_a, server_a, runtime_a, t0_a = _stage(
        spec,
        lambda: NonPausingTask(actual_kernel_s=spec.param("runaway_kernel_s",
                                                          6.0)),
        limit_gb=20.0, bubble_s=bubble_s,
        horizon_s=spec.param("horizon_s", 4.0),
    )
    occupancy = [
        (t - t0_a, side)
        for t, _total, _hi, side in server_a.gpu(0).occupancy_trace
        if t >= t0_a - 0.5
    ]
    killed_at_a = next(
        (when - t0_a for when, state in runtime_a.machine.history
         if state.value == "STOPPED"), None,
    )
    return {
        "bubble_end_s": bubble_s,
        "grace_period_s": manager_a.grace_period_s,
        "killed_at_s": killed_at_a,
        "kill_reason": runtime_a.failure,
        "occupancy": occupancy,
    }


def _memory_limit_scenario(spec: ScenarioSpec) -> dict:
    """(b) memory limit: the task leaks 1 GB per step against an 8 GB cap."""
    cap_gb = spec.param("memory_cap_gb", MEMORY_CAP_GB)
    _manager_b, _server_b, runtime_b, t0_b = _stage(
        spec, MemoryLeakTask, limit_gb=cap_gb,
        bubble_s=spec.param("leak_bubble_s", 3.0),
        horizon_s=spec.param("horizon_s", 4.0),
    )
    memory = [
        (t - t0_b, gb) for t, gb in runtime_b.proc.memory_trace
        if t >= t0_b - 0.5
    ]
    return {
        "cap_gb": cap_gb,
        "peak_gb": max(gb for _t, gb in runtime_b.proc.memory_trace),
        "killed": not runtime_b.proc.alive,
        "kill_reason": runtime_b.failure,
        "memory": memory,
    }


def run_spec(spec: ScenarioSpec) -> dict:
    # Both scenarios are millisecond-scale: running them inline is faster
    # than any pool could be.
    return {
        "time_limit": _time_limit_scenario(spec),
        "memory_limit": _memory_limit_scenario(spec),
    }


def render(data: dict) -> str:
    time_limit = data["time_limit"]
    memory_limit = data["memory_limit"]
    lines = [
        "Figure 8(a): framework-enforced time limit",
        f"  bubble ends at t+{time_limit['bubble_end_s']:.2f}s; "
        f"grace period {time_limit['grace_period_s']:.2f}s",
        f"  side task killed at t+{time_limit['killed_at_s']:.2f}s "
        f"({time_limit['kill_reason']})",
        "  side-task SM occupancy after the kill drops to 0 "
        "(with no limit it would keep running into training time)",
        "",
        "Figure 8(b): GPU memory limit",
        f"  cap {memory_limit['cap_gb']:.0f} GB; observed peak "
        f"{memory_limit['peak_gb']:.1f} GB; killed={memory_limit['killed']} "
        f"({memory_limit['kill_reason']})",
        "  memory trace (s, GB): "
        + " ".join(f"({t:.2f},{gb:.0f})" for t, gb in
                   memory_limit["memory"][:12]),
    ]
    return "\n".join(lines)


registry.register(
    "fig8",
    "GPU resource limits: framework-enforced kill + MPS memory cap",
    default_spec, run_spec, render,
)
