"""Unit tests for the SimGPU rate model, memory ledger, and traces."""

from __future__ import annotations

import pytest

from repro.errors import GpuOutOfMemoryError, ProcessKilledError, SimulationError
from repro.gpu.device import SimGPU
from repro.gpu.kernel import Interference, Kernel, Priority
from repro.gpu.process import GPUProcess
from repro.gpu.sharing import SharingMode
from repro.sim.engine import Engine
from repro.sim.events import SimEvent


def _proc(engine, gpu, name="p", priority=Priority.SIDE, interference=None,
          limit=None):
    return GPUProcess(
        engine, gpu, name=name, priority=priority,
        interference=interference or Interference(), memory_limit_gb=limit,
    )


def test_solo_kernel_runs_at_full_speed(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    done = proc.launch_kernel(work_s=2.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(2.0)


def test_zero_work_kernel_completes_instantly(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    done = proc.launch_kernel(work_s=0.0)
    engine.run(until=done)
    assert engine.now == 0.0


def test_speed_factor_scales_duration(engine: Engine):
    slow_gpu = SimGPU(engine, "slow", memory_gb=10.0, speed_factor=0.5)
    proc = _proc(engine, slow_gpu)
    done = proc.launch_kernel(work_s=1.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(2.0)


def test_same_process_kernels_do_not_interfere(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu, interference=Interference(time_slice=1.0))
    first = proc.launch_kernel(work_s=1.0)
    second = proc.launch_kernel(work_s=1.0)
    engine.run(until=first)
    engine.run(until=second)
    assert engine.now == pytest.approx(1.0)


def test_mps_side_kernel_slows_training_kernel(engine: Engine, gpu: SimGPU):
    """A side kernel with mps_on_higher=0.5 stretches training 1s -> 1.5s."""
    training = _proc(engine, gpu, "train", Priority.TRAINING)
    side = _proc(
        engine, gpu, "side", Priority.SIDE,
        interference=Interference(mps_on_higher=0.5, mps_on_lower=0.0),
    )
    side.launch_kernel(work_s=100.0)  # long-running background contender
    done = training.launch_kernel(work_s=1.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(1.5)


def test_training_halves_side_speed_under_mps(engine: Engine, gpu: SimGPU):
    from repro.gpu.kernel import TRAINING_INTERFERENCE

    training = _proc(engine, gpu, "train", Priority.TRAINING,
                     interference=TRAINING_INTERFERENCE)
    side = _proc(engine, gpu, "side", Priority.SIDE)
    training.launch_kernel(work_s=100.0)
    done = side.launch_kernel(work_s=1.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(2.0)  # slowdown 1 + 1.0


def test_time_slice_mode_serializes_processes(engine: Engine):
    gpu = SimGPU(engine, "g", memory_gb=10.0, sharing=SharingMode.TIME_SLICE)
    a = _proc(engine, gpu, "a", interference=Interference(time_slice=1.0))
    b = _proc(engine, gpu, "b", interference=Interference(time_slice=1.0))
    done_a = a.launch_kernel(work_s=1.0)
    done_b = b.launch_kernel(work_s=1.0)
    engine.run(until=done_a)
    # Both ran at half speed until a finished at t=2.
    assert engine.now == pytest.approx(2.0)
    engine.run(until=done_b)
    # b then finishes its remaining ~0 work at full speed.
    assert engine.now == pytest.approx(2.0, abs=1e-6)


def test_rate_change_midway_is_settled_correctly(engine: Engine, gpu: SimGPU):
    """A contender arriving halfway stretches only the remaining work."""
    training = _proc(engine, gpu, "train", Priority.TRAINING)
    side = _proc(
        engine, gpu, "side", Priority.SIDE,
        interference=Interference(mps_on_higher=1.0),
    )
    done = training.launch_kernel(work_s=2.0)

    def contend():
        yield engine.timeout(1.0)
        side.launch_kernel(work_s=50.0)

    engine.process(contend())
    engine.run(until=done)
    # 1s at full speed + 1s of work at half speed = 3s total.
    assert engine.now == pytest.approx(3.0)


def test_exclusive_mode_rejects_corunning(engine: Engine):
    gpu = SimGPU(engine, "g", memory_gb=10.0, sharing=SharingMode.EXCLUSIVE)
    a = _proc(engine, gpu, "a")
    b = _proc(engine, gpu, "b")
    a.launch_kernel(work_s=5.0)
    with pytest.raises(SimulationError):
        b.launch_kernel(work_s=1.0)


def test_memory_ledger_tracks_allocations(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    proc.allocate(10.0)
    assert gpu.used_gb == pytest.approx(10.0)
    assert gpu.available_gb == pytest.approx(38.0)
    proc.free(4.0)
    assert gpu.used_gb == pytest.approx(6.0)
    proc.free()
    assert gpu.used_gb == 0.0


def test_device_oom_when_capacity_exceeded(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    proc.allocate(40.0)
    with pytest.raises(GpuOutOfMemoryError):
        proc.allocate(10.0)
    # Failed allocation must not be recorded.
    assert gpu.used_gb == pytest.approx(40.0)


def test_over_free_raises(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    proc.allocate(1.0)
    with pytest.raises(SimulationError):
        proc.free(2.0)


def test_cancel_kernels_fails_their_events(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    done = proc.launch_kernel(work_s=10.0)
    gpu.cancel_kernels_of(proc)
    engine.run()
    assert done.processed and not done.ok
    assert isinstance(done.exception, ProcessKilledError)


def test_occupancy_trace_records_activity(engine: Engine, gpu: SimGPU):
    training = _proc(engine, gpu, "train", Priority.TRAINING)
    done = training.launch_kernel(work_s=1.0, sm_demand=0.9)
    engine.run(until=done)
    # Trace has an entry with training occupancy 0.9 and a final zero entry.
    peaks = [entry[2] for entry in gpu.occupancy_trace]
    assert max(peaks) == pytest.approx(0.9)
    assert gpu.occupancy_trace[-1][1] == 0.0


def test_utilization_counts_busy_time(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    done = proc.launch_kernel(work_s=1.0)
    engine.run(until=done)
    engine.run(until=4.0)
    assert gpu.utilization() == pytest.approx(0.25)


def test_memory_trace_records_changes(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    proc.allocate(8.0)
    engine.run(until=1.0)
    proc.free()
    values = [gb for _t, gb in gpu.memory_trace]
    assert values == [8.0, 0.0]


# ----------------------------------------------------------------------
# A kernel launched on an idle device takes a fast path past the rate
# model's settle-and-reschedule pass. The literals below were captured
# from the full recompute before that path existed: the completion
# instants, busy time and occupancy trace must stay the same floats.
# ----------------------------------------------------------------------
def _timeline(plan, speed_factor=1.0, record=True):
    """Run ``plan`` -- ``(at_s, proc, work_s, sm_demand)`` launches by a
    ``side`` and a ``train`` process -- and return ``(completions,
    busy_time, occupancy_trace)``; a completion is ``(proc, work_s,
    finished_at)``."""
    from repro.gpu.kernel import TRAINING_INTERFERENCE

    engine = Engine()
    gpu = SimGPU(engine, "g", memory_gb=48.0, speed_factor=speed_factor,
                 record_occupancy=record)
    procs = {
        "side": _proc(engine, gpu, "side",
                      interference=Interference(mps_on_higher=0.2)),
        "train": _proc(engine, gpu, "train", Priority.TRAINING,
                       interference=TRAINING_INTERFERENCE),
    }
    completions = []

    def launch_at(at_s, name, work_s, sm_demand):
        yield engine.timeout(at_s)
        yield procs[name].launch_kernel(work_s=work_s, sm_demand=sm_demand)
        completions.append((name, work_s, engine.now))

    for launch in plan:
        engine.process(launch_at(*launch))
    engine.run()
    return completions, gpu.busy_time, gpu.occupancy_trace


def test_kernels_alone_match_the_recompute_literals():
    assert _timeline([(0.1, "side", 0.3, 0.4), (0.9, "side", 0.7, 0.4)]) == (
        [("side", 0.3, 0.4), ("side", 0.7, 1.6)],
        1.0,
        [(0.1, 0.4, 0.0, 0.4), (0.4, 0.0, 0.0, 0.0),
         (0.9, 0.4, 0.0, 0.4), (1.6, 0.0, 0.0, 0.0)],
    )


def test_side_kernel_overlapped_by_training_matches_the_recompute_literals():
    # The side kernel starts alone (fast path); the training kernel
    # lands on a busy device and the recompute slows both.
    assert _timeline([(0.0, "side", 1.0, 0.4), (0.25, "train", 0.5, 0.9),
                      (2.0, "train", 0.3, 0.9)]) == (
        [("train", 0.5, 0.85), ("side", 1.0, 1.3), ("train", 0.3, 2.3)],
        1.5999999999999999,
        [(0.0, 0.4, 0.0, 0.4), (0.25, 1.0, 0.9, 0.4), (0.85, 0.4, 0.0, 0.4),
         (1.3, 0.0, 0.0, 0.0), (2.0, 0.9, 0.9, 0.0), (2.3, 0.0, 0.0, 0.0)],
    )


def test_zero_work_kernels_match_the_recompute_literals():
    # One zero-work kernel on an idle device, one beside a training op.
    assert _timeline([(0.1, "side", 0.0, 0.4), (0.2, "train", 0.5, 0.9),
                      (0.3, "side", 0.0, 0.4)]) == (
        [("side", 0.0, 0.1), ("side", 0.0, 0.3), ("train", 0.5, 0.7)],
        0.49999999999999994,
        [(0.1, 0.0, 0.0, 0.0), (0.2, 0.9, 0.9, 0.0), (0.3, 0.9, 0.9, 0.0),
         (0.7, 0.0, 0.0, 0.0)],
    )


def test_speed_factor_matches_the_recompute_literals():
    assert _timeline([(0.1, "side", 0.3, 0.4), (0.2, "train", 0.5, 0.9)],
                     speed_factor=1.3) == (
        [("side", 0.3, 0.4615384615384615),
         ("train", 0.5, 0.6282051282051282)],
        0.5282051282051282,
        [(0.1, 0.4, 0.0, 0.4), (0.2, 1.0, 0.9, 0.4),
         (0.4615384615384615, 0.9, 0.9, 0.0),
         (0.6282051282051282, 0.0, 0.0, 0.0)],
    )


def test_busy_time_without_occupancy_recording_matches_the_literals():
    assert _timeline([(0.1, "side", 0.3, 0.4), (0.2, "train", 0.5, 0.9),
                      (1.5, "side", 0.7, 0.4)], record=False) == (
        [("side", 0.3, 0.6), ("train", 0.5, 0.7666666666666666),
         ("side", 0.7, 2.2)],
        1.3666666666666667,
        [],
    )


def test_exclusive_mode_rejects_corunning_but_not_an_idle_launch(
        engine: Engine):
    gpu = SimGPU(engine, "g", memory_gb=10.0, sharing=SharingMode.EXCLUSIVE)
    a = _proc(engine, gpu, "a")
    b = _proc(engine, gpu, "b")
    first = a.launch_kernel(work_s=0.5)
    second = a.launch_kernel(work_s=0.25)  # same process: allowed
    with pytest.raises(SimulationError, match="EXCLUSIVE"):
        b.launch_kernel(work_s=1.0)
    engine.run(until=first)
    assert engine.now == 0.5 and second.processed
    done = b.launch_kernel(work_s=1.0)  # the device is idle again
    engine.run(until=done)
    assert engine.now == 1.5
    assert gpu.busy_time == 1.5


@pytest.mark.parametrize("work_s", [-1.0, float("nan")],
                         ids=["negative", "nan"])
def test_kernel_work_must_be_a_non_negative_number(engine: Engine,
                                                   gpu: SimGPU, work_s):
    proc = _proc(engine, gpu)
    with pytest.raises(ValueError, match="kernel work must be >= 0"):
        proc.launch_kernel(work_s=work_s)
    assert gpu.active_kernels() == []


def _tie_log(fire_in_place: bool):
    """Kernels with same-instant ties at their completions, scheduled
    before and after each launch; returns the firing log and the event
    count. Without ``fire_in_place``, ``Engine.fire`` is ``succeed()``."""
    from repro.gpu.kernel import TRAINING_INTERFERENCE

    engine = Engine()
    if not fire_in_place:
        engine.fire = lambda event, value=None: event.succeed(value)
    gpu = SimGPU(engine, "g", memory_gb=48.0)
    procs = {
        "side": _proc(engine, gpu, "side",
                      interference=Interference(mps_on_higher=0.2)),
        "train": _proc(engine, gpu, "train", Priority.TRAINING,
                       interference=TRAINING_INTERFERENCE),
    }
    log = []

    def tie(label, at_s):
        engine.timeout(at_s - engine.now).callbacks.append(
            lambda _event: log.append((label, engine.now)))

    def launch_at(label, at_s, name, work_s, done_at):
        tie(f"{label} tie before", done_at)
        yield engine.timeout(at_s)
        done = procs[name].launch_kernel(work_s=work_s, sm_demand=0.4)
        tie(f"{label} tie after", done_at)
        yield done
        log.append((f"{label} done", engine.now))

    # The recompute literals' overlap: the training kernel's completion
    # leaves the side kernel running, and the side kernel's, at 1.3,
    # leaves the device idle on the multi-kernel path. Then a side
    # kernel alone, on the single-kernel path.
    engine.process(launch_at("a", 0.0, "side", 1.0, 1.3))
    engine.process(launch_at("b", 0.25, "train", 0.5, 0.85))
    engine.process(launch_at("c", 2.0, "side", 0.5, 2.5))
    engine.run()
    return log, engine.events_processed


def test_completions_fired_in_place_keep_the_heap_order():
    """A completion that leaves the device idle fires its done event in
    place; with ties at its instant on both sides of its key, the order
    and the event count equal those of ``succeed()``."""
    fired = _tie_log(fire_in_place=True)
    assert fired == _tie_log(fire_in_place=False)
    at = {}
    for label, now in fired[0]:
        at.setdefault(label[0], set()).add(now)
    assert at == {"a": {1.3}, "b": {0.85}, "c": {2.5}}  # real ties


# ----------------------------------------------------------------------
# A kernel is its own completion event.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sharing", list(SharingMode),
                         ids=[mode.value for mode in SharingMode])
@pytest.mark.parametrize("busy", [False, True], ids=["idle", "busy"])
def test_launch_returns_the_kernel_as_its_completion_event(
        engine: Engine, busy, sharing):
    gpu = SimGPU(engine, "g", memory_gb=10.0, sharing=sharing)
    proc = _proc(engine, gpu)
    if busy:  # the launch takes the rate model's recompute
        # (exclusive mode co-runs only one process's kernels)
        other = proc if sharing is SharingMode.EXCLUSIVE else _proc(
            engine, gpu, "other")
        other.launch_kernel(work_s=5.0)
    kernel = proc.launch_kernel(work_s=1.0, name="k")
    assert isinstance(kernel, Kernel) and isinstance(kernel, SimEvent)
    assert kernel.pending and kernel in gpu.active_kernels()
    resumed = []

    def waiter():
        resumed.append((yield kernel))

    engine.process(waiter())
    engine.run(until=kernel)
    assert resumed == [kernel] and kernel.value is kernel
    # Time slicing halves a kernel that shares the device with another
    # process's.
    finish = 2.0 if busy and sharing is SharingMode.TIME_SLICE else 1.0
    assert engine.now == finish and kernel not in gpu.active_kernels()


# ----------------------------------------------------------------------
# A completed kernel may be launched again (Kernel.relaunch).
# ----------------------------------------------------------------------
def _slowing(engine, gpu, name="slower"):
    """A process whose kernels halve the speed of a default process's."""
    return _proc(engine, gpu, name,
                 interference=Interference(mps_on_lower=1.0))


def test_a_superseded_timer_of_an_earlier_run_does_nothing(engine: Engine,
                                                           gpu: SimGPU):
    """Launched beside another process's kernel, a kernel's first timer
    is due at 2.0; that kernel leaves at 0.5, so it finishes at 1.25 and
    the timer due at 2.0 stays in the heap, superseded. Relaunched alone
    at 1.25, the kernel completes 1.0 later, not at the stale 2.0."""
    proc = _proc(engine, gpu)
    _slowing(engine, gpu).launch_kernel(work_s=0.5)
    kernel = proc.launch_kernel(work_s=1.0)
    done_at = []
    stale = []

    def owner():
        yield kernel
        done_at.append(engine.now)
        assert kernel.relaunch(1.0) is kernel
        stale.extend(when for when, _seq, _callback, arg in engine._heap
                     if isinstance(arg, tuple) and arg[0] is kernel)
        assert (yield kernel) is kernel
        done_at.append(engine.now)

    engine.process(owner())
    engine.run()
    assert done_at == [1.25, 2.25]
    assert 2.0 in stale  # the superseded timer outlived the first run
    assert kernel.value is kernel and gpu.active_kernels() == []
    assert gpu.busy_time == 2.25


def _joined_timeline(relaunch: bool) -> tuple[float, float]:
    """A kernel of 1.0 s launched alone at 1.0, joined at 1.5 by another
    process's kernel; with ``relaunch``, the kernel's first run ended at
    rate 0.5. Returns its remaining work just after the join and its
    completion instant."""
    engine = Engine()
    gpu = SimGPU(engine, "g", memory_gb=48.0)
    proc = _proc(engine, gpu)
    first = None
    if relaunch:
        _slowing(engine, gpu).launch_kernel(work_s=0.6)
        first = proc.launch_kernel(work_s=0.25)  # rate 0.5 until 0.5
    seen = {}

    def owner():
        yield engine.timeout(1.0)
        if relaunch:
            assert first.processed and first.rate == 0.5
            kernel = first.relaunch(1.0)
        else:
            kernel = proc.launch_kernel(1.0)
        yield engine.timeout(0.5)
        _proc(engine, gpu, "joiner").launch_kernel(work_s=5.0)
        seen["remaining"] = kernel.remaining
        assert kernel.rate == 1.0
        yield kernel
        seen["done"] = engine.now

    engine.process(owner())
    engine.run()
    return seen["remaining"], seen["done"]


def test_a_relaunch_after_a_slowed_run_starts_at_full_rate():
    assert _joined_timeline(relaunch=True) == _joined_timeline(
        relaunch=False) == (0.5, 2.0)


def test_a_kernel_is_launched_again_only_once_completed(engine: Engine,
                                                        gpu: SimGPU):
    """Running, triggered or failed kernels, and a dead process's, are
    refused, and the refused kernel keeps its work."""
    proc = _proc(engine, gpu)
    running = proc.launch_kernel(work_s=1.0)
    with pytest.raises(SimulationError, match="while running"):
        running.relaunch(2.0)
    with pytest.raises(SimulationError, match="while running"):
        gpu.launch(running)
    assert running.work_s == 1.0 and running.pending
    triggered = proc.launch_kernel(work_s=0.0)  # completes at once
    assert triggered.triggered and not triggered.processed
    with pytest.raises(SimulationError, match="was processed"):
        triggered.relaunch(1.0)
    with pytest.raises(ValueError, match="kernel work must be >= 0"):
        running.relaunch(-1.0)
    engine.run()
    assert running.relaunch(0.5) is running  # completed: launched again
    engine.run()
    assert engine.now == 1.5

    failed = proc.launch_kernel(work_s=1.0)
    gpu.cancel_kernels_of(proc)
    for _ in range(2):  # triggered with its error, then processed
        with pytest.raises(SimulationError, match="failed"):
            failed.relaunch(1.0)
        engine.run()
    assert failed.processed and failed.work_s == 1.0

    done = proc.launch_kernel(work_s=0.25)
    engine.run()
    proc.kill()
    with pytest.raises(ProcessKilledError):
        done.relaunch(0.25)
    assert gpu.active_kernels() == []


def test_a_cancelled_kernel_fails_its_waiter(engine: Engine, gpu: SimGPU):
    proc = _proc(engine, gpu)
    survivor = _proc(engine, gpu, "other").launch_kernel(work_s=2.0)
    kernel = proc.launch_kernel(work_s=1.0)
    caught = []

    def waiter():
        try:
            yield kernel
        except ProcessKilledError as exc:
            caught.append(exc)

    engine.process(waiter())
    engine.run(until=0.5)
    assert gpu.cancel_kernels_of(proc) == 1
    engine.run()
    assert len(caught) == 1 and kernel.exception is caught[0]
    assert survivor.ok and survivor.value is survivor and engine.now == 2.0
    assert gpu.busy_time == 2.0
