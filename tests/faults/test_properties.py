"""Property-based guard: any fault sequence leaves tasks terminal.

Whatever crash schedule hypothesis throws at a run — clustered,
permanent, repeated on one stage, or past the horizon — after teardown
every side-task runtime must be in a terminal state and the recovery
ledgers must satisfy their invariants (no phantom restores, no negative
wasted work).
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.middleware import FreeRide
from repro.core.states import SideTaskState
from repro.experiments import common
from repro.faults import CheckpointPolicy, FaultInjector, FaultPlan, WorkerCrash
from repro.workloads.registry import workload_factory

crashes_strategy = st.lists(
    st.builds(
        WorkerCrash,
        stage=st.integers(min_value=0, max_value=3),
        at_s=st.floats(min_value=0.1, max_value=20.0,
                       allow_nan=False, allow_infinity=False),
        restart_after_s=st.one_of(
            st.none(),
            st.floats(min_value=0.1, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    max_size=6,
)


def _all_runtimes(freeride):
    seen, runtimes = set(), []
    candidates = [
        task for worker in freeride.workers for task in worker.all_tasks
    ] + list(freeride.manager.preempted)
    for runtime in candidates:
        if id(runtime) not in seen:
            seen.add(id(runtime))
            runtimes.append(runtime)
    return runtimes


@settings(max_examples=8, deadline=None)
@given(crashes=crashes_strategy)
# pr0 moves off the crashed stage 0 and is reloading on stage 1 when
# teardown stops it; stage 1 then crashes inside the settle window.
@example(crashes=[WorkerCrash(stage=0, at_s=4.75, restart_after_s=None),
                  WorkerCrash(stage=1, at_s=4.875, restart_after_s=None)])
def test_every_fault_sequence_leaves_tasks_terminal(crashes):
    freeride = FreeRide(common.train_config(epochs=1))
    for stage in range(len(freeride.workers)):
        freeride.submit(
            workload_factory("pagerank"), name=f"pr{stage}",
            checkpoint=CheckpointPolicy(interval_steps=4),
        )
    FaultInjector(FaultPlan(crashes=tuple(crashes))).arm(freeride)
    result = freeride.run()

    runtimes = _all_runtimes(freeride)
    assert runtimes
    for runtime in runtimes:
        assert runtime.machine.state is SideTaskState.STOPPED
    for report in result.tasks:
        assert report.restores <= report.preemptions
        assert report.wasted_steps >= 0
        assert report.steps_done >= 0


@settings(max_examples=8, deadline=None)
@given(crashes=crashes_strategy,
       step_failure_rate=st.floats(min_value=0.0, max_value=0.3))
def test_unprotected_tasks_end_terminal_too(crashes, step_failure_rate):
    freeride = FreeRide(common.train_config(epochs=1))
    for stage in range(len(freeride.workers)):
        freeride.submit(workload_factory("pagerank"), name=f"pr{stage}")
    plan = FaultPlan(crashes=tuple(crashes),
                     step_failure_rate=step_failure_rate,
                     step_failure_seed=7)
    FaultInjector(plan).arm(freeride)
    result = freeride.run()

    for runtime in _all_runtimes(freeride):
        assert runtime.machine.state is SideTaskState.STOPPED
    # Without a checkpoint policy nothing is ever preempted or restored.
    for report in result.tasks:
        assert report.preemptions == 0
        assert report.restores == 0
