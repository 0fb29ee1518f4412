"""Checkpoint/preempt/restore integration tests over the live pool.

The scripted-crash scenarios here pin the acceptance criteria of the
recovery layer: a checkpointed task survives its worker dying and
resumes from its last snapshot; restart-from-scratch (interval 0) keeps
the same seam but wastes strictly more work; tasks without a checkpoint
policy are killed outright, exactly as before the layer existed.
"""

from __future__ import annotations

import math

import pytest

from repro.api.session import PoolRunner, Session
from repro.api.spec import ArrivalSpec, FaultSpec, ScenarioSpec, TrainingSpec
from repro.core.middleware import FreeRide
from repro.core.states import SideTaskState
from repro.experiments import common
from repro.faults import CheckpointPolicy, FaultInjector, FaultPlan, WorkerCrash
from repro.faults.plan import DropWindow
from repro.serving.arrivals import RequestTemplate, TraceArrivals
from repro.workloads.registry import workload_factory


def _crashed_freeride(checkpoint, *, crash_at=6.0, restart_after=3.0,
                      epochs=2):
    """A batch run whose every submitted task sees its worker crash."""
    freeride = FreeRide(common.train_config(epochs=epochs))
    for stage in range(len(freeride.workers)):
        freeride.submit(workload_factory("pagerank"), name=f"pr{stage}",
                        checkpoint=checkpoint)
    crashes = tuple(
        WorkerCrash(stage=stage, at_s=crash_at, restart_after_s=restart_after)
        for stage in range(len(freeride.workers))
    )
    FaultInjector(FaultPlan(crashes=crashes)).arm(freeride)
    return freeride


class TestBatchRecovery:
    def test_checkpointed_tasks_survive_worker_crashes(self):
        freeride = _crashed_freeride(CheckpointPolicy(interval_steps=4))
        result = freeride.run()
        assert any(report.preemptions > 0 for report in result.tasks)
        for report in result.tasks:
            assert report.restores == report.preemptions
            if report.preemptions:
                # The task kept making progress after the crash.
                assert report.failure is None
                assert report.steps_done > 0

    def test_unprotected_tasks_die_with_their_worker(self):
        freeride = _crashed_freeride(None)
        result = freeride.run()
        crashed = [r for r in result.tasks if r.failure is not None]
        assert crashed
        for report in crashed:
            assert "crashed" in report.failure
            assert report.preemptions == 0

    def test_permanent_crash_without_capacity_abandons_at_teardown(self):
        freeride = FreeRide(common.train_config(epochs=2))
        freeride.submit(workload_factory("pagerank"), name="pr",
                        checkpoint=CheckpointPolicy())
        stage = freeride._submissions[0][2]
        # Every worker dies for good: the preempted task can never land.
        crashes = tuple(
            WorkerCrash(stage=s, at_s=6.0, restart_after_s=None)
            for s in range(len(freeride.workers))
        )
        FaultInjector(FaultPlan(crashes=crashes)).arm(freeride)
        result = freeride.run()
        report = result.task("pr")
        if report.preemptions:
            assert report.failure is not None
            assert "never restored" in report.failure
        assert freeride.workers[stage].crashed

    def test_crash_log_records_downtime(self):
        freeride = _crashed_freeride(CheckpointPolicy())
        freeride.run()
        for worker in freeride.workers:
            assert len(worker.crash_log) == 1
            crashed_at, restarted_at = worker.crash_log[0]
            assert crashed_at == pytest.approx(6.0)
            assert restarted_at == pytest.approx(9.0)
            assert not worker.crashed


def _single_request_run(faults, *, job_steps=400, epochs=3):
    template = RequestTemplate("pagerank", job_steps=job_steps,
                               slo_class="standard")
    spec = ScenarioSpec(
        name="recovery-test", kind="serving", seed=0, faults=faults,
        training=TrainingSpec(epochs=epochs),
        params={"horizon_s": 1e4, "settle_s": 2.0},
    )
    arrivals = TraceArrivals([(0.5, template)], seed=0)
    return PoolRunner(spec, arrivals=arrivals).run()


class TestServingRecovery:
    CRASH = (WorkerCrash(stage=0, at_s=1.0, restart_after_s=3.0),)

    def test_checkpointed_request_resumes_without_a_retry(self):
        result = _single_request_run(
            FaultSpec(crashes=self.CRASH, recovery="checkpoint",
                      checkpoint_interval_steps=10)
        )
        record = result.records[0]
        assert record.status == "completed"
        assert record.attempts == 1  # recovered, not re-dispatched
        assert record.steps_done == 400
        assert result.resilience.preemptions == 1
        assert result.resilience.restores == 1
        assert result.resilience.checkpoints > 0

    def test_checkpoint_wastes_strictly_less_than_restart(self):
        """The acceptance criterion: periodic snapshots bound wasted work
        below restart-from-scratch on the same fault sequence."""
        restart = _single_request_run(
            FaultSpec(crashes=self.CRASH, recovery="restart")
        ).resilience
        checkpointed = _single_request_run(
            FaultSpec(crashes=self.CRASH, recovery="checkpoint",
                      checkpoint_interval_steps=10)
        ).resilience
        assert restart.preemptions == checkpointed.preemptions == 1
        assert restart.wasted_steps > 0
        assert checkpointed.wasted_steps < restart.wasted_steps
        assert checkpointed.wasted_s < restart.wasted_s
        # Only the checkpointing run pays snapshot overhead.
        assert restart.checkpoints == 0
        assert checkpointed.checkpoint_overhead_s > 0

    def test_restored_task_state_machine_went_through_preempted(self):
        result = _single_request_run(
            FaultSpec(crashes=self.CRASH, recovery="checkpoint",
                      checkpoint_interval_steps=10)
        )
        record = result.records[0]
        assert record.status == "completed"
        # The run's resilience ledger saw the full preempt/restore cycle
        # and the request record carries no failure from it.
        assert record.failure is None
        assert result.resilience.restore_overhead_s > 0


@pytest.mark.parametrize("faults, crashes", [
    (FaultSpec(crashes=(WorkerCrash(stage=0, at_s=math.inf),)), 0),
    (FaultSpec(crashes=(WorkerCrash(stage=0, at_s=2.0,
                                    restart_after_s=math.inf),)), 1),
    (FaultSpec(attempt_timeout_s=math.inf), 0),
    (FaultSpec(rpc_drop_windows=(DropWindow(1.0, 3.0),),
               rpc_retransmit_delay_s=math.inf), 0),
], ids=["crash_at", "restart_after", "attempt_timeout", "retransmit"])
def test_timers_due_at_infinity_never_run(faults, crashes):
    """A fault timer set to infinity stays queued through teardown: the
    crash never happens, the worker never restarts, and the drain leaves
    the clock at the last finite event."""
    spec = ScenarioSpec(
        name="infinite-timers", kind="serving", seed=3,
        training=TrainingSpec(epochs=1),
        arrivals=ArrivalSpec(kind="poisson", rate_per_s=1.0),
        faults=faults,
    )
    with Session(spec) as session:
        summary = session.run().results().resilience.summary()
        sim = session.runner.freeride.sim
        assert (summary["crashes"], summary["restarts"]) == (crashes, 0)
        assert 0.0 < sim.now < math.inf and sim.peek() == math.inf


class TestManagerCrashSemantics:
    def test_crashed_worker_not_eligible_until_restart(self):
        freeride = FreeRide(common.train_config(epochs=2))
        freeride.manager.crash_worker(0, restart_after_s=None)
        eligible = freeride.manager.eligible_workers(0.1)
        assert freeride.workers[0] not in eligible
        freeride.manager._restart_worker(0)
        eligible = freeride.manager.eligible_workers(0.1)
        assert freeride.workers[0] in eligible

    def test_double_crash_is_idempotent(self):
        freeride = FreeRide(common.train_config(epochs=2))
        freeride.manager.crash_worker(0)
        freeride.manager.crash_worker(0)
        assert len(freeride.workers[0].crash_log) == 1

    def test_terminal_states_after_full_run(self):
        """After teardown every runtime is terminal — nothing is left in
        a zombie state, restored or not."""
        freeride = _crashed_freeride(CheckpointPolicy(interval_steps=4))
        freeride.run()
        seen = set()
        runtimes = [
            task for worker in freeride.workers for task in worker.all_tasks
        ] + list(freeride.manager.preempted)
        for runtime in runtimes:
            if id(runtime) in seen:
                continue
            seen.add(id(runtime))
            assert runtime.machine.state is SideTaskState.STOPPED
