"""Unit tests for the fault plan, injector queries, and retry math."""

from __future__ import annotations

import pytest

from repro.faults import (
    CheckpointPolicy,
    DropWindow,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SlowdownWindow,
    WorkerCrash,
    build_plan,
)
from repro.sim.rng import RandomStreams


class TestBuildPlan:
    def test_same_seed_same_plan(self):
        first = build_plan(7, horizon_s=30.0, num_stages=4, crash_rate=2.0)
        second = build_plan(7, horizon_s=30.0, num_stages=4, crash_rate=2.0)
        assert first == second

    def test_different_seeds_differ(self):
        first = build_plan(7, horizon_s=30.0, num_stages=4, crash_rate=3.0)
        second = build_plan(8, horizon_s=30.0, num_stages=4, crash_rate=3.0)
        assert first != second

    def test_zero_rate_is_empty(self):
        plan = build_plan(0, horizon_s=30.0, num_stages=4)
        assert plan.crashes == ()
        assert plan.empty

    def test_crashes_sorted_and_in_range(self):
        plan = build_plan(3, horizon_s=20.0, num_stages=4, crash_rate=2.0)
        times = [crash.at_s for crash in plan.crashes]
        assert times == sorted(times)
        for crash in plan.crashes:
            assert 0 <= crash.stage < 4
            assert 0.0 <= crash.at_s <= 20.0

    def test_restart_delay_carried_onto_sampled_crashes(self):
        plan = build_plan(3, horizon_s=20.0, num_stages=4, crash_rate=2.0,
                          restart_after_s=1.5)
        assert plan.crashes
        assert all(crash.restart_after_s == 1.5 for crash in plan.crashes)

    def test_extra_sections_make_plan_non_empty(self):
        plan = build_plan(0, horizon_s=10.0, num_stages=4,
                          slowdowns=(SlowdownWindow(0, 1.0, 2.0, 2.0),))
        assert not plan.empty


class TestInjectorQueries:
    def _injector(self, **kwargs) -> FaultInjector:
        return FaultInjector(FaultPlan(**kwargs))

    def test_step_failures_deterministic_per_attempt(self):
        first = self._injector(step_failure_rate=0.5, step_failure_seed=11)
        second = self._injector(step_failure_rate=0.5, step_failure_seed=11)
        draws_a = [first.step_fails("t") for _ in range(50)]
        draws_b = [second.step_fails("t") for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_step_failures_independent_across_tasks(self):
        injector = self._injector(step_failure_rate=0.5, step_failure_seed=11)
        solo = self._injector(step_failure_rate=0.5, step_failure_seed=11)
        # Interleave another task's draws; "a"'s sequence must not move.
        interleaved = []
        for _ in range(30):
            injector.step_fails("b")
            interleaved.append(injector.step_fails("a"))
        assert interleaved == [solo.step_fails("a") for _ in range(30)]

    def test_zero_rate_never_fails(self):
        injector = self._injector(step_failure_rate=0.0)
        assert not any(injector.step_fails("t") for _ in range(20))

    def test_slowdown_factor_window_bounds(self):
        injector = self._injector(
            slowdowns=(SlowdownWindow(stage=1, start_s=2.0, end_s=4.0,
                                      factor=3.0),)
        )
        assert injector.slowdown_factor(1, 1.9) == 1.0
        assert injector.slowdown_factor(1, 2.0) == 3.0
        assert injector.slowdown_factor(1, 3.9) == 3.0
        assert injector.slowdown_factor(1, 4.0) == 1.0
        assert injector.slowdown_factor(0, 3.0) == 1.0

    def test_overlapping_slowdowns_take_the_max(self):
        injector = self._injector(
            slowdowns=(SlowdownWindow(0, 0.0, 10.0, 2.0),
                       SlowdownWindow(0, 5.0, 6.0, 4.0))
        )
        assert injector.slowdown_factor(0, 5.5) == 4.0
        assert injector.slowdown_factor(0, 8.0) == 2.0


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.5,
                             backoff_factor=2.0, jitter=0.0)
        rng = RandomStreams(0).stream("test")
        assert policy.delay_s(1, rng) == pytest.approx(0.5)
        assert policy.delay_s(2, rng) == pytest.approx(1.0)
        assert policy.delay_s(3, rng) == pytest.approx(2.0)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(max_attempts=2, backoff_s=1.0,
                             backoff_factor=1.0, jitter=0.25)
        rng = RandomStreams(1).stream("test")
        for _ in range(100):
            assert 0.75 <= policy.delay_s(1, rng) <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(interval_steps=-1)
        with pytest.raises(ValueError):
            CheckpointPolicy(checkpoint_cost_s=-0.1)

    def test_interval_zero_means_restart_from_scratch(self):
        policy = CheckpointPolicy(interval_steps=0)
        assert policy.interval_steps == 0


class TestArmValidation:
    def test_out_of_range_stage_rejected(self):
        from repro.core.middleware import FreeRide
        from repro.experiments import common

        freeride = FreeRide(common.train_config(epochs=1))
        injector = FaultInjector(
            FaultPlan(crashes=(WorkerCrash(stage=9, at_s=1.0),))
        )
        with pytest.raises(ValueError, match="stage 9"):
            injector.arm(freeride)

    def test_drop_windows_installed_on_manager_rpc(self):
        from repro.core.middleware import FreeRide
        from repro.experiments import common

        freeride = FreeRide(common.train_config(epochs=1))
        windows = (DropWindow(start_s=1.0, end_s=2.0),)
        injector = FaultInjector(
            FaultPlan(rpc_drops=windows, rpc_retry_delay_s=0.1)
        )
        injector.arm(freeride)
        assert freeride.manager.rpc.drop_windows == windows
        assert freeride.manager.rpc.retransmit_delay_s == 0.1
        assert all(worker.injector is injector for worker in freeride.workers)

    def test_tasks_placed_before_arming_get_the_plan(self):
        """A cluster spec without traffic places its workloads, then arms
        the injector: step failures and slowdowns must reach those tasks
        too, not only crashes."""
        from repro.api.session import Session
        from repro.api.spec import (
            FaultSpec,
            ScenarioSpec,
            TrainingSpec,
            WorkloadSpec,
        )

        spec = ScenarioSpec(
            kind="cluster", jobs=2, training=TrainingSpec(epochs=2),
            workloads=(WorkloadSpec(name="resnet18"),),
            faults=FaultSpec(
                step_failure_rate=0.5,
                slowdowns=(SlowdownWindow(stage=0, start_s=0.0, end_s=100.0,
                                          factor=3.0),),
            ),
        )
        runner = Session(spec).run().runner
        workers = runner.pool.workers
        runtimes = [runtime for worker in workers
                    for runtime in worker.all_tasks]
        assert len(runtimes) == len(workers)
        assert all(runtime.injector is runner.injector
                   for runtime in runtimes)
        assert all(runtime.step_failures > 0 for runtime in runtimes)
        assert sum(runtime.slowdown_s
                   for runtime in workers[0].all_tasks) > 0
