"""Serving retry/backoff tests: transient worker death loses no requests.

The acceptance criterion pinned here: with retries enabled, a single
transient worker crash loses zero admitted requests — every one ends in
an explicit terminal outcome, and the run's ``failed`` count is zero.
"""

from __future__ import annotations

from repro.api.session import PoolRunner
from repro.api.spec import FaultSpec, ScenarioSpec, TrainingSpec
from repro.faults.plan import WorkerCrash
from repro.serving.arrivals import RequestTemplate, TraceArrivals


def _run(faults, *, trace=None, epochs=3):
    if trace is None:
        template = RequestTemplate("pagerank", job_steps=400,
                                   slo_class="standard")
        trace = [(0.5, template)]
    spec = ScenarioSpec(
        name="retry-test", kind="serving", seed=0, faults=faults,
        training=TrainingSpec(epochs=epochs),
        params={"horizon_s": 1e4, "settle_s": 2.0},
    )
    return PoolRunner(spec, arrivals=TraceArrivals(trace, seed=0)).run()


#: every stage dies once at t=1.0 and returns at t=3.0 — wherever the
#: request landed, its worker crashed under it
TRANSIENT_ALL_STAGES = tuple(
    WorkerCrash(stage=stage, at_s=1.0, restart_after_s=2.0)
    for stage in range(4)
)


class TestZeroLoss:
    def test_transient_crash_with_retries_loses_no_admitted_request(self):
        result = _run(FaultSpec(crashes=TRANSIENT_ALL_STAGES,
                                retry_max_attempts=3, recovery="none"))
        metrics = result.metrics
        assert metrics.admitted > 0
        assert metrics.failed == 0
        assert metrics.completed == metrics.admitted
        for record in result.records:
            if record.admitted_at is not None:
                assert record.outcome == "completed"
                assert record.steps_done == record.request.job_steps

    def test_same_crash_without_retries_loses_the_request(self):
        result = _run(FaultSpec(crashes=TRANSIENT_ALL_STAGES,
                                retry_max_attempts=1, recovery="none"))
        record = result.records[0]
        assert record.outcome == "failed"
        assert "crashed" in record.failure
        assert result.metrics.failed == 1
        assert result.metrics.completed == 0

    def test_retry_ledger_counts_the_extra_attempts(self):
        result = _run(FaultSpec(crashes=TRANSIENT_ALL_STAGES,
                                retry_max_attempts=3, recovery="none"))
        record = result.records[0]
        assert record.attempts == 2
        assert result.resilience.retries == 1
        assert result.resilience.failed_requests == 0
        assert result.resilience.exhausted_requests == 0


class TestExhaustion:
    def test_permanent_loss_exhausts_retries_with_context(self):
        # All workers die for good: every retry re-dispatches into a
        # dead pool and the request must surface a full explanation.
        crashes = tuple(
            WorkerCrash(stage=stage, at_s=1.0, restart_after_s=None)
            for stage in range(4)
        )
        result = _run(FaultSpec(crashes=crashes, retry_max_attempts=2,
                                recovery="none"))
        record = result.records[0]
        assert record.outcome in ("exhausted", "failed")
        assert record.failure is not None
        if record.outcome == "exhausted":
            assert "retries exhausted after" in record.failure
            assert "crashed" in record.failure
        assert result.metrics.failed == 1


class TestRecordBookkeeping:
    def test_retried_attempt_gets_a_distinct_task_name(self):
        result = _run(FaultSpec(crashes=TRANSIENT_ALL_STAGES,
                                retry_max_attempts=3, recovery="none"))
        record = result.records[0]
        assert record.attempts == 2
        # The retry attempt ran under a suffixed name, so per-task
        # ledgers (fault hashes, reports) never collide across attempts.
        assert record.spec.name.endswith("-a1")

    def test_summary_carries_attempts_and_outcome(self):
        result = _run(FaultSpec(crashes=TRANSIENT_ALL_STAGES,
                                retry_max_attempts=3, recovery="none"))
        summary = result.records[0].summary()
        assert summary["attempts"] == 2
        assert summary["outcome"] == "completed"
        assert summary["failure"] is None

    def test_healthy_run_is_untouched_by_retry_config(self):
        """A retry policy with no faults must not change the outcome of
        a healthy run (the retry stream is drawn only on failures)."""
        plain = _run(None)
        with_retry = _run(FaultSpec(retry_max_attempts=3))
        assert [r.summary() for r in plain.records] == [
            r.summary() for r in with_retry.records
        ]
