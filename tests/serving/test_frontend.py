"""Tests for admission control, the bounded queue, dispatch disciplines,
and per-request lifecycle tracking."""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.api.spec import PolicySpec, ScenarioSpec, TrainingSpec
from repro.core.middleware import FreeRide
from repro.experiments import common
from repro.serving import frontend as frontend_mod
from repro.serving.arrivals import RequestTemplate, TaskRequest, TraceArrivals
from repro.serving.frontend import (
    NAMED_ADMISSION,
    AdmissionPolicy,
    QueueBackpressure,
    RequestRecord,
    ServingFrontend,
    TokenBucket,
    make_admission,
)
from repro.serving.slo import (
    SLO_CLASSES,
    edf_discipline,
    fifo_discipline,
    met_slo,
    slo_class,
    starvation_aware_discipline,
)


def _serve(trace, horizon_s=1e4, **policy):
    """Serve a replayed ``trace`` from a 2-epoch training job's bubbles."""
    spec = ScenarioSpec(
        kind="serving", seed=0, training=TrainingSpec(epochs=2),
        policy=PolicySpec(**policy), params={"horizon_s": horizon_s},
    )
    session = Session(spec, arrivals=TraceArrivals(trace, seed=0))
    return session.run().results()


def _request(request_id=0, arrival_s=0.0, workload="pagerank"):
    return TaskRequest(request_id=request_id, arrival_s=arrival_s,
                       workload=workload, job_steps=10)


class TestAdmissionPolicies:
    def test_token_bucket_admits_burst_then_rejects(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=2.0)
        assert bucket.admit(0.0, _request(), 0)[0]
        assert bucket.admit(0.0, _request(), 0)[0]
        admitted, reason = bucket.admit(0.0, _request(), 0)
        assert not admitted and "token" in reason

    def test_token_bucket_refills_over_time(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1.0)
        assert bucket.admit(0.0, _request(), 0)[0]
        assert not bucket.admit(0.5, _request(), 0)[0]
        assert bucket.admit(2.0, _request(), 0)[0]

    def test_backpressure_thresholds_on_queue_length(self):
        policy = QueueBackpressure(max_queue=2)
        assert policy.admit(0.0, _request(), 1)[0]
        admitted, reason = policy.admit(0.0, _request(), 2)
        assert not admitted and "backpressure" in reason

    def test_make_admission_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_admission("coin_flip")

    def test_make_admission_passes_instances_through(self):
        policy = QueueBackpressure(max_queue=3)
        assert make_admission(policy) is policy


class TestSloClasses:
    def test_classes_map_to_deadlines(self):
        assert SLO_CLASSES["interactive"].absolute_deadline(5.0) == 15.0
        assert SLO_CLASSES["batch"].absolute_deadline(5.0) is None

    def test_unknown_class_is_best_effort(self):
        assert slo_class("mystery").deadline_s is None

    def test_met_slo_rules(self):
        assert met_slo(10.0, 9.0)
        assert not met_slo(10.0, 11.0)
        assert met_slo(None, 100.0)       # best effort: completing counts
        assert not met_slo(None, None)    # never finished


class TestDisciplines:
    def _record(self, request_id, arrival_s, deadline_s):
        return RequestRecord(request=_request(request_id, arrival_s),
                             deadline_s=deadline_s)

    def test_fifo_picks_head(self):
        queue = [self._record(0, 0.0, 50.0), self._record(1, 1.0, 5.0)]
        assert fifo_discipline(queue, now=2.0) == 0

    def test_edf_picks_earliest_deadline(self):
        queue = [self._record(0, 0.0, 50.0), self._record(1, 1.0, 5.0),
                 self._record(2, 2.0, None)]
        assert edf_discipline(queue, now=2.0) == 1

    def test_edf_ties_stay_fifo(self):
        queue = [self._record(0, 0.0, 5.0), self._record(1, 1.0, 5.0)]
        assert edf_discipline(queue, now=2.0) == 0

    def test_starvation_aware_ages_best_effort_past_deadlines(self):
        # Best effort from t=0 (effective deadline 60); a fresh deadline
        # request lands at t=45 due at t=55. Plain EDF serves the fresh
        # one (55 < 60); with aging the best-effort's 45 s wait has
        # discounted it to 60 - 22.5 = 37.5, so it finally goes first.
        ancient = self._record(0, 0.0, None)
        fresh = self._record(1, 45.0, 55.0)
        queue = [ancient, fresh]
        assert edf_discipline(queue, now=45.0) == 1
        assert starvation_aware_discipline(queue, now=45.0) == 0

    def test_starvation_aware_keeps_edf_for_fresh_traffic(self):
        a = self._record(0, 0.0, 50.0)
        b = self._record(1, 0.0, 5.0)
        assert starvation_aware_discipline([a, b], now=1.0) == 1


# One reduced end-to-end run shared by the lifecycle tests below.
@pytest.fixture(scope="module")
def small_run():
    template = RequestTemplate("pagerank", job_steps=30,
                               slo_class="interactive")
    late = RequestTemplate("resnet18", job_steps=10, slo_class="standard")
    trace = [(0.5, template), (1.0, template), (2.0, template),
             (1e4, late)]  # far beyond training: arrives after close
    return _serve(trace, horizon_s=2e4, admission="always",
                  assignment="least_loaded")


class TestLifecycle:
    def test_lifecycle_timestamps_are_ordered(self, small_run):
        completed = [r for r in small_run.records if r.status == "completed"]
        assert completed
        for record in completed:
            assert record.request.arrival_s == record.admitted_at
            assert record.admitted_at <= record.assigned_at
            assert record.assigned_at <= record.first_progress_at
            assert record.first_progress_at < record.completed_at
            assert record.steps_done == record.request.job_steps
            assert record.stage is not None

    def test_interactive_jobs_meet_their_slo(self, small_run):
        completed = [r for r in small_run.records if r.status == "completed"]
        assert all(record.met_slo for record in completed)

    def test_post_close_arrival_is_not_offered(self, small_run):
        late = small_run.records[-1]
        assert late.status == "late"
        assert not late.offered
        assert late.reject_reason == "service closed"
        assert small_run.metrics.offered == 3

    def test_metrics_aggregate_the_records(self, small_run):
        metrics = small_run.metrics
        assert metrics.admitted == 3
        assert metrics.rejected == 0
        assert metrics.completed == metrics.slo_met == 3
        assert metrics.completion.count == 3
        assert metrics.goodput_rps > 0


class SpyAdmission(AdmissionPolicy):
    """Admits everything, counting how often it was consulted."""

    def __init__(self):
        self.calls = 0

    def admit(self, now, request, queue_length):
        self.calls += 1
        return True, None


class TestAdmissionQueueInteraction:
    def test_full_queue_rejects_without_consulting_policy(
            self, monkeypatch):
        """A queue-full rejection must not consume admission state
        (e.g. token-bucket tokens)."""
        spy = SpyAdmission()
        monkeypatch.setitem(NAMED_ADMISSION, "spy",
                            lambda jobs=1, tenants=(): spy)
        template = RequestTemplate("resnet50", job_steps=500,
                                   slo_class="batch")
        trace = [(0.05 * i, template) for i in range(15)]
        result = _serve(trace, admission="spy", queue_capacity=2)
        overflow = [r for r in result.records if r.reject_reason
                    and r.reject_reason.startswith("admission queue full")]
        assert overflow  # the bounded queue did overflow
        assert spy.calls == result.metrics.offered - len(overflow)


class TestDispatchOrdering:
    def test_unfittable_head_does_not_block_smaller_requests(self):
        """No head-of-line blocking: a request too big for any worker is
        deferred while a later, smaller request dispatches."""
        big = RequestTemplate("resnet50", job_steps=500, slo_class="batch")
        huge = RequestTemplate("vgg19", job_steps=10, slo_class="batch")
        small = RequestTemplate("pagerank", job_steps=20,
                                slo_class="interactive")
        # Seven 6.2 GB jobs saturate the 10.65/18.3/25.95 GB workers
        # below vgg19's 11.5 GB while leaving pagerank-sized holes.
        trace = [(0.1 * (i + 1), big) for i in range(7)]
        trace += [(1.0, huge), (1.1, small)]
        result = _serve(trace, admission="always", discipline="fifo")
        by_workload = {}
        for record in result.records:
            by_workload.setdefault(record.request.workload, []).append(record)
        assert all(r.assigned_at is not None for r in by_workload["resnet50"])
        vgg = by_workload["vgg19"][0]
        pagerank = by_workload["pagerank"][0]
        assert vgg.assigned_at is None and vgg.status == "queued"
        assert pagerank.status == "completed"


class TestBoundedQueueAndBackpressure:
    def test_queue_capacity_rejects_overflow(self):
        template = RequestTemplate("resnet50", job_steps=200,
                                   slo_class="batch")
        # A burst far beyond what 2-epoch bubbles can drain.
        trace = [(0.1 * i, template) for i in range(40)]
        result = _serve(trace, admission="always", queue_capacity=4)
        reasons = {r.reject_reason for r in result.records
                   if r.status == "rejected"}
        assert any(reason.startswith("admission queue full")
                   for reason in reasons)
        # The enriched reason names the queue bound and admission policy.
        assert any("4; admission=always" in reason for reason in reasons)
        assert result.metrics.rejected > 0
        assert result.metrics.rejection_rate > 0

    def test_backpressure_rejects_before_queue_fills(self):
        template = RequestTemplate("resnet50", job_steps=200,
                                   slo_class="batch")
        trace = [(0.1 * i, template) for i in range(40)]
        result = _serve(trace, admission="backpressure")
        reasons = {r.reject_reason for r in result.records
                   if r.status == "rejected"}
        assert any(reason.startswith("backpressure") for reason in reasons)


class TestDispatchRound:
    """One ``_dispatch`` round, counted in discipline calls.

    The workers of the default deployment have 3 to 26 GB of bubble
    memory; vgg19 at batch size 256 needs about 34 GB, so no worker can
    fit it, while pagerank (2.8 GB) fits every worker.
    """

    @staticmethod
    def _frontend():
        views: "list[list[int]]" = []

        def spy(view, now):
            views.append([record.request.request_id for record in view])
            return edf_discipline(view, now)

        freeride = FreeRide(common.train_config(epochs=1), seed=0)
        return ServingFrontend(freeride, [], discipline=spy), views

    @staticmethod
    def _queue(frontend, request_id, deadline_s, workload, batch_size=64):
        request = TaskRequest(request_id=request_id, arrival_s=0.0,
                              workload=workload, job_steps=10,
                              batch_size=batch_size)
        record = RequestRecord(request=request, deadline_s=deadline_s)
        frontend.queue.append(record)
        return record

    def test_blocked_size_hides_every_request_that_size(self):
        frontend, views = self._frontend()
        records = [self._queue(frontend, i, 10.0 + i, "vgg19", 256)
                   for i in range(8)]
        frontend._dispatch()
        # One pick finds nothing fits; it hides all eight, not only
        # itself, so the discipline is not called once per request.
        assert views == [list(range(8))]
        assert frontend.queue == records
        assert all(record.assigned_at is None for record in records)

    def test_request_of_exactly_the_blocked_size_stays_hidden(self):
        frontend, views = self._frontend()
        blocked = self._queue(frontend, 0, 1.0, "vgg19", 256)
        same_size = self._queue(frontend, 1, 2.0, "vgg19", 256)
        smaller = self._queue(frontend, 2, 3.0, "pagerank")
        frontend._dispatch()
        # The equal-size request is earlier than the smaller one, so
        # only the prune keeps it from being picked (and blocked) next.
        assert views == [[0, 1, 2], [2]]
        assert smaller.assigned_at == 0.0
        assert frontend.queue == [blocked, same_size]


class TestArrivalFeed:
    @pytest.mark.parametrize("metrics_mode", ["records", "streaming"])
    def test_past_arrival_is_rejected_without_a_phantom_record(
            self, metrics_mode):
        freeride = FreeRide(common.train_config(epochs=1), seed=0)
        requests = [_request(i, 0.1 * (i + 1)) for i in range(10)]
        # The last request steps back behind the one before it (1.0 s),
        # which registers it when it arrives.
        requests.append(_request(10, 0.5))
        frontend = ServingFrontend(freeride, iter(requests),
                                   metrics_mode=metrics_mode)
        with pytest.raises(ValueError, match="request 10 arrives in the past"):
            freeride.sim.run(until=2.0)
        assert freeride.sim.now == requests[9].arrival_s
        if metrics_mode == "records":
            assert [record.request.request_id
                    for record in frontend.records] == list(range(10))
        frontend.finalize()
        assert frontend.metrics_for(2.0).offered == 10

    def test_one_request_ahead_of_the_clock_is_registered(self):
        freeride = FreeRide(common.train_config(epochs=1), seed=0)
        requests = [_request(i, 0.1 * (i + 1)) for i in range(10)]
        taken = []

        def stream():
            for request in requests:
                taken.append(request.request_id)
                yield request

        frontend = ServingFrontend(freeride, stream())
        assert taken == [0] and len(frontend.records) == 1
        freeride.sim.run(until=0.35)
        # Requests 0-2 arrived; the third registered the fourth.
        assert taken == [0, 1, 2, 3] and len(frontend.records) == 4
        freeride.sim.run(until=2.0)
        assert len(frontend.records) == 10
        assert all(record.admitted_at == record.request.arrival_s
                   or record.rejected_at == record.request.arrival_s
                   for record in frontend.records)

    def test_a_stream_longer_than_its_reserved_keys_raises(
            self, monkeypatch):
        monkeypatch.setattr(frontend_mod, "ARRIVAL_KEYS", 3)
        freeride = FreeRide(common.train_config(epochs=1), seed=0)
        requests = [_request(i, 0.1 * (i + 1)) for i in range(4)]
        frontend = ServingFrontend(freeride, iter(requests))
        with pytest.raises(ValueError, match="more than 3 requests"):
            freeride.sim.run(until=2.0)
        assert freeride.sim.now == requests[2].arrival_s
        assert len(frontend.records) == 3