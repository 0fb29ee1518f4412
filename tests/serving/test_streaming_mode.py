"""Streaming metrics mode: constant-memory accounting, pinned against
the records-mode reference.

Both modes fold each request into the same accumulators at its
terminal outcome, in the same order; the mode picks only the latency
stats class and whether the run keeps its records. The contract under
test:

* every lifecycle/outcome *count* matches records mode exactly, in the
  aggregate and per tenant;
* latency counts, means and maxima are equal bit for bit; the tracked
  quantiles (p50/p95/p99) come from P² sketches and sit within a 5%
  relative error bound of the exact fold on the 10^4-sample reference
  run, except p99 on one of twenty seeds (the pinned, documented
  failure);
* streaming runs are exactly as deterministic as records runs —
  serial vs process-pool sweeps are byte-identical;
* ``ServingResult.records`` is empty by design in streaming mode.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api.session import PoolRunner, Session
from repro.api.spec import (
    ArrivalSpec,
    FaultSpec,
    MetricsSpec,
    PolicySpec,
    ScenarioSpec,
    SpecError,
)
from repro.experiments import common
from repro.metrics.latency import LatencyStats, StreamingLatencyStats
from repro.serving.frontend import ServingFrontend

RATE = 120.0


def _spec(mode: str, **extra) -> ScenarioSpec:
    return ScenarioSpec(
        name="streaming-test",
        kind="serving",
        seed=5,
        arrivals=ArrivalSpec(kind="poisson", rate_per_s=RATE),
        metrics=MetricsSpec(mode=mode),
        **extra,
    )


def _run(spec: ScenarioSpec):
    with Session(spec) as session:
        return session.run().results()


COUNT_FIELDS = ("offered", "admitted", "rejected", "assigned", "completed",
                "slo_met", "failed", "unserved", "duration_s",
                "goodput_rps", "throughput_rps", "rejection_rate")


def _counts(metrics) -> dict:
    return {field: getattr(metrics, field) for field in COUNT_FIELDS}


def _exact_stats(metrics) -> dict:
    """The latency figures both modes compute exactly."""
    return {(name, figure): getattr(getattr(metrics, name), figure)
            for name in ("queueing", "completion")
            for figure in ("count", "mean", "max")}


class TestStreamingParity:
    def test_counts_and_exact_stats_match_records_mode(self):
        records_result = _run(_spec("records"))
        streaming_result = _run(_spec("streaming"))
        assert _counts(records_result.metrics) == \
            _counts(streaming_result.metrics)
        assert _exact_stats(records_result.metrics) == \
            _exact_stats(streaming_result.metrics)

    def test_records_mode_folds_each_request_at_its_terminal_outcome(self):
        """Mid-run, before ``finalize``, the accumulator has counted every
        request that turned terminal, and only the others are live."""
        runner = PoolRunner(_spec("records"))
        runner.prepare()
        runner.pool.run_training()
        frontend = runner.frontend
        records = frontend.records
        live = [record for record in records
                if record.status in ("pending", "queued", "assigned")]
        assert list(map(id, frontend._live.values())) == list(map(id, live))
        accumulator = frontend.accumulator
        for status in ("rejected", "completed"):
            assert getattr(accumulator, status) == sum(
                record.status == status for record in records) > 0

    def test_streaming_drops_records(self):
        result = _run(_spec("streaming"))
        assert result.records == []
        assert _run(_spec("records")).records

    def test_fairness_parity_with_tenants(self):
        mix = [{"workload": "pagerank", "job_steps": 60,
                "slo_class": "batch"}]

        def tenant_spec(mode: str) -> ScenarioSpec:
            return ScenarioSpec.from_dict({
                "name": "t", "kind": "serving", "seed": 2,
                "metrics": {"mode": mode},
                "tenants": [
                    {"name": "gold", "weight": 3.0, "rate_per_s": 4.0,
                     "arrival_rate_per_s": 5.0, "mix": mix},
                    {"name": "silver", "weight": 1.0, "rate_per_s": 4.0,
                     "arrival_rate_per_s": 5.0, "mix": mix},
                ],
                "policy": {"admission": "per_tenant_token_bucket",
                           "discipline": "weighted"},
            })

        records_result = _run(tenant_spec("records"))
        streaming_result = _run(tenant_spec("streaming"))
        ref = records_result.fairness
        got = streaming_result.fairness
        assert [u.name for u in got.tenants] == [u.name for u in ref.tenants]
        for ref_usage, got_usage in zip(ref.tenants, got.tenants):
            assert _counts(got_usage.metrics) == _counts(ref_usage.metrics)
            assert _exact_stats(got_usage.metrics) == \
                _exact_stats(ref_usage.metrics)
            assert got_usage.share == ref_usage.share
            assert got_usage.target_share == ref_usage.target_share
        assert got.jain_goodput == ref.jain_goodput
        assert got.max_share_error == ref.max_share_error

    def test_resilience_parity_under_faults_and_retries(self):
        faults = FaultSpec(crash_rate=1.0, step_failure_rate=0.05,
                           retry_max_attempts=3)
        records_result = _run(_spec("records", faults=faults))
        streaming_result = _run(_spec("streaming", faults=faults))
        ref = records_result.resilience.summary()
        got = streaming_result.resilience.summary()
        assert got == ref
        assert ref["retries"] > 0 or ref["failed_requests"] > 0

    def test_the_dispatch_ledger_holds_only_live_attempts(self,
                                                          monkeypatch):
        """An attempt settled for a retry leaves the dispatch ledger
        then, so around every dispatch round the ledger holds no more
        entries than there are live requests, and the run ends with it
        empty."""
        faults = FaultSpec(crash_rate=1.0, step_failure_rate=0.05,
                           retry_max_attempts=3)
        sizes = []
        dispatch = ServingFrontend._dispatch

        def spy(frontend):
            sizes.append((len(frontend._by_spec), len(frontend._live)))
            dispatch(frontend)
            sizes.append((len(frontend._by_spec), len(frontend._live)))

        monkeypatch.setattr(ServingFrontend, "_dispatch", spy)
        with Session(_spec("streaming", faults=faults)) as session:
            result = session.run().results()
            frontend = session.runner.frontend
        assert result.resilience.summary()["retries"] > 0
        assert sizes and all(held <= live for held, live in sizes)
        assert frontend._by_spec == {} and frontend._live == {}


def _reference_run(seed: int):
    """The exact fold and the sketches over 10^4 lognormal(σ=1) samples."""
    rng = random.Random(seed)
    exact = LatencyStats()
    sketch = StreamingLatencyStats()
    for _ in range(10_000):
        sample = rng.lognormvariate(0.0, 1.0)
        exact.observe(sample)
        sketch.observe(sample)
    return exact, sketch


class TestSketchAccuracy:
    def test_quantiles_within_bound_on_reference_run(self):
        """10^4 lognormal samples: tracked quantiles within 5% relative
        error of the exact interpolated fold (the documented bound) on
        seed 0; the next test covers twenty seeds."""
        exact, sketch = _reference_run(0)
        for q in (0.50, 0.95, 0.99):
            assert sketch.quantile(q) == \
                pytest.approx(exact.quantile(q), rel=0.05)
        assert sketch.count == exact.count
        assert sketch.mean == pytest.approx(exact.mean, rel=1e-12)
        assert sketch.quantile(0.0) == exact.quantile(0.0)
        assert sketch.quantile(1.0) == exact.quantile(1.0)

    def test_reference_stream_over_twenty_seeds(self):
        """Over seeds 0-19 the bound holds on every seed for p50 (worst
        0.6%) and p95 (worst 2.4%), and for p99 on every seed but 9,
        where the sketch is 7.1% off: the documented failure, pinned as
        in ``tests/metrics/test_p2_bound.py``."""
        errors = {}
        for seed in range(20):
            exact, sketch = _reference_run(seed)
            errors[seed] = {
                q: abs(sketch.quantile(q) - exact.quantile(q))
                / exact.quantile(q)
                for q in (0.50, 0.95, 0.99)}
        for q in (0.50, 0.95):
            assert max(error[q] for error in errors.values()) <= 0.05, q
        assert [seed for seed, error in errors.items()
                if error[0.99] > 0.05] == [9]
        assert errors[9][0.99] == pytest.approx(0.0714, abs=5e-4)

    def test_untracked_quantile_raises(self):
        sketch = StreamingLatencyStats()
        sketch.observe(1.0)
        with pytest.raises(ValueError, match="only track"):
            sketch.quantile(0.75)

    def test_exact_below_five_samples(self):
        exact = LatencyStats()
        sketch = StreamingLatencyStats()
        for sample in (3.0, 1.0, 4.0, 1.5):
            exact.observe(sample)
            sketch.observe(sample)
        for q in (0.50, 0.95, 0.99):
            assert sketch.quantile(q) == exact.quantile(q)


def _sweep_point(mode: str) -> dict:
    result = _run(_spec(mode))
    return {
        "mode": mode,
        "metrics": _counts(result.metrics),
        "queueing": result.metrics.queueing.summary(),
        "completion": result.metrics.completion.summary(),
        "records": len(result.records),
    }


class TestStreamingDeterminism:
    def test_serial_vs_pool_byte_identical(self):
        items = ("streaming", "streaming")
        serial = json.dumps(
            common.sweep(items, _sweep_point, max_workers=1),
            sort_keys=True)
        parallel = json.dumps(
            common.sweep(items, _sweep_point, max_workers=2),
            sort_keys=True)
        assert serial == parallel

    def test_rerun_is_byte_identical(self):
        first = json.dumps(_sweep_point("streaming"), sort_keys=True)
        second = json.dumps(_sweep_point("streaming"), sort_keys=True)
        assert first == second


class TestMetricsSpec:
    def test_defaults_to_records(self):
        assert ScenarioSpec(name="s", kind="serving").metrics.mode == \
            "records"

    def test_round_trips_through_dict(self):
        spec = _spec("streaming")
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.metrics.mode == "streaming"
        assert clone == spec

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecError, match="metrics.mode"):
            MetricsSpec(mode="sampled")

    def test_streaming_requires_serving_kind(self):
        with pytest.raises(SpecError, match="serving"):
            ScenarioSpec(name="s", kind="pipeline",
                         metrics=MetricsSpec(mode="streaming"))

    def test_retired_vectorized_field_is_unknown(self):
        spec = ScenarioSpec(name="s", kind="serving",
                            arrivals=ArrivalSpec(kind="poisson",
                                                 rate_per_s=10.0))
        data = spec.to_dict()
        data["arrivals"]["vectorized"] = True
        with pytest.raises(SpecError, match="unknown ArrivalSpec field"):
            ScenarioSpec.from_dict(data)
        with pytest.raises(SpecError, match="unknown ArrivalSpec field"):
            spec.override({"arrivals.vectorized": True})
