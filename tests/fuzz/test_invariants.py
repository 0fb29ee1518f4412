"""The invariant registry: healthy runs pass, corrupted outcomes fail
with named, readable violations."""

from __future__ import annotations

import dataclasses

from repro.api.session import Session
from repro.api.spec import (
    ArrivalSpec,
    FaultSpec,
    ScenarioSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.fuzz import INVARIANTS, RunOutcome, check_invariants
from repro.fuzz.harness import _execute


def _serving_spec(**kwargs) -> ScenarioSpec:
    kwargs.setdefault("params", {"horizon_s": 3.0})
    return ScenarioSpec(
        name="inv", kind="serving", seed=3,
        training=TrainingSpec(epochs=1),
        arrivals=ArrivalSpec(rate_per_s=4.0),
        **kwargs,
    )


def test_registry_names_the_expected_properties():
    for name in ("request_conservation", "counter_ordering",
                 "terminal_records", "latency_sanity", "retry_bounds",
                 "fairness_bounds", "resilience_bounds",
                 "no_faults_no_damage", "tasks_terminal",
                 "training_progress", "solo_timeline",
                 "telemetry_consistency"):
        assert name in INVARIANTS
        assert INVARIANTS[name].description


def test_healthy_serving_run_passes_every_invariant():
    outcome, _ = _execute(_serving_spec())
    assert check_invariants(_serving_spec(), outcome) == []


def test_healthy_batch_run_passes_every_invariant():
    spec = ScenarioSpec(
        name="inv", kind="batch", seed=1, training=TrainingSpec(epochs=1),
        workloads=(WorkloadSpec(name="pagerank"),),
    )
    outcome, _ = _execute(spec)
    assert check_invariants(spec, outcome) == []


def test_faulted_run_passes_every_invariant():
    spec = _serving_spec(faults=FaultSpec(
        crash_rate=2.0, restart_after_s=1.0, recovery="checkpoint",
        retry_max_attempts=2))
    outcome, _ = _execute(spec)
    assert check_invariants(spec, outcome) == []


def test_corrupted_counters_are_caught():
    spec = _serving_spec()
    outcome, _ = _execute(spec)
    broken_metrics = dataclasses.replace(
        outcome.result.metrics, admitted=outcome.result.metrics.admitted + 1)
    broken = RunOutcome(
        result=dataclasses.replace(outcome.result, metrics=broken_metrics),
        telemetry=outcome.telemetry,
    )
    violated = {v.invariant for v in check_invariants(spec, broken)}
    assert "request_conservation" in violated
    assert "telemetry_consistency" in violated


def test_failed_requests_without_faults_are_damage():
    spec = _serving_spec()
    outcome, _ = _execute(spec)
    broken_metrics = dataclasses.replace(
        outcome.result.metrics,
        failed=1,
        unserved=outcome.result.metrics.unserved - 1,
    )
    broken = RunOutcome(
        result=dataclasses.replace(outcome.result, metrics=broken_metrics),
        telemetry=outcome.telemetry,
    )
    violated = {v.invariant for v in check_invariants(spec, broken)}
    assert "no_faults_no_damage" in violated


def test_violations_render_readably():
    spec = _serving_spec()
    outcome, _ = _execute(spec)
    broken_metrics = dataclasses.replace(outcome.result.metrics, offered=0)
    broken = RunOutcome(
        result=dataclasses.replace(outcome.result, metrics=broken_metrics),
        telemetry=outcome.telemetry,
    )
    violations = check_invariants(spec, broken)
    assert violations
    text = str(violations[0])
    assert text.startswith("[")  # "[invariant_name] message"
    assert "offered" in " ".join(str(v) for v in violations)


def test_named_subset_selection():
    spec = _serving_spec()
    outcome, _ = _execute(spec)
    assert check_invariants(spec, outcome,
                            names=["request_conservation"]) == []


def test_invariants_capture_the_telemetry_snapshot():
    outcome, _ = _execute(_serving_spec())
    assert outcome.telemetry is not None
    counters = outcome.telemetry["counters"]
    assert counters["serving.admitted"] == outcome.result.metrics.admitted


def test_session_run_matches_digest():
    spec = _serving_spec()
    _, digest = _execute(spec)
    result = Session(spec).run().results()
    assert digest["serving"]["offered"] == result.metrics.offered
