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
from repro.experiments.common import baseline_time
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
                 "training_progress", "no_speedup", "solo_timeline",
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


def _sped_up(training, config):
    """``training`` finished 1 µs before its no-side-task time."""
    return dataclasses.replace(
        training, end_time=training.start_time + baseline_time(config) - 1e-6)


def test_training_faster_than_its_baseline_is_caught():
    spec = _serving_spec()
    outcome, _ = _execute(spec)
    assert check_invariants(spec, outcome, names=["no_speedup"]) == []
    broken = RunOutcome(result=dataclasses.replace(
        outcome.result,
        training=_sped_up(outcome.result.training, spec.train_config())))
    violations = check_invariants(spec, broken, names=["no_speedup"])
    assert [v.invariant for v in violations] == ["no_speedup"]
    assert "T_noSideTask" in violations[0].message


def test_a_cluster_job_faster_than_its_baseline_is_caught():
    spec = ScenarioSpec(
        name="inv", kind="cluster", seed=2, training=TrainingSpec(epochs=1),
        jobs=2, workloads=(WorkloadSpec(name="pagerank"),),
    )
    outcome, _ = _execute(spec)
    assert check_invariants(spec, outcome, names=["no_speedup"]) == []
    jobs = list(outcome.result.jobs)
    jobs[1] = dataclasses.replace(
        jobs[1], training=_sped_up(jobs[1].training, spec.job_configs()[1]))
    broken = RunOutcome(result=dataclasses.replace(outcome.result, jobs=jobs))
    violations = check_invariants(spec, broken, names=["no_speedup"])
    assert len(violations) == 1
    assert violations[0].message.startswith(jobs[1].name)


def test_a_pipeline_run_trains_in_its_baseline_time():
    """A bare pipeline run trains on its baseline's jitter stream, so it
    takes exactly T_noSideTask, and a faster one is caught."""
    spec = ScenarioSpec(name="inv", kind="pipeline", seed=1,
                        training=TrainingSpec(epochs=1))
    outcome, _ = _execute(spec)
    assert outcome.result.total_time == baseline_time(spec.train_config())
    assert check_invariants(spec, outcome, names=["no_speedup"]) == []
    broken = RunOutcome(result=_sped_up(outcome.result, spec.train_config()))
    violations = check_invariants(spec, broken, names=["no_speedup"])
    assert [v.invariant for v in violations] == ["no_speedup"]