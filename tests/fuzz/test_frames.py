"""Equivalence frames: selection logic, green paths, and mismatch
reporting."""

from __future__ import annotations

import json

from repro.api.spec import (
    ArrivalSpec,
    MetricsSpec,
    ScenarioSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.fuzz import FRAMES, check_frames, frames_for, run_and_digest
from repro.fuzz.digest import _strip_estimates


def _serving_spec(**kwargs) -> ScenarioSpec:
    kwargs.setdefault("params", {"horizon_s": 3.0})
    return ScenarioSpec(
        name="frames", kind="serving", seed=11,
        training=TrainingSpec(epochs=1),
        arrivals=ArrivalSpec(rate_per_s=4.0),
        **kwargs,
    )


def test_frame_names_cover_the_contract():
    assert [frame.name for frame in FRAMES] == [
        "json_roundtrip", "pool_vs_serial", "traced_vs_untraced",
        "records_vs_streaming",
    ]


def test_streaming_frame_only_for_records_traffic():
    names = {f.name for f in frames_for(_serving_spec())}
    assert "records_vs_streaming" in names

    streaming = _serving_spec(metrics=MetricsSpec(mode="streaming"))
    assert "records_vs_streaming" not in {
        f.name for f in frames_for(streaming)}

    batch = ScenarioSpec(
        name="b", kind="batch", training=TrainingSpec(epochs=1),
        workloads=(WorkloadSpec(name="pagerank"),))
    assert "records_vs_streaming" not in {f.name for f in frames_for(batch)}


def test_traced_frame_skipped_when_already_tracing():
    traced = _serving_spec().override({"obs.trace": True})
    assert "traced_vs_untraced" not in {f.name for f in frames_for(traced)}


def test_all_frames_agree_on_a_serving_scenario():
    spec = _serving_spec()
    base = run_and_digest(spec)
    assert check_frames(spec, base) == []


def test_all_frames_agree_on_a_batch_scenario():
    spec = ScenarioSpec(
        name="b", kind="batch", seed=2, training=TrainingSpec(epochs=1),
        workloads=(WorkloadSpec(name="pagerank"),
                   WorkloadSpec(name="resnet18")))
    base = run_and_digest(spec)
    assert check_frames(spec, base) == []


def test_tampered_baseline_is_reported_with_paths():
    spec = _serving_spec()
    base = run_and_digest(spec)
    tampered = json.loads(json.dumps(base))
    tampered["serving"]["offered"] += 1
    frames = [f for f in FRAMES if f.name == "json_roundtrip"]
    mismatches = check_frames(spec, tampered, frames)
    assert len(mismatches) == 1
    assert mismatches[0].frame == "json_roundtrip"
    assert "serving.offered" in mismatches[0].paths
    assert "serving.offered" in str(mismatches[0])


def test_exact_digest_strips_quantiles_and_record_hash():
    spec = _serving_spec()
    base = run_and_digest(spec)
    exact = _strip_estimates(base)
    assert "p95" in base["serving"]["queueing"]
    assert "p95" not in exact["serving"]["queueing"]
    assert "records" in base["serving"]
    assert "records" not in exact["serving"]
    # the exact subset still pins the load-bearing counters
    assert exact["serving"]["offered"] == base["serving"]["offered"]
    assert exact["serving"]["queueing"]["count"] == (
        base["serving"]["queueing"]["count"])
