"""Golden digests of the serving frontend's dispatch decisions.

Same pattern as ``PRE_COALESCE_GOLDEN`` in ``tests/test_determinism.py``:
each digest is the sha256 of one run's per-request ``summary()`` list,
captured before a dispatch-round optimization landed. Any change to
which request a round dispatches, to which worker, or when, moves a
digest. The five runs cover every way a round can end: EDF over a
queue held at its bound, FIFO over mixed memory sizes, starvation-aware
aging, weighted-fair stride scheduling where one tenant's requests are
memory-blocked, and crash-driven retries that re-enter the queue.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.session import Session
from repro.api.spec import (
    ArrivalSpec,
    FaultSpec,
    MixEntrySpec,
    PolicySpec,
    ScenarioSpec,
    TenantSpec,
    TrainingSpec,
)
from repro.experiments import common
from repro.serving.arrivals import RequestTemplate, TraceArrivals
from repro.serving.frontend import run_serving


def _digest(summaries: "list[dict]") -> str:
    blob = json.dumps(summaries, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _session_summaries(spec: ScenarioSpec) -> "list[dict]":
    with Session(spec) as session:
        return session.run().results().summaries()


def _serve_spec(discipline: str, epochs: int,
                rate_per_s: float) -> ScenarioSpec:
    """The perfbench ``serve`` shape: Poisson traffic far above capacity,
    EDF worker assignment, a 64-deep queue and no admission control."""
    return ScenarioSpec(
        name=f"golden-{discipline}",
        kind="serving",
        seed=1,
        training=TrainingSpec(epochs=epochs),
        arrivals=ArrivalSpec(kind="poisson", rate_per_s=rate_per_s),
        policy=PolicySpec(assignment="edf", admission="always",
                          discipline=discipline),
    )


def _edf_full_queue() -> "list[dict]":
    summaries = _session_summaries(_serve_spec("edf", epochs=1,
                                               rate_per_s=24.0))
    # The queue reached its bound, so every round scanned 64 requests.
    assert any((s["reject_reason"] or "").startswith(
        "admission queue full (64/64") for s in summaries)
    return summaries


def _fifo_mixed_memory() -> "list[dict]":
    # The TestDispatchOrdering trace: seven 6.2 GB resnet50 jobs fill
    # the workers below vgg19's 11.5 GB but leave pagerank-sized holes.
    big = RequestTemplate("resnet50", job_steps=500, slo_class="batch")
    huge = RequestTemplate("vgg19", job_steps=10, slo_class="batch")
    small = RequestTemplate("pagerank", job_steps=20,
                            slo_class="interactive")
    trace = [(0.1 * (i + 1), big) for i in range(7)]
    trace += [(1.0, huge), (1.1, small)]
    result = run_serving(
        common.train_config(epochs=2),
        TraceArrivals(trace, seed=0),
        horizon_s=1e4,
        admission="always",
        discipline="fifo",
        seed=0,
    )
    summaries = result.summaries()
    statuses = {s["workload"]: s["status"] for s in summaries}
    assert statuses["vgg19"] == "queued"
    assert statuses["pagerank"] == "completed"
    return summaries


def _starvation_aware() -> "list[dict]":
    # Six epochs: long enough that aging reorders the queue (the run
    # differs from plain EDF at the same shape).
    return _session_summaries(_serve_spec("starvation_aware", epochs=6,
                                          rate_per_s=12.0))


def _weighted_memory_blocked() -> "list[dict]":
    # The heavier-weighted tenant asks for vgg19 (11.5 GB), which fits
    # few workers, so the stride scheduler's pick for it is blocked in
    # most rounds while the pagerank tenant keeps dispatching.
    tenants = (
        TenantSpec(name="small", weight=1.0, arrival_rate_per_s=4.0,
                   mix=(MixEntrySpec("pagerank", job_steps=100,
                                     slo_class="interactive"),)),
        TenantSpec(name="big", weight=2.0, arrival_rate_per_s=4.0,
                   mix=(MixEntrySpec("vgg19", job_steps=10,
                                     slo_class="batch"),)),
    )
    spec = ScenarioSpec(
        name="golden-weighted",
        kind="serving",
        seed=1,
        training=TrainingSpec(epochs=1),
        tenants=tenants,
        policy=PolicySpec(admission="always", discipline="weighted"),
    )
    summaries = _session_summaries(spec)
    assert any(s["tenant"] == "big" and s["status"] == "queued"
               for s in summaries)
    assert any(s["tenant"] == "small" and s["status"] == "completed"
               for s in summaries)
    return summaries


def _crash_and_retry() -> "list[dict]":
    spec = ScenarioSpec(
        name="golden-retry",
        kind="serving",
        seed=1,
        training=TrainingSpec(epochs=1),
        arrivals=ArrivalSpec(kind="poisson", rate_per_s=4.0),
        faults=FaultSpec(crash_rate=4.0, restart_after_s=2.0,
                         retry_max_attempts=3),
    )
    summaries = _session_summaries(spec)
    # Crashed attempts went back into the queue and were dispatched again.
    assert any(s["attempts"] > 1 for s in summaries)
    return summaries


#: sha256 of each run's summary list, captured before dispatch rounds
#: began hiding every request at or above a blocked memory size
DISPATCH_GOLDEN = {
    "edf_full_queue": (
        _edf_full_queue,
        "13a0c3b86f2837a12bc5ccbafe82da9acd6db6e56e0d69a766e132760af29cd3"),
    "fifo_mixed_memory": (
        _fifo_mixed_memory,
        "bd60f0dba862f87ad9bbaac91e77760302dc4d2a0246ee01ae8f2ebfa99f78ea"),
    "starvation_aware": (
        _starvation_aware,
        "6cf4e383eea0b2aa34d47f657d2eebfc833101a46e46b90140eb45b75ddd3ebc"),
    "weighted_memory_blocked": (
        _weighted_memory_blocked,
        "ada2da3b0698dda938c11bb038d5f6ea281ae3cf30ae3586d8f271be90aad5db"),
    "crash_and_retry": (
        _crash_and_retry,
        "2276aab5236841248bc3d073903dfb6ef5e563558dc6aa64f6c571b5a1d9fefc"),
}


@pytest.mark.parametrize("name", sorted(DISPATCH_GOLDEN))
def test_dispatch_matches_golden(name):
    run, golden = DISPATCH_GOLDEN[name]
    assert _digest(run()) == golden
