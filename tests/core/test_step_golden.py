"""Golden digests of the side-task step path.

Same pattern as ``tests/serving/test_dispatch_golden.py``: each entry is
the sha256 of one run's outputs (:func:`~repro.fuzz.digest.digest_result`
plus any trace the run records), together with the number of events the
engine processed and the number of side-task steps the run took. They
were captured before the step loop's fast paths landed (the engine's
open-coded drain loops, the process resume path, the GPU single-kernel
launch and the identity-hashed state machine). Those fast paths must
create the same events with the same ``(time, seq)`` keys in the same
order, so any change to what a step does, or when, moves a digest or a
count.

The five runs cover the step loop's paths: the perfbench ``cluster``
shape (two jobs, PageRank's short steps plus ResNet18); an imperative
task whose in-flight kernels overlap training (the rate model's
multi-kernel recompute); a faulted run with a crash, checkpoint
recovery, failed steps and a straggler window; a traced run (the
transition observer); and a run that records the SM-occupancy trace.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.session import Session
from repro.api.spec import (
    ArrivalSpec,
    ClusterSpec,
    FaultSpec,
    ObsSpec,
    ScenarioSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.faults.plan import SlowdownWindow, WorkerCrash
from repro.fuzz.digest import digest_result


def _sha(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _pool(runner):
    return runner.cluster if runner.kind == "cluster" else runner.freeride


def _run(spec: ScenarioSpec, extra=None) -> tuple:
    """``(sha256, events, steps)`` of one run; ``extra(pool, result)``
    adds run-specific outputs to the digest."""
    with Session(spec) as session:
        result = session.run().results()
        pool = _pool(session.runner)
        outputs = {"result": digest_result(spec, result)}
        if extra is not None:
            outputs["extra"] = extra(pool, result)
        events = pool.sim.telemetry.counter("sim.events_processed").value
        steps = sum(runtime.spec.workload.steps_done
                    for worker in pool.workers
                    for runtime in worker.all_tasks)
    return _sha(outputs), events, steps


def _cluster_mix() -> tuple:
    # The perfbench ``cluster`` shape at one epoch.
    return _run(ScenarioSpec(
        name="golden-cluster",
        kind="cluster",
        seed=1,
        training=TrainingSpec(epochs=1),
        jobs=2,
        workloads=(WorkloadSpec(name="pagerank"),
                   WorkloadSpec(name="resnet18")),
    ))


def _imperative_colocated() -> tuple:
    # SIGTSTP cannot recall kernels already on the device, so the
    # imperative task's kernels run on into training ops: the device
    # settles two or more runs at once.
    return _run(ScenarioSpec(
        name="golden-imperative",
        kind="batch",
        seed=2,
        training=TrainingSpec(epochs=2),
        workloads=(WorkloadSpec(name="resnet18", interface="imperative"),),
    ))


def _faulted_checkpoint() -> tuple:
    faults = FaultSpec(
        crashes=(WorkerCrash(stage=1, at_s=3.0, restart_after_s=1.0),),
        step_failure_rate=0.1,
        slowdowns=(SlowdownWindow(stage=2, start_s=1.0, end_s=6.0,
                                  factor=1.5),),
        recovery="checkpoint",
    )

    def recovery(pool, _result):
        return [[runtime.step_failures, runtime.checkpoints,
                 runtime.preemptions, runtime.restores,
                 runtime.wasted_steps, repr(runtime.slowdown_s)]
                for worker in pool.workers for runtime in worker.all_tasks]

    return _run(ScenarioSpec(
        name="golden-faults",
        kind="serving",
        seed=3,
        training=TrainingSpec(epochs=2),
        arrivals=ArrivalSpec(kind="poisson", rate_per_s=4.0),
        faults=faults,
    ), recovery)


def _traced() -> tuple:
    def spans(_pool, result):
        return result.trace.to_jsonl()

    return _run(ScenarioSpec(
        name="golden-traced",
        kind="batch",
        seed=4,
        training=TrainingSpec(epochs=1),
        workloads=(WorkloadSpec(name="resnet18"),),
        obs=ObsSpec(trace=True),
    ), spans)


def _occupancy() -> tuple:
    def traces(pool, _result):
        return [[gpu.name, repr(gpu.busy_time),
                 [[repr(value) for value in point]
                  for point in gpu.occupancy_trace]]
                for gpu in pool.server.gpus]

    return _run(ScenarioSpec(
        name="golden-occupancy",
        kind="batch",
        seed=5,
        training=TrainingSpec(epochs=1),
        cluster=ClusterSpec(record_occupancy=True),
        workloads=(WorkloadSpec(name="pagerank"),),
    ), traces)


#: (run, sha256 of its outputs, events processed, side-task steps),
#: captured before the step loop's fast paths landed
STEP_GOLDEN = {
    "cluster_mix": (
        _cluster_mix,
        "1910477b7c3bd35cb26535a0349a29a60036af5c267b28bd9ceab603e797ba10",
        16520, 3949),
    "imperative_colocated": (
        _imperative_colocated,
        "34cc63c2dd510839c0c241f56c149f50b474295d09b4654fc956fb6615c0d8b3",
        2307, 513),
    "faulted_checkpoint": (
        _faulted_checkpoint,
        "9e25ee7b2c8b0b3cba411258b62a3dc70f286759ca0a29161f0447972b18a28e",
        3675, 624),
    "traced": (
        _traced,
        "1a05ab1815fbb710389d729dc4d200e172b13752e4d077fd0ce1fe2545c38d12",
        1218, 216),
    "occupancy": (
        _occupancy,
        "2b32203c5ee00d7709986507cf76101a3e4d70c2b6d3039caaadc24244ac6cc2",
        8232, 1970),
}


@pytest.mark.parametrize("name", sorted(STEP_GOLDEN))
def test_step_path_matches_golden(name):
    run, digest, events, steps = STEP_GOLDEN[name]
    assert run() == (digest, events, steps)
