"""Tests for the first-class cluster layer (`repro.cluster`).

Covers spec round-trip, the cluster lifecycle through Session (the
pool runner), N-job serial-vs-pool determinism, and the stage-offset
correctness of bubble reports (`_ManagerListener`).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import registry
from repro.api.session import PoolRunner, Session, make_runner
from repro.api.spec import (
    ClusterSpec,
    JobSpec,
    ScenarioSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.cluster import Cluster, ClusterJob, ClusterResult
from repro.core.states import SideTaskState
from repro.errors import SessionError, SpecError
from repro.experiments import common
from repro.fuzz.digest import digest_result
from repro.fuzz.generator import draw_spec
from repro.pipeline.config import TrainConfig, model_config
from repro.workloads.registry import workload_factory


def cluster_spec(jobs=2, **overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        name="cluster-test",
        kind="cluster",
        jobs=jobs,
        training=TrainingSpec(epochs=2),
        workloads=(WorkloadSpec(name="pagerank"),),
    )
    return spec.override(overrides) if overrides else spec


# ----------------------------------------------------------------------
# spec round-trip
# ----------------------------------------------------------------------
class TestClusterSpec:
    def test_int_jobs_round_trips(self):
        spec = cluster_spec(jobs=3)
        assert spec.to_dict()["jobs"] == 3
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_explicit_job_list_round_trips(self):
        spec = ScenarioSpec(
            kind="cluster",
            jobs=(
                JobSpec(training=TrainingSpec(model="3.6B", epochs=2)),
                JobSpec(training=TrainingSpec(model="1.2B", epochs=2),
                        name="small"),
            ),
        )
        rehydrated = ScenarioSpec.from_json(spec.to_json())
        assert rehydrated == spec
        assert rehydrated.jobs[1].name == "small"
        assert rehydrated.jobs[1].training.model == "1.2B"

    def test_int_jobs_expand_to_copies_of_the_base_sections(self):
        spec = cluster_spec(jobs=3)
        jobs = spec.job_specs()
        assert len(jobs) == 3
        assert all(job.training == spec.training for job in jobs)
        assert all(job.cluster == spec.cluster for job in jobs)

    def test_job_configs_stagger_seeds(self):
        configs = cluster_spec(jobs=3, seed=7).job_configs()
        assert [config.seed for config in configs] == [7, 8, 9]

    def test_cluster_kind_requires_jobs(self):
        with pytest.raises(SpecError, match="need jobs"):
            ScenarioSpec(kind="cluster")

    def test_negative_jobs_rejected(self):
        with pytest.raises(SpecError, match=">= 0"):
            ScenarioSpec(kind="cluster", jobs=-1)

    def test_set_jobs_override_is_the_cli_path(self):
        """`repro run cluster --set jobs=4`: an int override replaces
        whatever job shape the spec had."""
        spec = cluster_spec(jobs=2).override({"jobs": 4})
        assert spec.num_jobs == 4

    def test_policy_string_sugar(self):
        """`--set policy=edf` names the assignment policy."""
        spec = cluster_spec().override({"policy": "edf"})
        assert spec.policy.assignment == "edf"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_parent_override_pins_child_axes(self):
        """`--set policy=edf` on the default cluster scenario pins the
        policy.assignment sweep axis instead of being re-swept away."""
        result_spec = registry.run("cluster", overrides={
            "policy": "edf",
            "sweep.axes": {"jobs": [1],
                           "workloads": [[{"name": "pagerank"}]]},
        }).scenario
        assert result_spec.policy.assignment == "edf"

    def test_child_override_pins_subtree_axis(self):
        """An override *inside* a swept subtree (--set
        workloads.0.batch_size=32 against the 'workloads' mix axis)
        pins the whole axis rather than being silently replaced."""
        from repro.api.registry import _pin_swept_fields
        from repro.experiments.cluster import default_spec

        overrides = {"workloads.0.batch_size": 32}
        spec = _pin_swept_fields(
            default_spec().override(overrides), overrides)
        assert "workloads" not in spec.sweep.axes
        for point in spec.sweep_points():
            assert point.workloads[0].batch_size == 32

    def test_per_job_server_factories(self):
        spec = ScenarioSpec(
            kind="cluster",
            jobs=(JobSpec(cluster=ClusterSpec()),),
        )
        assert spec.job_specs()[0].cluster.factory() is not None


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class TestBuilder:
    def test_builder_chains_jobs(self):
        config = TrainConfig(model=model_config("3.6B"), epochs=1,
                             op_jitter=0.01)
        cluster = Cluster([config, ClusterJob(config, name="second")])
        assert cluster.num_jobs == 2
        assert len(cluster.workers) == 2 * config.num_stages
        assert cluster.layout[1][0] == "second"

    def test_builder_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Cluster([])

    def test_rejects_a_job_that_is_not_a_job_or_config(self):
        with pytest.raises(TypeError, match="ClusterJob or TrainConfig"):
            Cluster(["3.6B"])

    def test_job_of_worker_maps_global_to_local(self):
        config = TrainConfig(model=model_config("3.6B"), epochs=1,
                             op_jitter=0.01)
        cluster = Cluster([config, config])
        assert cluster.job_of_worker(0) == (0, 0)
        assert cluster.job_of_worker(config.num_stages) == (1, 0)
        assert cluster.job_of_worker(config.num_stages + 1) == (1, 1)
        with pytest.raises(IndexError):
            cluster.job_of_worker(2 * config.num_stages)


# ----------------------------------------------------------------------
# Cluster driven by hand: submit, then run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def two_jobs():
    configs = [
        TrainConfig(model=model_config("3.6B"), epochs=3, op_jitter=0.01),
        TrainConfig(model=model_config("1.2B"), epochs=3, op_jitter=0.01,
                    seed=1),
    ]
    cluster = Cluster(configs)
    accepted = sum(
        cluster.submit(workload_factory("pagerank")) is not None
        for _ in range(8))
    return cluster, accepted, cluster.run()


class TestClusterByHand:
    def test_needs_at_least_one_job(self):
        with pytest.raises(ValueError, match="at least one"):
            Cluster([])

    def test_manager_sees_workers_from_both_jobs(self, two_jobs):
        cluster, _accepted, _result = two_jobs
        assert len(cluster.workers) == 8
        assert len(cluster.pipelines) == 2

    def test_one_task_per_global_worker(self, two_jobs):
        _cluster, accepted, result = two_jobs
        assert accepted == 8
        assert sorted(report.stage for report in result.tasks) == \
            list(range(8))

    def test_both_trainings_complete(self, two_jobs):
        _cluster, _accepted, result = two_jobs
        assert len(result.jobs) == 2
        for job in result.jobs:
            assert len(job.training.trace.epochs) == 3

    def test_every_task_harvested_bubbles(self, two_jobs):
        _cluster, _accepted, result = two_jobs
        for report in result.tasks:
            assert report.final_state is SideTaskState.STOPPED
            assert report.steps_done > 0, report.name


# ----------------------------------------------------------------------
# the pool runner's cluster lifecycle via Session
# ----------------------------------------------------------------------
class TestClusterRunner:
    def test_make_runner_dispatches_cluster_kind(self):
        assert isinstance(make_runner(cluster_spec()), PoolRunner)

    def test_session_runs_cluster_to_a_typed_result(self):
        with Session(cluster_spec()) as session:
            result = session.run().results()
        assert isinstance(result, ClusterResult)
        assert len(result.jobs) == 2
        assert result.total_units > 0
        assert 0.0 < result.utilization <= 1.0
        # Tasks land on both jobs' workers (least-loaded spreads).
        stages = {report.stage for report in result.tasks}
        assert stages == set(range(8))

    def test_tasks_partition_across_job_results(self):
        result = Session(cluster_spec()).run().results()
        partitioned = sum(len(job.tasks) for job in result.jobs)
        assert partitioned == len(result.tasks)
        for job in result.jobs:
            for report in job.tasks:
                assert job.stage_offset <= report.stage \
                    < job.stage_offset + job.num_stages

    def test_session_submit_extends_cluster_scenarios(self):
        session = Session(cluster_spec())
        session.submit("resnet18", replicate=False)
        result = session.run().results()
        names = {report.name.rsplit("-", 1)[0] for report in result.tasks}
        assert "resnet18" in names

    def test_submit_on_traffic_cluster_raises(self):
        spec = cluster_spec().override({
            "arrivals": {"kind": "poisson", "rate_per_s": 2.0},
            "params.horizon_s": 3.0,
        })
        with pytest.raises(SessionError, match="arrivals"):
            Session(spec).submit("pagerank")

    def test_submit_with_runner_kwarg_arrivals_raises_too(self):
        """A trace-replay process handed to the runner directly puts
        the cluster in serving mode; submit() must not silently drop
        the workload into the ignored spec.workloads list."""
        from repro.serving.arrivals import PoissonArrivals

        session = Session(cluster_spec(),
                          arrivals=PoissonArrivals(2.0, seed=0))
        with pytest.raises(SessionError, match="arrivals|mix"):
            session.submit("pagerank")

    def test_serving_against_the_combined_pool(self):
        """Open-loop traffic admitted against the cluster's pool, with
        per-job token buckets on the existing admission seam."""
        spec = cluster_spec().override({
            "arrivals": {"kind": "poisson", "rate_per_s": 2.0},
            "policy.admission": "per_job_token_bucket",
            "params.horizon_s": 4.0,
        })
        result = Session(spec).run().results()
        assert isinstance(result, ClusterResult)
        assert result.metrics is not None
        assert result.metrics.offered > 0
        assert result.open_duration_s == pytest.approx(4.0)

    def test_per_job_buckets_scale_admission_with_job_count(self):
        from repro.serving.frontend import PerJobTokenBucket

        single = PerJobTokenBucket(jobs=1, rate_per_s=1.0, burst=1.0)
        double = PerJobTokenBucket(jobs=2, rate_per_s=1.0, burst=1.0)
        admitted_single = sum(
            1 for _ in range(4) if single.admit(0.0, None, 0)[0])
        admitted_double = sum(
            1 for _ in range(4) if double.admit(0.0, None, 0)[0])
        assert admitted_single == 1
        assert admitted_double == 2

    def test_same_spec_same_results(self):
        first = Session(cluster_spec()).run().results()
        second = Session(cluster_spec()).run().results()
        assert [job.training.total_time for job in first.jobs] == \
            [job.training.total_time for job in second.jobs]
        assert first.total_units == second.total_units


# ----------------------------------------------------------------------
# one pool: each job trains on its baseline's jitter, FreeRide is one job
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_idle_cluster_trains_each_job_in_its_baseline_time(jobs, seed):
    """With no side tasks and no hook cost, every job trains in exactly
    its no-side-task baseline: a job's time increase I divides by the
    baseline of its own jitter draws."""
    configs = cluster_spec(jobs=jobs, seed=seed).job_configs()
    cluster = Cluster(configs, seed=seed, hook_cost_s=0.0)
    result = cluster.run()
    assert [job.training.total_time for job in result.jobs] == \
        [common.baseline_time(config) for config in configs]


#: the fuzzer's batch and serving draws among its first sixty
POOL_DRAWS = [seed for seed in range(60)
              if draw_spec(seed).kind in ("batch", "serving")]


@pytest.mark.parametrize("seed", POOL_DRAWS)
def test_freeride_is_a_one_job_cluster(seed):
    """A batch or serving draw run as drawn and as a one-job cluster:
    same side tasks, rejections, serving, fairness and resilience
    figures, and the same training."""
    spec = draw_spec(seed)
    as_cluster = dataclasses.replace(spec, kind="cluster", jobs=1)
    single = digest_result(spec, Session(spec).run().results())
    pooled = digest_result(as_cluster, Session(as_cluster).run().results())
    shared = (single.keys() & pooled.keys()) - {"kind"}
    assert {key: single[key] for key in shared} == \
        {key: pooled[key] for key in shared}
    assert single["training"] == pooled["jobs"][0]["training"]


# ----------------------------------------------------------------------
# N-job determinism: serial vs pool, export re-run
# ----------------------------------------------------------------------
CLUSTER_REDUCED = {
    "training.epochs": 1,
    "sweep.axes": {
        "jobs": [1, 2],
        "policy.assignment": ["least_loaded"],
        "workloads": [[{"name": "pagerank"}]],
    },
}


def _serialize(rows) -> bytes:
    return json.dumps(rows, sort_keys=True).encode()


def _cluster_rows(max_workers: int) -> bytes:
    from repro.experiments.cluster import _cluster_point

    spec = registry.get("cluster").spec().override(CLUSTER_REDUCED)
    rows = common.sweep(spec.sweep_points(), _cluster_point,
                        max_workers=max_workers)
    return _serialize(rows)


def test_pool_and_serial_cluster_sweeps_are_byte_identical():
    assert _cluster_rows(max_workers=1) == _cluster_rows(max_workers=2)


def test_exported_cluster_spec_reruns_byte_identically():
    """The acceptance loop: run, export the spec JSON, re-hydrate,
    re-run — rows and rendering match byte for byte."""
    first = registry.run("cluster", overrides=CLUSTER_REDUCED)
    spec = ScenarioSpec.from_json(first.scenario.to_json())
    assert spec == first.scenario
    second = registry.run("cluster", spec=spec)
    assert _serialize(first.row_dicts()) == _serialize(second.row_dicts())
    assert first.render() == second.render()


# ----------------------------------------------------------------------
# _ManagerListener stage mapping
# ----------------------------------------------------------------------
class _RecordingManager:
    """Captures what the manager would receive over RPC."""

    def __init__(self):
        self.bubbles = []
        self.ended = []

    def add_bubble(self, bubble):
        self.bubbles.append(bubble)

    def bubble_ended(self, stage, now):
        self.ended.append((stage, now))


class TestOffsetListener:
    def _listener(self, engine, manager, stage_offset):
        from repro.core.middleware import _ManagerListener

        return _ManagerListener(engine, manager, 0.0, 0.001,
                                stage_offset=stage_offset)

    def test_bubble_reports_shift_by_the_job_offset(self, engine):
        from repro.pipeline.analysis import BubbleType
        from repro.pipeline.instrumentation import BubbleStart

        manager = _RecordingManager()
        listener = self._listener(engine, manager, stage_offset=4)
        listener.on_bubble_start(BubbleStart(
            stage=1, index=0, start=0.0, btype=BubbleType.TYPE_A,
            available_gb=10.0, expected_duration=0.5,
        ))
        listener.on_bubble_end(1, 0.5)
        engine.run()
        assert [bubble.stage for bubble in manager.bubbles] == [5]
        assert manager.ended == [(5, 0.5)]

    def test_zero_offset_is_the_identity(self, engine):
        from repro.pipeline.analysis import BubbleType
        from repro.pipeline.instrumentation import BubbleStart

        manager = _RecordingManager()
        listener = self._listener(engine, manager, stage_offset=0)
        listener.on_bubble_start(BubbleStart(
            stage=2, index=0, start=0.0, btype=BubbleType.TYPE_B,
            available_gb=10.0, expected_duration=0.25,
        ))
        engine.run()
        assert manager.bubbles[0].stage == 2

    def test_live_cluster_reports_every_global_stage(self):
        """End to end: a 2-job cluster's shared manager sees bubbles for
        all 8 global worker indices, each mapping back to the right
        job/local stage."""
        config_a = TrainConfig(model=model_config("3.6B"), epochs=1,
                               op_jitter=0.01)
        config_b = TrainConfig(model=model_config("1.2B"), epochs=1,
                               op_jitter=0.01, seed=1)
        cluster = Cluster([config_a, config_b])
        seen: set[int] = set()
        original = cluster.manager.add_bubble

        def spy(bubble):
            seen.add(bubble.stage)
            original(bubble)

        cluster.manager.add_bubble = spy
        cluster.run()
        assert seen == set(range(8))
        assert {cluster.job_of_worker(stage)[0] for stage in seen} == {0, 1}
