"""Session lifecycle tests: configure -> submit -> run -> results."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api.session import (
    PipelineRunner,
    PoolRunner,
    Session,
    make_runner,
)
from repro.api.spec import ArrivalSpec, ScenarioSpec, TrainingSpec, WorkloadSpec
from repro.core.middleware import FreeRideResult
from repro.errors import SessionError, SimulationError, SpecError
from repro.pipeline.engine import TrainingResult
from repro.serving.arrivals import TraceArrivals
from repro.serving.frontend import ServingResult


def batch_spec(**params) -> ScenarioSpec:
    return ScenarioSpec(
        name="batch-test",
        training=TrainingSpec(epochs=1),
        workloads=(WorkloadSpec(name="pagerank", replicate=False),),
        params=params,
    )


class TestLifecycle:
    def test_results_before_run_raises(self):
        with pytest.raises(SessionError, match="has not run"):
            Session(batch_spec()).results()

    def test_run_then_results(self):
        session = Session(batch_spec())
        result = session.run().results()
        assert isinstance(result, FreeRideResult)
        assert result.tasks[0].steps_done > 0

    def test_run_is_idempotent(self):
        session = Session(batch_spec())
        assert session.run().results() is session.run().results()

    def test_context_manager(self):
        with Session(batch_spec()) as session:
            result = session.run().results()
        assert result.training.total_time > 0

    def test_configure_replaces_spec(self):
        session = Session().configure(batch_spec())
        assert session.spec.name == "batch-test"

    def test_configure_after_prepare_raises(self):
        session = Session(batch_spec())
        session.runner.prepare()
        with pytest.raises(SessionError, match="already prepared"):
            session.configure(batch_spec())

    def test_unconfigured_session_raises(self):
        with pytest.raises(SessionError, match="no scenario"):
            Session().run()

    def test_nan_settle_time_from_a_spec_file_is_rejected(self):
        data = batch_spec().to_dict()
        data["params"] = {"settle_s": float("nan")}  # dumps as NaN
        spec = ScenarioSpec.from_json(json.dumps(data))
        with pytest.raises(SimulationError, match="NaN"):
            Session(spec).run()

    def test_infinite_settle_time_leaves_the_clock_at_the_last_event(self):
        data = batch_spec().to_dict()
        data["params"] = {"settle_s": float("inf")}  # dumps as Infinity
        spec = ScenarioSpec.from_json(json.dumps(data))
        with Session(spec) as session:
            sim = session.run().runner.freeride.sim
            # drained, with the clock where the last event left it
            assert sim.peek() == float("inf")
            assert 0.0 < sim.now < float("inf")

    def test_submit_after_run_raises(self):
        session = Session(batch_spec())
        session.run()
        with pytest.raises(SessionError, match="already ran"):
            session.submit("resnet18")


class TestSubmit:
    def test_submit_extends_the_spec_before_prepare(self):
        session = Session(batch_spec())
        session.submit("resnet18", replicate=False)
        assert [w.name for w in session.spec.workloads] == [
            "pagerank", "resnet18"]
        result = session.run().results()
        assert len(result.tasks) == 2

    def test_submit_accepts_workload_spec_with_overrides(self):
        session = Session(batch_spec())
        session.submit(WorkloadSpec(name="resnet18"), replicate=False)
        assert session.spec.workloads[-1].replicate is False

    def test_submit_on_serving_scenario_raises(self):
        spec = ScenarioSpec(kind="serving", arrivals=ArrivalSpec())
        with pytest.raises(SessionError, match="batch"):
            Session(spec).submit("pagerank")


class TestRunners:
    def test_make_runner_dispatches_on_kind(self):
        assert isinstance(make_runner(ScenarioSpec(kind="batch")), PoolRunner)
        assert isinstance(make_runner(ScenarioSpec(kind="pipeline")),
                          PipelineRunner)
        assert isinstance(
            make_runner(ScenarioSpec(kind="serving", arrivals=ArrivalSpec())),
            PoolRunner)

    def test_pipeline_runner_runs_training_only(self):
        spec = ScenarioSpec(kind="pipeline", training=TrainingSpec(epochs=1))
        result = Session(spec).run().results()
        assert isinstance(result, TrainingResult)

    def test_serving_runner_runs_traffic(self):
        spec = ScenarioSpec(
            kind="serving",
            training=TrainingSpec(epochs=1),
            arrivals=ArrivalSpec(kind="poisson", rate_per_s=2.0),
            params={"horizon_s": 4.0},
        )
        result = Session(spec).run().results()
        assert isinstance(result, ServingResult)
        assert result.metrics.offered > 0

    @pytest.mark.parametrize("kind", ["batch", "pipeline"])
    def test_arrivals_for_a_kind_without_traffic_raise(self, kind):
        # A batch pool would drop the process and run to a FreeRideResult
        # with no frontend; a pipeline runner takes no such keyword.
        spec = dataclasses.replace(batch_spec(), kind=kind)
        with pytest.raises(SessionError, match=f"{kind!r} scenario"):
            Session(spec, arrivals=TraceArrivals([0.5, 1.0])).run()

    def test_serving_without_arrivals_raises(self):
        spec = ScenarioSpec(kind="serving", training=TrainingSpec(epochs=1))
        with pytest.raises(SpecError, match="no arrivals"):
            Session(spec).run()

    def test_policy_overrides_reach_freeride(self):
        spec = ScenarioSpec(
            training=TrainingSpec(epochs=1),
            workloads=(WorkloadSpec(name="pagerank", replicate=False),),
        ).override({"policy.grace_period_s": 0.125,
                    "policy.rpc_latency_s": 0.002})
        session = Session(spec)
        session.runner.prepare()
        freeride = session.runner.freeride
        assert freeride.manager.grace_period_s == 0.125
        assert freeride.manager.rpc.latency_s == 0.002

    def test_same_spec_same_results(self):
        """Two sessions over one spec are byte-equivalent."""
        first = Session(batch_spec()).run().results()
        second = Session(batch_spec()).run().results()
        assert first.training.total_time == second.training.total_time
        assert first.total_units == second.total_units
