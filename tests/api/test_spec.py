"""ScenarioSpec codec tests: round-trips, overrides, sweep grids."""

from __future__ import annotations

import json

import pytest

from repro.api.spec import (
    ArrivalSpec,
    ClusterSpec,
    MixEntrySpec,
    ObsSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TrainingSpec,
    WorkloadSpec,
    default_mix,
)
from repro.errors import SpecError
from repro.serving.arrivals import DEFAULT_MIX


def full_spec() -> ScenarioSpec:
    """A spec exercising every section."""
    return ScenarioSpec(
        name="everything",
        kind="serving",
        seed=7,
        cluster=ClusterSpec(record_occupancy=True),
        training=TrainingSpec(model="1.2B", micro_batches=8, epochs=2),
        workloads=(WorkloadSpec(name="pagerank", replicate=False),
                   WorkloadSpec(name="vgg19", batch_size=32)),
        arrivals=ArrivalSpec(kind="bursty", rate_per_s=3.5,
                             mix=(MixEntrySpec("pagerank", job_steps=10),)),
        policy=PolicySpec(assignment="edf", admission="backpressure",
                          discipline="fifo", queue_capacity=16,
                          grace_period_s=0.25),
        obs=ObsSpec(trace=True, trace_pipeline=False, ring_limit=256),
        sweep=SweepSpec(axes={"arrivals.rate_per_s": (1.0, 2.0)}),
        params={"open_fraction": 0.5, "note": "hello"},
    )


class TestRoundTrip:
    def test_dict_round_trip_is_equal(self):
        spec = full_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_equal(self):
        spec = full_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_shaped(self):
        """to_dict emits exactly what json.loads reads back: no tuples,
        no dataclasses — so dict and JSON round-trips are the same trip."""
        spec = full_spec()
        assert spec.to_dict() == json.loads(spec.to_json())

    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown ScenarioSpec field"):
            ScenarioSpec.from_dict({"frobnicate": 1})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(SpecError, match="TrainingSpec"):
            ScenarioSpec.from_dict({"training": {"epoch": 4}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown scenario kind"):
            ScenarioSpec(kind="quantum")


class TestOverride:
    def test_scalar_override(self):
        spec = ScenarioSpec().override({"training.epochs": 3, "seed": 9})
        assert spec.training.epochs == 3
        assert spec.seed == 9

    def test_list_index_override(self):
        spec = ScenarioSpec(workloads=(WorkloadSpec(), WorkloadSpec()))
        out = spec.override({"workloads.1.name": "vgg19"})
        assert out.workloads[0].name == "resnet18"
        assert out.workloads[1].name == "vgg19"

    def test_params_keys_may_be_created(self):
        spec = ScenarioSpec().override({"params.t_no": 1.25})
        assert spec.params == {"t_no": 1.25}

    def test_whole_subtree_override(self):
        spec = ScenarioSpec(sweep=SweepSpec(axes={"seed": (1, 2)}))
        out = spec.override({"sweep.axes": {"training.epochs": [2, 4]}})
        assert out.sweep.axes == {"training.epochs": (2, 4)}

    def test_override_does_not_mutate_original(self):
        spec = ScenarioSpec()
        spec.override({"training.epochs": 99})
        assert spec.training.epochs == 8

    def test_missing_section_is_an_error(self):
        with pytest.raises(SpecError, match="no 'arrivals' section"):
            ScenarioSpec().override({"arrivals.rate_per_s": 2.0})

    def test_bad_list_index_is_an_error(self):
        spec = ScenarioSpec(workloads=(WorkloadSpec(),))
        with pytest.raises(SpecError, match="out of range"):
            spec.override({"workloads.3.name": "x"})

    def test_bad_value_still_validates(self):
        with pytest.raises(SpecError, match="unknown scenario kind"):
            ScenarioSpec().override({"kind": "nonsense"})


class TestSweep:
    def test_axes_product_iterates_last_axis_fastest(self):
        sweep = SweepSpec(axes={"a": (1, 2), "b": ("x", "y")})
        assert sweep.overrides() == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_points_pass_through(self):
        sweep = SweepSpec(points=({"a": 1}, {"a": 2, "b": 3}))
        assert sweep.overrides() == [{"a": 1}, {"a": 2, "b": 3}]

    def test_axes_and_points_are_exclusive(self):
        with pytest.raises(SpecError):
            SweepSpec(axes={"a": (1,)}, points=({"a": 1},))

    def test_sweep_points_are_self_contained(self):
        spec = ScenarioSpec(sweep=SweepSpec(axes={"training.epochs": (1, 2)}))
        points = spec.sweep_points()
        assert [p.training.epochs for p in points] == [1, 2]
        assert all(p.sweep is None for p in points)

    def test_sweep_points_merge_constant_extra(self):
        spec = ScenarioSpec(sweep=SweepSpec(axes={"training.epochs": (1, 2)}))
        points = spec.sweep_points({"params.t_no": 5.0})
        assert all(p.params["t_no"] == 5.0 for p in points)

    def test_sweep_points_merge_callable_extra(self):
        spec = ScenarioSpec(sweep=SweepSpec(axes={"training.epochs": (1, 2)}))
        points = spec.sweep_points(
            lambda ov: {"params.double": ov["training.epochs"] * 2})
        assert [p.params["double"] for p in points] == [2, 4]

    def test_specless_sweep_is_the_single_point(self):
        points = ScenarioSpec().sweep_points()
        assert len(points) == 1
        assert points[0] == ScenarioSpec()


class TestAssembly:
    def test_training_spec_matches_common_train_config(self):
        from repro.experiments.common import train_config

        spec = ScenarioSpec(training=TrainingSpec(epochs=4), seed=3)
        assert spec.train_config() == train_config(epochs=4, seed=3)

    def test_default_mix_mirrors_serving_default(self):
        assert tuple(e.to_template() for e in default_mix()) == DEFAULT_MIX

    def test_arrival_spec_builds_seeded_process(self):
        process = ArrivalSpec(kind="poisson", rate_per_s=2.0).build(seed=5)
        assert process.seed == 5
        assert process.rate_per_s == 2.0

    def test_cluster_spec_rejects_unknown_server(self):
        unknown = r"unknown ClusterSpec field\(s\) \['server'\]"
        with pytest.raises(SpecError, match=unknown):
            ClusterSpec.from_dict({"server": "server_ii"})

    def test_policy_spec_rejects_unknown_assignment(self):
        with pytest.raises(SpecError, match="unknown assignment policy"):
            PolicySpec(assignment="coin_flip").assignment_policy()


class TestObsSpec:
    def test_defaults_are_off_but_present(self):
        """Every scenario has an obs section (never None), so the
        ``--set obs.trace=true`` dotted path always has a parent."""
        spec = ScenarioSpec()
        assert spec.obs == ObsSpec()
        assert spec.obs.trace is False
        assert spec.obs.trace_pipeline is True

    def test_round_trips_through_dict(self):
        obs = ObsSpec(trace=True, ring_limit=64)
        assert ObsSpec.from_dict(obs.to_dict()) == obs

    def test_dotted_override_enables_tracing(self):
        spec = ScenarioSpec().override({"obs.trace": True})
        assert spec.obs.trace is True

    def test_registry_sugar_expands_to_obs_trace(self):
        from repro.api.registry import expand_overrides

        assert expand_overrides({"trace": True}) == {"obs.trace": True}

    def test_ring_limit_must_be_positive(self):
        with pytest.raises(SpecError, match="ring_limit"):
            ObsSpec(ring_limit=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError):
            ObsSpec.from_dict({"tracing": True})
