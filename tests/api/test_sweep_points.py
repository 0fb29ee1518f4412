"""sweep_points() edge cases: every sweep fans its points out through
this seam, so its corner behavior is pinned here."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import registry
from repro.api.spec import ScenarioSpec, SpecError, SweepSpec


@pytest.fixture
def serve_spec() -> ScenarioSpec:
    return registry.get("serve").spec()


def with_axes(spec: ScenarioSpec, axes: dict) -> ScenarioSpec:
    return dataclasses.replace(spec, sweep=SweepSpec(axes=axes))


class TestGridShapes:
    def test_empty_axis_yields_no_points(self, serve_spec):
        spec = with_axes(serve_spec, {"arrivals.rate_per_s": ()})
        assert spec.sweep_points() == []

    def test_no_axes_yields_the_single_base_point(self, serve_spec):
        spec = with_axes(serve_spec, {})
        points = spec.sweep_points()
        assert len(points) == 1
        assert points[0].sweep is None
        assert points[0].arrivals == serve_spec.arrivals

    def test_no_sweep_at_all_yields_one_point(self, serve_spec):
        spec = dataclasses.replace(serve_spec, sweep=None)
        assert len(spec.sweep_points()) == 1

    def test_single_point_grid(self, serve_spec):
        spec = with_axes(serve_spec, {"arrivals.rate_per_s": (3.5,)})
        points = spec.sweep_points()
        assert len(points) == 1
        assert points[0].arrivals.rate_per_s == 3.5

    def test_points_clear_their_own_grid(self, serve_spec):
        # A point re-runs alone: shipping it to a worker must not fan
        # out again into the whole sweep.
        for point in serve_spec.sweep_points():
            assert point.sweep is None

    def test_axes_and_points_are_mutually_exclusive(self):
        with pytest.raises(SpecError, match="axes or points"):
            SweepSpec(axes={"seed": (1,)}, points=({"seed": 2},))


class TestOverrideCollisions:
    def test_extra_wins_over_the_swept_axis(self, serve_spec):
        # extra merges after the grid entry, so a collision resolves to
        # the extra value — how experiments pin derived context even
        # when a sweep names the same path.
        spec = with_axes(serve_spec, {"arrivals.rate_per_s": (1.0, 2.0)})
        points = spec.sweep_points({"arrivals.rate_per_s": 9.0})
        assert [p.arrivals.rate_per_s for p in points] == [9.0, 9.0]

    def test_callable_extra_sees_the_colliding_override(self, serve_spec):
        spec = with_axes(serve_spec, {"arrivals.rate_per_s": (1.0, 2.0)})
        points = spec.sweep_points(
            lambda overrides: {"seed": int(overrides["arrivals.rate_per_s"])}
        )
        assert [p.seed for p in points] == [1, 2]
        assert [p.arrivals.rate_per_s for p in points] == [1.0, 2.0]


class TestPointSpecRoundTrip:
    def test_point_specs_round_trip_byte_exactly(self, serve_spec):
        # Exported specs, fuzz corpus files and the fuzzer's pool frame
        # carry point specs as JSON text; a decode/encode cycle must
        # reproduce the exact bytes (floats via repr round-trip, key
        # order preserved) or a re-run from JSON would not be
        # byte-identical.
        for point in serve_spec.sweep_points():
            text = point.to_json()
            rebuilt = ScenarioSpec.from_json(text)
            assert rebuilt == point
            assert rebuilt.to_json() == text

    def test_awkward_floats_survive(self, serve_spec):
        spec = with_axes(
            serve_spec, {"arrivals.rate_per_s": (0.1 + 0.2, 1e-17, 2.0**53)}
        )
        points = spec.sweep_points()
        values = [ScenarioSpec.from_json(p.to_json()).arrivals.rate_per_s
                  for p in points]
        assert values == [0.1 + 0.2, 1e-17, 2.0**53]
