"""Equivalence frames: ways of re-running a spec that must not change it.

A *frame* is a transformation of the spec or of how it is executed that
the system promises is behaviour-preserving:

- ``json_roundtrip`` — serialize the spec to JSON and re-run the parsed
  copy (the export/import contract).
- ``pool_vs_serial`` — run the scenario through the process-pool sweep
  path (``experiments.common.sweep``) and compare against the in-process
  run (the determinism-across-executors contract from PR 1/8).
- ``traced_vs_untraced`` — re-run with ``obs.trace=true``; tracing is
  pinned to consume no RNG, so everything except the attached trace is
  byte-identical (PR 7 contract).
- ``records_vs_streaming`` — re-run with ``metrics.mode=streaming`` and
  compare the *exact* digest subset (counts, means, extremes, fairness
  counters, resilience accounting); quantile sketches are only bounded,
  so they are excluded (PR 9 documented bound).

Every frame's check reduces to digest equality: byte-identical
``json.dumps(digest, sort_keys=True)`` for the full-fidelity frames,
equality of :func:`~repro.fuzz.digest.exact_digest` for the streaming
frame.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.fuzz.digest import digest_result, exact_digest

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.api.spec import ScenarioSpec


# ---------------------------------------------------------------------------
# running a spec to a digest (module-level so the pool can pickle it)

def run_and_digest(spec: "ScenarioSpec", exact_only: bool = False) -> dict:
    """Run one spec through a fresh Session and digest the result."""
    from repro.api.session import Session

    result = Session(spec).run().results()
    if exact_only:
        return exact_digest(spec, result)
    return digest_result(spec, result)


def _pool_point(spec_json: str) -> dict:
    """Picklable sweep point: JSON spec in, digest out."""
    from repro.api.spec import ScenarioSpec

    return run_and_digest(ScenarioSpec.from_json(spec_json))


# ---------------------------------------------------------------------------
# the frames

def _streaming_variant(spec: "ScenarioSpec") -> "ScenarioSpec":
    return spec.override({"metrics.mode": "streaming"})


def _traced_variant(spec: "ScenarioSpec") -> "ScenarioSpec":
    return spec.override({"obs.trace": True})


def _roundtrip_variant(spec: "ScenarioSpec") -> "ScenarioSpec":
    return type(spec).from_json(spec.to_json())


def _has_traffic(spec: "ScenarioSpec") -> bool:
    return spec.kind == "serving" or (
        spec.kind == "cluster"
        and (spec.arrivals is not None or bool(spec.tenants))
    )


@dataclasses.dataclass(frozen=True)
class Frame:
    """One behaviour-preserving re-execution of a scenario."""

    name: str
    description: str
    #: spec rewrite applied before the re-run (identity when None)
    transform: "typing.Callable | None" = None
    #: route the re-run through the process-pool sweep path
    pooled: bool = False
    #: compare :func:`exact_digest` instead of the full digest
    exact_only: bool = False
    #: spec predicate gating applicability (always applies when None)
    predicate: "typing.Callable | None" = None

    def applies(self, spec: "ScenarioSpec") -> bool:
        return self.predicate is None or self.predicate(spec)

    def variant(self, spec: "ScenarioSpec") -> "ScenarioSpec":
        return spec if self.transform is None else self.transform(spec)

    def run(self, spec: "ScenarioSpec") -> dict:
        """Execute this frame's variant of ``spec`` and digest it."""
        variant = self.variant(spec)
        if self.pooled:
            from repro.experiments.common import sweep

            # two identical points so sweep() actually engages the pool
            # (it runs a single item serially); both must agree.
            digests = sweep(
                [spec.to_json(), spec.to_json()], _pool_point, max_workers=2
            )
            if json.dumps(digests[0], sort_keys=True) != json.dumps(
                digests[1], sort_keys=True
            ):
                raise AssertionError(
                    "pool produced two different digests for one spec"
                )
            return digests[0]
        return run_and_digest(variant, exact_only=self.exact_only)


FRAMES: "tuple[Frame, ...]" = (
    Frame(
        "json_roundtrip",
        "to_json -> from_json -> re-run is byte-identical",
        transform=_roundtrip_variant,
    ),
    Frame(
        "pool_vs_serial",
        "process-pool sweep path matches the in-process run",
        pooled=True,
    ),
    Frame(
        "traced_vs_untraced",
        "obs.trace=true consumes no RNG; results are byte-identical",
        transform=_traced_variant,
        predicate=lambda spec: not spec.obs.trace,
    ),
    Frame(
        "records_vs_streaming",
        "streaming metrics match exactly on counts/means/extremes",
        transform=_streaming_variant,
        exact_only=True,
        predicate=lambda spec: spec.metrics.mode == "records"
        and _has_traffic(spec),
    ),
)


def frames_for(spec: "ScenarioSpec") -> "list[Frame]":
    """The frames applicable to this spec, in canonical order."""
    return [frame for frame in FRAMES if frame.applies(spec)]


# ---------------------------------------------------------------------------
# checking

@dataclasses.dataclass(frozen=True)
class FrameMismatch:
    """One frame whose re-run disagreed with the baseline."""

    frame: str
    #: dotted digest paths that differ (bounded sample)
    paths: "tuple[str, ...]"

    def __str__(self) -> str:
        return f"[{self.frame}] digests differ at: " + ", ".join(self.paths)


def _diff_paths(a, b, prefix="", limit=6):
    """Dotted paths where two JSON-safe trees disagree (first few)."""
    out = []

    def walk(x, y, path):
        if len(out) >= limit:
            return
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                walk(x.get(key), y.get(key),
                     f"{path}.{key}" if path else str(key))
            return
        if isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for index, (xi, yi) in enumerate(zip(x, y)):
                walk(xi, yi, f"{path}.{index}" if path else str(index))
            return
        if x != y:
            out.append(path or "<root>")

    walk(a, b, prefix)
    return tuple(out)


def check_frames(
    spec: "ScenarioSpec",
    base: dict,
    frames: "typing.Sequence[Frame] | None" = None,
) -> "list[FrameMismatch]":
    """Re-run ``spec`` under each applicable frame and compare digests.

    ``base`` is the full digest of the plain in-process run; exact-only
    frames compare against its quantile-stripped subset.
    """
    from repro.fuzz.digest import _strip_estimates

    mismatches = []
    for frame in frames if frames is not None else frames_for(spec):
        if not frame.applies(spec):
            continue
        theirs = frame.run(spec)
        ours = _strip_estimates(base) if frame.exact_only else base
        if json.dumps(ours, sort_keys=True) != json.dumps(
            theirs, sort_keys=True
        ):
            mismatches.append(
                FrameMismatch(frame.name, _diff_paths(ours, theirs))
            )
    return mismatches
