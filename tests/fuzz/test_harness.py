"""The fuzz loop end-to-end, plus the tier-1 campaign slice.

``test_tier1_fuzz_slice`` is the CI gate the ISSUE asks for: 25 fixed
seeds, every invariant, one rotated equivalence frame per case. The
deeper all-frames campaign runs in the nightly workflow
(``.github/workflows/fuzz.yml``) and via ``repro fuzz``.
"""

from __future__ import annotations

import json
import pathlib

from repro.fuzz import (
    FUZZ_KINDS,
    INVARIANTS,
    draw_spec,
    fuzz_many,
    fuzz_one,
    run_case,
)
from repro.fuzz.harness import _rotated_frames
from repro.fuzz.invariants import invariant


def test_tier1_fuzz_slice():
    """25 seeded cases; every invariant; one equivalence frame each."""
    report = fuzz_many(0, 25, frame_budget=1)
    assert report.ok, report.render()
    assert len(report.cases) == 25
    # the rotation spreads frame coverage across the slice
    frames_seen = {name for case in report.cases
                   for name in case.frames_run}
    assert len(frames_seen) >= 4


def test_case_seeds_are_reproducible():
    first = fuzz_one(3, frame_budget=0)
    second = fuzz_one(3, frame_budget=0)
    assert first.spec.to_json() == second.spec.to_json()
    assert json.dumps(first.digest, sort_keys=True) == json.dumps(
        second.digest, sort_keys=True)


def test_frame_rotation_budget():
    spec = draw_spec(1)
    assert spec.kind == "serving"
    all_frames = [f.name for f in _rotated_frames(spec, 0, None)]
    assert len(all_frames) >= 4
    singles = [
        [f.name for f in _rotated_frames(spec, index, 1)]
        for index in range(len(all_frames))
    ]
    assert all(len(s) == 1 for s in singles)
    assert {s[0] for s in singles} == set(all_frames)
    assert _rotated_frames(spec, 0, 0) == []


def test_kind_restriction_flows_through():
    report = fuzz_many(0, 4, kinds=("batch",), frame_budget=0)
    assert report.ok
    assert {case.spec.kind for case in report.cases} == {"batch"}


def test_run_case_captures_crashes_as_findings():
    spec = draw_spec(2)

    class Boom(Exception):
        pass

    @invariant("exploding_check", "synthetic: always raises")
    def _explode(spec, outcome):
        raise Boom("kaboom")

    try:
        case = run_case(spec, frames=[])
    finally:
        del INVARIANTS["exploding_check"]
    assert not case.ok
    assert case.error is not None and "kaboom" in case.error
    assert "error:Boom" in case.signature()


def test_planted_failure_is_shrunk_and_written_to_corpus(tmp_path):
    """A deliberately-broken invariant must yield a shrunk minimal spec,
    a corpus file, and an exact repro command (the ISSUE's acceptance
    criterion)."""

    @invariant("planted_bug", "synthetic: any armed crash_rate fails")
    def _planted(spec, outcome):
        if spec.faults is not None and spec.faults.crash_rate > 0:
            yield "planted failure"

    try:
        report = fuzz_many(0, 20, corpus_dir=str(tmp_path), frame_budget=0)
    finally:
        del INVARIANTS["planted_bug"]

    assert not report.ok
    case = report.failures[0]
    assert case.shrunk is not None
    # minimized: the shrunk spec keeps the trigger and nothing optional
    assert case.shrunk.faults is not None
    assert case.shrunk.faults.crash_rate > 0
    assert len(case.shrunk.to_json()) <= len(case.spec.to_json())

    # corpus file: loadable, carries the minimized spec under "scenario"
    assert case.corpus_path is not None
    payload = json.loads(pathlib.Path(case.corpus_path).read_text())
    assert payload["scenario"] == case.shrunk.to_dict()
    assert payload["fuzz"]["failure"] == ["planted_bug"]
    assert payload["fuzz"]["case_seed"] == case.seed

    # the failure report names the repro command and inlines the spec
    text = case.describe_failure()
    assert f"repro run fuzzcase --spec {case.corpus_path}" in text
    assert '"crash_rate"' in text
    assert "[planted_bug]" in text

    # the report renders every failure
    assert "planted_bug" in report.render()


def test_invalid_draws_are_exercised_every_case():
    report = fuzz_many(0, 10, frame_budget=0)
    assert report.invalid_failures == []


def test_fuzz_kinds_constant_matches_generator():
    assert set(FUZZ_KINDS) == {"batch", "serving", "cluster", "pipeline"}
