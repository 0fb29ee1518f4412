"""Seeded scenario fuzzing: the spec language as a correctness amplifier.

Every existing test pins one hand-written scenario; this package turns
the declarative spec language itself into a test generator. A seeded,
pure-function-of-one-integer generator draws random-but-reproducible
:class:`~repro.api.spec.ScenarioSpec`s across every scenario kind and
interacting knob (tenants x faults x retries x streaming metrics x
arrival kinds x policies); an invariant registry
asserts global properties that must hold for *every* valid scenario
(conservation of requests, terminal states, fairness bounds,
availability, wasted-work accounting); a differential harness re-runs
each spec under equivalence frames (JSON-round-trip, pool-vs-serial,
traced-vs-untraced, records-vs-streaming) and
demands byte-identical digests (or the documented streaming bound); and
a shrinker bisects any failing spec toward a minimal repro written to a
corpus directory.

Entry points: ``repro fuzz --seed S --count N`` (CLI), the registered
``fuzzcase`` scenario (``repro run fuzzcase --spec corpus/case.json``
replays one minimized spec), and :func:`fuzz_many` programmatically.
"""

from repro.fuzz.digest import digest_result, exact_digest
from repro.fuzz.frames import (
    FRAMES,
    Frame,
    FrameMismatch,
    check_frames,
    frames_for,
    run_and_digest,
)
from repro.fuzz.generator import (
    FUZZ_KINDS,
    GENERATOR_VERSION,
    draw_invalid,
    draw_spec,
    invalid_case_names,
)
from repro.fuzz.harness import (
    FuzzCase,
    FuzzReport,
    fuzz_many,
    fuzz_one,
    run_case,
)
from repro.fuzz.invariants import (
    INVARIANTS,
    Invariant,
    RunOutcome,
    Violation,
    check_invariants,
    invariant,
)
from repro.fuzz.shrink import baseline_spec, shrink

__all__ = [
    "FRAMES",
    "FUZZ_KINDS",
    "Frame",
    "FrameMismatch",
    "FuzzCase",
    "FuzzReport",
    "GENERATOR_VERSION",
    "INVARIANTS",
    "Invariant",
    "RunOutcome",
    "Violation",
    "baseline_spec",
    "check_frames",
    "check_invariants",
    "digest_result",
    "draw_invalid",
    "draw_spec",
    "exact_digest",
    "frames_for",
    "fuzz_many",
    "fuzz_one",
    "invalid_case_names",
    "invariant",
    "run_and_digest",
    "run_case",
    "shrink",
]
