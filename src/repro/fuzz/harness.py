"""The fuzz loop: draw -> run -> check invariants -> check frames -> shrink.

:func:`run_case` executes one spec and checks every registered
invariant plus the requested equivalence frames against it.
:func:`fuzz_one` does the same for the spec drawn from one seed.
:func:`fuzz_many` drives the whole campaign: ``count`` seeded cases
(each case seed is ``base_seed + index``), interleaved invalid-spec
draws (which must raise :class:`~repro.errors.SpecError`), shrinking of
every failure to a minimal repro, and a corpus file per failure whose
top-level ``"scenario"`` key makes it directly loadable by
``repro run fuzzcase --spec <file>``.

Frame budgeting: running all four frames quadruples each case's cost,
so the tier-1 slice rotates through the applicable frames
(``frame_budget=1`` runs a different single frame per case index);
``repro fuzz`` and the nightly job run them all.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing

from repro.api.spec import ScenarioSpec
from repro.errors import SpecError
from repro.fuzz.digest import digest_result
from repro.fuzz.frames import Frame, FrameMismatch, check_frames, frames_for
from repro.fuzz.generator import (
    FUZZ_KINDS,
    GENERATOR_VERSION,
    draw_invalid,
    draw_spec,
)
from repro.fuzz.invariants import RunOutcome, Violation, check_invariants
from repro.fuzz.shrink import shrink


def _telemetry_snapshot(runner) -> "dict | None":
    """The engine telemetry snapshot, wherever this runner keeps its sim."""
    for attr in ("freeride", "cluster"):
        holder = getattr(runner, attr, None)
        sim = getattr(holder, "sim", None)
        if sim is not None:
            return sim.telemetry.snapshot()
    sim = getattr(runner, "sim", None)
    if sim is not None:
        return sim.telemetry.snapshot()
    return None


def _execute(spec: ScenarioSpec) -> "tuple[RunOutcome, dict]":
    from repro.api.session import Session

    session = Session(spec)
    result = session.run().results()
    outcome = RunOutcome(
        result=result, telemetry=_telemetry_snapshot(session.runner)
    )
    return outcome, digest_result(spec, result)


@dataclasses.dataclass
class FuzzCase:
    """One fuzzed scenario's verdict."""

    seed: "int | None"
    spec: ScenarioSpec
    digest: "dict | None" = None
    violations: "list[Violation]" = dataclasses.field(default_factory=list)
    mismatches: "list[FrameMismatch]" = dataclasses.field(
        default_factory=list)
    frames_run: "tuple[str, ...]" = ()
    #: unexpected exception during the run, as "ExcType: message"
    error: "str | None" = None
    #: set for failures after shrinking
    shrunk: "ScenarioSpec | None" = None
    corpus_path: "str | None" = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.mismatches and (
            self.error is None
        )

    def signature(self) -> "frozenset[str]":
        """What failed — invariant names, frame names, exception type."""
        names = {v.invariant for v in self.violations}
        names |= {m.frame for m in self.mismatches}
        if self.error is not None:
            names.add("error:" + self.error.split(":", 1)[0])
        return frozenset(names)

    def describe_failure(self) -> str:
        """Human-readable failure block: what broke, the minimized spec
        JSON, and the exact command that reproduces it."""
        lines = [f"case seed={self.seed} kind={self.spec.kind}: FAILED"]
        lines += [f"  {violation}" for violation in self.violations]
        lines += [f"  {mismatch}" for mismatch in self.mismatches]
        if self.error is not None:
            lines.append(f"  [exception] {self.error}")
        minimal = self.shrunk if self.shrunk is not None else self.spec
        lines.append("  minimized spec:")
        lines += [
            "    " + line for line in minimal.to_json().splitlines()
        ]
        if self.corpus_path is not None:
            lines.append(
                f"  reproduce: repro run fuzzcase --spec {self.corpus_path}"
            )
        return "\n".join(lines)


def run_case(
    spec: ScenarioSpec,
    frames: "typing.Sequence[Frame] | None" = None,
    seed: "int | None" = None,
) -> FuzzCase:
    """Run one spec and check invariants + the given frames (default:
    every applicable frame)."""
    case = FuzzCase(seed=seed, spec=spec)
    try:
        outcome, case.digest = _execute(spec)
        case.violations = check_invariants(spec, outcome)
        selected = frames_for(spec) if frames is None else [
            frame for frame in frames if frame.applies(spec)
        ]
        case.frames_run = tuple(frame.name for frame in selected)
        case.mismatches = check_frames(spec, case.digest, selected)
    except Exception as error:  # a crash is a finding, not an abort
        case.error = f"{type(error).__name__}: {error}"
    return case


def _rotated_frames(spec: ScenarioSpec, index: int,
                    frame_budget: "int | None") -> "list[Frame]":
    applicable = frames_for(spec)
    if frame_budget is None or frame_budget >= len(applicable):
        return applicable
    if frame_budget <= 0 or not applicable:
        return []
    start = index % len(applicable)
    return [applicable[(start + offset) % len(applicable)]
            for offset in range(frame_budget)]


def fuzz_one(
    seed: int,
    kinds: "typing.Sequence[str]" = FUZZ_KINDS,
    frame_budget: "int | None" = None,
    index: int = 0,
) -> FuzzCase:
    """Draw the spec for ``seed`` and run it as one case."""
    spec = draw_spec(seed, kinds)
    return run_case(
        spec, frames=_rotated_frames(spec, index, frame_budget), seed=seed
    )


def _shrink_failure(case: FuzzCase, frames: "list[Frame]",
                    max_evals: int) -> ScenarioSpec:
    """Shrink toward the smallest spec reproducing any part of the
    original failure signature."""
    target = case.signature()

    def still_fails(candidate: ScenarioSpec) -> bool:
        rerun = run_case(candidate, frames=frames)
        return bool(rerun.signature() & target)

    try:
        return shrink(case.spec, still_fails, max_evals=max_evals)
    except ValueError:
        # flaky failure (did not reproduce on re-run): keep the original
        return case.spec


def _write_corpus(case: FuzzCase, corpus_dir: str, base_seed: int) -> str:
    os.makedirs(corpus_dir, exist_ok=True)
    minimal = case.shrunk if case.shrunk is not None else case.spec
    path = os.path.join(corpus_dir, f"case-{case.seed}.json")
    payload = {
        # loadable by `repro run fuzzcase --spec <path>` (the CLI digs
        # the spec out of the "scenario" key, like any export artifact)
        "scenario": minimal.to_dict(),
        "fuzz": {
            "generator_version": GENERATOR_VERSION,
            "base_seed": base_seed,
            "case_seed": case.seed,
            "failure": sorted(case.signature()),
            "violations": [str(v) for v in case.violations],
            "frame_mismatches": [str(m) for m in case.mismatches],
            "error": case.error,
            "original_scenario": case.spec.to_dict(),
        },
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


@dataclasses.dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    base_seed: int
    count: int
    kinds: "tuple[str, ...]"
    cases: "list[FuzzCase]"
    #: invalid-draw regressions: case names whose construction did NOT
    #: raise SpecError (or crashed with something else)
    invalid_failures: "list[str]" = dataclasses.field(default_factory=list)

    @property
    def failures(self) -> "list[FuzzCase]":
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.invalid_failures

    def render(self) -> str:
        kind_counts: "dict[str, int]" = {}
        frame_counts: "dict[str, int]" = {}
        for case in self.cases:
            kind_counts[case.spec.kind] = kind_counts.get(
                case.spec.kind, 0) + 1
            for name in case.frames_run:
                frame_counts[name] = frame_counts.get(name, 0) + 1
        lines = [
            f"fuzz: {len(self.cases)} cases from seed {self.base_seed} "
            f"({', '.join(f'{kind}={n}' for kind, n in sorted(kind_counts.items()))})",
            "frames: " + (", ".join(
                f"{name}={n}" for name, n in sorted(frame_counts.items())
            ) or "none"),
        ]
        for case in self.failures:
            lines.append(case.describe_failure())
        for name in self.invalid_failures:
            lines.append(
                f"invalid-spec case {name!r}: did NOT raise SpecError"
            )
        lines.append(
            "FAILED" if not self.ok else
            f"OK: all {len(self.cases)} cases passed every invariant "
            f"and frame"
        )
        return "\n".join(lines)


def _check_invalid_draw(seed: int) -> "str | None":
    """Returns the case name when an invalid draw fails to SpecError."""
    name, thunk = draw_invalid(seed)
    try:
        thunk()
    except SpecError:
        return None
    except Exception:
        return name  # crashed with the wrong exception type
    return name  # silently accepted


def fuzz_many(
    seed: int,
    count: int,
    kinds: "typing.Sequence[str]" = FUZZ_KINDS,
    corpus_dir: "str | None" = None,
    frame_budget: "int | None" = None,
    shrink_failures: bool = True,
    max_shrink_evals: int = 60,
    progress: "typing.Callable[[int, FuzzCase], None] | None" = None,
) -> FuzzReport:
    """Run a fuzz campaign: ``count`` cases seeded ``seed .. seed+count-1``.

    Each case draws one spec, runs it, checks every invariant and the
    (budgeted) equivalence frames, and — on failure — shrinks the spec
    to a minimal repro and writes it to ``corpus_dir``. Every case also
    exercises one seeded *invalid* construction, which must raise
    SpecError.
    """
    report = FuzzReport(
        base_seed=seed, count=count, kinds=tuple(kinds), cases=[]
    )
    for index in range(count):
        case_seed = seed + index
        bad = _check_invalid_draw(case_seed)
        if bad is not None and bad not in report.invalid_failures:
            report.invalid_failures.append(bad)
        case = fuzz_one(case_seed, kinds, frame_budget, index)
        if not case.ok:
            frames = _rotated_frames(case.spec, index, frame_budget)
            if shrink_failures:
                case.shrunk = _shrink_failure(
                    case, frames, max_shrink_evals)
            if corpus_dir is not None:
                case.corpus_path = _write_corpus(case, corpus_dir, seed)
        report.cases.append(case)
        if progress is not None:
            progress(index, case)
    return report
