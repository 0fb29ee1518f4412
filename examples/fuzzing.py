"""Fuzz the spec language: seeded scenarios, invariants, and shrinking.

The fuzz layer (``src/repro/fuzz/``) turns the declarative
``ScenarioSpec`` language into a test generator.  This example walks the
three pieces the ``repro fuzz`` CLI verb composes:

* the seeded generator — every drawn spec is a pure function of one
  integer, byte-identical across processes;
* the invariant registry + equivalence frames — global properties that
  must hold for every valid scenario, plus differential re-runs
  (pool-vs-serial, traced-vs-untraced, ...) that must agree bit-for-bit;
* the shrinker — given a failing predicate, bisect the spec toward the
  minimal repro you would commit to the corpus.

Run with::

    python examples/fuzzing.py
"""

from __future__ import annotations

from repro.fuzz import (
    INVARIANTS,
    draw_spec,
    fuzz_many,
    run_case,
    shrink,
)


def show_generator() -> None:
    print("== seeded generator ==")
    for seed in range(4):
        spec = draw_spec(seed)
        knobs = [spec.kind]
        if spec.tenants:
            knobs.append("tenants")
        if spec.faults is not None:
            knobs.append("faults")
        if spec.metrics is not None and spec.metrics.mode == "streaming":
            knobs.append("streaming")
        print(f"  seed {seed}: {' + '.join(knobs)}")
    again = draw_spec(0)
    assert again.to_json() == draw_spec(0).to_json()
    print("  seed 0 redrawn: byte-identical")


def show_one_case() -> None:
    print("\n== one case under every invariant and frame ==")
    spec = draw_spec(1)
    case = run_case(spec)
    print(f"  kind={spec.kind} ok={case.ok}")
    print(f"  invariants checked: {len(INVARIANTS)}")
    print(f"  frames run: {', '.join(case.frames_run)}")
    assert case.ok, case.describe_failure()


def show_campaign() -> None:
    print("\n== a small campaign (what `repro fuzz` runs) ==")
    report = fuzz_many(0, 8, frame_budget=1)
    print("  " + report.render().splitlines()[-1])
    assert report.ok


def show_shrinking() -> None:
    print("\n== shrinking a failure to a minimal repro ==")
    # stand-in for a real bug: "any armed crash_rate misbehaves"
    for seed in range(200):
        spec = draw_spec(seed)
        if spec.faults is not None and spec.faults.crash_rate > 0:
            break
    predicate = lambda s: s.faults is not None and s.faults.crash_rate > 0
    small = shrink(spec, predicate)
    print(f"  original spec: {len(spec.to_json())} bytes "
          f"(seed {seed}, kind {spec.kind})")
    print(f"  shrunk spec:   {len(small.to_json())} bytes")
    print(f"  kept the trigger: crash_rate={small.faults.crash_rate}")
    assert small.tenants == () or small.tenants == 0 or not small.tenants


def main() -> None:
    show_generator()
    show_one_case()
    show_campaign()
    show_shrinking()
    print("\nDeeper runs: repro fuzz --seed 0 --count 500 "
          "--corpus artifacts/fuzz-corpus")


if __name__ == "__main__":
    main()
