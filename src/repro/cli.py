"""Command-line entry point over the experiment registry.

Every table/figure is a registered scenario whose parameters are spec
fields — there is no signature probing: any scenario takes any
``--set`` path its spec defines, and ``--seed``/``--epochs`` are sugar
for the two most common ones.

Examples::

    repro list
    repro list --json
    repro run fig1
    repro run table2 --epochs 16
    repro run serve --seed 7 --set policy.admission=backpressure
    repro run serve --set 'sweep.axes={"arrivals.rate_per_s": [2.0]}'
    repro run cluster --set jobs=4 --set policy=edf
    repro export serve --out artifacts/            # json + csv + txt
    repro export fig2 --spec-only > fig2.json      # the spec, no run
    repro run fig2 --spec fig2.json                # re-run it exactly
    repro trace serve                              # Chrome trace JSON
    repro run serve --set trace=true               # table + trace file
    REPRO_SWEEP_WORKERS=1 repro run serve          # sweep points serially

Every malformed input (a ``--spec`` file, a ``--set`` pair, a value
out of range) exits 2 with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import registry
from repro.api.spec import ScenarioSpec
from repro.errors import ReproError, SpecError

EXPORT_FORMATS = ("json", "csv", "txt")


def _parse_set(pairs: "list[str]") -> dict:
    """``key=value`` pairs -> override mapping (values parse as JSON,
    falling back to the raw string, so ``--set training.model=6B`` and
    ``--set training.epochs=16`` both do what they look like)."""
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SpecError(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return overrides


def _overrides(args: argparse.Namespace) -> dict:
    # Top-level assignment/admission/discipline shorthands expand to
    # their policy.* paths here, so --spec-only and sweep-axis pinning
    # both see the real dotted path.
    overrides = registry.expand_overrides(_parse_set(args.set))
    if args.epochs is not None:
        overrides.setdefault("training.epochs", args.epochs)
    if args.seed is not None:
        overrides.setdefault("seed", args.seed)
    return overrides


def _base_spec(args: argparse.Namespace) -> "ScenarioSpec | None":
    """Load --spec FILE: either a bare ScenarioSpec JSON (--spec-only)
    or a full export artifact, whose spec lives under "scenario"."""
    if args.spec is None:
        return None
    try:
        with open(args.spec) as handle:
            data = json.load(handle)
    except OSError as error:
        raise SpecError(f"cannot read --spec file: {error}") from None
    except json.JSONDecodeError as error:
        raise SpecError(f"{args.spec} is not valid JSON: {error}") from None
    if isinstance(data, dict) and isinstance(data.get("scenario"), dict):
        data = data["scenario"]
    return ScenarioSpec.from_dict(data)


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", choices=registry.names(),
                        help="which registered scenario to use")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a spec field by dotted path "
                             "(repeatable); values parse as JSON")
    parser.add_argument("--epochs", type=int, default=None,
                        help="shorthand for --set training.epochs=N")
    parser.add_argument("--seed", type=int, default=None,
                        help="shorthand for --set seed=N (every scenario "
                             "takes one)")
    parser.add_argument("--spec", metavar="FILE", default=None,
                        help="load the base ScenarioSpec from a JSON file "
                             "(e.g. one written by `repro export`) instead "
                             "of the scenario's default")


def _trace_point(scenario: ScenarioSpec) -> tuple:
    """Run the scenario's *first* sweep point with tracing forced on.

    Sweeps discard per-point traces (their rows must stay small and
    JSON-serializable for the determinism suite), so the CLI traces one
    representative point through a :class:`~repro.api.session.Session`.
    Returns ``(point_spec, TraceResult)``.
    """
    from repro.api.session import Session

    point = scenario.sweep_points()[0].override({"obs.trace": True})
    session = Session(point)
    session.run()
    return point, session.runner.trace_result


def _write_trace(scenario: ScenarioSpec, name: str, out_dir: str,
                 jsonl: bool = False) -> "list[str]":
    """Trace the scenario's first point and write the export file(s)."""
    import os

    point, trace = _trace_point(scenario)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    chrome_path = os.path.join(out_dir, f"{name}_trace.json")
    trace.write_chrome(chrome_path)
    written.append(chrome_path)
    if jsonl:
        jsonl_path = os.path.join(out_dir, f"{name}_trace.jsonl")
        trace.write_jsonl(jsonl_path)
        written.append(jsonl_path)
    print(f"traced 1 point of {name!r}: {trace.span_count} events",
          file=sys.stderr)
    return written


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FreeRide reproduction: run registered scenarios "
                    "(the paper's tables/figures plus the serving "
                    "capacity sweep) on the simulated substrate.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list registered scenarios")
    list_parser.add_argument("--json", action="store_true",
                             help="machine-readable listing")

    run_parser = commands.add_parser(
        "run", help="run a scenario and print its table/figure")
    _add_scenario_options(run_parser)
    run_parser.add_argument("--export", metavar="DIR", default=None,
                            help="also write json/csv/txt artifacts here")

    trace_parser = commands.add_parser(
        "trace", help="run one point of a scenario with span tracing on "
                      "and write a Chrome trace-event JSON (open it in "
                      "Perfetto / chrome://tracing)")
    _add_scenario_options(trace_parser)
    trace_parser.add_argument("--out", metavar="DIR", default="artifacts",
                              help="trace directory (default: artifacts/)")
    trace_parser.add_argument("--jsonl", action="store_true",
                              help="also write the flat JSONL event log")

    export_parser = commands.add_parser(
        "export", help="run a scenario and write its artifacts")
    _add_scenario_options(export_parser)
    export_parser.add_argument("--out", metavar="DIR", default="artifacts",
                               help="artifact directory (default: "
                                    "artifacts/)")
    export_parser.add_argument("--format", choices=EXPORT_FORMATS + ("all",),
                               default="all",
                               help="which artifact(s) to write")
    export_parser.add_argument("--spec-only", action="store_true",
                               help="print the scenario `run` would "
                                    "execute as spec JSON and exit "
                                    "without running")

    fuzz_parser = commands.add_parser(
        "fuzz", help="draw seeded random scenarios, run each one, and "
                     "check every global invariant plus the equivalence "
                     "frames (pool/streaming/traced/roundtrip); "
                     "failures are shrunk to minimal repro specs")
    fuzz_parser.add_argument("--seed", type=int, default=0,
                             help="base seed; case i uses seed+i "
                                  "(default: 0)")
    fuzz_parser.add_argument("--count", type=int, default=50, metavar="N",
                             help="number of fuzz cases (default: 50)")
    fuzz_parser.add_argument("--kind", action="append", default=None,
                             choices=("batch", "serving", "cluster",
                                      "pipeline"),
                             help="restrict drawn scenario kinds "
                                  "(repeatable; default: all)")
    fuzz_parser.add_argument("--corpus", metavar="DIR",
                             default="artifacts/fuzz-corpus",
                             help="where shrunk failing specs are written "
                                  "(default: artifacts/fuzz-corpus)")
    fuzz_parser.add_argument("--frames", type=int, default=None,
                             metavar="N",
                             help="equivalence frames per case, rotated "
                                  "across cases (default: all applicable)")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="report failures without minimizing "
                                  "them")

    args = parser.parse_args(argv)

    if args.command == "fuzz":
        if args.count < 1:
            fuzz_parser.error(f"--count must be at least 1, got {args.count}")
        if args.frames is not None and args.frames < 0:
            fuzz_parser.error(
                f"--frames must be at least 0, got {args.frames}")
        from repro.fuzz import FUZZ_KINDS, fuzz_many

        def progress(index: int, case) -> None:
            if (index + 1) % 25 == 0:
                print(f"fuzz: {index + 1}/{args.count} cases...",
                      file=sys.stderr)

        try:
            report = fuzz_many(
                args.seed,
                args.count,
                kinds=tuple(args.kind) if args.kind else FUZZ_KINDS,
                corpus_dir=args.corpus,
                frame_budget=args.frames,
                shrink_failures=not args.no_shrink,
                progress=progress,
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(report.render())
        return 0 if report.ok else 1

    if args.command == "list":
        if args.json:
            print(json.dumps(registry.describe(), indent=2))
        else:
            for entry in registry.describe():
                print(f"{entry['name']:<10s} [{entry['kind']}] "
                      f"{entry['title']}")
        return 0

    try:
        base = _base_spec(args)
        overrides = _overrides(args)
        if args.command == "export" and args.spec_only:
            print(registry.resolve_scenario(
                args.scenario, overrides=overrides, spec=base).to_json())
            return 0
        if args.command == "trace":
            scenario = registry.resolve_scenario(
                args.scenario, overrides=overrides, spec=base
            )
            for path in _write_trace(scenario, args.scenario, args.out,
                                     jsonl=args.jsonl):
                print(path)
            return 0
        result = registry.run(args.scenario, overrides=overrides,
                              spec=base)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.command == "run":
        print(result.render())
        if args.export:
            for path in result.write_artifacts(args.export):
                print(f"wrote {path}", file=sys.stderr)
        if result.scenario.obs.trace:
            # A sweep's per-point traces are discarded; honor the
            # request by also tracing the first point to a file.
            try:
                paths = _write_trace(
                    result.scenario, args.scenario,
                    args.export if args.export else "artifacts",
                )
            except ReproError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            for path in paths:
                print(f"wrote {path}", file=sys.stderr)
        return 0

    formats = EXPORT_FORMATS if args.format == "all" else (args.format,)
    written = result.write_artifacts(args.out, formats=formats)
    if not written:
        # Only reachable for an explicitly requested single format that
        # the experiment cannot produce (csv without tabular rows).
        print(f"error: {args.scenario} has no tabular rows; nothing to "
              f"write for --format {args.format}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
