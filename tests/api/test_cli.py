"""CLI tests for the registry-backed `repro` command."""

from __future__ import annotations

import json

import pytest

from repro.api import registry
from repro.api.results import ResultSet
from repro.api.spec import ScenarioSpec
from repro.cli import main

FIG1_JSON = registry.get("fig1").spec().to_json()
SERVE_SPEC = registry.get("serve").spec()


def test_list_names_every_scenario(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "table2", "serve", "ablations"):
        assert name in out


def test_list_json_is_machine_readable(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {entry["name"] for entry in payload} >= {"fig1", "serve"}
    assert all({"name", "title", "kind"} <= set(entry) for entry in payload)


def test_run_with_set_overrides(capsys):
    assert main(["run", "fig1", "--set", "training.micro_batches=8"]) == 0
    assert "Figure 1(a)" in capsys.readouterr().out


def test_export_spec_only_round_trips(capsys):
    assert main(["export", "fig1", "--spec-only", "--seed", "5"]) == 0
    from repro.api.spec import ScenarioSpec

    spec = ScenarioSpec.from_json(capsys.readouterr().out)
    assert spec.name == "fig1"
    assert spec.seed == 5


def test_run_from_spec_file(tmp_path, capsys):
    assert main(["export", "fig1", "--spec-only"]) == 0
    spec_path = tmp_path / "fig1.json"
    spec_path.write_text(capsys.readouterr().out)
    assert main(["run", "fig1", "--spec", str(spec_path)]) == 0
    assert "Figure 1(a)" in capsys.readouterr().out


def test_run_from_exported_artifact(tmp_path, capsys):
    """The documented flow: `repro export` then `repro run --spec` on
    the artifact itself (the spec lives under its "scenario" key)."""
    assert main(["export", "fig1", "--out", str(tmp_path),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["run", "fig1", "--spec", str(tmp_path / "fig1.json")]) == 0
    assert "Figure 1(a)" in capsys.readouterr().out


def test_export_writes_artifacts(tmp_path, capsys):
    assert main(["export", "fig1", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert (tmp_path / "fig1.json").exists()
    assert (tmp_path / "fig1.csv").exists()
    assert (tmp_path / "fig1.txt").exists()


def test_export_single_format(tmp_path, capsys):
    assert main(["export", "fig1", "--out", str(tmp_path),
                 "--format", "json"]) == 0
    assert (tmp_path / "fig1.json").exists()
    assert not (tmp_path / "fig1.csv").exists()


def test_export_explicit_csv_without_rows_fails_loudly(tmp_path, capsys):
    """fig8 has no tabular rows: --format csv must not exit 0 having
    written nothing."""
    assert main(["export", "fig8", "--out", str(tmp_path),
                 "--format", "csv"]) == 2
    assert "no tabular rows" in capsys.readouterr().err
    assert not (tmp_path / "fig8.csv").exists()


def test_trace_writes_chrome_trace_json(tmp_path, capsys):
    assert main(["trace", "serve", "--epochs", "1",
                 "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    path = tmp_path / "serve_trace.json"
    assert str(path) in captured.out
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    assert events
    categories = {event.get("cat") for event in events}
    assert "serving.admission" in categories or "serving.queue" in categories
    assert "serving.service" in categories
    # one named track per worker stage
    threads = {event["args"]["name"] for event in events
               if event["ph"] == "M" and event["name"] == "thread_name"}
    assert any(name.startswith("stage") for name in threads)


def test_trace_jsonl_flag_adds_event_log(tmp_path, capsys):
    assert main(["trace", "fig1", "--epochs", "1", "--out", str(tmp_path),
                 "--jsonl"]) == 0
    jsonl_path = tmp_path / "fig1_trace.jsonl"
    assert jsonl_path.exists()
    lines = jsonl_path.read_text().splitlines()
    assert lines
    assert all(json.loads(line)["ph"] in ("X", "i") for line in lines)


def test_run_with_trace_sugar_also_writes_trace(tmp_path, capsys):
    assert main(["run", "serve", "--epochs", "1", "--set", "trace=true",
                 "--set", 'sweep.axes={"arrivals.rate_per_s": [4.0]}',
                 "--export", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "serving capacity" in captured.out.lower() or captured.out
    trace_path = tmp_path / "serve_trace.json"
    assert trace_path.exists()
    assert json.loads(trace_path.read_text())["traceEvents"]


@pytest.mark.parametrize("argv", [["sweep", "fig1", "--backend", "serial"],
                                  ["worker", "queue.db"]])
def test_removed_verbs_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _spec_file(tmp_path, text: str) -> "list[str]":
    path = tmp_path / "spec.json"
    path.write_text(text)
    return ["--spec", str(path)]


#: (label, extra argv built in a scratch directory, a phrase the error
#: line names); each is one way to hand the CLI a malformed input
BAD_INPUTS = [
    ("missing spec file",
     lambda tmp: ["--spec", str(tmp / "missing.json")],
     "cannot read --spec file"),
    ("spec is a directory",
     lambda tmp: ["--spec", str(tmp)],
     "cannot read --spec file"),
    ("truncated spec",
     lambda tmp: _spec_file(tmp, FIG1_JSON[:len(FIG1_JSON) // 2]),
     "is not valid JSON"),
    ("spec is a JSON list",
     lambda tmp: _spec_file(tmp, "[1, 2]"),
     "expects a mapping"),
    ("spec is a JSON number",
     lambda tmp: _spec_file(tmp, "3"),
     "expects a mapping"),
    ("spec has an unknown field",
     lambda tmp: _spec_file(
         tmp, json.dumps({**json.loads(FIG1_JSON), "bogus": 1})),
     "unknown ScenarioSpec field"),
    ("spec of another kind",
     lambda tmp: _spec_file(tmp, SERVE_SPEC.to_json()),
     "different experiment"),
    ("artifact of another kind",
     lambda tmp: _spec_file(
         tmp, ResultSet("serve", SERVE_SPEC, None, str).to_json()),
     "different experiment"),
    ("set without =",
     lambda tmp: ["--set", "nonsense"],
     "expects key=value"),
    ("set of an unknown path",
     lambda tmp: ["--set", "training.epoch=2"],
     "unknown TrainingSpec field"),
    ("set of a wrong type",
     lambda tmp: ["--set", "training.epochs=abc"],
     "expected an integer"),
    ("zero epochs",
     lambda tmp: ["--epochs", "0"],
     "training.epochs must be an integer >= 1"),
]
#: every verb that reads a scenario spec, with its output directory
VERBS = {
    "run": ["run", "fig1"],
    "export-spec-only": ["export", "fig1", "--spec-only"],
    "export-out": ["export", "fig1", "--out", "{out}"],
    "trace-out": ["trace", "fig1", "--out", "{out}"],
}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("build, phrase",
                         [entry[1:] for entry in BAD_INPUTS],
                         ids=[entry[0] for entry in BAD_INPUTS])
def test_malformed_input_exits_2_with_one_error_line(verb, build, phrase,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in VERBS[verb]] + build(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert phrase in lines[0]
    assert not out.exists()


#: every (scenario, swept axis) pair of the registered default specs
SWEPT_AXES = [
    (name, axis)
    for name in registry.names()
    if registry.get(name).spec().sweep is not None
    for axis in registry.get(name).spec().sweep.axes
]


@pytest.mark.parametrize("name, axis", SWEPT_AXES,
                         ids=[f"{name}-{axis}" for name, axis in SWEPT_AXES])
def test_spec_only_prints_the_scenario_run_executes(name, axis, capsys):
    value = registry.get(name).spec().sweep.axes[axis][0]
    assert main(["export", name, "--spec-only",
                 "--set", f"{axis}={json.dumps(value)}"]) == 0
    printed = ScenarioSpec.from_json(capsys.readouterr().out)
    assert printed == registry.resolve_scenario(name, {axis: value})
