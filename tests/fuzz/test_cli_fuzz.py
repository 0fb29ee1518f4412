"""The ``repro fuzz`` verb and the ``fuzzcase`` replay experiment."""

from __future__ import annotations

import json

import pytest

from repro.api import registry
from repro.cli import main
from repro.fuzz import draw_spec


def test_fuzz_verb_runs_and_reports(tmp_path, capsys):
    assert main(["fuzz", "--seed", "0", "--count", "3", "--frames", "1",
                 "--corpus", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "3 cases from seed 0" in out
    assert "OK" in out


def test_fuzz_verb_kind_filter(tmp_path, capsys):
    assert main(["fuzz", "--seed", "0", "--count", "2", "--frames", "0",
                 "--kind", "batch", "--corpus", str(tmp_path)]) == 0
    assert "batch=2" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--count", "0"], "--count must be at least 1"),
    (["--count", "-3"], "--count must be at least 1"),
    (["--frames", "-1"], "--frames must be at least 0"),
])
def test_fuzz_verb_rejects_bad_counts(tmp_path, capsys, args, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--corpus", str(tmp_path), *args])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_fuzzcase_is_registered_and_any_kind():
    definition = registry.get("fuzzcase")
    assert definition.any_kind
    assert "fuzzcase" in registry.names()


def test_fuzzcase_default_run(capsys):
    assert main(["run", "fuzzcase"]) == 0
    out = capsys.readouterr().out
    assert "fuzzcase" in out
    assert "OK" in out


def test_fuzzcase_replays_any_kind_spec(tmp_path, capsys):
    """Corpus specs can be any kind; every other experiment would reject
    a kind-mismatched --spec file."""
    for seed, kind in ((0, "batch"), (1, "serving")):
        spec = draw_spec(seed, kinds=(kind,))
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"scenario": spec.to_dict()}))
        assert main(["run", "fuzzcase", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"[{kind}]" in out
        assert "OK" in out


def test_other_experiments_still_reject_kind_mismatch(tmp_path, capsys):
    spec = draw_spec(0, kinds=("batch",))
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenario": spec.to_dict()}))
    assert main(["run", "serve", "--spec", str(path)]) == 2
    assert "kind" in capsys.readouterr().err
