"""Fast docs-consistency guard (the tier-1 slice of scripts/check_docs.py).

Every registered scenario must be mentioned in API.md and README.md,
every ``REPRO_*`` variable the docs name must be read by the code, and
every CamelCase or private name in the docs' code spans must be defined
by it — so code and documentation cannot silently drift apart. The slow
half (actually *running* every example) lives in
``scripts/check_docs.py``, wired into the registry-smoke CI job.
"""

from __future__ import annotations

import importlib.util
import pathlib

from repro.api import registry

REPO = pathlib.Path(__file__).resolve().parents[1]


def _check_docs_script():
    path = REPO / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_scenario_is_documented():
    # Bare substring matching would be vacuous ("serve" is inside
    # "serving"): README must show the CLI invocation, API.md must name
    # the scenario as a code token. Same contract as
    # scripts/check_docs.py.
    for doc, pattern in (("README.md", "repro run {name}"),
                         ("API.md", "`{name}`")):
        text = (REPO / doc).read_text()
        missing = [name for name in registry.names()
                   if pattern.format(name=name) not in text]
        assert not missing, (
            f"{doc} does not document scenario(s) {missing} "
            f"(expected {pattern!r} for each)"
        )


def test_every_documented_env_var_is_read():
    assert _check_docs_script().check_env_vars_read() == []


def _env_tree(root: pathlib.Path, doc_text: str, code_text: str) -> None:
    """A repo with README.md naming variables and one source file."""
    (root / "src").mkdir()
    (root / "src" / "knobs.py").write_text(code_text)
    (root / "README.md").write_text(doc_text)


def test_env_var_check_flags_a_variable_nothing_reads(tmp_path, monkeypatch):
    module = _check_docs_script()
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(module, "ENV_DOCS", ("README.md",))
    _env_tree(tmp_path, "Set `REPRO_GONE=1` or `REPRO_KEPT=1`.\n",
              "import os\n# REPRO_GONE was removed\n"
              "KEPT = os.environ.get('REPRO_KEPT')\n")
    errors = module.check_env_vars_read()
    assert len(errors) == 1
    assert "README.md" in errors[0] and "'REPRO_GONE'" in errors[0]
    assert "REPRO_KEPT" not in errors[0]


def test_env_var_check_accepts_every_read_variable(tmp_path, monkeypatch):
    module = _check_docs_script()
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(module, "ENV_DOCS", ("README.md",))
    _env_tree(tmp_path, "`REPRO_A` and `REPRO_B_2` tune it.\n",
              'import os\nA = os.environ.get("REPRO_A")\n'
              "B = os.environ.get('REPRO_B_2')\n")
    assert module.check_env_vars_read() == []


def test_every_documented_name_is_defined():
    assert _check_docs_script().check_names_defined() == []


def test_name_check_flags_a_class_nothing_defines(tmp_path, monkeypatch):
    module = _check_docs_script()
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(module, "NAME_DOCS", ("README.md",))
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "pool.py").write_text(
        "class SharedPool:\n    pass\n\n\nPoolAlias = SharedPool\n")
    (tmp_path / "README.md").write_text(
        "Build a `SharedPool` (or `pkg.PoolAlias`), never a "
        "`SharedPoolBuilder().build()`; `Session` and `TYPE_A` are not "
        "CamelCase.\n")
    errors = module.check_names_defined()
    assert len(errors) == 1
    assert "['SharedPoolBuilder']" in errors[0]


def test_name_check_flags_a_private_name_nothing_defines(tmp_path,
                                                         monkeypatch):
    module = _check_docs_script()
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(module, "NAME_DOCS", ("README.md",))
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "driver.py").write_text(
        "class _Driver:\n    def _on_tick(self):\n        pass\n")
    (tmp_path / "README.md").write_text(
        "`_Driver._on_tick` runs each tick, not `_Driver._on_tock`; "
        "`__getattr__` and `_` are Python's.\n")
    errors = module.check_names_defined()
    assert len(errors) == 1
    assert "['_on_tock']" in errors[0]


def test_skipping_the_examples_says_so(capsys):
    assert _check_docs_script().main(["--skip-examples"]) == 0
    printed = capsys.readouterr().out
    assert "examples skipped" in printed
    assert "every example runs" not in printed


def test_architecture_doc_covers_every_subsystem():
    text = (REPO / "ARCHITECTURE.md").read_text()
    packages = sorted(
        path.name for path in (REPO / "src" / "repro").iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    )
    missing = [name for name in packages
               if f"repro/{name}/" not in text]
    assert not missing, (
        f"ARCHITECTURE.md does not cover subsystem(s) {missing}"
    )


def test_architecture_doc_is_linked():
    for doc in ("README.md", "API.md"):
        assert "ARCHITECTURE.md" in (REPO / doc).read_text(), (
            f"{doc} should link ARCHITECTURE.md"
        )
