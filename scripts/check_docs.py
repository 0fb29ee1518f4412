"""Docs-consistency check: the documentation must track the code.

Run by the registry-smoke CI job (see .github/workflows/tests.yml) and
fine to run locally::

    PYTHONPATH=src python scripts/check_docs.py [--skip-examples]

Four invariants:

1. every scenario in ``repro list`` is documented — its name appears in
   API.md and in README.md (a scenario nobody can discover from the
   docs is a regression);
2. every ``examples/*.py`` runs to completion under the tier-1
   interpreter (an example that crashes is worse than no example);
3. every ``REPRO_*`` environment variable the docs name is read by
   code under ``src/``, ``benchmarks/`` or ``scripts/`` — it appears
   there as a quoted string literal (a documented knob that nothing
   reads silently does nothing);
4. every CamelCase name and every private (``_``-prefixed, not dunder)
   name in an inline code span of API.md, ARCHITECTURE.md or README.md
   is defined — by a ``class``, a ``def`` or an assignment — under
   ``src/``, ``perfbench/``, ``scripts/`` or ``examples/``, or is a
   Python builtin (a class or internal the docs send readers to must
   exist).

Invariants 1, 3 and 4 also run in the tier-1 suite
(``tests/test_docs.py``); this script adds the slow example-execution
sweep.
"""

from __future__ import annotations

import ast
import builtins
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
#: how each document must reference a scenario — bare substring
#: matching would be vacuous (every doc contains "serve" inside
#: "serving"), so README must show the CLI invocation and API.md must
#: name the scenario as a code token
SCENARIO_DOCS = {
    "README.md": "repro run {name}",
    "API.md": "`{name}`",
}


def check_scenarios_documented() -> "list[str]":
    from repro.api import registry

    errors = []
    for doc, pattern in SCENARIO_DOCS.items():
        text = (REPO / doc).read_text()
        missing = [name for name in registry.names()
                   if pattern.format(name=name) not in text]
        if missing:
            errors.append(
                f"{doc} does not document scenario(s) {missing} "
                f"(expected {pattern!r} for each; repro list knows "
                "more than the docs)"
            )
    return errors


#: documents whose REPRO_* variables must be read by the code
ENV_DOCS = ("README.md", "API.md", "ARCHITECTURE.md", "PERFORMANCE.md",
            ".claude/skills/verify/SKILL.md")
ENV_CODE_DIRS = ("src", "benchmarks", "scripts")
ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]+")


def check_env_vars_read() -> "list[str]":
    code = "\n".join(
        path.read_text()
        for directory in ENV_CODE_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
    )
    errors = []
    for doc in ENV_DOCS:
        named = sorted(set(ENV_VAR.findall((REPO / doc).read_text())))
        unread = [name for name in named
                  if f'"{name}"' not in code and f"'{name}'" not in code]
        if unread:
            errors.append(
                f"{doc} names environment variable(s) {unread} that no "
                "code under src/, benchmarks/ or scripts/ reads"
            )
    return errors


#: documents whose CamelCase and private code names must be defined by
#: the code
NAME_DOCS = ("API.md", "ARCHITECTURE.md", "README.md")
NAME_CODE_DIRS = ("src", "perfbench", "scripts", "examples")
#: names the docs borrow from libraries and from the paper
FOREIGN_NAMES = {
    "ProcessPoolExecutor",  # concurrent.futures
    "RandomState",  # numpy.random
    "RunNextStep",  # the paper's imperative-interface call
}
CODE_SPAN = re.compile(r"`([^`\n]+)`")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_camel_case(word: str) -> bool:
    return (word[0].isupper() and "_" not in word
            and sum(char.isupper() for char in word) >= 2
            and any(char.islower() for char in word))


def _defined_names() -> "set[str]":
    names = set()
    for directory in NAME_CODE_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    names.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store):
                    names.add(node.attr)
    return names


def _is_checked(word: str) -> bool:
    """CamelCase names, and private ones; a dunder is Python's own."""
    if word.startswith("_"):
        return len(word) > 1 and not word.startswith("__")
    return _is_camel_case(word)


def check_names_defined() -> "list[str]":
    defined = _defined_names() | FOREIGN_NAMES | set(vars(builtins))
    errors = []
    for doc in NAME_DOCS:
        spans = CODE_SPAN.findall((REPO / doc).read_text())
        undefined = sorted({
            word for span in spans for word in IDENTIFIER.findall(span)
            if _is_checked(word) and word not in defined
        })
        if undefined:
            errors.append(
                f"{doc} names {undefined}, which nothing under "
                f"{', '.join(NAME_CODE_DIRS)} defines"
            )
    return errors


def check_examples_run() -> "list[str]":
    errors = []
    env_path = f"{REPO / 'src'}"
    for example in sorted((REPO / "examples").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(example)],
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin",
                 "REPRO_SWEEP_WORKERS": "1"},
            capture_output=True, text=True, timeout=600, cwd=REPO,
        )
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-5:])
            errors.append(
                f"examples/{example.name} exited {proc.returncode}:\n{tail}"
            )
        else:
            print(f"ok: examples/{example.name}")
    return errors


def main(argv: "list[str]") -> int:
    errors = (check_scenarios_documented() + check_env_vars_read()
              + check_names_defined())
    if "--skip-examples" not in argv:
        errors += check_examples_run()
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if not errors:
        examples = ("examples skipped" if "--skip-examples" in argv
                    else "every example runs")
        print("docs consistent: every scenario documented, "
              "every documented env var read, every documented name "
              f"defined, {examples}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
