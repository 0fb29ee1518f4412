"""Shared helpers for the paper-claim checks.

Each benchmark regenerates one of the paper's tables or figures at full
size, prints the paper-like rendering, writes it under
``benchmarks/out/``, and asserts the paper's claims about it. Runs are
deterministic, so one run is meaningful. Performance is measured by
perfbench (``perfbench/run.py``), not here; ``bench_scale.py`` and
``bench_obs.py`` bound memory and tracing overhead.
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def record_output(out_dir):
    def _record(name: str, text: str) -> None:
        (out_dir / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record
