"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures, prints
the paper-like rendering, and writes it under ``benchmarks/out/`` so the
results can be diffed against EXPERIMENTS.md. Runs are deterministic, so
a single benchmark round is meaningful; the benchmark timer measures the
full experiment (simulation + analysis).

Every benchmark also writes ``benchmarks/out/BENCH_<name>.json`` with its
wall time and simulation-event throughput, so the performance trajectory
is tracked across PRs — ``scripts/perf_guard.py`` compares these records
against the committed ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.sim import engine as sim_engine

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


def _clear_experiment_caches() -> None:
    """Cold-start each benchmark so BENCH_*.json records are comparable
    regardless of which benchmarks ran earlier in the session."""
    from repro.experiments import common
    from repro.pipeline import engine as pipeline_engine
    from repro.workloads import (
        datasets,
        graph_analytics,
        image_processing,
        model_training,
    )

    common.run_replicated.cache_clear()
    common.baseline_time.cache_clear()
    pipeline_engine._profile_bubbles_cached.cache_clear()
    graph_analytics._PAGERANK_TRAJECTORIES.clear()
    graph_analytics._GRAPH_SGD_TRAJECTORIES.clear()
    model_training._SGD_TRAJECTORIES.clear()
    image_processing._OUTPUT_CACHE.clear()
    datasets._cached_power_law_graph.cache_clear()
    datasets._cached_image_pool.cache_clear()
    datasets.SyntheticClassificationData.generate.cache_clear()
    datasets.SyntheticRatings.generate.cache_clear()


@pytest.fixture(autouse=True)
def bench_timing(request, out_dir):
    """Record wall time, events/sec and peak RSS for every benchmark.

    Event counts cover the engines of this process plus the deltas that
    parallel sweep workers report back through ``experiments.common``.
    ``peak_rss_bytes`` is the *process-lifetime* high-water mark at the
    benchmark's end — monotone across a session, so it bounds (rather
    than isolates) each benchmark's footprint; per-tier isolation is
    what ``bench_scale``'s fresh subprocesses are for.
    """
    from repro.serving.scale import peak_rss_bytes

    _clear_experiment_caches()
    events_before = sim_engine.total_events_processed()
    start = time.perf_counter()
    yield
    wall_s = time.perf_counter() - start
    events = sim_engine.total_events_processed() - events_before
    name = request.node.name
    payload = {
        "benchmark": name,
        "wall_s": round(wall_s, 6),
        "events": events,
        "events_per_s": round(events / wall_s) if wall_s > 0 else 0,
        "peak_rss_bytes": peak_rss_bytes(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out_dir / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
