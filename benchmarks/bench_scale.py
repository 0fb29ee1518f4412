"""Benchmark: serving memory stays flat in the offered load.

Runs the perfbench ``serve`` shape (Poisson traffic, EDF worker
assignment, always-admit, a 64-deep queue) through ``Session`` at 32
training epochs in ``metrics.mode = streaming``, at two arrival rates:
about 10^5 and 10^6 offered requests over the same training run. Each
tier runs in a fresh subprocess and reads its own peak RSS.

The frontend takes its arrival stream one chunk at a time, and streaming
mode folds each request at its terminal outcome and drops it, so the
10^6 tier's peak RSS must stay within 1.5x the 10^5 tier's. The training
length is fixed, so the pool admits about as many requests in both
tiers (their runtimes stay in ``worker.all_tasks`` until the run ends);
the extra load of the larger tier is rejected at the full queue and must
cost no memory. Both tiers must also conserve requests.

One tier by hand: ``PYTHONPATH=src python benchmarks/bench_scale.py
720`` prints its JSON row.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import subprocess
import sys
import time

from repro.api.session import Session
from repro.api.spec import (
    ArrivalSpec,
    MetricsSpec,
    PolicySpec,
    ScenarioSpec,
    TrainingSpec,
)

REPO = pathlib.Path(__file__).resolve().parent.parent
#: training epochs of both tiers (about 138 s of simulated time open to
#: traffic)
EPOCHS = 32
#: arrival rates (requests/s) giving about 10^5 and 10^6 offered requests
TIERS = (720.0, 7200.0)
#: the 10^6 tier's peak RSS may be at most this multiple of the 10^5
#: tier's
RSS_BOUND = 1.5


def run_tier(rate_per_s: float) -> dict:
    """One tier in this process: request counts, CPU time, peak RSS."""
    spec = ScenarioSpec(
        name="scale",
        kind="serving",
        seed=1,
        training=TrainingSpec(epochs=EPOCHS),
        arrivals=ArrivalSpec(kind="poisson", rate_per_s=rate_per_s),
        policy=PolicySpec(assignment="edf", admission="always"),
        metrics=MetricsSpec(mode="streaming"),
    )
    start = time.process_time()
    metrics = Session(spec).run().results().metrics
    cpu_s = time.process_time() - start
    return {
        "rate_per_s": rate_per_s,
        "offered": metrics.offered,
        "admitted": metrics.admitted,
        "rejected": metrics.rejected,
        "completed": metrics.completed,
        "failed": metrics.failed,
        "unserved": metrics.unserved,
        "cpu_s": round(cpu_s, 3),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def peak_rss_bytes() -> int:
    """This program's peak resident set size.

    Linux's ``VmHWM`` is the peak of this program's own memory. A spawned
    process's ``ru_maxrss`` also counts the memory of the process that
    spawned it (a pytest run that has built every figure, say), so it is
    only the fallback.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024


def _run_in_subprocess(rate_per_s: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    completed = subprocess.run(
        [sys.executable, __file__, repr(rate_per_s)],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _render(rows: list[dict]) -> str:
    lines = [
        f"serving memory against offered load ({EPOCHS} epochs, "
        "streaming metrics)",
        f"{'rate/s':>8}  {'offered':>9}  {'admitted':>8}  "
        f"{'completed':>9}  {'CPU':>7}  {'peak RSS':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['rate_per_s']:>8,.0f}  {row['offered']:>9,}  "
            f"{row['admitted']:>8,}  {row['completed']:>9,}  "
            f"{row['cpu_s']:>6.1f}s  "
            f"{row['peak_rss_bytes'] / 1e6:>7.1f}MB"
        )
    return "\n".join(lines)


def test_memory_is_flat_in_offered_requests(record_output, out_dir):
    rows = [_run_in_subprocess(rate) for rate in TIERS]
    (out_dir / "scale_ladder.json").write_text(
        json.dumps(rows, indent=2) + "\n")
    record_output("scale_ladder", _render(rows))

    small, big = rows
    assert small["offered"] > 90_000 and big["offered"] > 900_000
    for row in rows:
        assert row["offered"] == row["admitted"] + row["rejected"], row
        assert row["admitted"] == (row["completed"] + row["failed"]
                                   + row["unserved"]), row
        assert row["completed"] > 0, row
    ratio = big["peak_rss_bytes"] / small["peak_rss_bytes"]
    assert ratio <= RSS_BOUND, (
        f"peak RSS grew {ratio:.2f}x from {small['offered']:,} to "
        f"{big['offered']:,} offered requests; streaming mode should be "
        "flat"
    )


if __name__ == "__main__":
    print(json.dumps(run_tier(float(sys.argv[1]))))
