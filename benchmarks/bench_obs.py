"""Benchmark: observability overhead, tracing off vs on.

The tentpole constraint is that the instrumentation seams are
near-free when tracing is disabled (every seam is one ``trace.enabled``
check) and cheap when enabled (emission is a list append plus a clock
read). This benchmark runs one serving point both ways and records the
ratio; the enabled-path budget is asserted here, and the disabled path
is covered by perfbench's ``serve`` workload, whose scenarios run
untraced (``perfbench/run.py --workload serve``).

Each run is timed in CPU seconds of this process
(``time.process_time``), after a garbage collection, as perfbench
times its runs: the simulation is single-threaded, and unlike wall
time, CPU time leaves out the time other processes on a shared host
hold the CPU. Each mode counts its fastest round, as perfbench keeps
each scenario's fastest pass: what other processes do to the caches
and the clock speed only ever slows a round down, so the fastest of
several interleaved rounds is the one least disturbed.
"""

from __future__ import annotations

import gc
import time

from repro.api.session import Session
from repro.experiments import common, serve

#: interleaved rounds per mode; each mode counts its fastest
ROUNDS = 5
#: enabled-path budget (<=15% was the design target), with headroom
#: for CI machine variance — the fastest-round ratio read 1.05-1.14 in
#: six runs on a shared 2-CPU x86 host
ENABLED_BUDGET = 1.30


def _point(trace: bool):
    spec = serve.default_spec().override({
        "sweep.axes": {
            "arrivals.rate_per_s": [4.0],
            "policy.admission": ["always"],
            "policy.assignment": ["least_loaded"],
        },
    })
    t_no = common.baseline_time(spec.train_config())
    horizon_s = t_no * float(spec.param("open_fraction"))
    point = spec.sweep_points({"params.horizon_s": horizon_s,
                               "params.t_no": t_no})[0]
    return point.override({"obs.trace": trace})


def _run(spec) -> float:
    # Collect the previous run's garbage first, so a collection it
    # triggers is not charged to this run (a traced run leaves many
    # spans behind).
    gc.collect()
    start = time.process_time()
    Session(spec).run().results()
    return time.process_time() - start


def test_obs_overhead(record_output):
    off_spec, on_spec = _point(trace=False), _point(trace=True)
    # Warm the workload/baseline caches outside the timed region so
    # both modes measure pure simulation.
    _run(off_spec)

    # Interleave the modes so clock drift and CI noisy neighbors reach
    # both modes' rounds alike.
    offs, ons = [], []
    for _ in range(ROUNDS):
        offs.append(_run(off_spec))
        ons.append(_run(on_spec))
    off_s, on_s = min(offs), min(ons)
    ratio = on_s / off_s if off_s > 0 else 1.0

    spans = Session(on_spec).run().runner.trace_result.span_count
    record_output(
        "obs_overhead",
        "observability overhead (one serve point, fastest of "
        f"{ROUNDS} rounds)\n"
        f"  tracing off: {off_s * 1000:7.1f} ms\n"
        f"  tracing on:  {on_s * 1000:7.1f} ms  ({spans} events)\n"
        f"  ratio:       {ratio:7.2f}x  (budget {ENABLED_BUDGET:.2f}x)",
    )
    assert spans > 0
    assert ratio <= ENABLED_BUDGET, (
        f"tracing-enabled overhead {ratio:.2f}x exceeds the "
        f"{ENABLED_BUDGET:.2f}x budget"
    )
