"""Real-stack benchmark of the FreeRide reproduction.

Runs one workload (see ``scenarios.py``) over and over for a fixed wall
time, serially in one process, each run a fresh scenario seeded from
``--seed``, and prints one JSON object as its last line::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

Times are CPU time (``time.process_time``; the program is
single-threaded), so time the process spends waiting for a core on a
busy host is left out. What other processes still do to its speed, a
busy sibling hyperthread or a shared cache, is divided out by a
reference: just before each timed scenario the benchmark times a fixed
plain-Python event loop (``reference_s``), and scales the scenario's
times by ``REFERENCE_S`` over the median of the last
``REFERENCE_WINDOW`` such timings. A time is thus the scenario's time
on a host as fast as the one the benchmark was tuned on, where the loop
took ``REFERENCE_S``; on that host, unloaded, it is the CPU time.

The window has ``PASSES`` passes. Pass one sets up and runs fresh
scenarios for a ``PASSES``-th of the window. Each later pass runs the
same seeds again, until the window ends: their outputs must be
byte-identical to the first run's, and a scenario's run time is the
fastest of its runs, which discounts a burst of load from other
processes that slows some of them. Set-up is timed the same way, but as
the program caches the baselines a set-up computes, a later pass times
the set-up of a fresh sibling seed.

With ``--trace 0`` the metrics are the end-to-end timings: the median
and 75th percentile run time of one scenario, and the median set-up
time. (A 30-second run measures about 30 to 130 scenarios, so at least
seven lie beyond the 75th percentile.) With ``--trace 1`` pass one runs
under cProfile, unscaled, and the metrics are per layer of ``repro``:
self time and function calls per scenario (see ``layers.py``), plus the
event engine's event count and the side-task layer's steps and bubble
utilization. The layers' self times add up to the profiled time of one
scenario; against an untraced run's set-up plus run time, that is the
profiler's overhead (about 4x).

Every run's outputs are also checked against the paper's accounting
(``Scenario.check``). Run from the repository root; the program is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import gc
import heapq
import json
import pathlib
import random
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: the layers ``--trace 1`` reports, in the order of BENCHMARK.json
LAYERS = ("sim", "gpu", "pipeline", "core", "workloads", "serving",
          "cluster", "metrics", "obs", "api")
#: scenario seeds of one benchmark run are ``seed * SEED_STRIDE +
#: i * SCENARIO_STRIDE``; a later pass times the set-up of a sibling,
#: scenario seed plus ``pass * SIBLING_STRIDE``. A cluster scenario
#: seeds job j with its seed plus j, so with fewer than SIBLING_STRIDE
#: jobs no two scenarios share a seed and none finds another's
#: no-side-task baseline cached in its set-up.
SEED_STRIDE = 100_000
SCENARIO_STRIDE = 16
SIBLING_STRIDE = 4
#: runs of each scenario, about a quarter of the window apart; the
#: fastest counts. On the shared 2-CPU host this was tuned on, other
#: processes slow this one by 10 to 60% for seconds at a time.
PASSES = 4
#: the clock of every timed region
clock = time.process_time
#: the reference loop: its events, queue length and table size (larger
#: than a core's private caches, as the program's objects are), and its
#: CPU seconds on the host the benchmark was tuned on, unloaded
REFERENCE_EVENTS = 8_000
REFERENCE_QUEUE = 1024
REFERENCE_TABLE = 1 << 18
REFERENCE_S = 0.0078
#: reference timings a scale is the median of; one slow timing does
#: not move it
REFERENCE_WINDOW = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_s() -> float:
    """CPU seconds of a fixed plain-Python event loop: timed events
    popped from a heap, folded into a large table and rescheduled, the
    kind of work the program does, with none of its code."""
    rng = random.Random(0)
    queue = [(rng.random(), key) for key in range(REFERENCE_QUEUE)]
    heapq.heapify(queue)
    table = [0.0] * REFERENCE_TABLE
    slot = 0
    start = clock()
    for _ in range(REFERENCE_EVENTS):
        now, key = heapq.heappop(queue)
        slot = (slot * 1_103_515_245 + key) % REFERENCE_TABLE
        table[slot] += now
        heapq.heappush(queue, (now + rng.expovariate(1.0),
                               (key * 7 + 3) % REFERENCE_QUEUE))
    return clock() - start


def timed_run(scenario, recent, profiler=None, run=True) -> tuple:
    """``(setup_s, run_s, outcome, problems)`` of one scenario; with
    ``run=False`` it is only set up. Unless profiled, the times are
    scaled to the reference host by the ``recent`` reference timings,
    to which this adds one."""
    gc.collect()
    scale = 1.0
    if profiler is None:
        recent.append(reference_s())
        scale = REFERENCE_S / statistics.median(recent)
    else:
        profiler.enable()
    try:
        start = clock()
        scenario.setup()
        prepared = clock()
        outcome = scenario.run() if run else None
        finished = clock()
    except Exception:  # a crashed scenario is one failed operation
        return 0.0, 0.0, None, [traceback.format_exc()]
    finally:
        if profiler is not None:
            profiler.disable()
    problems = scenario.check(outcome) if run else []
    return ((prepared - start) * scale, (finished - prepared) * scale,
            outcome, problems)


def measure(workload, base_seed: int, seconds: float, profiler=None) -> dict:
    """``PASSES`` passes over fresh scenarios in ``seconds`` of wall time."""
    warmup = workload(base_seed)  # fills the program's caches, untimed
    warmup.setup()
    warmup.run()
    recent = collections.deque([reference_s()], maxlen=REFERENCE_WINDOW)
    # What is alive now lives for the whole run; frozen, it is left out
    # of the collection before each timed region, which would otherwise
    # scan it (about 12 ms each time).
    gc.freeze()
    attempted = 0
    problems: list[str] = []
    first = {}  # seed -> outcome of its first run
    fastest = {}  # seed -> [setup_s, run_s], each the fastest seen
    start = time.perf_counter()
    while time.perf_counter() < start + seconds / PASSES:
        attempted += 1
        seed = base_seed + attempted * SCENARIO_STRIDE
        setup_s, run_s, outcome, found = timed_run(workload(seed), recent,
                                                   profiler)
        if found:
            problems.append(f"seed {seed}: {found}")
        else:
            first[seed] = outcome
            fastest[seed] = [setup_s, run_s]
    for later in range(1, PASSES):
        for seed in list(fastest):
            if time.perf_counter() > start + seconds:
                break
            attempted += 2
            # A rerun's set-up finds its baselines cached; a sibling
            # seed's set-up, not run, is timed in its place.
            sibling = seed + later * SIBLING_STRIDE
            setup_s, _, _, found = timed_run(workload(sibling), recent,
                                             run=False)
            if found:
                problems.append(f"seed {sibling}: {found}")
            else:
                fastest[seed][0] = min(fastest[seed][0], setup_s)
            _, run_s, again, found = timed_run(workload(seed), recent)
            if not found and again.fingerprint() != first[seed].fingerprint():
                found = ["outputs differ from the first run's"]
            if found:
                problems.append(f"seed {seed}: {found}")
                del fastest[seed]
            else:
                fastest[seed][1] = min(fastest[seed][1], run_s)
    return {
        "attempted": attempted,
        "problems": problems,
        "samples": list(fastest.values()),
        "outcomes": [first[seed] for seed in fastest],
    }


def end_to_end(samples) -> dict:
    run_ms = [run_s * 1000.0 for _, run_s in samples]
    return {
        "run_p50_ms": (statistics.median(run_ms), "ms"),
        "run_p75_ms": (statistics.quantiles(run_ms, n=4)[-1], "ms"),
        "setup_s": (statistics.median(setup_s for setup_s, _ in samples),
                    "s"),
    }


def per_layer(profiler, outcomes) -> dict:
    import layers

    profiler.create_stats()
    layer_of = layers.layer_resolver(str(PACKAGE), LAYERS)
    seconds, calls = layers.attribute(profiler.stats, layer_of)
    runs = len(outcomes)
    metrics = {}
    for layer in (*LAYERS, layers.OTHER):
        metrics[f"{layer}.self_ms"] = (
            seconds.get(layer, 0.0) * 1000.0 / runs, "ms")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0.0) / runs, "count")
    for name, unit in (("sim.events", "count"),
                       ("core.side_task_steps", "count"),
                       ("core.bubble_utilization", "ratio")):
        metrics[name] = (statistics.fmean(outcome.counts[name]
                                          for outcome in outcomes), unit)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no program sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import scenarios

    workload = scenarios.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(scenarios.WORKLOADS)}", file=sys.stderr)
        return 2
    profiler = cProfile.Profile() if args.trace else None
    result = measure(workload, args.seed * SEED_STRIDE, args.seconds, profiler)
    samples, outcomes = result["samples"], result["outcomes"]
    for problem in result["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    needed = 1 if args.trace else 4  # quartiles need a few
    if len(samples) < needed:
        print(f"perfbench: only {len(samples)} correct scenarios; need "
              f"{needed}", file=sys.stderr)
        return 1
    metrics = per_layer(profiler, outcomes) if args.trace else end_to_end(
        samples)
    print(f"workload {args.workload}: {len(samples)} scenarios, each run "
          f"up to {PASSES} times; first scenario's outputs: "
          f"{outcomes[0].fingerprint()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": len(result["problems"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
