"""Scale-ladder harness: 10^5–10^7-request serving runs at flat RSS.

The full serving stack simulates every request's workload step by step —
right for fidelity, far too slow for 10^7 requests. This harness keeps
the three layers the scale ladder actually measures and swaps the
per-request workload simulation for a seeded G/G/c service model:

* **arrivals** come from the real :mod:`repro.serving.arrivals`
  processes, generated chunk-by-chunk (vectorized numpy path) through
  :meth:`~repro.serving.arrivals.ArrivalProcess.iter_time_chunks` and
  scheduled via a self-chaining driver timer, so no more than one
  chunk of future arrivals is ever pending;
* **the event core** is the real :class:`~repro.sim.engine.Engine`;
* **metrics** are the real constant-memory streaming accumulators
  (:class:`~repro.metrics.latency.StreamingLatencyStats`); ``--mode
  records`` retains per-request latency samples instead, which is the
  memory contrast the RSS column of the benchmark ladder demonstrates.

Each request occupies one of ``servers`` identical servers for an
exponentially distributed service time whose mean is derived from the
target ``utilization`` (``mean_service = servers * utilization /
rate``); a bounded FIFO queue in front rejects overflow, like the
frontend's admission queue. Everything is seeded, so the deterministic
half of :class:`ScaleResult` is byte-stable across runs and processes.

Peak RSS is read from ``resource.getrusage`` — a *lifetime* high-water
mark, which is why the benchmark ladder (``benchmarks/bench_scale.py``)
runs each tier in a fresh subprocess via this module's CLI::

    python -m repro.serving.scale --requests 1000000 --json
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import sys
import time
import typing

from repro.metrics.latency import StreamingLatencyStats, _interpolated_quantile
from repro.serving.arrivals import NAMED_ARRIVALS, make_arrivals
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams

#: Arrival rate the ladder runs at; tiers vary the request count, so the
#: horizon scales as ``requests / rate`` and queue dynamics stay alike.
DEFAULT_RATE_PER_S = 1000.0
DEFAULT_SERVERS = 8
DEFAULT_UTILIZATION = 0.8
#: Bound on the waiting line, like the frontend's admission queue — an
#: unbounded queue would make RSS a function of burst luck, not of the
#: metrics mode under test.
DEFAULT_QUEUE_CAPACITY = 256


def _exact_summary(samples: "list[float]") -> dict:
    """Exact digest over retained samples, same keys as the streaming
    one (a single end-of-run sort; ``LatencyStats``' insort-per-sample
    would be quadratic at 10^6+ observations)."""
    if not samples:
        return StreamingLatencyStats().summary()
    samples = sorted(samples)
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": _interpolated_quantile(samples, 0.50),
        "p95": _interpolated_quantile(samples, 0.95),
        "p99": _interpolated_quantile(samples, 0.99),
        "max": samples[-1],
    }


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size, in bytes."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return int(peak if sys.platform == "darwin" else peak * 1024)


@dataclasses.dataclass
class ScaleResult:
    """One scale-ladder run: a deterministic digest plus measurements.

    Everything in :meth:`summary` depends only on the seed and the run
    parameters; ``wall_s``/``events_per_s``/``peak_rss_bytes`` are
    measurements of this particular execution.
    """

    requests: int
    offered: int
    completed: int
    rejected: int
    horizon_s: float
    mode: str
    #: events the engine processed during the run
    events: int
    #: waiting-time digest (arrival -> service start), seconds
    wait: dict
    #: sojourn-time digest (arrival -> completion), seconds
    sojourn: dict
    wall_s: float = 0.0
    events_per_s: float = 0.0
    peak_rss_bytes: int = 0

    def summary(self) -> dict:
        """The seed-deterministic half (what golden tests may pin)."""
        return {
            "requests": self.requests,
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "horizon_s": self.horizon_s,
            "mode": self.mode,
            "events": self.events,
            "wait": self.wait,
            "sojourn": self.sojourn,
        }

    def to_json(self) -> dict:
        digest = self.summary()
        digest.update(
            wall_s=self.wall_s,
            events_per_s=self.events_per_s,
            peak_rss_bytes=self.peak_rss_bytes,
        )
        return digest


def run_scale(
    requests: int = 100_000,
    rate_per_s: float = DEFAULT_RATE_PER_S,
    servers: int = DEFAULT_SERVERS,
    utilization: float = DEFAULT_UTILIZATION,
    kind: str = "poisson",
    seed: int = 0,
    mode: str = "streaming",
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    vectorized: bool = True,
) -> ScaleResult:
    """Run one rung of the scale ladder and return its digest."""
    if requests <= 0:
        raise ValueError(f"request count must be positive, got {requests}")
    if not rate_per_s > 0:
        raise ValueError(f"arrival rate must be positive, got {rate_per_s}")
    if servers <= 0:
        raise ValueError(f"server count must be positive, got {servers}")
    if not 0.0 < utilization < 1.0:
        raise ValueError(
            f"utilization must be in (0, 1), got {utilization}")
    if mode not in ("records", "streaming"):
        raise ValueError(f"mode must be 'records' or 'streaming', got {mode!r}")

    horizon_s = requests / rate_per_s
    mean_service_s = servers * utilization / rate_per_s
    engine = Engine()
    process = make_arrivals(kind, rate_per_s, seed=seed,
                            vectorized=vectorized)
    service_rng = RandomStreams(seed).stream("scale:service")
    chunks = process.iter_time_chunks(horizon_s)

    streaming = mode == "streaming"
    if streaming:
        wait_stats = StreamingLatencyStats()
        sojourn_stats = StreamingLatencyStats()
        wait_samples = sojourn_samples = None
    else:
        wait_stats = sojourn_stats = None
        wait_samples: "list[float] | None" = []
        sojourn_samples: "list[float] | None" = []

    waiting: collections.deque = collections.deque()
    counts = {"offered": 0, "completed": 0, "rejected": 0, "free": servers}

    def observe(arrival_s: float, started_s: float, done_s: float) -> None:
        if streaming:
            wait_stats.observe(started_s - arrival_s)
            sojourn_stats.observe(done_s - arrival_s)
        else:
            wait_samples.append(started_s - arrival_s)
            sojourn_samples.append(done_s - arrival_s)

    def start_service(arrival_s: float) -> None:
        engine.call_later(service_rng.expovariate(1.0 / mean_service_s),
                          complete, (arrival_s, engine.now))

    def complete(span: "tuple[float, float]") -> None:
        arrival_s, started_s = span
        counts["completed"] += 1
        observe(arrival_s, started_s, engine.now)
        if waiting:
            start_service(waiting.popleft())
        else:
            counts["free"] += 1

    def on_arrival(arrival_s: float) -> None:
        counts["offered"] += 1
        if counts["free"] > 0:
            counts["free"] -= 1
            start_service(arrival_s)
        elif len(waiting) < queue_capacity:
            waiting.append(arrival_s)
        else:
            counts["rejected"] += 1

    def feed_next(_arg: None = None) -> None:
        # Schedule one chunk of arrivals, then chain: when this chunk's
        # last arrival fires, the next chunk is generated and scheduled.
        # The chain timer is created after the arrival timer at the
        # same instant, so (time, seq) order runs the arrival first.
        times = next(chunks, None)
        while times is not None and times.size == 0:
            times = next(chunks, None)
        if times is None:
            return
        now = engine.now
        for arrival_s in times.tolist():
            engine.call_later(arrival_s - now, on_arrival, arrival_s)
        engine.call_later(float(times[-1]) - now, feed_next)

    started = time.perf_counter()
    feed_next()
    engine.run()
    wall_s = time.perf_counter() - started

    if streaming:
        wait = wait_stats.summary()
        sojourn = sojourn_stats.summary()
    else:
        wait = _exact_summary(wait_samples)
        sojourn = _exact_summary(sojourn_samples)

    return ScaleResult(
        requests=requests,
        offered=counts["offered"],
        completed=counts["completed"],
        rejected=counts["rejected"],
        horizon_s=horizon_s,
        mode=mode,
        events=engine.events_processed,
        wait=wait,
        sojourn=sojourn,
        wall_s=wall_s,
        events_per_s=engine.events_processed / wall_s if wall_s > 0 else 0.0,
        peak_rss_bytes=peak_rss_bytes(),
    )


def main(argv: "typing.Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.scale",
        description="Run one rung of the serving scale ladder.",
    )
    parser.add_argument("--requests", type=int, default=100_000,
                        help="offered-request target (default 10^5)")
    parser.add_argument("--rate", type=float, default=DEFAULT_RATE_PER_S,
                        help="mean arrival rate, requests/s")
    parser.add_argument("--servers", type=int, default=DEFAULT_SERVERS)
    parser.add_argument("--utilization", type=float,
                        default=DEFAULT_UTILIZATION,
                        help="target server utilization in (0, 1)")
    parser.add_argument("--kind", choices=NAMED_ARRIVALS, default="poisson")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("records", "streaming"),
                        default="streaming",
                        help="metrics mode (records keeps every sample)")
    parser.add_argument("--scalar", action="store_true",
                        help="use the scalar arrival generators")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the result as one JSON object")
    args = parser.parse_args(argv)

    try:
        result = run_scale(
            requests=args.requests,
            rate_per_s=args.rate,
            servers=args.servers,
            utilization=args.utilization,
            kind=args.kind,
            seed=args.seed,
            mode=args.mode,
            vectorized=not args.scalar,
        )
    except ValueError as error:  # run_scale's argument checks
        parser.error(str(error))
    if args.as_json:
        print(json.dumps(result.to_json()))
    else:
        print(f"requests={result.offered} completed={result.completed} "
              f"rejected={result.rejected} events={result.events}")
        print(f"wall={result.wall_s:.3f}s "
              f"events/s={result.events_per_s:,.0f} "
              f"peak_rss={result.peak_rss_bytes / 1e6:.1f}MB")
        print(f"wait p50/p95/p99 = {result.wait['p50']:.4f}/"
              f"{result.wait['p95']:.4f}/{result.wait['p99']:.4f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
