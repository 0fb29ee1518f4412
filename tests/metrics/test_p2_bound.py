"""Where the P² sketches keep their 5% bound, and where they do not.

:class:`~repro.metrics.latency.StreamingLatencyStats` estimates p50, p95
and p99 with P² sketches. Each case streams 10^4 samples into it and
into the exact :class:`~repro.metrics.latency.LatencyStats`, over seeds
0 to 4, and takes the largest relative error. The bound holds on
shuffled light-tailed input, on a bimodal stream's tail quantiles, on
heavy tails' medians, and on ascending exponential input's tail
quantiles. The failure cases pin what the module docstring says: a
median between two equal modes, heavy tails' upper quantiles, and
sorted or reverse-sorted streams.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.metrics.latency import LatencyStats, StreamingLatencyStats

SAMPLES = 10_000
SEEDS = range(5)
BOUND = 0.05

STREAMS = {
    "exponential": lambda rng: rng.expovariate(1.0),
    # two modes a decade apart, 90% or 50% of the mass in the lower one
    "bimodal-90/10": lambda rng: (rng.gauss(1.0, 0.1) if rng.random() < 0.9
                                  else rng.gauss(10.0, 1.0)),
    "bimodal-50/50": lambda rng: (rng.gauss(1.0, 0.1) if rng.random() < 0.5
                                  else rng.gauss(10.0, 1.0)),
    "pareto-1.5": lambda rng: rng.paretovariate(1.5),
    "lognormal-2": lambda rng: rng.lognormvariate(0.0, 2.0),
}


@functools.lru_cache(maxsize=None)
def _errors(stream: str, order: str, seed: int) -> dict[float, float]:
    """Relative error of each tracked quantile on one seeded stream,
    fed shuffled (as drawn), ascending or descending."""
    rng = random.Random(seed)
    samples = [STREAMS[stream](rng) for _ in range(SAMPLES)]
    if order != "shuffled":
        samples.sort(reverse=(order == "descending"))
    exact, sketch = LatencyStats(), StreamingLatencyStats()
    for value in samples:
        exact.observe(value)
        sketch.observe(value)
    return {q: abs(sketch.quantile(q) - exact.quantile(q)) / exact.quantile(q)
            for q in (0.50, 0.95, 0.99)}


def _worst(stream: str, order: str, q: float) -> float:
    return max(_errors(stream, order, seed)[q] for seed in SEEDS)


@pytest.mark.parametrize("stream,order,quantiles", [
    ("exponential", "shuffled", (0.50, 0.95, 0.99)),
    ("bimodal-90/10", "shuffled", (0.50, 0.95, 0.99)),
    ("bimodal-50/50", "shuffled", (0.95, 0.99)),
    ("pareto-1.5", "shuffled", (0.50, 0.95)),
    ("lognormal-2", "shuffled", (0.50,)),
    ("exponential", "ascending", (0.95, 0.99)),
])
def test_the_bound_holds(stream, order, quantiles):
    for q in quantiles:
        assert _worst(stream, order, q) <= BOUND, (stream, order, q)


@pytest.mark.parametrize("stream,order,q", [
    # the median falls in the gap between the modes
    ("bimodal-50/50", "shuffled", 0.50),
    ("pareto-1.5", "shuffled", 0.99),
    ("lognormal-2", "shuffled", 0.95),
    ("lognormal-2", "shuffled", 0.99),
    ("exponential", "ascending", 0.50),
    ("lognormal-2", "ascending", 0.50),
    ("exponential", "descending", 0.50),
    ("exponential", "descending", 0.95),
    ("exponential", "descending", 0.99),
])
def test_the_bound_fails_where_the_docstring_says(stream, order, q):
    assert _worst(stream, order, q) > BOUND


def test_a_reverse_sorted_stream_misses_the_median_on_every_seed():
    assert min(_errors("exponential", "descending", seed)[0.50]
               for seed in SEEDS) > 0.40
