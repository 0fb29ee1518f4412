"""Latency and goodput accounting for the online serving layer.

Two interchangeable latency stats share one surface (``count``,
``mean``, ``max``, ``quantile``, ``p50``/``p95``/``p99``, ``summary``):

* :class:`LatencyStats` (default) keeps every sample in a sorted list —
  exact quantiles, O(n) memory, the right tool at serving-experiment
  scale of hundreds to a few thousand requests.
* :class:`StreamingLatencyStats` (``metrics.mode = streaming``) keeps
  five P² markers per tracked quantile — O(1) memory at any scale, the
  right tool for 10^6–10^7-request runs. The P² estimates are
  deterministic (no randomness, byte-identical across serial/pool runs)
  but approximate, and untracked quantiles raise rather than silently
  extrapolate. On 10^4 shuffled samples from light-tailed
  distributions (exponential, a 90/10 bimodal mix, the serving tests'
  lognormal reference run) the tracked p50/p95/p99 land within **5%
  relative error** of the exact path. The bound fails, measured over
  seeds 0–4 (pinned by tests/metrics/test_p2_bound.py):

  - the median of a 50/50 bimodal stream lands in the gap between the
    modes, up to 99% off (its p95 and p99 hold);
  - heavy tails' upper quantiles: Pareto(α=1.5) p99 up to 13%,
    lognormal(σ=2) p95 and p99 up to 7% and 14% (their medians hold);
    even lognormal(σ=1) p99 reached 7.1% on one of seeds 0–19;
  - sorted input: ascending exponential input's median is up to 6.3%
    off (its p95 and p99 hold) and ascending lognormal(σ=2) input's up
    to 47%; descending exponential input's median is 43–47% off on
    every seed, its p95 and p99 up to 128% and 52%.

:class:`ServingAccumulator` folds request records, one at a time, into
the capacity numbers the `serve` experiment tabulates: rejection rate,
p50/p95/p99 queueing and completion latency, throughput, and goodput
(SLO-met completions per second — the serving analogue of the paper's
useful-work throughput). The serving frontend feeds each request to one
the moment it reaches a terminal outcome, in both metrics modes; the
mode picks only the stats class. :func:`serving_metrics` runs the same
fold over a list of records.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.frontend import RequestRecord


def _interpolated_quantile(samples: "typing.Sequence[float]",
                           q: float) -> float:
    """Linear-interpolated quantile of a sorted sample list."""
    position = q * (len(samples) - 1)
    low = int(position)
    high = min(low + 1, len(samples) - 1)
    fraction = position - low
    return samples[low] * (1.0 - fraction) + samples[high] * fraction


class _LatencyStatsBase:
    """What the two stats classes share; a subclass keeps ``count``,
    ``_total``, ``max`` and ``quantile``."""

    @property
    def mean(self) -> float:
        count = self.count
        return self._total / count if count else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> dict:
        """Plain-data digest (JSON-safe, used by the determinism tests)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


class LatencyStats(_LatencyStatsBase):
    """Exact-quantile accumulator over latency samples."""

    def __init__(self):
        self._samples: list[float] = []
        self._total = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency cannot be negative, got {value}")
        bisect.insort(self._samples, value)
        self._total += value

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def max(self) -> float:
        return self._samples[-1] if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, 0 <= q <= 1 (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        return _interpolated_quantile(self._samples, q)


class P2Quantile:
    """One P² (Jain & Chlamtac 1985) marker set: a single quantile in
    O(1) memory.

    Five markers track the min, the max, the target quantile, and the
    two mid-quantiles; each observation shifts marker positions and
    adjusts heights by a piecewise-parabolic fit. Entirely
    deterministic — the estimate is a pure function of the observation
    sequence — and exact while fewer than five samples have arrived.
    """

    __slots__ = ("q", "_n", "_heights", "_positions", "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"tracked quantile must be in (0, 1), got {q}")
        self.q = q
        self._n = 0
        self._heights: list[float] = []
        self._positions = [0, 1, 2, 3, 4]
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value: float) -> None:
        # This runs once per tracked quantile per request in streaming
        # runs — the scale ladder's metrics hot path. Desired marker
        # positions use the closed form ``(count - 1) * increment``
        # instead of an incremented float, which is both cheaper and
        # free of accumulated rounding.
        n = self._n
        self._n = n + 1
        heights = self._heights
        if n < 5:
            bisect.insort(heights, value)
            return
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        if cell < 1:
            positions[1] += 1
        if cell < 2:
            positions[2] += 1
        if cell < 3:
            positions[3] += 1
        positions[4] += 1
        increments = self._increments
        for index in (1, 2, 3):
            position = positions[index]
            drift = n * increments[index] - position
            if drift >= 1.0:
                if positions[index + 1] - position > 1:
                    adjusted = self._parabolic(index, 1)
                    if not heights[index - 1] < adjusted < heights[index + 1]:
                        adjusted = self._linear(index, 1)
                    heights[index] = adjusted
                    positions[index] = position + 1
            elif drift <= -1.0:
                if positions[index - 1] - position < -1:
                    adjusted = self._parabolic(index, -1)
                    if not heights[index - 1] < adjusted < heights[index + 1]:
                        adjusted = self._linear(index, -1)
                    heights[index] = adjusted
                    positions[index] = position - 1

    def _parabolic(self, i: int, d: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + d * (h[i + d] - h[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> float:
        """Current estimate (exact below five samples, 0.0 when empty)."""
        heights = self._heights
        if not heights:
            return 0.0
        if len(heights) < 5:
            return _interpolated_quantile(heights, self.q)
        return heights[2]


#: the quantile grid the streaming sketch tracks — exactly the ones
#: :class:`ServingMetrics` consumers read
TRACKED_QUANTILES = (0.50, 0.95, 0.99)


class StreamingLatencyStats(_LatencyStatsBase):
    """Constant-memory :class:`LatencyStats` stand-in over P² sketches.

    Tracks count/mean/max exactly and the :data:`TRACKED_QUANTILES`
    approximately (the 5% bound and where it fails: see module doc).
    ``quantile`` also answers q=0 (exact min) and q=1 (exact max); any
    other untracked quantile raises ``ValueError`` instead of guessing.
    """

    def __init__(self,
                 quantiles: "typing.Sequence[float]" = TRACKED_QUANTILES):
        self._sketches = {q: P2Quantile(q) for q in quantiles}
        self._sketch_seq = tuple(self._sketches.values())
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency cannot be negative, got {value}")
        if self._count == 0 or value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._count += 1
        self._total += value
        for sketch in self._sketch_seq:
            sketch.observe(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def max(self) -> float:
        return self._max

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        sketch = self._sketches.get(q)
        if sketch is None:
            raise ValueError(
                f"streaming stats only track quantiles "
                f"{sorted(self._sketches)}, got {q}")
        return sketch.value


@dataclasses.dataclass
class ServingMetrics:
    """Aggregate serving statistics over one run's request records."""

    #: requests that arrived while the service was open
    offered: int
    admitted: int
    #: turned away at admission (policy or bounded queue)
    rejected: int
    #: admitted and handed to a worker before close
    assigned: int
    #: finished their full job before close
    completed: int
    #: completed within their deadline (best effort counts on completion)
    slo_met: int
    #: ended in an explicit failure outcome ("failed" or "exhausted") —
    #: the worker died mid-service and retries, if any, ran out
    failed: int
    #: admitted but never completed (still queued/running at close)
    unserved: int
    #: open-service duration the rates are normalized by
    duration_s: float
    #: arrival -> assignment, for assigned requests (a
    #: :class:`StreamingLatencyStats` in streaming metrics mode)
    queueing: LatencyStats
    #: arrival -> completion, for completed requests (ditto)
    completion: LatencyStats

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completions per second of open service."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """SLO-met completions per second — the capacity number."""
        return self.slo_met / self.duration_s if self.duration_s > 0 else 0.0


class ServingAccumulator:
    """One-record-at-a-time fold behind :func:`serving_metrics`.

    The serving frontend feeds each request record into an accumulator
    the moment it reaches a terminal outcome (rejected, completed,
    failed, exhausted, or leftover at close), so the metrics never need
    the whole history. ``streaming=True`` swaps the exact sorted-list
    quantiles for P² sketches; the counters are the same either way.
    """

    def __init__(self, streaming: bool = False):
        stats = StreamingLatencyStats if streaming else LatencyStats
        self.queueing = stats()
        self.completion = stats()
        self.offered = self.admitted = self.rejected = self.assigned = 0
        self.completed = self.slo_met = self.failed = self.unserved = 0
        #: resilience-layer tallies (retries = extra attempts beyond the
        #: first; failed/exhausted split the terminal failure outcomes)
        self.retries = 0
        self.failed_requests = 0
        self.exhausted_requests = 0

    def add(self, record: "RequestRecord") -> None:
        """Fold one *terminal* request record into the tallies."""
        # The resilience tallies count retry attempts and failure
        # outcomes over *all* records, offered or not, so they come
        # before the open-load gate below.
        if record.attempts > 1:
            self.retries += record.attempts - 1
        if record.outcome == "failed":
            self.failed_requests += 1
        elif record.outcome == "exhausted":
            self.exhausted_requests += 1
        if not record.offered:
            return  # arrived after close: never part of the open load
        self.offered += 1
        if record.rejected_at is not None:
            self.rejected += 1
            return
        self.admitted += 1
        arrival = record.request.arrival_s
        if record.assigned_at is not None:
            self.assigned += 1
            self.queueing.observe(record.assigned_at - arrival)
        if record.completed_at is not None:
            self.completed += 1
            self.completion.observe(record.completed_at - arrival)
            if record.met_slo:
                self.slo_met += 1
        elif record.outcome in ("failed", "exhausted"):
            self.failed += 1
        else:
            self.unserved += 1

    def metrics(self, duration_s: float) -> ServingMetrics:
        return ServingMetrics(
            offered=self.offered,
            admitted=self.admitted,
            rejected=self.rejected,
            assigned=self.assigned,
            completed=self.completed,
            slo_met=self.slo_met,
            failed=self.failed,
            unserved=self.unserved,
            duration_s=duration_s,
            queueing=self.queueing,
            completion=self.completion,
        )


def serving_metrics(records: "typing.Iterable[RequestRecord]",
                    duration_s: float) -> ServingMetrics:
    """Fold request lifecycle records into aggregate serving metrics."""
    accumulator = ServingAccumulator()
    for record in records:
        accumulator.add(record)
    return accumulator.metrics(duration_s)
