"""Open-loop arrival processes for the online serving layer.

The batch experiments submit a fixed set of side tasks up front; a
multi-user service instead sees an *open-loop* request stream whose
arrival times do not depend on how fast the system drains them. This
module generates such streams — seeded Poisson, bursty (Markov-modulated
Poisson), diurnal (time-varying rate via thinning), and trace replay —
as lazy streams of timestamped :class:`TaskRequest` records
(:meth:`ArrivalProcess.stream`), which the frontend takes a chunk at a
time, so a run holds one chunk of future requests, not the whole
stream.

The times are independent of system state (that is what open-loop
means), and every run is byte-for-byte deterministic: all randomness
derives from the generator's explicit seed, never from process-global
counters. Arrival gaps, phase dwells, thinning and mix picks each draw
from their own named stream, so generating lazily, interleaved with the
run, draws exactly the values generating up front would.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.sim.rng import RandomStreams


@dataclasses.dataclass(frozen=True)
class RequestTemplate:
    """One entry of a workload mix: what a request of this kind runs."""

    #: workload registry name (see :mod:`repro.workloads.registry`)
    workload: str
    #: steps after which the job is complete (finite jobs make completion
    #: latency meaningful; the batch experiments run endless tasks)
    job_steps: int
    #: latency class name (see :mod:`repro.serving.slo`)
    slo_class: str = "standard"
    batch_size: int = 64
    interface: str = "iterative"
    #: relative arrival frequency within the mix
    weight: float = 1.0


#: A small/medium/large job mix over the paper's side tasks: interactive
#: PageRank queries, standard ResNet18 fine-tunes, batch ResNet50 jobs.
DEFAULT_MIX: tuple[RequestTemplate, ...] = (
    RequestTemplate("pagerank", job_steps=100, slo_class="interactive",
                    weight=3.0),
    RequestTemplate("resnet18", job_steps=40, slo_class="standard",
                    weight=2.0),
    RequestTemplate("resnet50", job_steps=20, slo_class="batch", weight=1.0),
)


@dataclasses.dataclass(frozen=True)
class TaskRequest:
    """One timestamped request drawn from the workload mix."""

    request_id: int
    arrival_s: float
    workload: str
    job_steps: int
    slo_class: str = "standard"
    batch_size: int = 64
    interface: str = "iterative"
    #: owning tenant of a multi-tenant scenario ("" = untenanted traffic);
    #: per-tenant admission and weighted-fair dispatch key on this
    tenant: str = ""

    @property
    def name(self) -> str:
        """Stable per-request task name (seeds the task's RNG streams)."""
        return f"{self.workload}-r{self.request_id}"


class ArrivalProcess:
    """Base class: template mixing + request assembly over arrival times."""

    def __init__(self, mix: typing.Sequence[RequestTemplate] = DEFAULT_MIX,
                 seed: int = 0):
        if not mix:
            raise ValueError("arrival mix must contain at least one template")
        self.mix = tuple(mix)
        self.seed = seed

    # -- subclass API ---------------------------------------------------
    def _entries(
        self, horizon_s: float,
    ) -> "typing.Iterator[tuple[float, RequestTemplate | None]]":
        """``(arrival, template-or-None)`` pairs in [0, horizon), in
        arrival order; ``None`` templates are drawn from the mix."""
        raise NotImplementedError

    def _streams(self) -> RandomStreams:
        """A fresh stream factory, re-derived from the seed on every
        call: generation is idempotent — one process instance produces
        the same traffic no matter how often (or in what order) it is
        asked, so callers can reuse it across runs to compare policies
        on identical offered load."""
        return RandomStreams(self.seed)

    # -- the request stream ---------------------------------------------
    def stream(self, horizon_s: float) -> "typing.Iterator[TaskRequest]":
        """The request stream for one run, generated as it is consumed.

        Request ids count up from 0 in arrival order; a template the
        entry leaves open is drawn from the mix by weight.
        """
        if horizon_s <= 0:
            return
        mix_stream = self._streams().stream("mix")
        weights = [template.weight for template in self.mix]
        for request_id, (arrival_s, template) in enumerate(
                self._entries(horizon_s)):
            if template is None:
                template = mix_stream.choices(self.mix, weights=weights)[0]
            yield TaskRequest(
                request_id=request_id,
                arrival_s=arrival_s,
                workload=template.workload,
                job_steps=template.job_steps,
                slo_class=template.slo_class,
                batch_size=template.batch_size,
                interface=template.interface,
            )

    def generate(self, horizon_s: float) -> list[TaskRequest]:
        """The full request stream for one run, as a list."""
        return list(self.stream(horizon_s))

    def arrival_times(self, horizon_s: float) -> list[float]:
        """Increasing arrival instants in [0, horizon)."""
        return [request.arrival_s for request in self.stream(horizon_s)]


class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson process at a constant rate (requests/second)."""

    def __init__(self, rate_per_s: float,
                 mix: typing.Sequence[RequestTemplate] = DEFAULT_MIX,
                 seed: int = 0):
        if rate_per_s <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate_per_s}")
        super().__init__(mix, seed)
        self.rate_per_s = rate_per_s

    def _entries(self, horizon_s):
        stream = self._streams().stream("gaps")
        now = stream.expovariate(self.rate_per_s)
        while now < horizon_s:
            yield now, None
            now += stream.expovariate(self.rate_per_s)


class BurstyArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (quiet/burst).

    The process alternates between a low-rate and a high-rate state with
    exponentially distributed dwell times — the standard model for bursty
    request traffic.
    """

    def __init__(self, rate_low: float, rate_high: float,
                 mean_dwell_s: float = 10.0,
                 mix: typing.Sequence[RequestTemplate] = DEFAULT_MIX,
                 seed: int = 0):
        if rate_low <= 0 or rate_high <= 0:
            raise ValueError("both MMPP rates must be positive")
        if mean_dwell_s <= 0:
            raise ValueError("mean dwell time must be positive")
        super().__init__(mix, seed)
        self.rate_low = rate_low
        self.rate_high = rate_high
        self.mean_dwell_s = mean_dwell_s

    @property
    def mean_rate_per_s(self) -> float:
        """Long-run average rate (equal dwell in both states)."""
        return (self.rate_low + self.rate_high) / 2.0

    def _entries(self, horizon_s):
        rng = self._streams()
        gaps = rng.stream("gaps")
        dwells = rng.stream("dwells")
        now = 0.0
        high = False
        phase_end = dwells.expovariate(1.0 / self.mean_dwell_s)
        while now < horizon_s:
            rate = self.rate_high if high else self.rate_low
            gap = gaps.expovariate(rate)
            if now + gap >= phase_end:
                # No arrival before the phase switch. By memorylessness,
                # jumping to the switch and resampling at the new rate is
                # exact — carrying the old-rate gap across the boundary
                # would let quiet phases leap over entire bursts.
                now = phase_end
                high = not high
                phase_end = now + dwells.expovariate(1.0 / self.mean_dwell_s)
                continue
            now += gap
            if now < horizon_s:
                yield now, None


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated Poisson process (a compressed day).

    ``rate(t) = mean * (1 + amplitude * sin(2πt / period))``, realized by
    thinning a Poisson process at the peak rate — the textbook generator
    for non-homogeneous Poisson streams.
    """

    def __init__(self, mean_rate_per_s: float, period_s: float = 60.0,
                 amplitude: float = 0.8,
                 mix: typing.Sequence[RequestTemplate] = DEFAULT_MIX,
                 seed: int = 0):
        if mean_rate_per_s <= 0:
            raise ValueError("mean arrival rate must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        if period_s <= 0:
            raise ValueError("period must be positive")
        super().__init__(mix, seed)
        self.mean_rate_per_s = mean_rate_per_s
        self.period_s = period_s
        self.amplitude = amplitude

    def rate_at(self, t: float) -> float:
        phase = math.sin(2.0 * math.pi * t / self.period_s)
        return self.mean_rate_per_s * (1.0 + self.amplitude * phase)

    def _entries(self, horizon_s):
        peak = self.mean_rate_per_s * (1.0 + self.amplitude)
        rng = self._streams()
        gaps = rng.stream("gaps")
        keep = rng.stream("thinning")
        now = 0.0
        while True:
            now += gaps.expovariate(peak)
            if now >= horizon_s:
                return
            if keep.random() * peak < self.rate_at(now):
                yield now, None


class TraceArrivals(ArrivalProcess):
    """Replay a recorded ``(arrival_s, template)`` trace.

    ``trace`` entries may be ``(arrival_s, RequestTemplate)`` pairs or
    bare floats (which draw from the mix like the synthetic processes).
    """

    def __init__(self, trace: typing.Sequence,
                 mix: typing.Sequence[RequestTemplate] = DEFAULT_MIX,
                 seed: int = 0):
        super().__init__(mix, seed)
        self.trace = tuple(trace)

    def _entries(self, horizon_s):
        entries = []
        for entry in self.trace:
            if isinstance(entry, (int, float)):
                entries.append((float(entry), None))
            else:
                arrival_s, template = entry
                entries.append((float(arrival_s), template))
        entries.sort(key=lambda pair: pair[0])
        return (entry for entry in entries if entry[0] < horizon_s)


def make_arrivals(kind: str, rate_per_s: float, seed: int = 0,
                  mix: typing.Sequence[RequestTemplate] = DEFAULT_MIX,
                  ) -> ArrivalProcess:
    """Build a named arrival process at a target mean rate.

    ``bursty`` splits the mean across a quiet state at half the rate and
    a burst state at 1.5x; ``diurnal`` oscillates ±80% around the mean.
    """
    if kind == "poisson":
        return PoissonArrivals(rate_per_s, mix=mix, seed=seed)
    if kind == "bursty":
        return BurstyArrivals(rate_low=rate_per_s * 0.5,
                              rate_high=rate_per_s * 1.5,
                              mix=mix, seed=seed)
    if kind == "diurnal":
        return DiurnalArrivals(rate_per_s, mix=mix, seed=seed)
    raise KeyError(f"unknown arrival kind {kind!r}; "
                   "choose from ['bursty', 'diurnal', 'poisson'] "
                   "(trace replay is built directly via TraceArrivals)")


NAMED_ARRIVALS = ("poisson", "bursty", "diurnal")
