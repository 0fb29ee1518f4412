"""Unit tests for the open-loop arrival generators."""

from __future__ import annotations

import hashlib

import pytest

from repro.serving.arrivals import (
    DEFAULT_MIX,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    RequestTemplate,
    TraceArrivals,
    make_arrivals,
)
from repro.tenancy.arrivals import TenantArrivals

KINDS = ("poisson", "bursty", "diurnal")


class TestPoissonArrivals:
    def test_same_seed_is_byte_identical(self):
        first = PoissonArrivals(2.0, seed=3).generate(50.0)
        second = PoissonArrivals(2.0, seed=3).generate(50.0)
        assert first == second

    def test_generate_is_idempotent_on_one_instance(self):
        """Reusing one process across runs offers identical traffic."""
        process = PoissonArrivals(2.0, seed=3)
        assert process.generate(50.0) == process.generate(50.0)
        bursty = BurstyArrivals(1.0, 4.0, seed=2)
        assert bursty.generate(50.0) == bursty.generate(50.0)

    def test_different_seeds_differ(self):
        first = PoissonArrivals(2.0, seed=3).generate(50.0)
        second = PoissonArrivals(2.0, seed=4).generate(50.0)
        assert [r.arrival_s for r in first] != [r.arrival_s for r in second]

    def test_rate_matches_over_long_horizon(self):
        requests = PoissonArrivals(5.0, seed=0).generate(2000.0)
        assert len(requests) == pytest.approx(5.0 * 2000.0, rel=0.05)

    def test_times_increasing_and_within_horizon(self):
        requests = PoissonArrivals(3.0, seed=1).generate(30.0)
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < 30.0 for t in times)
        assert [r.request_id for r in requests] == list(range(len(requests)))

    def test_mix_weights_drive_frequencies(self):
        mix = (RequestTemplate("pagerank", 10, weight=9.0),
               RequestTemplate("resnet18", 10, weight=1.0))
        requests = PoissonArrivals(5.0, mix=mix, seed=0).generate(500.0)
        share = sum(r.workload == "pagerank" for r in requests) / len(requests)
        assert share == pytest.approx(0.9, abs=0.05)

    def test_request_names_are_stable_and_unique(self):
        requests = PoissonArrivals(2.0, seed=0).generate(20.0)
        names = [r.name for r in requests]
        assert len(set(names)) == len(names)
        assert names[0] == f"{requests[0].workload}-r0"

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_empty_horizon_yields_nothing(self):
        assert PoissonArrivals(2.0, seed=0).generate(0.0) == []


class TestBurstyArrivals:
    def test_mean_rate_between_states(self):
        process = BurstyArrivals(rate_low=1.0, rate_high=9.0,
                                 mean_dwell_s=5.0, seed=0)
        requests = process.generate(2000.0)
        rate = len(requests) / 2000.0
        assert 1.0 < rate < 9.0
        assert rate == pytest.approx(process.mean_rate_per_s, rel=0.2)

    def test_burst_phases_are_denser(self):
        """Windowed counts should spread much wider than a Poisson's."""
        requests = BurstyArrivals(rate_low=0.5, rate_high=20.0,
                                  mean_dwell_s=10.0, seed=1).generate(400.0)
        counts = [0] * 40
        for request in requests:
            counts[min(39, int(request.arrival_s / 10.0))] += 1
        assert max(counts) >= 5 * max(1, min(counts))

    def test_deterministic(self):
        a = BurstyArrivals(1.0, 4.0, seed=2).generate(100.0)
        b = BurstyArrivals(1.0, 4.0, seed=2).generate(100.0)
        assert a == b


class TestDiurnalArrivals:
    def test_mean_rate_preserved(self):
        requests = DiurnalArrivals(4.0, period_s=50.0, seed=0).generate(2000.0)
        assert len(requests) / 2000.0 == pytest.approx(4.0, rel=0.1)

    def test_peak_and_trough_phases_differ(self):
        process = DiurnalArrivals(4.0, period_s=100.0, amplitude=0.9, seed=0)
        requests = process.generate(3000.0)
        peak = trough = 0
        for request in requests:
            phase = (request.arrival_s % 100.0) / 100.0
            if 0.15 <= phase <= 0.35:      # around sin's maximum
                peak += 1
            elif 0.65 <= phase <= 0.85:    # around sin's minimum
                trough += 1
        assert peak > 3 * trough

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(1.0, amplitude=1.0)


class TestTraceArrivals:
    def test_replays_explicit_trace_in_order(self):
        template = RequestTemplate("resnet18", job_steps=5, slo_class="batch")
        trace = [(3.0, template), (1.0, template)]
        requests = TraceArrivals(trace).generate(10.0)
        assert [r.arrival_s for r in requests] == [1.0, 3.0]
        assert all(r.workload == "resnet18" and r.job_steps == 5
                   for r in requests)

    def test_bare_times_draw_from_mix(self):
        requests = TraceArrivals([0.5, 1.5, 2.5], seed=0).generate(10.0)
        assert len(requests) == 3
        assert all(r.workload in {t.workload for t in DEFAULT_MIX}
                   for r in requests)

    def test_horizon_truncates(self):
        requests = TraceArrivals([0.5, 5.0, 50.0]).generate(10.0)
        assert [r.arrival_s for r in requests] == [0.5, 5.0]

    def test_arrival_times_are_sorted_like_generate(self):
        """The base-class contract (increasing times) holds for replay."""
        process = TraceArrivals([3.0, 1.0, 2.0])
        assert process.arrival_times(10.0) == [1.0, 2.0, 3.0]


class TestRegistry:
    def test_named_kinds_build(self):
        for kind in ("poisson", "bursty", "diurnal"):
            process = make_arrivals(kind, 2.0, seed=0)
            assert process.generate(10.0)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            make_arrivals("lunar", 2.0)


class TestEdgeCases:
    def test_zero_rate_poisson_is_rejected(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError, match="rate must be positive"):
            make_arrivals("poisson", 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_horizon_yields_no_requests(self, kind):
        process = make_arrivals(kind, 10.0, seed=0)
        assert process.generate(0.0) == []
        assert list(process.stream(0.0)) == []

    def test_diurnal_thinning_at_peak_keeps_every_candidate(self):
        """At the rate peak, ``uniform * peak < rate_at(t)`` holds for
        every uniform in [0, 1) — a candidate arriving exactly at peak
        rate can never be thinned away."""
        process = DiurnalArrivals(10.0, period_s=40.0, amplitude=0.5,
                                  seed=0)
        peak = process.mean_rate_per_s * (1.0 + process.amplitude)
        t_peak = process.period_s / 4.0  # sin(2*pi*t/period) == 1
        assert process.rate_at(t_peak) == pytest.approx(peak)
        # any uniform < 1.0 keeps the candidate
        assert 0.999999 * peak < process.rate_at(t_peak) or \
            process.rate_at(t_peak) == peak

    def test_diurnal_zero_amplitude_matches_constant_peak(self):
        """amplitude=0 makes thinning vacuous (rate_at == peak
        everywhere): every candidate is kept, so the stream is the
        Poisson stream of the same rate and seed."""
        times = DiurnalArrivals(8.0, amplitude=0.0, seed=3).arrival_times(25.0)
        assert len(times) > 0
        assert times == PoissonArrivals(8.0, seed=3).arrival_times(25.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_horizon_boundary_is_exclusive(self, kind):
        """Arrivals live in [0, horizon): an arrival at exactly
        ``horizon_s`` must be dropped, not emitted."""
        process = make_arrivals(kind, 50.0, seed=7)
        times = process.arrival_times(12.0)
        assert times, "expected a non-empty stream at rate 50/s"
        assert all(0.0 <= t < 12.0 for t in times)
        # Shrinking the horizon to exactly the last arrival's instant
        # must exclude that arrival (strict < comparison).
        assert process.arrival_times(times[-1]) == times[:-1]


def _stream_hash(requests) -> str:
    digest = hashlib.sha256()
    for r in requests:
        digest.update((f"{r.request_id}|{r.arrival_s.hex()}|{r.workload}|"
                       f"{r.job_steps}|{r.slo_class}|{r.batch_size}|"
                       f"{r.interface}|{r.tenant}\n").encode())
    return digest.hexdigest()


def _process(kind: str, seed: int):
    if kind in KINDS:
        return make_arrivals(kind, 40.0, seed=seed)
    if kind == "trace_floats":
        # Unsorted, past the horizon, with duplicate instants.
        return TraceArrivals(
            [(7.3 * i) % 37.0 for i in range(120)] + [4.0, 4.0, 12.5],
            seed=seed)
    if kind == "trace_pairs":
        # Template pairs, every fourth entry a bare float.
        return TraceArrivals(
            [(5.1 * i) % 33.0 if i % 4 == 0 else
             ((5.1 * i) % 33.0, DEFAULT_MIX[i % 3]) for i in range(90)],
            seed=seed)
    # Tenants a and b share a seed, so every arrival of theirs is
    # simultaneous and the tie breaks by declaration order.
    mix = (RequestTemplate("pagerank", 5, slo_class="interactive"),)
    return TenantArrivals([
        ("a", PoissonArrivals(20.0, seed=seed)),
        ("b", PoissonArrivals(20.0, seed=seed, mix=mix)),
        ("c", make_arrivals("bursty", 10.0, seed=seed + 1)),
    ])


#: sha256 of each stream's requests (id, ``float.hex`` of the instant,
#: template fields, tenant) over a 30 s horizon, captured from the
#: generators that built the whole list up front, before streams became
#: lazy
STREAM_GOLDEN = {
    ("poisson", 0):
        "df26bcb10a4813461cddbf540a98f07b3fa979b1a0fdf52dc5f0fcc6c995052d",
    ("poisson", 1):
        "1984c59f9d717b2e81845dc064e7bbab1d874fcd5d2c5840b3876c4694e1e6ad",
    ("poisson", 2):
        "cad3c1beb18964d62db16ea716b7a6929ea835f6065b62454b51c7a39fff15fb",
    ("bursty", 0):
        "e928a5ce6e5a3b16c2e8306e0a9fde4f62e538b6a71184bf027f3cd4ddfa1110",
    ("bursty", 1):
        "55e319f52a34153e03ef873bec9fc660fc8baaeb6415778904d0f3499d677a42",
    ("bursty", 2):
        "893846fb7e69b5b96e745da382dd56216d6567c6fa502bb99754163b3b1963e6",
    ("diurnal", 0):
        "d95c1fba454c289cc44d4092a9603baa610b95726c88e5157aab9c13dfbba5b3",
    ("diurnal", 1):
        "fcb148e5d4f5a7e01110c85a5ef6c4e34fb1408a25890fb2a724f65997a43ab7",
    ("diurnal", 2):
        "6537495d83b38d3cc3e7685904656054e793d80999151f10703955f98e13a56c",
    ("trace_floats", 0):
        "aadc050e3697996cb91f4e3f99079145fa3f3cd38538a43f7e2742623bc08509",
    ("trace_floats", 1):
        "776ac6a89b52b4ab88b20705a4f01a2dfe57b51842c06ca65fb8ed9683fa1650",
    ("trace_floats", 2):
        "8943cf94fc39e576d6577fa35ed4e98242fa8ad929eee3b52f0227238b268dd0",
    ("trace_pairs", 0):
        "8766c9eec6f38aee35f2e06ece8d4c076b0458da1cb051d8f4344630080309de",
    ("trace_pairs", 1):
        "3baae31f5de45807617fc02035facb64274af2c75615caf54db4a3fdcbf59ad2",
    ("trace_pairs", 2):
        "990aebc7bd42a7d50ff4c281696fe944c162a06b02b0403f427d44d578491e31",
    ("tenants", 0):
        "1310edbee9c04381717b2b7cc48ab3ae7231a14c134d8a33785508ea5af7924c",
    ("tenants", 1):
        "b20128008ac15dd8da4e985c63b8d123034beae925cdf5793bf9f21860da8511",
    ("tenants", 2):
        "85c40cdec167745cbb0d7625a58df30742df26b8fe6796f80dbfdf87c59aba8d",
}


class TestLazyStream:
    @pytest.mark.parametrize("kind, seed", sorted(STREAM_GOLDEN))
    def test_stream_matches_up_front_generation(self, kind, seed):
        assert _stream_hash(_process(kind, seed).stream(30.0)) == \
            STREAM_GOLDEN[kind, seed]

    @pytest.mark.parametrize("kind", KINDS + ("tenants",))
    def test_stream_is_lazy(self, kind):
        """An endless horizon still yields requests, one at a time (a
        list of it would never finish)."""
        process = _process(kind, 0)
        stream = process.stream(float("inf"))
        head = [next(stream) for _ in range(5)]
        assert head == process.generate(30.0)[:5]
