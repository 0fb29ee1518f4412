"""The scale-ladder harness: determinism, mode invariance, CLI."""

from __future__ import annotations

import json

import pytest

from repro.serving.scale import main, peak_rss_bytes, run_scale

#: small enough for unit tests, large enough for stable quantiles
REQUESTS = 4000
RATE = 400.0


def _digest(**overrides) -> dict:
    kwargs = dict(requests=REQUESTS, rate_per_s=RATE, seed=1)
    kwargs.update(overrides)
    return run_scale(**kwargs).summary()


class TestRunScale:
    def test_deterministic_across_runs(self):
        assert _digest() == _digest()

    def test_scalar_and_vectorized_arrivals_agree_on_counts(self):
        vector = _digest(vectorized=True)
        scalar = _digest(vectorized=False)
        assert scalar["offered"] == vector["offered"]
        assert scalar["completed"] == vector["completed"]

    def test_streaming_matches_records_counts_and_extremes(self):
        streaming = _digest(mode="streaming")
        records = _digest(mode="records")
        for field in ("offered", "completed", "rejected", "events"):
            assert streaming[field] == records[field]
        for stat in ("wait", "sojourn"):
            assert streaming[stat]["count"] == records[stat]["count"]
            assert streaming[stat]["mean"] == \
                pytest.approx(records[stat]["mean"], rel=1e-12)
            assert streaming[stat]["max"] == records[stat]["max"]
            # sketch quantiles track the exact fold (abs floor: the
            # exact wait p50 is 0.0 — most requests find a free server
            # — and the sketch interpolates a tiny positive height)
            for q in ("p50", "p95", "p99"):
                assert streaming[stat][q] == \
                    pytest.approx(records[stat][q], rel=0.10, abs=2e-3)

    def test_all_arrival_kinds_run(self):
        for kind in ("poisson", "bursty", "diurnal"):
            digest = _digest(kind=kind, requests=1000)
            assert digest["completed"] > 0

    def test_bounded_queue_rejects_at_overload(self):
        digest = _digest(servers=1, utilization=0.95, queue_capacity=4)
        assert digest["rejected"] > 0
        # whatever is neither completed nor rejected was still in
        # flight when the horizon drained: at most servers + queue
        in_flight = (digest["offered"] - digest["completed"]
                     - digest["rejected"])
        assert 0 <= in_flight <= 1 + 4

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="request count"):
            run_scale(requests=0)
        with pytest.raises(ValueError, match="arrival rate"):
            run_scale(requests=10, rate_per_s=0.0)
        with pytest.raises(ValueError, match="utilization"):
            run_scale(requests=10, utilization=1.5)
        with pytest.raises(ValueError, match="mode"):
            run_scale(requests=10, mode="exact")

    def test_peak_rss_is_positive(self):
        assert peak_rss_bytes() > 0
        result = run_scale(requests=500, rate_per_s=RATE)
        assert result.peak_rss_bytes >= peak_rss_bytes() // 2
        assert result.wall_s > 0
        assert result.events_per_s > 0


class TestScaleCli:
    def test_json_output_round_trips(self, capsys):
        assert main(["--requests", "1000", "--rate", "400",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] > 0
        assert payload["peak_rss_bytes"] > 0
        assert payload["mode"] == "streaming"

    def test_human_output(self, capsys):
        assert main(["--requests", "1000", "--rate", "400"]) == 0
        out = capsys.readouterr().out
        assert "events/s" in out and "peak_rss" in out

    @pytest.mark.parametrize("args, message", [
        (["--requests", "0"], "request count must be positive"),
        (["--rate", "0"], "arrival rate must be positive"),
        (["--servers", "0"], "server count must be positive"),
        (["--utilization", "1.5"], "utilization must be in (0, 1)"),
    ])
    def test_bad_arguments_are_usage_errors(self, capsys, args, message):
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_cli_matches_api_digest(self, capsys):
        main(["--requests", "1000", "--rate", "400", "--seed", "3",
              "--json"])
        payload = json.loads(capsys.readouterr().out)
        reference = run_scale(requests=1000, rate_per_s=400.0,
                              seed=3).summary()
        assert {key: payload[key] for key in reference} == reference
