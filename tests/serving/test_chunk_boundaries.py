"""Chunk boundaries of the arrival stream leave every run unchanged.

The frontend takes its arrival stream :data:`~repro.serving.frontend.
CHUNK_SIZE` requests at a time; a chunk's last arrival takes the next
chunk. Every fuzz draw pinned in ``FUZZ_GOLDEN`` offers fewer requests
than one default chunk, so its golden is the whole-stream run. Cutting
the same streams into chunks of 1, 2 and 3 requests must give the same
digest, event count and final clock, over every draw that serves
traffic: serving and cluster, with tenants, faults, retries and
streaming metrics, and traced (tracing changes no digest).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api.session import PoolRunner, Session
from repro.api.spec import PolicySpec, ScenarioSpec, TrainingSpec
from repro.fuzz.generator import draw_spec
from repro.serving import frontend as frontend_mod
from repro.serving.arrivals import PoissonArrivals
from repro.tenancy.arrivals import TenantArrivals
from tests.core.test_step_golden import FUZZ_GOLDEN, _fuzz_run

TRAFFIC_DRAWS = [seed for seed in sorted(FUZZ_GOLDEN)
                 if PoolRunner.serves_traffic(draw_spec(seed))]


def test_the_draws_cover_every_traffic_shape():
    specs = [draw_spec(seed) for seed in TRAFFIC_DRAWS]
    assert {spec.kind for spec in specs} == {"serving", "cluster"}
    assert any(spec.tenants for spec in specs)
    assert any(spec.faults is not None and spec.faults.retry_max_attempts > 1
               for spec in specs)
    assert any(spec.metrics.mode == "streaming" for spec in specs)


@pytest.mark.parametrize("chunk_size, traced",
                         [(1, False), (2, False), (3, False), (2, True)])
@pytest.mark.parametrize("seed", TRAFFIC_DRAWS)
def test_chunked_stream_matches_golden(seed, chunk_size, traced,
                                       monkeypatch):
    monkeypatch.setattr(frontend_mod, "CHUNK_SIZE", chunk_size)
    spec = draw_spec(seed)
    if traced:
        spec = spec.override({"obs.trace": True})
    assert _fuzz_run(spec) == FUZZ_GOLDEN[seed]


@pytest.mark.parametrize("seed", [seed for seed in TRAFFIC_DRAWS
                                  if draw_spec(seed).metrics.mode
                                  == "records"] + [65])
def test_each_request_is_decided_at_its_arrival_instant(seed, monkeypatch):
    """Arrivals are keyed by their own instant, not by a delay from the
    instant that scheduled them (which rounds once the clock is past 0)."""
    monkeypatch.setattr(frontend_mod, "CHUNK_SIZE", 2)
    with Session(draw_spec(seed)) as session:
        records = session.run().results().records
    assert records
    for record in records:
        decided = (record.admitted_at if record.rejected_at is None
                   else record.rejected_at)
        assert decided == record.request.arrival_s


def test_simultaneous_arrivals_split_across_chunks_keep_their_order(
        monkeypatch):
    """Tenants a and b share a seed, so each of a's arrivals has a twin
    from b at the same instant. A chunk's last arrival takes the next
    chunk before it is admitted, so a twin in the next chunk still runs
    ahead of whatever that admission schedules."""
    spec = ScenarioSpec(kind="serving", seed=0,
                        training=TrainingSpec(epochs=1),
                        policy=PolicySpec(admission="always"))
    arrivals = TenantArrivals([("a", PoissonArrivals(6.0, seed=1)),
                               ("b", PoissonArrivals(6.0, seed=1))])

    def run() -> tuple:
        with Session(spec, arrivals=arrivals) as session:
            summaries = session.run().results().summaries()
            sim = session.runner.pool.sim
        blob = json.dumps(summaries, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest(), sim.events_processed, sim.now

    whole = run()
    for chunk_size in (1, 2, 3):
        monkeypatch.setattr(frontend_mod, "CHUNK_SIZE", chunk_size)
        assert run() == whole
