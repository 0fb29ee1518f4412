"""Every arrival runs where a whole-stream schedule would run it.

The frontend reads its arrival stream one request ahead of the clock:
each arrival registers the next request before it is admitted, and
schedules it under a heap sequence number reserved at construction
(``Engine.reserve``), arrival i at ``base + i``. So among entries due at
the same instant, an arrival runs after every entry scheduled before the
frontend was built and before every entry scheduled after, wherever it
sits in the stream: the order a schedule of the whole stream at
construction gives. ``_WholeStreamFrontend`` is that schedule, kept as
the reference.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from repro.api.session import PoolRunner, Session
from repro.api.spec import PolicySpec, ScenarioSpec, TrainingSpec
from repro.fuzz.generator import draw_spec
from repro.serving import frontend as frontend_mod
from repro.serving.arrivals import PoissonArrivals, TaskRequest
from repro.serving.frontend import RequestRecord, ServingFrontend
from repro.serving import slo as slo_mod
from repro.tenancy.arrivals import TenantArrivals
from tests.core.test_step_golden import FUZZ_GOLDEN, _fuzz_run
from tests.serving.test_dispatch_round import _StubPool

TRAFFIC_DRAWS = [seed for seed in sorted(FUZZ_GOLDEN)
                 if PoolRunner.serves_traffic(draw_spec(seed))]


class _WholeStreamFrontend(ServingFrontend):
    """The frontend with its whole stream registered and scheduled at
    construction, each arrival taking the engine's next sequence
    number."""

    def _schedule_next_arrival(self) -> None:
        arrivals, self._arrivals = self._arrivals, iter(())
        for request in arrivals:
            record = RequestRecord(
                request=request,
                deadline_s=slo_mod.slo_class(request.slo_class)
                .absolute_deadline(request.arrival_s),
            )
            if self.streaming:
                self._live[request.request_id] = record
            else:
                self.records.append(record)
            self.sim.call_at(request.arrival_s, self._on_arrival, record)


#: timers the probed frontends set right after construction
PROBES = 8


def _probed(base: type) -> type:
    """``base`` with a timer set right after construction at the
    instant of each of the stream's first :data:`PROBES` requests; each
    timer logs how many arrivals ran before it."""

    class Probed(base):
        def __init__(self, freeride, requests, **kwargs):
            requests = iter(requests)
            head = list(itertools.islice(requests, PROBES))
            self.arrived = 0
            self.probe_log = []
            super().__init__(freeride, itertools.chain(head, requests),
                             **kwargs)
            for request in head:
                self.sim.call_at(request.arrival_s, self._probe)

        def _on_arrival(self, record):
            self.arrived += 1
            super()._on_arrival(record)

        def _probe(self, _arg) -> None:
            self.probe_log.append((self.sim.now, self.arrived))

    return Probed


def test_the_draws_cover_every_traffic_shape():
    specs = [draw_spec(seed) for seed in TRAFFIC_DRAWS]
    assert {spec.kind for spec in specs} == {"serving", "cluster"}
    assert any(spec.tenants for spec in specs)
    assert any(spec.faults is not None and spec.faults.retry_max_attempts > 1
               for spec in specs)
    assert any(spec.metrics.mode == "streaming" for spec in specs)


@pytest.mark.parametrize("seed", TRAFFIC_DRAWS)
def test_whole_stream_schedule_matches_golden(seed, monkeypatch):
    """The goldens are the runs of the stream read one request ahead;
    scheduled whole, every draw's digest, event count and final clock
    are the same."""
    monkeypatch.setattr(frontend_mod, "ServingFrontend",
                        _WholeStreamFrontend)
    assert _fuzz_run(draw_spec(seed)) == FUZZ_GOLDEN[seed]


@pytest.mark.parametrize("seed", TRAFFIC_DRAWS)
def test_timers_set_after_construction_run_after_their_arrivals(
        seed, monkeypatch):
    """On every traffic draw, a timer set after the frontend is built,
    at the instant of one of the first arrivals, runs after that
    arrival, where it runs against the whole-stream schedule."""
    logs = []
    for base in (ServingFrontend, _WholeStreamFrontend):
        monkeypatch.setattr(frontend_mod, "ServingFrontend", _probed(base))
        with Session(draw_spec(seed)) as session:
            session.run()
            logs.append(session.runner.frontend.probe_log)
    lazy, whole = logs
    assert lazy == whole
    assert lazy and all(arrived >= number for number, (_now, arrived)
                        in enumerate(lazy, 1))


@pytest.mark.parametrize("seed", TRAFFIC_DRAWS)
def test_traced_stream_matches_golden(seed):
    spec = draw_spec(seed).override({"obs.trace": True})
    assert _fuzz_run(spec) == FUZZ_GOLDEN[seed]


@pytest.mark.parametrize("seed", [seed for seed in TRAFFIC_DRAWS
                                  if draw_spec(seed).metrics.mode
                                  == "records"] + [65])
def test_each_request_is_decided_at_its_arrival_instant(seed):
    """Arrivals are keyed by their own instant, not by a delay from the
    instant that scheduled them (which rounds once the clock is past 0)."""
    with Session(draw_spec(seed)) as session:
        records = session.run().results().records
    assert records
    for record in records:
        decided = (record.admitted_at if record.rejected_at is None
                   else record.rejected_at)
        assert decided == record.request.arrival_s


def test_simultaneous_arrivals_keep_their_order(monkeypatch):
    """Tenants a and b share a seed, so each of a's arrivals has a twin
    from b at the same instant. Each arrival registers its twin before
    it is admitted, so the twin still runs ahead of whatever that
    admission schedules, as in the whole-stream schedule."""
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

    lazy = run()
    monkeypatch.setattr(frontend_mod, "ServingFrontend",
                        _WholeStreamFrontend)
    assert run() == lazy


@pytest.mark.parametrize("first", [0, 2_000, 4_093, 4_096, 4_194])
def test_an_entry_scheduled_after_construction_runs_after_every_arrival(
        first):
    """Six of 4,200 requests arrive at 1.0 s, from index ``first`` on;
    a timer for 1.0 s set after the frontend is built runs after all
    six, wherever they sit in the stream. (When the frontend took the
    stream 4,096 requests at a time, it ran after only the arrivals of
    the first 4,096 requests.)"""
    count = 4_200
    times = [0.5 * i / count for i in range(first)] + [1.0] * 6 + [
        1.0 + (i + 1) / count for i in range(count - first - 6)]
    requests = [TaskRequest(request_id=i, arrival_s=when,
                            workload="pagerank", job_steps=10)
                for i, when in enumerate(times)]
    pool = _StubPool([], declined=set())
    frontend = ServingFrontend(pool, iter(requests))
    decided_before_probe = []

    def probe(_arg) -> None:
        decided_before_probe.append(sum(
            record.admitted_at is not None or record.rejected_at is not None
            for record in frontend.records[first:first + 6]))

    pool.sim.call_at(1.0, probe)
    pool.sim.run()
    assert decided_before_probe == [6]
    assert len(frontend.records) == count
