"""A dispatch round picks exactly what the earlier, rescanning round did.

``ServingFrontend._dispatch`` used to rebuild its view from the whole
queue after every blocked pick and every dispatch, look each queued
request's profile up again on every pick, drop a dispatched record with
``list.remove`` and keep an id-set of picks the assignment policy
declined. :func:`_reference_round` keeps that round, verbatim but for
the profile lookup (it reads the frontend's per-shape cache directly)
and the tracing and attempt-timeout branches (both off here), and
``REFERENCE_DISCIPLINES`` keeps the key-tuple EDF disciplines it ran.

Both rounds run over the same random queues in front of a stub pool:
records in one to four memory classes, deadline ties and best-effort
requests, several tenants, retries re-appended at the tail, workers
that fit none, some or all classes, and an assignment policy that
declines some requests. Each case runs one to three rounds, freeing
memory, re-queueing dispatched requests and admitting new ones between
them. Every discipline must see the same views and make the same
submissions, leave the same queue, and, for the weighted-fair
discipline, end at the same stride passes.
"""

from __future__ import annotations

import dataclasses
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.task_spec import TaskProfile
from repro.serving.arrivals import TaskRequest
from repro.serving.frontend import RequestRecord, ServingFrontend
from repro.serving.slo import AGING_WEIGHT, fifo_discipline
from repro.serving.slo import _ageable_deadline
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.tenancy.tenants import TenantShare

#: memory a request class needs; workers' free memory is drawn from
#: values below, equal to (eligibility is strict) and above these
MEMORY_GB = (1.0, 2.5, 4.0, 6.2, 11.5)
FREE_GB = (0.5, 1.0, 2.0, 2.5, 5.0, 6.2, 8.0, 12.0, 30.0)
#: absolute deadlines from a small set, so ties are common
DEADLINES = (None, 10.0, 15.0, 20.0)
#: "a" and "b" are declared; "" and "c" register on first sight
TENANTS = (TenantShare("a", weight=2.0), TenantShare("b", weight=1.0))
TENANT_NAMES = ("", "a", "b", "c")
#: earlier attempts of a queued request; most are first attempts
ATTEMPTS = (0, 0, 1, 2)
#: more picks than a case can make: each pick shrinks its round's view,
#: so a round picks at most once per queued record, and a case runs at
#: most 3 rounds over at most 80 + 3 * (8 + 4) records
MAX_PICKS = 1000


def _reference_edf(queue, now):
    return min(range(len(queue)),
               key=lambda i: (queue[i].effective_deadline, i))


def _reference_starvation_aware(queue, now):
    def key(i):
        record = queue[i]
        waited = now - record.request.arrival_s
        return (_ageable_deadline(record) - AGING_WEIGHT * waited, i)

    return min(range(len(queue)), key=key)


#: the disciplines the reference round ran; the stride scheduler is
#: unchanged, so the reference gets a fresh instance of it by name
REFERENCE_DISCIPLINES = {
    "fifo": fifo_discipline,
    "edf": _reference_edf,
    "starvation_aware": _reference_starvation_aware,
    "weighted": "weighted",
}


def _reference_round(self: ServingFrontend) -> None:
    """The rescanning round, kept as the reference."""
    def profile_for(request):
        return self._profiles[(request.workload, request.batch_size,
                               request.interface)]

    charge = getattr(self.discipline, "on_dispatch", None)
    limit_gb = float("inf")
    blocked: "set[int]" = set()
    while True:
        view = (self.queue if limit_gb == float("inf") and not blocked
                else [record for record in self.queue
                      if id(record) not in blocked
                      and profile_for(record.request)
                      .gpu_memory_gb < limit_gb])
        if not view:
            break
        index = self.discipline(view, self.sim.now)
        record = view[index]
        request = record.request
        profile = profile_for(request)
        if not self.freeride.manager.eligible_workers(
                profile.gpu_memory_gb):
            limit_gb = profile.gpu_memory_gb
            continue
        name = request.name
        if record.attempts > 0:
            name = f"{request.name}-a{record.attempts}"
        spec = self.freeride.submit(
            lambda request=request: self._build_workload(request),
            interface=request.interface,
            profile=profile,
            name=name,
            slo_class=request.slo_class,
            deadline_s=record.deadline_s,
            queue_depth=len(self.queue) - 1,
            checkpoint=self.checkpoint,
        )
        if spec is None:
            blocked.add(id(record))
            continue
        self.queue.remove(record)
        record.assigned_at = self.sim.now
        record.spec = spec
        record.attempts += 1
        self._by_spec[id(spec)] = record
        self._m_dispatched.add()
        self._m_queue_depth.set(len(self.queue), self.sim.now)
        if charge is not None:
            charge(record)


class _StubManager:
    def __init__(self, free_gb):
        self.free_gb = list(free_gb)
        self.terminal_listeners = []
        self.capacity_listeners = []

    def eligible_workers(self, gpu_memory_gb):
        """Worker indices with strictly more free memory than needed."""
        return [worker for worker, free in enumerate(self.free_gb)
                if free > gpu_memory_gb]


class _StubPool:
    """The pool surface a dispatch round uses. Its assignment policy
    takes the eligible worker with the most free memory and reserves the
    request's memory there, but declines every attempt of the requests
    named in ``declined``."""

    num_jobs = 1

    def __init__(self, free_gb, declined):
        self.sim = Engine()
        self.rng = RandomStreams(0)
        self.manager = _StubManager(free_gb)
        self.declined = declined
        #: (task name, worker or None, queue depth) per submission
        self.submissions = []

    def submit(self, workload_factory, interface, profile, name,
               slo_class, deadline_s, queue_depth, checkpoint):
        free_gb = self.manager.free_gb
        eligible = self.manager.eligible_workers(profile.gpu_memory_gb)
        worker = None
        request_name = name.split("-a")[0]  # drop the attempt suffix
        if eligible and request_name not in self.declined:
            worker = max(eligible, key=lambda w: (free_gb[w], -w))
            free_gb[worker] -= profile.gpu_memory_gb
        self.submissions.append((name, worker, queue_depth))
        if worker is None:
            return None
        return types.SimpleNamespace(name=name)


class _Spy:
    """Records the request ids of every view a discipline is shown.

    More than :data:`MAX_PICKS` picks means a round stopped shrinking
    its view; the spy then fails the case instead of letting it loop.
    """

    def __init__(self, discipline):
        self.discipline = discipline
        self.views = []
        if hasattr(discipline, "on_dispatch"):
            self.on_dispatch = discipline.on_dispatch

    def __call__(self, view, now):
        assert len(self.views) < MAX_PICKS, "a round stopped shrinking"
        self.views.append([record.request.request_id for record in view])
        return self.discipline(view, now)


@dataclasses.dataclass(frozen=True)
class _Entry:
    request_id: int
    shape: int
    deadline_s: "float | None"
    tenant: str
    #: > 0: a retry, queued at the tail behind later arrivals
    attempts: int
    #: admitted through the frontend (profile stamped) or queued directly
    stamped: bool


#: an entry is drawn as one integer below this (one field per digit of
#: a mixed radix), which keeps generation cheap and shrinks every field
#: toward its first value
ENTRY_CODES = 4 * len(DEADLINES) * len(TENANT_NAMES) * len(ATTEMPTS) * 2


def _entry(request_id: int, code: int, shapes: int) -> _Entry:
    code, shape = divmod(code, 4)
    code, deadline = divmod(code, len(DEADLINES))
    code, tenant = divmod(code, len(TENANT_NAMES))
    stamped, attempts = divmod(code, len(ATTEMPTS))
    return _Entry(request_id, shape % shapes, DEADLINES[deadline],
                  TENANT_NAMES[tenant], ATTEMPTS[attempts], bool(stamped))


def _entries(codes, first_id, shapes):
    return [_entry(first_id + i, code, shapes)
            for i, code in enumerate(codes)]


@st.composite
def _cases(draw):
    memory_gb = draw(st.lists(st.sampled_from(MEMORY_GB),
                              min_size=1, max_size=4))
    free_gb = draw(st.lists(st.sampled_from(FREE_GB), min_size=1,
                            max_size=4))
    codes = st.integers(0, ENTRY_CODES - 1)
    queued = _entries(draw(st.lists(codes, max_size=80)), 0, len(memory_gb))
    rounds = []
    next_id = len(queued)
    for _ in range(draw(st.integers(1, 3))):
        arrivals = _entries(draw(st.lists(codes, max_size=8)), next_id,
                            len(memory_gb))
        next_id += len(arrivals)
        rounds.append({
            "freed_gb": draw(st.lists(st.sampled_from((0.0, 1.5, 6.0)),
                                      min_size=len(free_gb),
                                      max_size=len(free_gb))),
            "retried": draw(st.lists(st.integers(0, next_id), max_size=4)),
            "arrivals": arrivals,
        })
    declined = draw(st.sets(st.integers(0, next_id), max_size=6))
    return memory_gb, free_gb, queued, rounds, declined


def _record(frontend: ServingFrontend, entry: _Entry) -> RequestRecord:
    request = TaskRequest(
        request_id=entry.request_id, arrival_s=0.25 * entry.request_id,
        workload="pagerank", job_steps=10, batch_size=entry.shape + 1,
        tenant=entry.tenant)
    record = RequestRecord(request=request, deadline_s=entry.deadline_s,
                           attempts=entry.attempts)
    if entry.stamped:
        frontend._profile_of(record)
    return record


def _enqueue(frontend, entries):
    """Arrival order, then the retries at the tail."""
    records = [_record(frontend, entry) for entry in entries]
    frontend.queue.extend(r for r in records if r.attempts == 0)
    frontend.queue.extend(r for r in records if r.attempts > 0)
    return records


def _drive(case, discipline, dispatch_round):
    memory_gb, free_gb, queued, rounds, declined = case
    pool = _StubPool(free_gb, {f"pagerank-r{request_id}"
                               for request_id in declined})
    frontend = ServingFrontend(pool, [], discipline=discipline,
                               tenants=TENANTS)
    for shape, gb in enumerate(memory_gb):
        frontend._profiles[("pagerank", shape + 1, "iterative")] = (
            TaskProfile(gpu_memory_gb=gb, step_time_s=0.01))
    spy = _Spy(frontend.discipline)
    frontend.discipline = spy
    records = _enqueue(frontend, queued)
    for number, step in enumerate(rounds):
        pool.sim.run(until=10.0 * number)
        for worker, gb in enumerate(step["freed_gb"]):
            pool.manager.free_gb[worker] += gb
        # A dispatched request whose attempt died goes back in line.
        for request_id in step["retried"]:
            if request_id < len(records):
                record = records[request_id]
                if record.spec is not None:
                    record.spec = None
                    record.assigned_at = None
                    frontend.queue.append(record)
        records += _enqueue(frontend, step["arrivals"])
        dispatch_round(frontend)
    stride = spy.discipline
    passes = ((dict(stride._pass), stride._vtime, dict(stride._order))
              if discipline == "weighted" else None)
    return (pool.submissions, spy.views,
            [record.request.request_id for record in frontend.queue],
            passes)


@pytest.mark.parametrize("discipline", sorted(REFERENCE_DISCIPLINES))
@settings(max_examples=100, deadline=None)
@given(case=_cases())
def test_round_matches_reference(discipline, case):
    current = _drive(case, discipline, ServingFrontend._dispatch)
    reference = _drive(case, REFERENCE_DISCIPLINES[discipline],
                       _reference_round)
    assert current == reference
