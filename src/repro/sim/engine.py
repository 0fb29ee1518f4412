"""The discrete-event engine: a virtual clock plus an event queue.

The engine processes entries in ``(time, sequence)`` order, so
simultaneous entries run in the order they were scheduled — which makes
every simulation in this library fully deterministic for a given seed.

The heap holds one kind of entry, ``(time, seq, callback, arg)``, and
processing one is ``callback(arg)``. A timer that nothing waits on is
just such an entry (:meth:`Engine.call_later`, or :meth:`Engine.call_at`
for a fixed instant); a triggered event enters as
``(time, seq, SimEvent._process, event)``. Every entry point takes
the next sequence number, so an entry and an event scheduled at the same
instant keep their relative order. :meth:`Engine.reserve` takes a block
of them at once, for entries a caller will push one at a time later but
that must sort as if pushed now (a stream's arrivals).

``run`` localizes the heap and ``heappop`` instead of dispatching through
``step``/``peek`` per entry: the drain loop executes once per entry and
its overhead used to dominate end-to-end experiment time. The clock is a
plain ``now`` attribute that only the engine writes. Two further
drain-loop refinements (see PERFORMANCE.md): same-instant entries are
popped in an inner batch so the clock is written once per distinct
instant, and the horizon loop pops first and compares the popped time
against the horizon (pushing the one overshooting entry back) instead
of peeking ``heap[0][0]`` twice per entry. Running to exhaustion is
the same loop with the largest finite horizon: an entry due at
infinity is never processed.

:meth:`Engine.fire` lets a callback hand the loop the event it would
pop next anyway: triggered at the current instant with nothing else due
then, the event is processed right there instead of taking a round trip
through the heap (see PERFORMANCE.md, "Step path").
"""

from __future__ import annotations

import math
import sys
import typing
from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.obs.telemetry import PROCESS, Telemetry
from repro.obs.tracer import NULL_TRACER
from repro.sim.events import PENDING, PROCESSED, TRIGGERED, SimEvent, Timeout
from repro.sim.process import Process

ProcessGenerator = typing.Generator[SimEvent, object, object]

#: the latest instant an entry can run at; entries due at infinity wait
#: past every horizon
_LAST = sys.float_info.max

#: Events processed by every engine in this process, as a named counter
#: in the process-wide telemetry registry (parallel sweep workers report
#: their own deltas back to the parent; see ``experiments.common``,
#: which scopes this counter per run — the raw total only grows).
_PROCESS_EVENTS = PROCESS.counter("sim.events_processed")


def total_events_processed() -> int:
    """Process-wide count of processed events, for perf accounting.

    This number is never reset and spans every engine the process ran;
    for a per-run count read ``engine.events_processed`` (or scope the
    process counter: ``PROCESS.scoped("sim.events_processed")``).
    """
    return _PROCESS_EVENTS.value


def add_foreign_events(count: int) -> None:
    """Fold events processed elsewhere (sweep workers) into the total."""
    _PROCESS_EVENTS.add(count)


class Engine:
    """Drives a discrete-event simulation in virtual seconds."""

    def __init__(self):
        #: current virtual time in seconds; written only by the engine
        self.now: float = 0.0
        #: ``(time, seq, callback, arg)`` entries, processed as
        #: ``callback(arg)``
        self._heap: list[tuple[float, int, typing.Callable, object]] = []
        self._sequence = 0
        self._processes_started = 0
        #: entries this engine has popped and processed
        self.events_processed = 0
        #: inside a run() drain loop (fire may process in place)
        self._draining = False
        #: the event run(until=event) stops at; fire never processes an
        #: event past it
        self._stop_event: SimEvent | None = None
        #: events fire processed in place, not yet added to the counters
        self._fired = 0
        #: span tracer; the shared no-op singleton until a runner
        #: attaches a live one (see :func:`repro.obs.attach_tracer`)
        self.trace = NULL_TRACER
        #: this run's own metric registry (counters/gauges/timelines)
        self.telemetry = Telemetry()

    # -- event construction ---------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a pending event owned by this engine."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Spawn a simulation process from a generator."""
        self._processes_started += 1
        return Process(self, generator, name=name or f"proc-{self._processes_started}")

    # -- scheduling ------------------------------------------------------------
    def call_later(self, delay: float, callback: typing.Callable[[object], None],
                   arg: object = None) -> None:
        """Call ``callback(arg)`` ``delay`` seconds from now.

        The cheap timer: a bare heap entry, no event. It takes the next
        sequence number like every other entry point, so it keeps its
        place among events scheduled around it.
        """
        if not delay >= 0:  # also rejects NaN, which compares false
            raise SimulationError(f"delay must be >= 0, got {delay}")
        seq = self._sequence
        self._sequence = seq + 1
        heappush(self._heap, (self.now + delay, seq, callback, arg))

    def call_at(self, when: float, callback: typing.Callable[[object], None],
                arg: object = None, seq: int | None = None) -> None:
        """Call ``callback(arg)`` at the instant ``when``.

        :meth:`call_later` for an instant known in advance (a request's
        arrival): once ``now > 0``, ``now + (when - now)`` may round
        away from ``when``, so the entry is keyed by ``when`` itself.
        ``seq``, when given, is the entry's sequence number, one of a
        block taken with :meth:`reserve` and not used before; otherwise
        the entry takes the next one.
        """
        if not when >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {when}; clock is already at {self.now}")
        if seq is None:
            seq = self._sequence
            self._sequence = seq + 1
        heappush(self._heap, (when, seq, callback, arg))

    def reserve(self, count: int) -> int:
        """Take ``count`` sequence numbers now; returns the first.

        An entry pushed later with one of them (``call_at(..., seq=)``)
        sorts among same-instant entries as if it had been scheduled
        now: after every entry scheduled before, before every entry
        scheduled after.
        """
        if count < 0:
            raise SimulationError(f"cannot reserve {count} sequence numbers")
        base = self._sequence
        self._sequence = base + count
        return base

    def fire(self, event: SimEvent, value: object = None) -> None:
        """Trigger ``event`` with ``value`` at the current instant.

        For the tail of an entry's callback: nothing may run after it in
        the callback, nor any other callback after it on the event being
        processed. ``event`` takes the sequence number ``succeed()``
        would, so later keys (and an :class:`~repro.core.rpc.RpcChannel`
        cast batch's ``seq_guard``) do not move. Inside a :meth:`run`
        drain loop, when no other entry is due at this instant, the
        event is the next one the loop would pop: it is processed here
        and counted like a popped one. Otherwise, and always under
        :meth:`step` or once ``run(until=event)``'s event is processed,
        it is pushed like ``succeed()``.
        """
        if event._state != PENDING:
            raise SimulationError(f"event {event!r} already triggered")
        seq = self._sequence
        self._sequence = seq + 1
        event._value = value
        heap = self._heap
        now = self.now
        stop = self._stop_event
        if (self._draining and (not heap or heap[0][0] != now)
                and (stop is None or stop._state != PROCESSED)):
            self._fired += 1
            event._state = PROCESSED
            callbacks = event.callbacks
            event.callbacks = []
            for callback in callbacks:
                callback(event)
        else:
            event._state = TRIGGERED
            heappush(heap, (now, seq, SimEvent._process, event))

    # -- execution ---------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next entry, or ``inf`` when the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one entry."""
        heap = self._heap
        if not heap or heap[0][0] > _LAST:
            raise SimulationError(
                "step() on an empty event heap (no entry due before "
                "infinity)")
        when, _seq, callback, arg = heappop(heap)
        if when < self.now:
            raise SimulationError("event heap corrupted: time moved backwards")
        self.now = when
        self._account(1)
        draining = self._draining
        self._draining = False  # step() never fires in place
        try:
            callback(arg)
        finally:
            self._draining = draining

    def run(self, until: float | SimEvent | None = None) -> object:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no entry is due at a finite time;
        * a number — run until virtual time reaches that instant;
        * an event — run until that event is processed, returning its value.

        Scheduling guarantees monotone entry times (negative and NaN
        delays are rejected when an entry is scheduled), so unlike
        :meth:`step` the drain loops skip the per-entry clock check.
        Same-instant entries are drained in an inner batch (one clock
        write per distinct instant), and the horizon loop pops first and
        pushes back the one entry that overshoots rather than peeking
        the front twice per entry. An entry due at infinity is never
        processed: it stays queued, an infinite horizon leaves the clock
        at the last processed entry, and ``run(until=event)`` reports
        that it ran out of events.
        """
        heap = self._heap
        processed = 0
        outer = self._draining, self._stop_event
        self._draining = True
        try:
            if isinstance(until, SimEvent):
                stop_event = self._stop_event = until
                last = _LAST
                while stop_event._state != PROCESSED:
                    try:
                        item = heappop(heap)
                    except IndexError:
                        break
                    when = item[0]
                    if when > last:
                        heappush(heap, item)
                        break
                    self.now = when
                    processed += 1
                    item[2](item[3])
                else:
                    return stop_event.value
                raise SimulationError(
                    "simulation ran out of events before "
                    f"{stop_event!r} was processed"
                )

            self._stop_event = None
            if until is None:
                horizon = math.inf
            else:
                horizon = float(until)
                if math.isnan(horizon):
                    raise SimulationError("cannot run until NaN")
                if horizon < self.now:
                    raise SimulationError(
                        f"cannot run until {horizon}; clock is already at "
                        f"{self.now}"
                    )
            last = min(horizon, _LAST)
            while heap:
                item = heappop(heap)
                when = item[0]
                if when > last:
                    heappush(heap, item)
                    break
                self.now = when
                while True:
                    processed += 1
                    item[2](item[3])
                    if not heap or heap[0][0] != when:
                        break
                    item = heappop(heap)
            if horizon != math.inf:
                self.now = horizon
            return None
        finally:
            self._draining, self._stop_event = outer
            self._account(processed)

    def _account(self, processed: int) -> None:
        # Called once per run()/step(), not per event, so the registry
        # lookups stay off the drain loop's hot path.
        processed += self._fired
        self._fired = 0
        self.events_processed += processed
        self.telemetry.counter("sim.events_processed").add(processed)
        _PROCESS_EVENTS.add(processed)
