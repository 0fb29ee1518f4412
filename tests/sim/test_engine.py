"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import heapq
import itertools
import math
import random

import pytest

from repro.core.rpc import RpcChannel
from repro.errors import SimulationError
from repro.sim.engine import Engine, total_events_processed


def test_clock_starts_at_zero(engine: Engine):
    assert engine.now == 0.0


def test_timeout_advances_clock(engine: Engine):
    timeout = engine.timeout(2.5)
    engine.run(until=timeout)
    assert engine.now == pytest.approx(2.5)


def test_negative_timeout_rejected(engine: Engine):
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_run_until_time_advances_clock_even_without_events(engine: Engine):
    engine.run(until=10.0)
    assert engine.now == 10.0


def test_run_until_past_time_rejected(engine: Engine):
    engine.run(until=5.0)
    with pytest.raises(SimulationError):
        engine.run(until=1.0)


def test_events_process_in_time_order(engine: Engine):
    order: list[str] = []
    for delay, label in [(3.0, "c"), (1.0, "a"), (2.0, "b")]:
        timeout = engine.timeout(delay)
        timeout.callbacks.append(lambda _ev, label=label: order.append(label))
    engine.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo(engine: Engine):
    order: list[int] = []
    for i in range(5):
        timeout = engine.timeout(1.0)
        timeout.callbacks.append(lambda _ev, i=i: order.append(i))
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_event_returns_value(engine: Engine):
    event = engine.event()
    engine.timeout(1.0).callbacks.append(lambda _ev: event.succeed("payload"))
    assert engine.run(until=event) == "payload"


def test_run_until_unreachable_event_raises(engine: Engine):
    event = engine.event()
    with pytest.raises(SimulationError):
        engine.run(until=event)


def test_step_on_empty_heap_raises(engine: Engine):
    with pytest.raises(SimulationError):
        engine.step()


def test_run_until_horizon_leaves_future_events(engine: Engine):
    fired: list[float] = []
    for delay in (1.0, 2.0, 3.0):
        engine.timeout(delay).callbacks.append(
            lambda _ev: fired.append(engine.now)
        )
    engine.run(until=2.0)
    assert fired == [1.0, 2.0]
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_peek_reports_next_event_time(engine: Engine):
    assert engine.peek() == float("inf")
    engine.timeout(4.0)
    assert engine.peek() == pytest.approx(4.0)


def test_run_until_horizon_before_any_event_keeps_it_pending(engine: Engine):
    """The first over-horizon event is popped, compared and pushed back;
    it must still fire on the next run() call."""
    fired: list[object] = []
    engine.timeout(3.0, value="late").callbacks.append(
        lambda ev: fired.append(ev.value)
    )
    engine.run(until=1.0)
    assert engine.now == 1.0 and fired == []
    engine.run()
    assert fired == ["late"] and engine.now == 3.0


def test_step_and_peek_walk_the_queue_in_time_order(engine: Engine):
    engine.timeout(1.0, value="a")
    engine.timeout(0.25, value="b")
    assert engine.peek() == 0.25
    engine.step()
    assert engine.now == 0.25 and engine.peek() == 1.0
    engine.step()
    assert engine.now == 1.0 and engine.events_processed == 2
    assert engine.peek() == float("inf")
    with pytest.raises(SimulationError, match="empty"):
        engine.step()


def test_run_until_event_leaves_later_events_pending(engine: Engine):
    done = engine.timeout(0.5, value=42)
    engine.timeout(2.0)
    assert engine.run(until=done) == 42
    assert engine.now == 0.5 and engine.peek() == 2.0


#: the three ways to drain the queue; each is its own code path
DRIVES = ("run", "horizons", "step")


def _drive(engine: Engine, drive: str) -> None:
    if drive == "run":
        engine.run()
    elif drive == "horizons":
        # many short run(until=...) calls: each ends by pushing the
        # first over-horizon event back onto the heap
        horizon = 0.0
        while engine.peek() != float("inf"):
            horizon += 0.5
            engine.run(until=horizon)
    else:
        while engine.peek() != float("inf"):
            engine.step()


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("drive", DRIVES)
def test_random_timeouts_fire_in_time_then_schedule_order(
    engine: Engine, drive: str, seed: int
):
    rng = random.Random(seed)
    # two decimals over 40 s make many same-instant ties
    delays = [round(rng.uniform(0.0, 40.0), 2) for _ in range(2000)]
    fired: list[int] = []
    for index, delay in enumerate(delays):
        # timeout events and bare call_later entries, interleaved
        if index % 2:
            engine.call_later(delay, fired.append, index)
        else:
            engine.timeout(delay).callbacks.append(
                lambda _ev, index=index: fired.append(index)
            )
    _drive(engine, drive)
    assert fired == sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert engine.events_processed == len(delays)


def _spawning_log(schedule, now, budget: int = 3000,
                  fire_now=None) -> list:
    """Each firing logs ``(id, time)`` and schedules one or two more
    events (until ``budget`` exist), drawing delays from one seeded
    stream. ``schedule(delay, fire)`` and ``now()`` bind it to a queue;
    the returned log fills as that queue is drained. Given
    ``fire_now(fire)``, a firing's last spawn with a zero delay goes
    through it instead (delays then have one decimal, so zero delays
    and same-instant ties are common)."""
    rng = random.Random(3)
    digits = 2 if fire_now is None else 1
    log: list = []
    made = 0

    def spawn(tail: bool = False) -> None:
        nonlocal made
        if made < budget:
            ident = made
            made += 1
            delay = round(rng.uniform(0.0, 2.0), digits)
            if tail and fire_now is not None and delay == 0.0:
                fire_now(lambda: fire(ident))
            else:
                schedule(delay, lambda: fire(ident))

    def fire(ident: int) -> None:
        log.append((ident, now()))
        count = rng.choice((1, 2))
        for index in range(count):
            spawn(tail=index == count - 1)

    for _ in range(10):
        spawn()
    return log


@pytest.mark.parametrize(
    "drive, firing",
    [(drive, False) for drive in DRIVES] + [(drive, True) for drive in DRIVES],
    ids=list(DRIVES) + [f"{drive}-fire" for drive in DRIVES])
def test_scheduling_while_running_matches_a_reference_heap(
    engine: Engine, drive: str, firing: bool
):
    """Events and bare entries scheduled from callbacks (zero delays
    included) interleave with pending ones exactly as one ``heapq`` of
    ``(time, seq)`` pops. ``Engine.fire`` from a callback's tail is a
    zero-delay push there."""
    heap: list = []
    seq = itertools.count()
    clock = 0.0

    def push(delay, fire):
        heapq.heappush(heap, (clock + delay, next(seq), fire))

    reference = _spawning_log(
        push, lambda: clock,
        fire_now=(lambda fire: push(0.0, fire)) if firing else None)
    while heap:
        clock, _seq, fire = heapq.heappop(heap)
        fire()

    #: per fire() call, whether it processed the event in place
    in_place: list[bool] = []

    def fire_now(fire) -> None:
        event = engine.event()
        event.callbacks.append(lambda _ev: fire())
        engine.fire(event)
        in_place.append(event.processed)

    scheduled = itertools.count()

    def schedule(delay, fire) -> None:
        # alternate timeout events and bare call_later entries
        if next(scheduled) % 2:
            engine.call_later(delay, lambda _arg: fire())
        else:
            engine.timeout(delay).callbacks.append(lambda _ev: fire())

    log = _spawning_log(schedule, lambda: engine.now,
                        fire_now=fire_now if firing else None)
    _drive(engine, drive)
    assert len(log) == 3000
    assert log == reference
    assert engine.events_processed == 3000
    if firing:
        # Both outcomes occur, except that step() never processes in
        # place.
        assert in_place.count(False) > 10
        assert any(in_place) is (drive != "step")


@pytest.mark.parametrize("delay", [-1.0, float("nan")],
                         ids=["negative", "nan"])
@pytest.mark.parametrize("trigger",
                         ["timeout", "call_later", "succeed", "fail"])
def test_bad_delays_are_rejected_on_every_entry_point(engine: Engine,
                                                      trigger, delay):
    engine.timeout(1.0)
    event = engine.event()
    with pytest.raises(SimulationError, match="delay must be >= 0"):
        if trigger == "timeout":
            engine.timeout(delay)
        elif trigger == "call_later":
            engine.call_later(delay, event.succeed)
        elif trigger == "succeed":
            event.succeed("value", delay=delay)
        else:
            event.fail(RuntimeError("boom"), delay=delay)
    # Nothing was scheduled, and a rejected trigger leaves the event
    # pending, so it can still be triggered.
    assert event.pending
    event.succeed("value", delay=2.0)
    engine.run()
    assert engine.now == 2.0 and event.value == "value"


def test_call_at_runs_at_exactly_its_instant(engine: Engine):
    # 0.7 + (2.9 - 0.7) rounds to 2.9000000000000004, so a delay from
    # the current clock could not key this entry at 2.9.
    seen = []
    engine.call_later(0.7, lambda _arg: engine.call_at(
        2.9, lambda arg: seen.append((engine.now, arg)), "at"))
    engine.call_at(2.9, lambda arg: seen.append((engine.now, arg)), "first")
    engine.run()
    # Same instant: entries run in the order they were scheduled.
    assert seen == [(2.9, "first"), (2.9, "at")]


@pytest.mark.parametrize("when", [0.5, float("nan")], ids=["past", "nan"])
def test_call_at_rejects_an_instant_before_the_clock(engine: Engine, when):
    engine.run(until=1.0)
    with pytest.raises(SimulationError, match="cannot schedule at"):
        engine.call_at(when, lambda _arg: None)
    engine.call_at(1.0, lambda _arg: None)  # now itself is fine
    engine.run()
    assert engine.now == 1.0 and engine.events_processed == 1


def test_nan_delays_cannot_move_the_clock_backwards(engine: Engine):
    # A NaN delay used to be scheduled, and its key broke the heap's
    # order: timeouts of 3, nan, 1 and 2 fired at 1, 2, nan and then 3.
    fired = []
    for delay in (3.0, float("nan"), 1.0, 2.0):
        try:
            timeout = engine.timeout(delay)
        except SimulationError:
            continue
        timeout.callbacks.append(lambda _ev: fired.append(engine.now))
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_nan_is_rejected(engine: Engine):
    engine.timeout(1.0)
    with pytest.raises(SimulationError, match="NaN"):
        engine.run(until=float("nan"))
    assert engine.now == 0.0
    assert engine.peek() == 1.0


#: (time, ticker, tick) in firing order. "fast" and "tied" tick on the
#: same instants, so each pair fires in scheduling order.
TICKER_GOLDEN = [
    (0.093, "fast", 0), (0.093, "tied", 0), (0.186, "fast", 1),
    (0.186, "tied", 1), (0.279, "fast", 2), (0.279, "tied", 2),
    (0.31, "slow", 0), (0.372, "fast", 3), (0.372, "tied", 3),
    (0.465, "fast", 4), (0.465, "tied", 4), (0.558, "fast", 5),
    (0.558, "tied", 5), (0.62, "slow", 1), (0.651, "fast", 6),
    (0.651, "tied", 6), (0.744, "fast", 7), (0.744, "tied", 7),
    (0.837, "fast", 8), (0.837, "tied", 8), (0.93, "fast", 9),
    (0.93, "tied", 9), (0.93, "slow", 2), (1.023, "fast", 10),
    (1.023, "tied", 10), (1.116, "fast", 11), (1.116, "tied", 11),
    (1.209, "fast", 12), (1.209, "tied", 12), (1.24, "slow", 3),
    (1.302, "fast", 13), (1.302, "tied", 13), (1.395, "fast", 14),
    (1.395, "tied", 14), (1.488, "fast", 15), (1.488, "tied", 15),
    (1.55, "slow", 4), (1.581, "fast", 16), (1.581, "tied", 16),
    (1.674, "fast", 17), (1.674, "tied", 17), (1.767, "fast", 18),
    (1.767, "tied", 18), (1.86, "fast", 19), (1.86, "tied", 19),
    (1.86, "slow", 5), (1.953, "fast", 20), (1.953, "tied", 20),
    (2.046, "fast", 21), (2.046, "tied", 21), (2.139, "fast", 22),
    (2.139, "tied", 22), (2.17, "slow", 6), (2.232, "fast", 23),
    (2.232, "tied", 23), (2.325, "fast", 24), (2.325, "tied", 24),
    (2.418, "fast", 25), (2.418, "tied", 25), (2.48, "slow", 7),
    (2.511, "fast", 26), (2.511, "tied", 26), (2.604, "fast", 27),
    (2.604, "tied", 27), (2.697, "fast", 28), (2.697, "tied", 28),
    (2.79, "fast", 29), (2.79, "tied", 29), (2.79, "slow", 8),
    (2.883, "fast", 30), (2.883, "tied", 30), (2.976, "fast", 31),
    (2.976, "tied", 31), (3.069, "fast", 32), (3.069, "tied", 32),
    (3.1, "slow", 9), (3.162, "fast", 33), (3.162, "tied", 33),
    (3.255, "fast", 34), (3.255, "tied", 34), (3.348, "fast", 35),
    (3.348, "tied", 35), (3.41, "slow", 10), (3.441, "fast", 36),
    (3.441, "tied", 36), (3.534, "fast", 37), (3.534, "tied", 37),
    (3.627, "fast", 38), (3.627, "tied", 38), (3.72, "fast", 39),
    (3.72, "tied", 39), (3.72, "slow", 11),
]


def test_three_ticker_event_order_golden(engine: Engine):
    log: list = []

    def ticker(name, period, count):
        for index in range(count):
            yield engine.timeout(period)
            log.append((round(engine.now, 9), name, index))

    engine.process(ticker("fast", 0.093, 40))
    engine.process(ticker("slow", 0.31, 12))
    engine.process(ticker("tied", 0.093, 40))
    engine.run(until=5.0)
    engine.run()
    assert log == TICKER_GOLDEN


def _on(event, callback):
    event.callbacks.append(callback)
    return event


def test_fire_processes_in_place_inside_run_when_nothing_else_is_due(
        engine: Engine):
    order: list[str] = []
    fired = _on(engine.event(), lambda ev: order.append(f"fired:{ev.value}"))

    def tail(_ev):
        order.append("timer")
        engine.fire(fired, "v")
        # processed before the callback returns, at the same instant
        assert fired.processed and engine.now == 1.0
        order.append("after fire")

    _on(engine.timeout(1.0), tail)
    _on(engine.timeout(2.0), lambda _ev: order.append("later"))
    engine.run()
    assert order == ["timer", "fired:v", "after fire", "later"]
    assert engine.events_processed == 3


def test_fire_outside_run_pushes_like_succeed(engine: Engine):
    fired = _on(engine.event(), lambda _ev: None)
    engine.fire(fired, 7)
    assert fired.triggered and not fired.processed
    assert engine.peek() == 0.0
    engine.run()
    assert fired.processed and fired.value == 7
    with pytest.raises(SimulationError, match="already triggered"):
        engine.fire(fired)


def test_fired_event_runs_after_an_earlier_same_instant_event(
        engine: Engine):
    """Another event due now runs first; the fired event keeps the key
    it reserved, ahead of events scheduled after the fire."""
    order: list[str] = []
    fired = _on(engine.event(), lambda _ev: order.append("fired"))
    late = _on(engine.event(), lambda _ev: order.append("late"))

    def first(_ev):
        order.append("first")
        engine.fire(fired)
        assert not fired.processed

    def second(_ev):
        order.append("second")
        late.succeed()

    _on(engine.timeout(1.0), first)
    _on(engine.timeout(1.0), second)
    engine.run()
    assert order == ["first", "second", "fired", "late"]


def test_step_processes_exactly_one_event_and_never_fires_in_place(
        engine: Engine):
    fired = _on(engine.event(), lambda _ev: None)
    calls: list[str] = []
    _on(engine.timeout(1.0), lambda _ev: engine.fire(fired))
    engine.call_later(1.0, calls.append, "entry")
    engine.step()
    assert engine.events_processed == 1 and not fired.processed
    assert calls == []
    engine.step()  # the bare entry, ahead of the fired event's push
    assert engine.events_processed == 2 and calls == ["entry"]
    assert not fired.processed
    engine.step()
    assert engine.events_processed == 3 and fired.processed
    assert engine.now == 1.0


def test_fire_does_not_process_past_the_run_until_event(engine: Engine):
    fired = _on(engine.event(), lambda _ev: None)
    stop = _on(engine.timeout(1.0), lambda _ev: engine.fire(fired))
    engine.run(until=stop)
    assert not fired.processed and engine.peek() == 1.0
    # ...but the fired event may itself be the one run() waits for
    target = _on(engine.event(), lambda _ev: None)
    _on(engine.timeout(1.0), lambda _ev: engine.fire(target))
    engine.run(until=target)
    assert target.processed and fired.processed


def test_fired_events_are_counted(engine: Engine):
    start = total_events_processed()
    for delay in (1.0, 2.0, 3.0):
        fired = _on(engine.event(), lambda _ev: None)
        _on(engine.timeout(delay),
            lambda _ev, fired=fired: engine.fire(fired))
    # a bare entry counts once, as an event does; so does the event a
    # fire from its tail processes in place
    fired = _on(engine.event(), lambda _ev: None)
    engine.call_later(4.0, engine.fire, fired)
    engine.run()
    assert fired.processed
    assert engine.events_processed == 8
    assert engine.telemetry.counter("sim.events_processed").value == 8
    assert total_events_processed() - start == 8


@pytest.mark.parametrize("trigger", ("succeed", "fire", "call_later"))
def test_fire_consumes_a_seq_so_a_cast_batch_is_not_joined(
        engine: Engine, trigger: str):
    """A cast after the trigger starts a new batch, as after succeed():
    the trigger's event, or a bare entry, sits between the two casts in
    (time, seq)."""
    channel = RpcChannel(engine, "rpc")
    order: list[str] = []
    relay = _on(engine.event(),
                lambda _ev: channel.cast(order.append, "second"))

    def tail(_ev):
        channel.cast(order.append, "first")
        if trigger == "fire":
            engine.fire(relay)
        elif trigger == "call_later":
            engine.call_later(0.0, relay.succeed)
        else:
            relay.succeed()

    _on(engine.timeout(1.0), tail)
    engine.run()
    assert order == ["first", "second"]
    # timer, relay (plus the entry that triggers it), and one delivery
    # per cast
    assert engine.events_processed == (5 if trigger == "call_later" else 4)


def test_nested_run_keeps_the_outer_loops_behaviour(engine: Engine):
    in_place: list[bool] = []

    def fire_at_tail() -> None:
        fired = engine.event()
        engine.fire(fired)
        in_place.append(fired.processed)

    def nested(_ev):
        _on(engine.timeout(0.0), lambda _ev: fire_at_tail())
        engine.step()  # a nested step() pushes
        _on(engine.timeout(0.5), lambda _ev: fire_at_tail())
        engine.run(until=1.5)  # a nested run() processes in place
        engine.run(until=engine.timeout(0.25))
        fire_at_tail()  # the outer loop's state is back: in place

    _on(engine.timeout(1.0), nested)
    stop = _on(engine.timeout(3.0), lambda _ev: None)
    engine.run(until=stop)
    assert in_place == [False, True, True]
    assert engine.now == 3.0 and engine.peek() == float("inf")
    assert engine.events_processed == 8


def test_run_until_infinity_leaves_the_clock_at_the_last_event(
        engine: Engine):
    engine.timeout(2.0)
    engine.run(until=math.inf)
    assert engine.now == 2.0
    engine.run(until=10.0)
    assert engine.now == 10.0


@pytest.mark.parametrize("kind", ("timeout", "call_later"))
def test_an_entry_due_at_infinity_is_never_processed(engine: Engine,
                                                      kind: str):
    fired: list[float] = []
    if kind == "timeout":
        _on(engine.timeout(math.inf), lambda _ev: fired.append(engine.now))
    else:
        engine.call_later(math.inf, fired.append, math.inf)
    engine.timeout(2.0)
    engine.run()
    # left queued, with the clock at the last finite entry
    assert fired == [] and engine.now == 2.0
    assert engine.peek() == math.inf
    engine.run(until=math.inf)
    assert fired == [] and engine.now == 2.0
    with pytest.raises(SimulationError, match="ran out of events"):
        engine.run(until=engine.event())
    with pytest.raises(SimulationError, match="empty"):
        engine.step()
    engine.run(until=5.0)
    assert fired == [] and engine.now == 5.0
    assert engine.events_processed == 1
