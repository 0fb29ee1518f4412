"""Event primitives for the discrete-event engine.

An event moves through three states:

``PENDING``
    created but not yet triggered;
``TRIGGERED``
    scheduled on the engine's heap with a value or an exception;
``PROCESSED``
    popped from the heap; its callbacks have run.

Processes wait on events by yielding them (see :mod:`repro.sim.process`).
A timer that nothing waits on is not an event at all but a bare heap
entry (:meth:`~repro.sim.engine.Engine.call_later`); a triggered event is
the entry ``(time, seq, SimEvent._process, event)``. The classes use
``__slots__`` and keep their constructors free of string formatting —
display names are computed lazily in ``__repr__``.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot event that processes can wait on.

    Callbacks are callables of one argument (the event itself) invoked in
    registration order when the event is processed.
    """

    __slots__ = ("engine", "name", "callbacks", "_state", "_value", "_exception")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.callbacks: list[typing.Callable[["SimEvent"], None]] = []
        self._state = PENDING
        self._value: object = None
        self._exception: BaseException | None = None

    # -- state inspection -------------------------------------------------
    @property
    def pending(self) -> bool:
        return self._state == PENDING

    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True when the event carries a value rather than an exception."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._exception is None

    @property
    def value(self) -> object:
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    # -- triggering -------------------------------------------------------
    def succeed(self, value: object = None, delay: float = 0.0) -> "SimEvent":
        """Trigger the event with ``value`` after ``delay`` virtual seconds.

        A rejected delay (negative or NaN) raises and leaves the event
        pending.
        """
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self.engine.call_later(delay, SimEvent._process, self)
        self._state = TRIGGERED
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "SimEvent":
        """Trigger the event with an exception after ``delay`` seconds."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.engine.call_later(delay, SimEvent._process, self)
        self._state = TRIGGERED
        self._exception = exception
        return self

    # -- engine hook ------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called exactly once, as the callback of the
        event's heap entry (``Engine.fire`` open-codes it when it
        processes an event in place)."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        return f"<{label} state={self._state}>"


class Timeout(SimEvent):
    """An event that triggers after a fixed delay, created pre-triggered."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: object = None):
        super().__init__(engine)
        self.succeed(value, delay)


class _Condition(SimEvent):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: typing.Sequence[SimEvent]):
        super().__init__(engine, name=self.__class__.__name__)
        self.events = list(events)
        for event in self.events:
            if event.engine is not engine:
                raise SimulationError("condition mixes events from different engines")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event._state == PROCESSED:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: SimEvent) -> None:
        raise NotImplementedError

    def _collect_values(self) -> list[object]:
        return [event._value for event in self.events if event._state != PENDING]


class AllOf(_Condition):
    """Triggers once every child event has been processed.

    The value is the list of child values in declaration order. If any child
    fails, the condition fails with that child's exception.
    """

    __slots__ = ()

    def _on_child(self, event: SimEvent) -> None:
        if self._state != PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self.events])


class AnyOf(_Condition):
    """Triggers as soon as the first child event is processed.

    The value is that child's value; failure propagates a child failure.
    """

    __slots__ = ()

    def _on_child(self, event: SimEvent) -> None:
        if self._state != PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(event._value)
