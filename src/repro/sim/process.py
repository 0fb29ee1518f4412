"""Generator-coroutine simulation processes.

A process wraps a generator that yields events; the process resumes when the
yielded event triggers. A :class:`Process` is itself an event that triggers
when the generator returns (value = return value) or raises (failure), so
processes can wait on one another.

Processes support SimPy-style interrupts: :meth:`Process.interrupt` throws
:class:`~repro.sim.events.Interrupt` into the generator at the current
virtual instant, detaching it from whatever event it was waiting on.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.sim.events import PENDING, PROCESSED, Interrupt, SimEvent

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Process(SimEvent):
    """A running simulation process (and the event of its termination)."""

    __slots__ = ("_generator", "_waiting_on", "_resume_callback")

    def __init__(self, engine: "Engine", generator, name: str = "proc"):
        super().__init__(engine, name=name)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self._generator = generator
        self._waiting_on: SimEvent | None = None
        #: the bound ``_resume``, made once: it is registered on every
        #: event the process waits for
        self._resume_callback = self._resume
        # Kick the generator off at the current instant.
        bootstrap = SimEvent(engine, name=f"{name}:start")
        bootstrap.callbacks.append(self._resume_callback)
        bootstrap.succeed()
        self._waiting_on = bootstrap

    @property
    def alive(self) -> bool:
        """True until the generator has finished or failed."""
        return self.pending

    @property
    def waiting_on(self) -> SimEvent | None:
        """The event this process is currently blocked on, if any."""
        return self._waiting_on

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a dead process is a no-op, mirroring POSIX ``kill`` on a
        reaped pid being harmless within this simulation's semantics.
        """
        if not self.alive:
            return
        target = self._waiting_on
        if target is not None and self._resume_callback in target.callbacks:
            target.callbacks.remove(self._resume_callback)
        self._waiting_on = None
        self.engine.call_later(0.0, self._resume_with_throw, Interrupt(cause))

    # -- generator driving -------------------------------------------------
    def _resume(self, event: SimEvent) -> None:
        self._waiting_on = None
        if self._state != PENDING:
            return
        try:
            if event._exception is not None:
                target = self._generator.throw(event._exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return
        # The common case of _wait_for, inline: a not-yet-processed event
        # of this engine.
        if (isinstance(target, SimEvent) and target.engine is self.engine
                and target._state != PROCESSED):
            target.callbacks.append(self._resume_callback)
            self._waiting_on = target
        else:
            self._wait_for(target)

    def _resume_with_throw(self, exc: BaseException) -> None:
        if not self.alive:
            return
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as raised:  # noqa: BLE001 - propagate via event
            self.fail(raised)
            return
        self._wait_for(target)

    def _wait_for(self, target: object) -> None:
        if not isinstance(target, SimEvent):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; expected a SimEvent"
                )
            )
            return
        if target.engine is not self.engine:
            self.fail(SimulationError("process yielded an event from another engine"))
            return
        if target._state == PROCESSED:
            # Already done: resume at the current instant via a fresh event so
            # ordering stays heap-driven.
            relay = SimEvent(self.engine, name=f"{self.name}:relay")
            relay.callbacks.append(self._resume_callback)
            if target._exception is not None:
                relay.fail(target._exception)
            else:
                relay.succeed(target._value)
            self._waiting_on = relay
        else:
            target.callbacks.append(self._resume_callback)
            self._waiting_on = target
