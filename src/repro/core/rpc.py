"""Virtual-time RPC channels (the gRPC stand-in).

The paper wires its components — instrumented DeepSpeed, the side-task
manager, workers, and task processes — with gRPC (section 4.6). What the
middleware's behaviour depends on is delivery latency: a pause RPC issued
at a bubble's end lands on the task about one latency later, and any
kernels the task launched in between overlap with training. This module
provides one-way casts and request/response calls with that latency.
"""

from __future__ import annotations

import typing

from repro import calibration
from repro.errors import RpcError
from repro.sim.engine import Engine
from repro.sim.events import SimEvent


class _CastBatch:
    """Same-instant casts sharing one heap entry (see ``cast``)."""

    __slots__ = ("due", "seq_guard", "handlers")

    def __init__(self, due: float):
        self.due = due
        self.seq_guard = -1
        self.handlers: list[tuple] = []


class RpcChannel:
    """A named endpoint pair with symmetric one-way latency."""

    def __init__(self, engine: Engine, name: str,
                 latency_s: float = calibration.RPC_LATENCY_S):
        if latency_s < 0:
            raise RpcError(f"RPC latency must be >= 0, got {latency_s}")
        self.engine = engine
        self.name = name
        self.latency_s = latency_s
        self.casts_sent = 0
        self.calls_sent = 0
        #: fault-injection drop windows; empty = the fast path untouched
        self.drop_windows: tuple = ()
        self.retransmit_delay_s = 0.0
        self.drops = 0
        self._batch: _CastBatch | None = None

    def install_faults(self, windows, retransmit_delay_s: float) -> None:
        """Drop casts sent inside ``windows``; retransmit after each
        window closes (commands are delayed, never lost)."""
        self.drop_windows = tuple(windows)
        self.retransmit_delay_s = retransmit_delay_s

    def _dropped_until(self, now: float) -> float | None:
        for window in self.drop_windows:
            if window.start_s <= now < window.end_s:
                return window.end_s
        return None

    def cast(self, handler: typing.Callable, *args, **kwargs) -> None:
        """Fire-and-forget: run ``handler`` one latency from now.

        Same-instant casts coalesce into a single heap entry. The batch
        is joinable only while nothing else has been scheduled on the
        engine since it was created (``seq_guard``): joined casts would
        have occupied consecutive heap slots at the same timestamp
        anyway, so running their handlers back to back inside one entry
        preserves the exact global execution order — the coalescing is
        observable only in the event count, never in the simulation.
        """
        self.casts_sent += 1
        engine = self.engine
        if self.drop_windows:
            window_end = self._dropped_until(engine.now)
            if window_end is not None:
                # Dropped: the sender's retry lands one retransmit delay
                # after the window closes (and is re-checked then, in
                # case windows overlap).
                self.drops += 1
                retry_at = window_end - engine.now + self.retransmit_delay_s
                engine.call_later(
                    retry_at, lambda _arg: self.cast(handler, *args, **kwargs))
                return
        due = engine.now + self.latency_s
        batch = self._batch
        if (
            batch is not None
            and batch.due == due
            and batch.seq_guard == engine._sequence
        ):
            batch.handlers.append((handler, args, kwargs))
            return
        batch = _CastBatch(due)
        batch.handlers.append((handler, args, kwargs))
        engine.call_later(self.latency_s, self._deliver, batch)
        batch.seq_guard = engine._sequence
        self._batch = batch

    def _deliver(self, batch: _CastBatch) -> None:
        # A handler may cast again on this channel; those casts belong
        # to a fresh entry (scheduled after this one), not this batch.
        if self._batch is batch:
            self._batch = None
        for handler, args, kwargs in batch.handlers:
            handler(*args, **kwargs)

    def call(self, handler: typing.Callable, *args, **kwargs) -> SimEvent:
        """Request/response: the returned event carries the handler's
        result after a full round trip (2x latency)."""
        self.calls_sent += 1
        reply = self.engine.event(name=f"{self.name}:reply")

        def _invoke(_arg):
            try:
                result = handler(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - deliver to caller
                reply.fail(RpcError(f"{self.name}: handler raised {exc!r}"),
                           delay=self.latency_s)
                return
            reply.succeed(result, delay=self.latency_s)

        self.engine.call_later(self.latency_s, _invoke)
        return reply
