"""Multi-tenant traffic: a superposition of per-tenant arrival streams.

Each tenant offers its own open-loop stream (its own arrival process,
rate, and workload mix, independently seeded); the service sees the
merged stream. :class:`TenantArrivals` merges the tenants' lazy streams,
tags each request with its tenant name, and renumbers ``request_id`` in
merged arrival order — preserving the frontend's invariant that request
ids are assigned in arrival order (deferred-dispatch requeueing and
FIFO/EDF tie-breaks rely on it).

Determinism matches the single-stream processes: every tenant's stream
derives from its own explicit seed, ties across tenants break by tenant
declaration order, and ``generate`` is idempotent.
"""

from __future__ import annotations

import dataclasses
import heapq
import typing

from repro.serving.arrivals import ArrivalProcess, TaskRequest


class TenantArrivals(ArrivalProcess):
    """Merge per-tenant :class:`ArrivalProcess` streams into one."""

    def __init__(self, streams: "typing.Sequence[tuple[str, ArrivalProcess]]"):
        if not streams:
            raise ValueError("need at least one (tenant, arrivals) stream")
        names = [name for name, _process in streams]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.streams = tuple(streams)

    def stream(self, horizon_s: float) -> "typing.Iterator[TaskRequest]":
        # Time first; simultaneous arrivals break by tenant declaration
        # order, then by the tenant's own stream order — fully determined.
        merged = heapq.merge(
            *(_keyed(order, name, process.stream(horizon_s))
              for order, (name, process) in enumerate(self.streams)),
            key=lambda entry: entry[:3],
        )
        for index, (_arrival, _order, _id, name, request) in enumerate(merged):
            yield dataclasses.replace(request, request_id=index, tenant=name)


def _keyed(order: int, name: str, requests: "typing.Iterator[TaskRequest]"):
    """One tenant's requests behind their merge key."""
    for request in requests:
        yield request.arrival_s, order, request.request_id, name, request
