"""Weighted-fair dispatch over tenant backlogs: stride scheduling.

The serving frontend's FIFO/EDF disciplines are tenant-blind: whichever
tenant keeps the deepest backlog gets the most bubbles. The
:class:`StrideDiscipline` instead treats the admission queue as one
backlog *per tenant* and serves tenants in proportion to their declared
weights — classic stride scheduling (Waldspurger & Weihl, 1995):

* each tenant has ``stride = 1 / weight``; a *pass* counter advances by
  one stride per request actually dispatched;
* every dispatch goes to the backlogged tenant with the smallest pass,
  so over any interval where a set of tenants stays backlogged, their
  service counts converge to the exact weight ratio;
* the queue's *virtual time* is the pass value of the latest dispatch —
  the minimum pass among backlogged tenants, since that is who gets
  picked — and a dispatched tenant's pass is clamped up to it before
  charging. For continuously backlogged tenants the clamp is a no-op
  (their passes already sit at or above the minimum); a tenant that sat
  idle while its pass fell behind gets exactly one catch-up dispatch
  and then competes at the current virtual time — idle tenants bank no
  credit and cannot monopolize the queue on return;
* *within* a tenant, requests dispatch in EDF order (arrival order among
  equal deadlines), so SLO awareness survives inside each lane.

Unlike the stateless disciplines in :mod:`repro.serving.slo`, a stride
scheduler carries per-run state, so it is instantiated per run (see
:func:`repro.serving.frontend.make_discipline`) and charged only for
requests that actually reach a worker: the frontend calls
:meth:`StrideDiscipline.on_dispatch` after a successful submission, so a
pick that gets deferred for lack of bubble memory costs its tenant
nothing.
"""

from __future__ import annotations

import typing

from repro.tenancy.tenants import TenantShare, as_shares

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.frontend import RequestRecord


class StrideDiscipline:
    """Stride scheduling across tenant backlogs; EDF within a tenant."""

    name = "weighted"

    def __init__(self, tenants: "typing.Iterable[TenantShare]" = ()):
        self._stride: "dict[str, float]" = {}
        self._pass: "dict[str, float]" = {}
        #: tie-break order: declaration order, then first-seen order
        self._order: "dict[str, int]" = {}
        #: pass of the most recent dispatch — the queue's virtual time
        self._vtime = 0.0
        #: observability seam; the frontend installs one when tracing
        self._tracer = None
        for share in as_shares(tenants):
            self._register(share.name, share.weight)

    def attach_tracer(self, tracer) -> None:
        """Emit a per-pick instant event on each charged dispatch."""
        self._tracer = tracer

    def _register(self, tenant: str, weight: float) -> None:
        self._stride[tenant] = 1.0 / weight
        self._pass[tenant] = self._vtime + self._stride[tenant]
        self._order[tenant] = len(self._order)

    def __call__(self, queue: "typing.Sequence[RequestRecord]",
                 now: float) -> int:
        """The index of the next pick, in one pass over ``queue``.

        The pass registers undeclared tenants at weight 1, in first-seen
        order, and keeps each tenant's head: its first request with the
        least ``(effective_deadline, request_id)``. The pick is the head
        of the backlogged tenant with the least ``(pass, order)``.
        """
        # tenant -> (effective deadline, request id, index) of its head
        heads: "dict[str, tuple[float, int, int]]" = {}
        for index, record in enumerate(queue):
            request = record.request
            tenant = request.tenant
            deadline = record.effective_deadline
            head = heads.get(tenant)
            if head is None:
                if tenant not in self._stride:
                    self._register(tenant, 1.0)
            elif not (deadline < head[0] or (
                    deadline == head[0] and request.request_id < head[1])):
                continue
            heads[tenant] = (deadline, request.request_id, index)
        chosen = best = None
        for tenant in heads:
            rank = (self._pass[tenant], self._order[tenant])
            if best is None or rank < best:
                chosen, best = tenant, rank
        return heads[chosen][2]

    def on_dispatch(self, record: "RequestRecord") -> None:
        """Charge one stride — called only for requests that actually
        reached a worker, so a pick deferred for lack of memory is free."""
        tenant = record.request.tenant
        if tenant not in self._stride:
            self._register(tenant, 1.0)
        # Clamp to the virtual time: a no-op for continuously backlogged
        # tenants, the no-banked-credit rule for returning idle ones.
        self._vtime = max(self._pass[tenant], self._vtime)
        self._pass[tenant] = self._vtime + self._stride[tenant]
        if self._tracer is not None:
            self._tracer.instant(
                "dispatch", record.assigned_at, cat="scheduler.stride",
                track=("scheduler", tenant or "default"),
                args={"id": record.request.request_id,
                      "pass": self._pass[tenant], "vtime": self._vtime},
            )


#: per-name factories for the stateful, tenant-aware disciplines — the
#: counterpart of :data:`repro.serving.slo.NAMED_DISCIPLINES` for
#: disciplines that need a fresh instance (and the tenant set) per run
NAMED_FAIR_DISCIPLINES: "dict[str, typing.Callable[..., StrideDiscipline]]" = {
    "weighted": StrideDiscipline,
}
