"""Latency classes and SLO accounting for the serving layer.

A request carries a latency class; the class maps to a completion
deadline relative to the request's arrival. The frontend stamps the
resulting *absolute* deadline onto the :class:`~repro.core.task_spec.
TaskSpec` it submits, where the deadline-aware assignment policies
(:func:`repro.core.policies.edf_policy` and friends) and the goodput
metric read it back.

The module also provides the dispatch-order disciplines the frontend's
admission queue can use: FIFO, earliest-deadline-first, and a
starvation-aware EDF that ages long-waiting best-effort requests into
urgency instead of letting deadline traffic bury them forever.
"""

from __future__ import annotations

import dataclasses
import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.frontend import RequestRecord


@dataclasses.dataclass(frozen=True)
class SLOClass:
    """One latency class: a name and a relative completion deadline."""

    name: str
    #: seconds from arrival to the completion deadline; None = best effort
    deadline_s: float | None

    def absolute_deadline(self, arrival_s: float) -> float | None:
        if self.deadline_s is None:
            return None
        return arrival_s + self.deadline_s


#: The serving experiments' three classes. Deadlines are sized against
#: the simulated bubble capacity: an interactive PageRank job needs a
#: couple of bubbles; a batch job only has to finish within the run.
SLO_CLASSES: dict[str, SLOClass] = {
    "interactive": SLOClass("interactive", deadline_s=10.0),
    "standard": SLOClass("standard", deadline_s=30.0),
    "batch": SLOClass("batch", deadline_s=None),
}


def slo_class(name: str) -> SLOClass:
    """Look up a class; unknown names are treated as best effort."""
    return SLO_CLASSES.get(name, SLOClass(name or "best_effort", None))


def met_slo(deadline_s: float | None, completed_at: float | None) -> bool:
    """Did a completion at ``completed_at`` meet its deadline?

    Unfinished requests never meet an SLO; best-effort requests (no
    deadline) meet theirs by completing at all.
    """
    if completed_at is None:
        return False
    return deadline_s is None or completed_at <= deadline_s + 1e-9


# ----------------------------------------------------------------------
# dispatch-order disciplines for the admission queue
# ----------------------------------------------------------------------
#: Given the queued records and the current time, the index to dispatch.
QueueDiscipline = typing.Callable[["typing.Sequence[RequestRecord]", float], int]

#: Aging weight for the starvation-aware discipline: one second of
#: waiting buys this many seconds of effective deadline credit.
AGING_WEIGHT = 0.5

#: Ageable deadline assigned to best-effort requests (relative to
#: arrival) by the starvation-aware discipline only — plain EDF keeps
#: them at +inf. Finite (inf would never age) and sized to the
#: simulation's timescale — runs are tens of seconds, so a best-effort
#: request waiting a few tens of seconds starts undercutting fresh
#: deadline traffic.
BEST_EFFORT_DEADLINE_S = 60.0


def _ageable_deadline(record: "RequestRecord") -> float:
    """A finite deadline for aging: best-effort gets arrival + the
    best-effort horizon instead of EDF's +inf."""
    if record.deadline_s is None:
        return record.request.arrival_s + BEST_EFFORT_DEADLINE_S
    return record.deadline_s


def fifo_discipline(queue, now: float) -> int:
    """Dispatch the head of the queue (arrival order, except that a
    retried request re-enters at the tail)."""
    return 0


def edf_discipline(queue, now: float) -> int:
    """Dispatch the earliest absolute deadline; queue order among equals.

    Best-effort requests sort last, at +inf (the records'
    ``effective_deadline``, read inline: this runs once per queued
    request per pick). ``index`` returns the first occurrence of the
    minimum, so ties (including all best-effort requests) break by queue
    position. That is arrival order, except that the frontend appends a
    retried request at the tail, behind requests that arrived after it.
    """
    deadlines = [math.inf if record.deadline_s is None
                 else record.deadline_s for record in queue]
    return deadlines.index(min(deadlines))


def starvation_aware_discipline(queue, now: float) -> int:
    """EDF with aging: waiting time discounts the effective deadline.

    A best-effort request that has waited long enough eventually
    undercuts fresh deadline traffic, bounding its starvation; deadline
    requests keep their relative EDF order because aging applies equally
    to requests that arrived together. Ties break by queue position, as
    in :func:`edf_discipline`.
    """
    deadlines = [
        _ageable_deadline(record)
        - AGING_WEIGHT * (now - record.request.arrival_s)
        for record in queue
    ]
    return deadlines.index(min(deadlines))


NAMED_DISCIPLINES: dict[str, QueueDiscipline] = {
    "fifo": fifo_discipline,
    "edf": edf_discipline,
    "starvation_aware": starvation_aware_discipline,
}
