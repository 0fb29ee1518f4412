"""Fairness accounting for multi-tenant serving runs.

Reports, per tenant, the same lifecycle counters and latency quantiles
:class:`~repro.metrics.latency.ServingAccumulator` folds for the
aggregate — plus the two headline fairness numbers:

* **Jain's fairness index** over weight-normalized goodput
  (``goodput_i / weight_i``): 1.0 means every tenant receives service
  exactly proportional to its weight; ``1/n`` means one tenant gets
  everything;
* **weighted-share error**: the largest gap between any tenant's
  measured share of total goodput and its weight-implied target share —
  the number the ``fairness`` experiment's convergence column tracks.

Tenants come in as anything with ``name``/``weight`` attributes
(:class:`~repro.tenancy.tenants.TenantShare` or
:class:`~repro.api.spec.TenantSpec`); records from tenants nobody
declared are accounted under their own name at weight 1, in first-seen
order, so the numbers never silently drop traffic. The serving frontend
feeds one accumulator per tenant as requests settle and calls
:func:`fairness_from_accumulators`; :func:`fairness_metrics` groups a
list of records into the same accumulators first.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.metrics.latency import (
    LatencyStats,
    ServingAccumulator,
    ServingMetrics,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.frontend import RequestRecord


def jain_index(values: "typing.Sequence[float]") -> float:
    """Jain's fairness index: ``(Σx)² / (n·Σx²)``, in ``[1/n, 1]``.

    Defined as 1.0 for an empty or all-zero allocation (nothing was
    served, so nobody was treated unequally).
    """
    values = list(values)
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


def weighted_share_error(values: "typing.Sequence[float]",
                         weights: "typing.Sequence[float]") -> float:
    """Largest ``|measured share - weight-implied target share|``.

    0.0 when the allocation matches the weights exactly (or nothing was
    allocated at all — an all-zero run has no shares to misallocate).
    """
    values = list(values)
    weights = list(weights)
    if len(values) != len(weights):
        raise ValueError(
            f"need one weight per value, got {len(values)} values and "
            f"{len(weights)} weights"
        )
    total = sum(values)
    total_weight = sum(weights)
    if not values or total == 0.0:
        return 0.0
    if total_weight <= 0:
        raise ValueError(f"weights must sum positive, got {total_weight}")
    return max(
        abs(value / total - weight / total_weight)
        for value, weight in zip(values, weights)
    )


@dataclasses.dataclass
class TenantUsage:
    """One tenant's slice of a serving run."""

    name: str
    weight: float
    #: this tenant's aggregate lifecycle counters and latency quantiles
    metrics: ServingMetrics
    #: measured fraction of the run's total goodput
    share: float
    #: weight-implied target fraction
    target_share: float

    @property
    def goodput_rps(self) -> float:
        return self.metrics.goodput_rps

    @property
    def queueing(self) -> LatencyStats:
        return self.metrics.queueing

    @property
    def completion(self) -> LatencyStats:
        return self.metrics.completion

    def summary(self) -> dict:
        """JSON-safe digest (the determinism tests serialize these)."""
        return {
            "tenant": self.name,
            "weight": self.weight,
            "offered": self.metrics.offered,
            "admitted": self.metrics.admitted,
            "rejected": self.metrics.rejected,
            "completed": self.metrics.completed,
            "slo_met": self.metrics.slo_met,
            "goodput_rps": self.metrics.goodput_rps,
            "share": self.share,
            "target_share": self.target_share,
            "queueing_p95": self.metrics.queueing.p95,
            "completion_p95": self.metrics.completion.p95,
        }


@dataclasses.dataclass
class FairnessMetrics:
    """Per-tenant accounting plus the cross-tenant fairness indices."""

    tenants: "list[TenantUsage]"
    #: open-service duration every per-tenant rate normalizes by
    duration_s: float
    #: Jain's index over weight-normalized goodput (1.0 = perfectly fair)
    jain_goodput: float
    #: max |measured share - target share| across tenants
    max_share_error: float

    def tenant(self, name: str) -> TenantUsage:
        for usage in self.tenants:
            if usage.name == name:
                return usage
        raise KeyError(name)

    def summary(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "jain_goodput": self.jain_goodput,
            "max_share_error": self.max_share_error,
            "tenants": [usage.summary() for usage in self.tenants],
        }


def fairness_metrics(
    records: "typing.Iterable[RequestRecord]",
    tenants: typing.Sequence = (),
    duration_s: float = 0.0,
) -> FairnessMetrics:
    """Fold request records into per-tenant fairness accounting.

    ``tenants`` fixes the reporting order and the weights; tenants that
    appear only in the traffic are appended at weight 1.
    """
    accumulators: "dict[str, ServingAccumulator]" = {}
    for record in records:
        tenant = record.request.tenant
        if tenant not in accumulators:
            accumulators[tenant] = ServingAccumulator()
        accumulators[tenant].add(record)
    return fairness_from_accumulators(accumulators, tenants, duration_s)


def fairness_from_accumulators(
    accumulators: "typing.Mapping[str, ServingAccumulator]",
    tenants: typing.Sequence = (),
    duration_s: float = 0.0,
) -> FairnessMetrics:
    """Per-tenant fairness accounting over one accumulator per tenant.

    ``accumulators`` must be keyed by tenant name in first-arrival order:
    undeclared tenants are reported in that order (the frontend
    registers each tenant at its first arrival).
    """
    names = [share.name for share in tenants]
    weights = {share.name: share.weight for share in tenants}
    for tenant in accumulators:
        if tenant not in weights:
            names.append(tenant)
            weights[tenant] = 1.0
    per_tenant = {
        name: (accumulators[name] if name in accumulators
               else ServingAccumulator()).metrics(duration_s)
        for name in names
    }
    goodputs = [per_tenant[name].goodput_rps for name in names]
    total_goodput = sum(goodputs)
    total_weight = sum(weights[name] for name in names)
    usages = [
        TenantUsage(
            name=name,
            weight=weights[name],
            metrics=per_tenant[name],
            share=(per_tenant[name].goodput_rps / total_goodput
                   if total_goodput > 0 else 0.0),
            target_share=(weights[name] / total_weight
                          if total_weight > 0 else 0.0),
        )
        for name in names
    ]
    return FairnessMetrics(
        tenants=usages,
        duration_s=duration_s,
        jain_goodput=jain_index(
            [usage.goodput_rps / usage.weight for usage in usages]
        ),
        max_share_error=weighted_share_error(
            goodputs, [weights[name] for name in names]
        ),
    )
