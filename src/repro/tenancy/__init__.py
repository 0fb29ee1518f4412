"""Multi-tenant fairness over the shared serving queue.

PR 4 put many producers behind one shared placement loop; this subsystem
makes them *tenants*: named traffic sources with declared weights and
admission budgets, isolated from each other and served in proportion to
their shares. Three mechanisms, all riding the existing serving seams:

* :mod:`repro.tenancy.admission` — per-tenant token buckets on the
  admission seam (a flooding tenant drains only its own bucket);
* :mod:`repro.tenancy.scheduler` — stride-scheduled weighted-fair
  dispatch over tenant backlogs (the ``"weighted"`` discipline), EDF
  within each tenant's lane;
* :mod:`repro.tenancy.arrivals` — the merged open-loop stream of every
  tenant's own arrival process, tenant-tagged and renumbered in arrival
  order.

Fairness *accounting* (per-tenant goodput/latency, Jain's index,
weighted-share error) lives in :mod:`repro.metrics.fairness`; the
declarative surface is :class:`repro.api.spec.TenantSpec` plus the
``tenants`` field of a serving/cluster scenario; the registered
``fairness`` experiment sweeps tenant sets x dispatch into the
per-tenant fairness table (``repro run fairness --set tenants=4``).

The whole stack works identically over a single-job ``FreeRide`` and an
N-job ``Cluster``: both are the one side-task pool class,
:class:`~repro.core.middleware.Cluster`, and the stack only touches its
submission surface.
"""

from repro.tenancy.admission import PerTenantTokenBucket
from repro.tenancy.arrivals import TenantArrivals
from repro.tenancy.scheduler import NAMED_FAIR_DISCIPLINES, StrideDiscipline
from repro.tenancy.tenants import TenantShare, as_shares

__all__ = [
    "NAMED_FAIR_DISCIPLINES",
    "PerTenantTokenBucket",
    "StrideDiscipline",
    "TenantArrivals",
    "TenantShare",
    "as_shares",
]
