"""Multi-job cluster deployments: one shared manager, many training jobs.

The paper's section-8 scalability extension. A :class:`Cluster` runs
each :class:`ClusterJob` on its own simulated server and puts every
job's workers behind a single shared
:class:`~repro.core.manager.SideTaskManager`, so Algorithm 1 places
side tasks across the combined pool; a :class:`ClusterResult` reports
each job's training (:class:`JobResult`), the side tasks and the
cluster-wide bubble utilization. The pool lives in
:mod:`repro.core.middleware`, where :class:`~repro.core.middleware.FreeRide`
is its one-job case.

Declarative use goes through the scenario API: a ``kind="cluster"``
:class:`~repro.api.spec.ScenarioSpec` (``repro run cluster``).
"""

from repro.core.middleware import Cluster, ClusterJob, ClusterResult, JobResult

__all__ = [
    "Cluster",
    "ClusterJob",
    "ClusterResult",
    "JobResult",
]
