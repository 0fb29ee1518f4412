"""The unified scenario/session API: one declarative front door.

Three layers, smallest surface first:

* :mod:`repro.api.spec` — :class:`ScenarioSpec` and friends: a scenario
  (cluster + training + workloads/mix + policies + sweep grid) as
  JSON-round-trippable data;
* :mod:`repro.api.session` — :class:`Session` and the :class:`Runner`
  protocol (``configure -> submit -> run -> results``) executing a spec
  through the side-task pool (batch, serving, cluster) or the bare
  pipeline;
* :mod:`repro.api.registry` — the experiment registry behind
  ``repro run <scenario>``, with typed rows and uniform JSON/CSV/txt
  artifact export (:mod:`repro.api.results`).

Quickstart (see API.md for the full tour)::

    from repro.api import ScenarioSpec, Session

    spec = ScenarioSpec.from_dict({
        "name": "quickstart",
        "training": {"epochs": 4},
        "workloads": [{"name": "pagerank"}],
    })
    with Session(spec) as session:
        result = session.run().results()
    print(result.total_units)
"""

from repro.api import registry
from repro.api.results import ResultRow, ResultSet
from repro.api.session import (
    PipelineRunner,
    PoolRunner,
    Runner,
    Session,
    make_runner,
)
from repro.api.spec import (
    ArrivalSpec,
    ClusterSpec,
    JobSpec,
    MixEntrySpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TenantSpec,
    TrainingSpec,
    WorkloadSpec,
    default_mix,
)

__all__ = [
    "ArrivalSpec",
    "ClusterSpec",
    "JobSpec",
    "MixEntrySpec",
    "PipelineRunner",
    "PolicySpec",
    "PoolRunner",
    "ResultRow",
    "ResultSet",
    "Runner",
    "ScenarioSpec",
    "Session",
    "SweepSpec",
    "TenantSpec",
    "TrainingSpec",
    "WorkloadSpec",
    "default_mix",
    "make_runner",
    "registry",
]
