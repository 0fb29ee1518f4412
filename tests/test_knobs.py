"""No silent knob: a run's seed and ``policy`` section reach every pool.

Every registered scenario except ``fuzzcase`` (which replays a given
spec) runs at one epoch under a non-default seed and a non-default value
for each manager setting. A recorder sees each side-task pool and each
hand-staged worker as it is built, and each manager; every one must have
received the overrides, or a value from the scenario's own grid for that
field. The serial sweep backend keeps every point in this process, where
the recorder can see it.

The records are compared, not the outputs: a staged demo's output need
not move with the seed.
"""

from __future__ import annotations

import pytest

from repro.api import registry
from repro.core.manager import SideTaskManager
from repro.core.middleware import Cluster
from repro.core.policies import NAMED_POLICIES
from repro.core.worker import SideTaskWorker
from repro.experiments import ablations

SEED = 3
ASSIGNMENT = "worst_fit"
RPC_LATENCY_S = 0.05
GRACE_PERIOD_S = 0.3
OVERRIDES = {
    "training.epochs": 1,
    "seed": SEED,
    "policy.assignment": ASSIGNMENT,
    "policy.rpc_latency_s": RPC_LATENCY_S,
    "policy.grace_period_s": GRACE_PERIOD_S,
}
#: training-only scenarios: no pool, no manager
NO_POOL = ("fig1", "fig2")
#: per scenario, the manager settings it sweeps on purpose
GRIDS = {
    "ablations": {
        "assignment": ablations.ABLATION_POLICIES,
        "rpc_latency_s": ablations.RPC_LATENCIES,
        "grace_period_s": ablations.GRACE_PERIODS,
    },
}
SCENARIOS = [name for name in registry.names() if name != "fuzzcase"]


class Recorder:
    """The seed of every pool and staged worker, and the settings of
    every manager, in the order they were built."""

    def __init__(self, monkeypatch):
        #: (what, seed): "pool" or "staged worker"
        self.seeds: "list[tuple[str, int]]" = []
        #: (assignment policy, RPC latency, grace period) per manager
        self.managers: "list[tuple]" = []
        self._building: "list[Cluster]" = []
        self._wrap(monkeypatch, Cluster, self._pool)
        self._wrap(monkeypatch, SideTaskWorker, self._worker)
        self._wrap(monkeypatch, SideTaskManager, self._manager)

    def _wrap(self, monkeypatch, cls, record) -> None:
        original = cls.__init__

        def init(obj, *args, **kwargs):
            self._building.append(obj)
            try:
                original(obj, *args, **kwargs)
            finally:
                self._building.pop()
            record(obj)

        monkeypatch.setattr(cls, "__init__", init)

    def _pool(self, pool: Cluster) -> None:
        self.seeds.append(("pool", pool.rng.seed))

    def _worker(self, worker: SideTaskWorker) -> None:
        # A pool's own workers draw from streams spawned off the pool's
        # seed, which the pool's record covers.
        if not any(isinstance(obj, Cluster) for obj in self._building):
            self.seeds.append(("staged worker", worker.rng.seed))

    def _manager(self, manager: SideTaskManager) -> None:
        self.managers.append((manager.policy, manager.rpc.latency_s,
                              manager.grace_period_s))


@pytest.mark.parametrize("name", SCENARIOS)
def test_seed_and_policy_reach_every_pool(name, monkeypatch):
    recorder = Recorder(monkeypatch)
    registry.run(name, OVERRIDES, backend="serial")
    if name in NO_POOL:
        assert recorder.seeds == recorder.managers == []
        return
    assert recorder.seeds and recorder.managers
    assert [seed for _what, seed in recorder.seeds
            if seed != SEED] == [], recorder.seeds
    grid = GRIDS.get(name, {})
    policies = {NAMED_POLICIES[policy]
                for policy in (ASSIGNMENT, *grid.get("assignment", ()))}
    latencies = {RPC_LATENCY_S, *grid.get("rpc_latency_s", ())}
    graces = {GRACE_PERIOD_S, *grid.get("grace_period_s", ())}
    for policy, latency, grace in recorder.managers:
        assert policy in policies, policy.__name__
        assert latency in latencies
        assert grace in graces
