"""Graph-analytics side tasks: PageRank and Graph SGD (paper 6.1.4).

Adapted conceptually from Gardenia's benchmarks: PageRank runs real power
iterations over a synthetic power-law graph (the Orkut stand-in), and
Graph SGD performs real stochastic matrix-factorization updates on a
sparse rating matrix. Each FreeRide step is one algorithm iteration, as
in the paper ("in each iteration, the graph algorithm runs over the input
graph for one step").

Both algorithms are fully deterministic in their constructor arguments,
and the paper's standard deployment replicates the *same* task on every
worker (and re-runs it across every sweep point). Re-executing the
identical iteration sequence once per replica dominated experiment time,
so each configuration shares one memoized trajectory: the first instance
to reach step ``k`` computes it, every later instance reads the recorded
result. The observable outputs (residuals, losses, rank vectors) are
bit-identical to an unshared run.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import calibration
from repro.core.interfaces import IterativeSideTask
from repro.workloads.datasets import SyntheticRatings, synthetic_power_law_graph

#: PageRank rank-vector checkpoints, for O(1)-ish historical reads without
#: holding every iterate in memory
_CHECKPOINT_EVERY = 128
#: rank-vector checkpoints kept per trajectory (beyond this, rank_at
#: reconstructs from the last one — a diagnostics-only path)
_MAX_CHECKPOINTS = 64
#: distinct configurations memoized per workload kind; exceeding this
#: (many distinct seeds in one process) restarts the cache
_MAX_TRAJECTORIES = 16


def _bounded(cache: dict) -> dict:
    if len(cache) >= _MAX_TRAJECTORIES:
        cache.clear()
    return cache


class _PageRankTrajectory:
    """The shared, extendable power-iteration sequence of one configuration."""

    def __init__(self, num_nodes: int, damping: float, seed: int):
        adjacency = synthetic_power_law_graph(num_nodes, seed=seed)
        out_degree = np.asarray(adjacency.sum(axis=1)).ravel()
        self.num_nodes = num_nodes
        self.damping = damping
        self.dangling = np.flatnonzero(out_degree == 0)
        scale = np.divide(
            1.0, out_degree, out=np.zeros_like(out_degree), where=out_degree > 0
        )
        self.transition = sp.diags(scale) @ adjacency
        # The step multiplies by the transpose; materialize it as CSR once
        # instead of re-deriving a CSC view on every iteration.
        self.transition_T = self.transition.T.tocsr()
        self._rank = np.full(num_nodes, 1.0 / num_nodes)
        self.residuals: list[float] = []
        self._checkpoints: dict[int, np.ndarray] = {0: self._rank}

    def ensure(self, steps: int) -> None:
        while len(self.residuals) < steps:
            updated, residual = self._advance(self._rank)
            self.residuals.append(residual)
            self._rank = updated
            done = len(self.residuals)
            if (done % _CHECKPOINT_EVERY == 0
                    and len(self._checkpoints) < _MAX_CHECKPOINTS):
                self._checkpoints[done] = updated

    def _advance(self, rank: np.ndarray) -> tuple[np.ndarray, float]:
        """One power iteration — arithmetic identical to the original task."""
        dangling_mass = rank[self.dangling].sum()
        updated = (
            self.damping * (self.transition_T @ rank)
            + self.damping * dangling_mass / self.num_nodes
            + (1.0 - self.damping) / self.num_nodes
        )
        return updated, float(np.abs(updated - rank).sum())

    def rank_at(self, step: int) -> np.ndarray:
        """The rank vector after ``step`` iterations (0 = initial)."""
        if step == len(self.residuals):
            return self._rank
        if step in self._checkpoints:
            return self._checkpoints[step]
        base = (step // _CHECKPOINT_EVERY) * _CHECKPOINT_EVERY
        while base not in self._checkpoints:  # beyond the checkpoint cap
            base -= _CHECKPOINT_EVERY
        rank = self._checkpoints[base]
        for _ in range(step - base):
            rank, _residual = self._advance(rank)
        return rank


_PAGERANK_TRAJECTORIES: dict[tuple[int, float, int], _PageRankTrajectory] = {}


class PageRankTask(IterativeSideTask):
    """Power-iteration PageRank; one step per FreeRide iteration."""

    def __init__(self, num_nodes: int = 2000, damping: float = 0.85,
                 seed: int = 0):
        super().__init__(calibration.PAGERANK)
        self.num_nodes = num_nodes
        self.damping = damping
        self.seed = seed
        self.residuals: list[float] = []
        self._trajectory: _PageRankTrajectory | None = None
        self._transition: sp.csr_matrix | None = None
        self._dangling: np.ndarray | None = None

    def create_side_task(self) -> None:
        key = (self.num_nodes, self.damping, self.seed)
        trajectory = _PAGERANK_TRAJECTORIES.get(key)
        if trajectory is None:
            cache = _bounded(_PAGERANK_TRAJECTORIES)
            trajectory = cache[key] = _PageRankTrajectory(*key)
        self._trajectory = trajectory
        self._transition = trajectory.transition
        self._dangling = trajectory.dangling
        self.host_loaded = True

    def compute_step(self) -> None:
        """One real power iteration; the residual history shows convergence."""
        step = len(self.residuals) + 1
        self._trajectory.ensure(step)
        self.residuals.append(self._trajectory.residuals[step - 1])

    @property
    def rank_vector(self) -> np.ndarray:
        if self._trajectory is None:
            return None
        return self._trajectory.rank_at(len(self.residuals))


class _GraphSGDTrajectory:
    """The shared SGD loss sequence of one Graph SGD configuration."""

    def __init__(self, rank: int, batch_size: int, learning_rate: float,
                 regularization: float, seed: int):
        self.rank = rank
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.ratings = SyntheticRatings.generate(seed=seed)
        self._rng = np.random.default_rng(seed + 1)
        self.user_factors = (
            self._rng.normal(size=(self.ratings.num_users, rank)) * 0.1
        )
        self.item_factors = (
            self._rng.normal(size=(self.ratings.num_items, rank)) * 0.1
        )
        self.losses: list[float] = []

    def ensure(self, steps: int) -> None:
        while len(self.losses) < steps:
            self._step()

    def _step(self) -> None:
        """One SGD sweep — arithmetic identical to the original task."""
        ratings = self.ratings
        index = self._rng.integers(0, len(ratings.ratings), size=self.batch_size)
        users = ratings.users[index]
        items = ratings.items[index]
        truth = ratings.ratings[index]
        user_vecs = self.user_factors[users]
        item_vecs = self.item_factors[items]
        predicted = np.einsum("ij,ij->i", user_vecs, item_vecs)
        error = predicted - truth
        self.losses.append(float(np.mean(error**2)))
        grad_user = error[:, None] * item_vecs + self.regularization * user_vecs
        grad_item = error[:, None] * user_vecs + self.regularization * item_vecs
        np.subtract.at(
            self.user_factors, users, self.learning_rate * grad_user
        )
        np.subtract.at(
            self.item_factors, items, self.learning_rate * grad_item
        )


_GRAPH_SGD_TRAJECTORIES: dict[tuple, _GraphSGDTrajectory] = {}


class GraphSGDTask(IterativeSideTask):
    """Matrix-factorization SGD (Koren et al.); the paper's compute-hungry
    side task — 231% training-time increase when co-located via raw MPS."""

    def __init__(self, rank: int = 16, batch_size: int = 256,
                 learning_rate: float = 0.05, regularization: float = 0.02,
                 seed: int = 0):
        super().__init__(calibration.GRAPH_SGD)
        self.rank = rank
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.regularization = regularization
        self.seed = seed
        self.losses: list[float] = []
        self._trajectory: _GraphSGDTrajectory | None = None

    def create_side_task(self) -> None:
        key = (self.rank, self.batch_size, self.learning_rate,
               self.regularization, self.seed)
        trajectory = _GRAPH_SGD_TRAJECTORIES.get(key)
        if trajectory is None:
            cache = _bounded(_GRAPH_SGD_TRAJECTORIES)
            trajectory = cache[key] = _GraphSGDTrajectory(*key)
        self._trajectory = trajectory
        self.host_loaded = True

    def compute_step(self) -> None:
        """One real SGD sweep over a sampled batch of ratings."""
        step = len(self.losses) + 1
        self._trajectory.ensure(step)
        self.losses.append(self._trajectory.losses[step - 1])

    @property
    def loss_improved(self) -> bool:
        if len(self.losses) < 20:
            return False
        return float(np.mean(self.losses[-10:])) < float(np.mean(self.losses[:10]))

    # Factor matrices live on the shared trajectory. They reflect the
    # trajectory's frontier step, which can be ahead of this instance's
    # own loss count when another replica has advanced further —
    # diagnostics only; losses remain per-instance exact.
    @property
    def _user_factors(self) -> np.ndarray | None:
        return None if self._trajectory is None else self._trajectory.user_factors

    @property
    def _item_factors(self) -> np.ndarray | None:
        return None if self._trajectory is None else self._trajectory.item_factors
