"""Job descriptions for multi-job cluster deployments.

A :class:`ClusterJob` is one pipeline-training job inside a cluster: its
training configuration, the (simulated) server it runs on, and a label.
The :class:`~repro.cluster.builder.ClusterBuilder` turns a sequence of
jobs into one deployment whose bubbles all feed a single shared
side-task manager (paper section 8).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.gpu.cluster import make_server_i
from repro.pipeline.config import TrainConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.cluster import Server
    from repro.sim.engine import Engine

ServerFactory = typing.Callable[["Engine"], "Server"]


@dataclasses.dataclass(frozen=True)
class ClusterJob:
    """One pipeline-training job of a cluster deployment."""

    config: TrainConfig
    #: builds the job's own simulated server inside the shared engine
    server_factory: ServerFactory = make_server_i
    #: display label; empty = "job<index>" at build time
    name: str = ""

    def label(self, index: int) -> str:
        return self.name or f"job{index}"

    @property
    def num_stages(self) -> int:
        return self.config.num_stages


def as_jobs(
    jobs: "typing.Sequence[ClusterJob | TrainConfig]",
) -> "list[ClusterJob]":
    """Normalize a mixed job/config sequence into :class:`ClusterJob`\\ s.

    The builder accepts bare ``TrainConfig`` objects as well as jobs.
    """
    normalized = []
    for entry in jobs:
        if isinstance(entry, ClusterJob):
            normalized.append(entry)
        elif isinstance(entry, TrainConfig):
            normalized.append(ClusterJob(config=entry))
        else:
            raise TypeError(
                f"cluster jobs are ClusterJob or TrainConfig, "
                f"got {type(entry).__name__}"
            )
    return normalized
