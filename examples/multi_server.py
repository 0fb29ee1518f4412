"""Scalability extension (paper section 8): one manager, two servers.

Two independent pipeline-training jobs — a 3.6B model and a 1.2B model —
each on its own simulated 4-GPU server, report their bubbles to a single
shared side-task manager, which spreads eight PageRank side tasks across
the combined worker pool.

This is the programmatic :class:`~repro.cluster.Cluster` route;
see ``examples/cluster_session.py`` for the declarative spec/Session
version of the same deployment, and ``repro run cluster`` for the swept
experiment.

Run with::

    PYTHONPATH=src python examples/multi_server.py
"""

from __future__ import annotations

from repro.cluster import Cluster, ClusterJob
from repro.pipeline.config import TrainConfig, model_config
from repro.workloads.registry import workload_factory


def main() -> None:
    cluster = Cluster([
        TrainConfig(model=model_config("3.6B"), epochs=6, op_jitter=0.01),
        ClusterJob(TrainConfig(model=model_config("1.2B"), epochs=6,
                               op_jitter=0.01, seed=1), name="small"),
    ])
    accepted = sum(
        1 for _ in range(8)
        if cluster.submit(workload_factory("pagerank")) is not None
    )
    print(f"submitted {accepted} PageRank tasks across "
          f"{len(cluster.workers)} workers on {cluster.num_jobs} servers")

    result = cluster.run()

    for job in result.jobs:
        print(f"{job.name}: {job.training.total_time:.1f}s over "
              f"{len(job.training.trace.epochs)} epochs, "
              f"{job.utilization:.0%} bubble utilization")
    print("\nper-worker harvest:")
    for report in sorted(result.tasks, key=lambda r: r.stage):
        job_index, stage = cluster.job_of_worker(report.stage)
        print(f"  job {job_index} stage {stage}: {report.steps_done:6d} "
              f"PageRank iterations, running {report.running_s:5.1f}s, "
              f"state {report.final_state.value}")
    print(f"\ntotal harvested iterations: {result.total_units:.0f}")


if __name__ == "__main__":
    main()
