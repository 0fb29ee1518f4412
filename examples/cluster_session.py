"""Multi-job cluster walkthrough: `kind="cluster"` through the session API.

The paper's section-8 deployment, declaratively: two pipeline-training
jobs — a 3.6B model and a 1.2B model, each on its own simulated 4-GPU
server — report their bubbles to one shared side-task manager, which
spreads a shared PageRank workload across the combined 8-worker pool.

Three ways to drive the same thing:

1. this script (a spec with explicit per-job entries, via `Session`);
2. the CLI sweep: ``repro run cluster --set jobs=3`` (an int expands to
   N copies of the base training section);
3. the programmatic pool: ``Cluster([config_a, ClusterJob(config_b)])``
   (``examples/multi_server.py``).

Run with::

    PYTHONPATH=src python examples/cluster_session.py
"""

from __future__ import annotations

from repro.api import ScenarioSpec, Session


def main() -> None:
    spec = ScenarioSpec.from_dict({
        "name": "two-job-cluster",
        "kind": "cluster",
        "jobs": [
            {"training": {"model": "3.6B", "epochs": 6}},
            {"training": {"model": "1.2B", "epochs": 6}, "name": "small"},
        ],
        "workloads": [{"name": "pagerank"}],   # shared, replicated pool-wide
        "policy": {"assignment": "least_loaded"},
    })

    with Session(spec) as session:
        result = session.run().results()

    for job in result.jobs:
        print(f"{job.name}: trained {job.training.total_time:.1f}s, "
              f"produced {job.bubble_time_s:.1f}s of bubbles, "
              f"harvested {job.harvested_s:.1f}s "
              f"({job.utilization:.0%} utilization)")

    print("\nper-worker harvest:")
    for report in sorted(result.tasks, key=lambda r: r.stage):
        print(f"  worker {report.stage}: {report.steps_done:6d} PageRank "
              f"iterations, running {report.running_s:5.1f}s, "
              f"state {report.final_state.value}")

    print(f"\ncluster totals: {result.total_units:.0f} units over "
          f"{result.total_bubble_s:.1f} bubble-seconds "
          f"({result.utilization:.0%} utilization, "
          f"{len(result.rejections)} rejections)")

    # The spec is plain data: export it, re-run it, get the same bytes.
    print(f"\nre-runnable spec:\n{spec.to_json()}")


if __name__ == "__main__":
    main()
