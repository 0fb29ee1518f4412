"""The benchmark's three workloads: one seeded scenario per runner.

Each workload builds a :class:`~repro.api.spec.ScenarioSpec` from a seed
and drives it through the public Session API, serially, in this process:

* ``batch`` -- the paper's standard deployment (section 6.2): ResNet18
  replicated on every worker of a 4-stage 3.6B pipeline. Its outputs are
  the paper's time increase I and cost savings S (section 6.1.5). Runs
  pipeline -> manager -> side-task runtime -> GPU model -> event engine
  and bypasses the serving frontend.
* ``serve`` -- open-loop Poisson traffic at about six times capacity:
  the bounded queue fills within seconds and stays full, rejecting the
  excess, so EDF dispatch always picks from a full backlog. Its outputs
  are the request counts, completion latency, goodput and I. Adds
  arrivals, admission and dispatch in front of the same stack. (With
  the queue pinned at its bound, a dispatch round scans the same number
  of requests in every run, which keeps run times steady across seeds;
  at a rate just above capacity the backlog, and with it the run time,
  follows each seed's arrival count.)
* ``cluster`` -- two training jobs behind one shared manager, with a
  PageRank + ResNet18 mix placed over the combined worker pool. Its
  outputs are bubble utilization and each job's I. Adds the cluster
  layer; PageRank's short steps make it the step-loop-heaviest workload.

A scenario is timed in two parts. ``setup()`` computes the no-side-task
baselines that the paper's metrics divide by and prepares the runner
(bubble profiling, workers, manager, arrivals, frontend). ``run()``
simulates and folds the outputs. ``check()`` then lists every output
that breaks the paper's accounting or a conservation law.
"""

from __future__ import annotations

import dataclasses
import json

from repro import calibration
from repro.api.session import Session
from repro.api.spec import (
    ArrivalSpec,
    PolicySpec,
    ScenarioSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.experiments.common import baseline_time
from repro.metrics.cost import cost_savings, time_increase

#: The paper measures about 1% training slowdown; past 5% the side
#: tasks are no longer confined to the bubbles.
MAX_TIME_INCREASE = 0.05
#: A cluster job's op-time jitter is drawn from another stream than its
#: solo baseline's, so its I may dip slightly below zero.
MIN_TIME_INCREASE = -0.01
#: Bubble seconds and running seconds are sums of the same float
#: intervals; allow rounding, nothing more.
EPSILON = 1e-9


@dataclasses.dataclass
class Outcome:
    """What one scenario run produced."""

    #: the paper's outputs (JSON-safe; also the determinism fingerprint)
    outputs: dict
    #: work done per layer, as counts
    counts: dict

    def fingerprint(self) -> str:
        return json.dumps(self.outputs, sort_keys=True)


class Scenario:
    """One seeded run of a workload: ``setup()``, ``run()``, ``check()``."""

    name = ""

    def __init__(self, seed: int):
        self.spec = self.make_spec(seed)
        self.session = Session(self.spec)
        self.baselines: list[float] = []

    def make_spec(self, seed: int) -> ScenarioSpec:
        raise NotImplementedError

    def configs(self) -> list:
        """The training configs whose no-side-task time I divides by."""
        return [self.spec.train_config()]

    def setup(self) -> None:
        self.baselines = [baseline_time(config) for config in self.configs()]
        self.session.runner.prepare()

    def run(self) -> Outcome:
        result = self.session.run().results()
        pool, trainings, outputs = self.fold(result)
        outputs["time_increase"] = [
            time_increase(training.total_time, t_no)
            for training, t_no in zip(trainings, self.baselines)
        ]
        return Outcome(outputs, _layer_counts(pool, trainings))

    def fold(self, result) -> tuple:
        """``(pool, trainings, outputs)`` of a finished run."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        """Every broken expectation, as a message (empty = correct)."""
        problems = [
            f"time increase I={value:.4f} outside "
            f"[{MIN_TIME_INCREASE}, {MAX_TIME_INCREASE}]"
            for value in outcome.outputs["time_increase"]
            if not MIN_TIME_INCREASE <= value <= MAX_TIME_INCREASE
        ]
        if outcome.counts["core.side_task_steps"] < 1:
            problems.append("no side-task step ran")
        utilization = outcome.counts["core.bubble_utilization"]
        if not 0.0 < utilization <= 1.0 + EPSILON:
            problems.append(
                f"bubble utilization {utilization:.4f} outside (0, 1]: side "
                "tasks ran outside the bubbles or not at all")
        return problems


def _layer_counts(pool, trainings) -> dict:
    """Work counts of the event engine and the side-task layer.

    ``pool`` is the run's FreeRide or Cluster. Bubble utilization is the
    share of the training's bubble seconds that side tasks spent running
    (the harvested fraction).
    """
    runtimes = [runtime for worker in pool.workers
                for runtime in worker.all_tasks]
    bubble_s = sum(bubble.duration for training in trainings
                   for bubble in training.trace.bubbles)
    return {
        "sim.events": pool.sim.telemetry.counter("sim.events_processed").value,
        "core.side_task_steps": sum(runtime.spec.workload.steps_done
                                    for runtime in runtimes),
        "core.bubble_utilization": sum(runtime.running_s
                                       for runtime in runtimes) / bubble_s,
    }


class BatchScenario(Scenario):
    name = "batch"
    workload = "resnet18"
    epochs = 4

    def make_spec(self, seed):
        return ScenarioSpec(
            name="perfbench-batch",
            kind="batch",
            seed=seed,
            training=TrainingSpec(epochs=self.epochs),
            workloads=(WorkloadSpec(name=self.workload),),
        )

    def fold(self, result):
        profile = calibration.SIDE_TASK_PROFILES[self.workload]
        outputs = {
            "placed": len(result.tasks),
            "units": result.total_units,
            "cost_savings": cost_savings(
                self.baselines[0], result.training.total_time,
                [(report.units_done, profile) for report in result.tasks]),
        }
        return self.session.runner.freeride, [result.training], outputs

    def check(self, outcome):
        outputs = outcome.outputs
        problems = super().check(outcome)
        if outputs["placed"] < 1:
            problems.append("no replica was placed")
        # The paper's Figure 7: harvesting ResNet18 bubbles saves money.
        if not outputs["cost_savings"] > 0:
            problems.append(
                f"cost savings S={outputs['cost_savings']:.4f} not positive")
        return problems


class ServeScenario(Scenario):
    name = "serve"
    epochs = 4
    rate_per_s = 12.0

    def make_spec(self, seed):
        return ScenarioSpec(
            name="perfbench-serve",
            kind="serving",
            seed=seed,
            training=TrainingSpec(epochs=self.epochs),
            arrivals=ArrivalSpec(kind="poisson", rate_per_s=self.rate_per_s),
            policy=PolicySpec(assignment="edf", admission="always"),
        )

    def fold(self, result):
        metrics = result.metrics
        completion = metrics.completion
        outputs = {
            "offered": metrics.offered,
            "admitted": metrics.admitted,
            "rejected": metrics.rejected,
            "completed": metrics.completed,
            "failed": metrics.failed,
            "unserved": metrics.unserved,
            "slo_met": metrics.slo_met,
            "completion_p50": completion.p50,
            "completion_p95": completion.p95,
            "completion_p99": completion.p99,
            "goodput_rps": metrics.goodput_rps,
        }
        return self.session.runner.freeride, [result.training], outputs

    def check(self, outcome):
        out = outcome.outputs
        problems = super().check(outcome)
        if out["offered"] != out["admitted"] + out["rejected"]:
            problems.append("offered != admitted + rejected")
        if out["admitted"] != (out["completed"] + out["failed"]
                               + out["unserved"]):
            problems.append("admitted != completed + failed + unserved")
        if out["failed"]:
            problems.append(f"{out['failed']} requests failed without faults")
        if out["completed"] < 1:
            problems.append("no request completed")
        if out["slo_met"] > out["completed"]:
            problems.append("more SLO-met requests than completions")
        if not (0.0 < out["completion_p50"] <= out["completion_p95"]
                <= out["completion_p99"]):
            problems.append("completion latency quantiles out of order")
        return problems


class ClusterScenario(Scenario):
    name = "cluster"
    epochs = 2
    jobs = 2
    mix = ("pagerank", "resnet18")

    def make_spec(self, seed):
        return ScenarioSpec(
            name="perfbench-cluster",
            kind="cluster",
            seed=seed,
            training=TrainingSpec(epochs=self.epochs),
            jobs=self.jobs,
            workloads=tuple(WorkloadSpec(name=name) for name in self.mix),
        )

    def configs(self):
        return self.spec.job_configs()

    def fold(self, result):
        outputs = {
            "placed": len(result.tasks),
            "rejected": len(result.rejections),
            "units": result.total_units,
            "utilization": result.utilization,
        }
        trainings = [job.training for job in result.jobs]
        return self.session.runner.cluster, trainings, outputs

    def check(self, outcome):
        problems = super().check(outcome)
        if len(outcome.outputs["time_increase"]) != self.jobs:
            problems.append("a training job is missing from the result")
        if abs(outcome.outputs["utilization"]
               - outcome.counts["core.bubble_utilization"]) > EPSILON:
            problems.append("cluster utilization disagrees with the "
                            "workers' running time")
        return problems


WORKLOADS = {cls.name: cls
             for cls in (BatchScenario, ServeScenario, ClusterScenario)}
