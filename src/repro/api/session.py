"""The ``Session`` lifecycle: one declarative spec, one managed run.

A :class:`Session` executes a :class:`~repro.api.spec.ScenarioSpec`
through the canonical lifecycle::

    configure -> submit -> run -> results

    with Session(spec) as session:
        result = session.run().results()

Behind the session sits a :class:`Runner`:

* :class:`PoolRunner` — the ``batch``, ``serving`` and ``cluster``
  kinds: builds the side-task pool (a
  :class:`~repro.core.middleware.FreeRide`, or for a cluster spec a
  :class:`~repro.core.middleware.Cluster` over the spec's jobs), then
  either places the spec's workloads on it or, when the scenario has
  traffic, admits open-loop requests through the admission frontend.
  The result type follows the kind:
  :class:`~repro.core.middleware.FreeRideResult`,
  :class:`~repro.serving.frontend.ServingResult` or
  :class:`~repro.core.middleware.ClusterResult`;
* :class:`PipelineRunner` — training only (no side tasks), for bubble
  characterization scenarios; reports a
  :class:`~repro.pipeline.engine.TrainingResult`.

Every run built from a spec goes through a session: the CLI, the
paper-figure rows and the serving tests alike, so the spec's seed and
``policy`` section reach every pool. The one keyword besides the spec,
``arrivals``, hands in an arrival process a JSON spec cannot name (a
trace replay). ``FreeRide`` and ``Cluster`` driven by hand build the
same pool without a spec.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.api.spec import ScenarioSpec, WorkloadSpec
from repro.core.middleware import Cluster, ClusterJob, FreeRide
from repro.errors import SessionError, SpecError
from repro.obs import attach_tracer
from repro.pipeline.engine import (
    PipelineEngine, TrainingResult, training_streams)
from repro.sim.engine import Engine

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.export import TraceResult
    from repro.pipeline.config import TrainConfig
    from repro.serving.arrivals import ArrivalProcess

#: default post-training settle window before the final drain
DEFAULT_SETTLE_S = 2.0
#: default fraction of the no-side-task training time a serving
#: scenario stays open to traffic (the `serve` experiment re-exports
#: this as OPEN_FRACTION) — arrivals stop before teardown so late
#: requests are not counted as offered load
DEFAULT_OPEN_FRACTION = 0.9


class Runner(typing.Protocol):
    """What a scenario execution backend must provide."""

    #: the scenario kind this runner executes ("batch" / "serving" / ...)
    kind: str

    def prepare(self) -> None:
        """Build the simulation (idempotent; called by :meth:`run`)."""

    def run(self) -> object:
        """Execute to completion and return the result object."""


class PoolRunner:
    """A batch, serving or cluster scenario over one side-task pool.

    Everything the run is comes from the spec. The one keyword,
    ``arrivals``, hands in an arrival process a JSON spec cannot name
    (a trace replay, say); it replaces the spec's traffic.
    """

    def __init__(self, spec: ScenarioSpec, *,
                 arrivals: "ArrivalProcess | None" = None):
        self.spec = spec
        self.kind = spec.kind
        #: the training config of each job
        self.configs: "list[TrainConfig]" = (
            spec.job_configs() if spec.kind == "cluster"
            else [spec.train_config()]
        )
        self._arrivals = arrivals
        self.pool: "Cluster | None" = None
        self.frontend = None
        self.injector = None
        self.result = None
        self.trace_result: "TraceResult | None" = None

    @property
    def freeride(self) -> "Cluster | None":
        """The pool: a :class:`FreeRide` unless the spec is a cluster."""
        return self.pool

    cluster = freeride

    @staticmethod
    def serves_traffic(spec: ScenarioSpec,
                       arrivals: "ArrivalProcess | None" = None) -> bool:
        """Whether a run of ``spec`` admits open-loop requests instead of
        placing the spec's workloads: a serving or cluster spec with an
        arrivals section, tenants, or an ``arrivals`` process handed to
        the runner (a trace replay, say). A batch spec never does."""
        return spec.kind != "batch" and (
            arrivals is not None or spec.arrivals is not None
            or bool(spec.tenants)
        )

    def horizon_s(self) -> float:
        """Seconds the pool accepts traffic — arrivals stop before
        teardown so late requests are not counted as offered load.

        ``params.horizon_s`` when set, else ``params.open_fraction``
        (default :data:`DEFAULT_OPEN_FRACTION`) of the *longest* job's
        no-side-task training time, since the pool keeps producing
        bubbles until the last job finishes.
        """
        horizon = self.spec.param("horizon_s")
        if horizon is not None:
            return float(horizon)
        from repro.experiments.common import baseline_time

        fraction = float(self.spec.param("open_fraction",
                                         DEFAULT_OPEN_FRACTION))
        return max(baseline_time(config) for config in self.configs) * fraction

    def prepare(self) -> None:
        if self.pool is not None:
            return
        spec = self.spec
        traffic = self.serves_traffic(spec, self._arrivals)
        if spec.kind == "serving" and not traffic:
            raise SpecError(
                f"serving scenario {spec.name!r} has no arrivals "
                "section and no tenants"
            )
        kwargs = spec.policy.freeride_kwargs()
        if spec.kind == "cluster":
            jobs = [ClusterJob(config, job.cluster.factory(), job.name)
                    for job, config in zip(spec.job_specs(), self.configs)]
            self.pool = Cluster(jobs, seed=spec.seed, **kwargs)
        else:
            self.pool = FreeRide(self.configs[0],
                                 server_factory=spec.cluster.factory(),
                                 seed=spec.seed, **kwargs)
        # Attach before the frontend and the workloads: the frontend and
        # the runtimes' state machines capture ``sim.trace`` when built.
        attach_tracer(self.pool.sim, spec.obs)
        if traffic:
            self._open_frontend()
        else:
            for workload in spec.workloads:
                self._place(workload)
        if spec.faults is not None and spec.faults.active:
            from repro.faults import FaultInjector

            self.injector = FaultInjector(spec.faults.build_plan(
                spec.seed, self.horizon_s(), len(self.pool.workers)))
            self.injector.arm(self.pool)

    def _open_frontend(self) -> None:
        """Put the admission frontend in front of the pool, streaming it
        the arrivals of the open window: the constructor's process, the
        tenants' merged streams, or the spec's ``arrivals`` section."""
        from repro.serving.frontend import ServingFrontend

        spec = self.spec
        if self._arrivals is not None:
            arrivals = self._arrivals
        elif spec.tenants:
            arrivals = spec.tenant_arrivals()
        else:
            arrivals = spec.arrivals.build(spec.seed)
        self._open_horizon = self.horizon_s()
        recovery = {} if spec.faults is None else {
            "retry": spec.faults.retry_policy(),
            "checkpoint": spec.faults.checkpoint_policy(),
        }
        self.frontend = ServingFrontend(
            self.pool,
            arrivals.stream(self._open_horizon),
            admission=spec.policy.admission,
            discipline=spec.policy.discipline,
            queue_capacity=spec.policy.queue_capacity,
            tenants=spec.tenant_shares(),
            metrics_mode=spec.metrics.mode,
            **recovery,
        )

    def submit(self, workload: WorkloadSpec) -> int:
        """Submit one extra workload; returns the number of copies placed."""
        self.prepare()
        if self.frontend is not None:
            raise SessionError(
                f"{self.kind} scenario serves open-loop traffic; its work "
                "comes from the arrivals section, not submit()"
            )
        return self._place(workload)

    def _place(self, workload: WorkloadSpec) -> int:
        if workload.replicate:
            return self.pool.submit_replicated(
                workload.factory(), workload.interface, copies=workload.copies
            )
        accepted = self.pool.submit(workload.factory(), workload.interface)
        return 0 if accepted is None else 1

    def run(self):
        self.prepare()
        pool, frontend, spec = self.pool, self.frontend, self.spec
        settle_s = spec.param("settle_s", DEFAULT_SETTLE_S)
        trainings = pool.run_training()
        fields: dict = {}
        if frontend is None:
            pool.drain(settle_s)
            resilience_args: dict = {"duration_s": pool.sim.now}
        else:
            frontend.close()
            open_s = min(frontend.closed_at, self._open_horizon)
            # The drain also fires, and refuses, late arrivals.
            pool.drain(settle_s)
            frontend.finalize()
            metrics = frontend.metrics_for(open_s)
            fields = {
                "records": frontend.records,
                "metrics": metrics,
                "open_duration_s": open_s,
                "fairness": (frontend.fairness_for(open_s)
                             if frontend.tenants else None),
            }
            resilience_args = {
                "records": frontend.records,
                "duration_s": open_s,
                "goodput_rps": metrics.goodput_rps,
                "request_counts": frontend.outcome_counts,
            }
        if spec.faults is not None:
            from repro.metrics.resilience import resilience_metrics

            fields["resilience"] = resilience_metrics(pool, **resilience_args)
        self.trace_result = _finish_trace(pool.sim, spec, [
            (label, pipeline.trace)
            for (label, _offset, _stages), pipeline
            in zip(pool.layout, pool.pipelines)
        ])
        if spec.kind == "serving":
            from repro.serving.frontend import ServingResult

            self.result = ServingResult(training=trainings, **fields)
        else:
            self.result = pool.result(trainings, **fields)
        self.result.trace = self.trace_result
        return self.result


class PipelineRunner:
    """Training only: the bare pipeline engine, no middleware attached."""

    kind = "pipeline"

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.config = spec.train_config()
        self.sim: "Engine | None" = None
        self.server = None
        self.engine: "PipelineEngine | None" = None
        self.result: "TrainingResult | None" = None
        #: the obs trace — a runner attribute here, NOT ``result.trace``:
        #: :class:`TrainingResult` already uses that name for its
        #: op/bubble record trace
        self.trace_result: "TraceResult | None" = None

    def prepare(self) -> None:
        if self.engine is not None:
            return
        self.sim = Engine()
        attach_tracer(self.sim, self.spec.obs)
        self.server = self.spec.cluster.factory()(self.sim)
        self.engine = PipelineEngine(self.sim, self.server, self.config,
                                     rng=training_streams(self.config))

    def run(self) -> TrainingResult:
        self.prepare()
        self.result = self.engine.run()
        self.trace_result = _finish_trace(
            self.sim, self.spec, [("train", self.result.trace)]
        )
        return self.result


def _finish_trace(sim, spec: ScenarioSpec,
                  trainings=()) -> "TraceResult | None":
    """Collect the run's trace (None when tracing was off).

    The pipeline engine keeps its own op/bubble/epoch intervals, so its
    spans are replayed from the finished training traces here —
    ``trainings`` is ``(job_name, TrainingTrace)`` pairs — rather than
    instrumented live (gated by ``obs.trace_pipeline``).
    """
    if not sim.trace.enabled:
        return None
    from repro.obs import collect_trace

    if spec.obs.trace_pipeline:
        from repro.pipeline.instrumentation import emit_trace_spans

        for job, trace in trainings:
            emit_trace_spans(sim.trace, trace, job=job)
    return collect_trace(sim)


_RUNNERS: "dict[str, type]" = {
    "batch": PoolRunner,
    "serving": PoolRunner,
    "pipeline": PipelineRunner,
    "cluster": PoolRunner,
}
#: the kinds whose runs can admit open-loop requests
_TRAFFIC_KINDS = ("serving", "cluster")


def make_runner(spec: ScenarioSpec,
                arrivals: "ArrivalProcess | None" = None) -> Runner:
    """The runner class for ``spec.kind``, constructed over ``spec``.

    ``arrivals`` goes to the runner of a serving or cluster spec; a batch
    or pipeline scenario serves no traffic, so handing it one raises
    :class:`SessionError` rather than dropping it."""
    try:
        runner_cls = _RUNNERS[spec.kind]
    except KeyError:
        raise SpecError(
            f"no runner for scenario kind {spec.kind!r}; "
            f"choose from {sorted(_RUNNERS)}"
        ) from None
    if arrivals is None:
        return runner_cls(spec)
    if spec.kind not in _TRAFFIC_KINDS:
        raise SessionError(
            f"{spec.kind!r} scenario {spec.name!r} serves no traffic; "
            f"arrivals= needs a {' or '.join(_TRAFFIC_KINDS)} spec"
        )
    return runner_cls(spec, arrivals=arrivals)


class Session:
    """One scenario's lifecycle: ``configure -> submit -> run -> results``.

    The session owns spec mutation before the run (extra :meth:`submit`
    calls extend the spec's workload list) and freezes once the runner
    is built; :meth:`results` hands back the runner's result object
    after :meth:`run` completes. Usable as a context manager::

        with Session(spec) as session:
            session.submit(WorkloadSpec(name="pagerank"))
            report = session.run().results()
    """

    def __init__(self, spec: "ScenarioSpec | None" = None, *,
                 arrivals: "ArrivalProcess | None" = None):
        self._spec = spec
        self._arrivals = arrivals
        self._runner: "Runner | None" = None
        self._result: object = None

    # -- configure ------------------------------------------------------
    def configure(self, spec: ScenarioSpec) -> "Session":
        """Set (or replace) the scenario; only before the run starts."""
        if self._runner is not None:
            raise SessionError(
                "session already prepared its runner; configure() a new "
                "Session instead of reconfiguring this one"
            )
        self._spec = spec
        return self

    @property
    def spec(self) -> ScenarioSpec:
        if self._spec is None:
            raise SessionError("session has no scenario; call configure()")
        return self._spec

    @property
    def runner(self) -> Runner:
        """The backing runner (built on first access)."""
        if self._runner is None:
            self._runner = make_runner(self.spec, self._arrivals)
        return self._runner

    # -- submit ---------------------------------------------------------
    def submit(self, workload: "WorkloadSpec | str", **fields) -> "Session":
        """Add a batch workload (a :class:`WorkloadSpec`, or a registry
        name plus field overrides) on top of the spec's own list."""
        if self._result is not None:
            raise SessionError("session already ran; submit() comes first")
        if isinstance(workload, str):
            workload = WorkloadSpec(name=workload, **fields)
        elif fields:
            workload = dataclasses.replace(workload, **fields)
        takes_workloads = self.spec.kind in ("batch", "cluster") and not (
            PoolRunner.serves_traffic(self.spec, self._arrivals))
        if not takes_workloads:
            raise SessionError(
                f"submit() extends batch-style scenarios; {self.spec.kind!r} "
                "scenarios take their work from the spec (arrivals/mix)"
            )
        if self._runner is None:
            self._spec = dataclasses.replace(
                self._spec, workloads=self._spec.workloads + (workload,)
            )
        else:
            self._runner.submit(workload)
        return self

    # -- run / results --------------------------------------------------
    def run(self) -> "Session":
        """Execute the scenario to completion (idempotent)."""
        if self._result is None:
            self._result = self.runner.run()
        return self

    def results(self):
        """The runner's result object; raises until :meth:`run` finishes."""
        if self._result is None:
            raise SessionError("session has not run; call run() first")
        return self._result

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False
