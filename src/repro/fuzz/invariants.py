"""Global invariants every valid scenario must satisfy.

Tempest-style correctness amplification: instead of pinning one
hand-written scenario per test, each invariant here states a property
that must hold for *every* spec the generator can draw — conservation
of requests across terminal outcomes, every task/request reaching a
terminal state, fairness indices inside their mathematical bounds,
availability in [0, 1], and fault accounting staying identically zero
when no faults are armed.

Each invariant is a named entry in :data:`INVARIANTS` whose ``check``
callable receives the spec and a :class:`RunOutcome` (result + the
engine's telemetry snapshot) and yields human-readable violation
messages; an empty yield means the invariant holds (or does not apply
to this scenario shape). :func:`check_invariants` folds the registry
into a list of :class:`Violation`.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.api.spec import ScenarioSpec

_EPS = 1e-9

#: every status RequestRecord.status can legally report
_RECORD_STATUSES = frozenset(
    ("pending", "queued", "assigned", "completed", "failed",
     "exhausted", "rejected", "late")
)
_TERMINAL_OUTCOMES = frozenset(("completed", "failed", "exhausted"))


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """What one executed scenario exposes to the invariant checks."""

    result: typing.Any
    #: ``sim.telemetry.snapshot()`` taken right after the run
    telemetry: "dict | None" = None


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant's failure against one run."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclasses.dataclass(frozen=True)
class Invariant:
    name: str
    description: str
    check: typing.Callable[..., typing.Iterable[str]]


#: name -> Invariant, in registration order
INVARIANTS: "dict[str, Invariant]" = {}


def invariant(name: str, description: str):
    """Register a checker: ``fn(spec, outcome) -> Iterable[str]``."""

    def register(fn):
        INVARIANTS[name] = Invariant(name, description, fn)
        return fn

    return register


def check_invariants(
    spec: "ScenarioSpec",
    outcome: RunOutcome,
    names: "typing.Sequence[str] | None" = None,
) -> "list[Violation]":
    """Run every registered invariant (or the named subset) against one
    outcome and collect the violations."""
    selected = INVARIANTS if names is None else {
        name: INVARIANTS[name] for name in names
    }
    violations = []
    for inv in selected.values():
        for message in inv.check(spec, outcome):
            violations.append(Violation(inv.name, message))
    return violations


# ---------------------------------------------------------------------------
# helpers

def _metrics(outcome: RunOutcome):
    return getattr(outcome.result, "metrics", None)


def _faults_armed(spec: "ScenarioSpec") -> bool:
    faults = spec.faults
    if faults is None:
        return False
    return bool(
        faults.crash_rate > 0
        or faults.crashes
        or faults.step_failure_rate > 0
        or faults.slowdowns
        or faults.rpc_drop_windows
    )


# ---------------------------------------------------------------------------
# serving-side invariants

@invariant(
    "request_conservation",
    "offered = admitted + rejected and admitted = completed + failed + "
    "unserved; no request is lost or double-counted",
)
def _request_conservation(spec, outcome):
    m = _metrics(outcome)
    if m is None:
        return
    for field in ("offered", "admitted", "rejected", "assigned",
                  "completed", "slo_met", "failed", "unserved"):
        if getattr(m, field) < 0:
            yield f"negative counter {field}={getattr(m, field)}"
    if m.offered != m.admitted + m.rejected:
        yield (f"offered ({m.offered}) != admitted ({m.admitted}) "
               f"+ rejected ({m.rejected})")
    if m.admitted != m.completed + m.failed + m.unserved:
        yield (f"admitted ({m.admitted}) != completed ({m.completed}) "
               f"+ failed ({m.failed}) + unserved ({m.unserved})")
    if m.queueing.count != m.assigned:
        yield (f"queueing latency count ({m.queueing.count}) != "
               f"assigned ({m.assigned})")
    if m.completion.count != m.completed:
        yield (f"completion latency count ({m.completion.count}) != "
               f"completed ({m.completed})")


@invariant(
    "counter_ordering",
    "slo_met <= completed <= assigned <= admitted <= offered",
)
def _counter_ordering(spec, outcome):
    m = _metrics(outcome)
    if m is None:
        return
    chain = [("slo_met", m.slo_met), ("completed", m.completed),
             ("assigned", m.assigned), ("admitted", m.admitted),
             ("offered", m.offered)]
    for (lo_name, lo), (hi_name, hi) in zip(chain, chain[1:]):
        if lo > hi:
            yield f"{lo_name} ({lo}) > {hi_name} ({hi})"


@invariant(
    "terminal_records",
    "every request record carries a recognized status, and terminal "
    "outcomes are consistent with their timestamps",
)
def _terminal_records(spec, outcome):
    records = getattr(outcome.result, "records", None)
    if records is None:
        return
    for record in records:
        status = record.status
        rid = record.request.request_id
        if status not in _RECORD_STATUSES:
            yield f"request {rid}: unknown status {status!r}"
        if record.outcome is not None:
            if record.outcome not in _TERMINAL_OUTCOMES:
                yield f"request {rid}: unknown outcome {record.outcome!r}"
            if record.admitted_at is None:
                yield (f"request {rid}: terminal outcome "
                       f"{record.outcome!r} without admission")
        if record.outcome == "completed" and record.completed_at is None:
            yield f"request {rid}: completed outcome without completed_at"
        if record.completed_at is not None and record.outcome != "completed":
            yield (f"request {rid}: completed_at set but outcome is "
                   f"{record.outcome!r}")
        if record.assigned_at is not None and record.admitted_at is None:
            yield f"request {rid}: assigned without admission"
        if record.attempts > 0 and record.assigned_at is None:
            yield f"request {rid}: {record.attempts} attempts, never assigned"


@invariant(
    "latency_sanity",
    "latency statistics are non-negative, means bounded by maxima, and "
    "(exact mode) quantiles monotone p50 <= p95 <= p99 <= max",
)
def _latency_sanity(spec, outcome):
    m = _metrics(outcome)
    if m is None:
        return
    exact = spec.metrics is None or spec.metrics.mode == "records"
    for label, stats in (("queueing", m.queueing),
                         ("completion", m.completion)):
        if stats.count == 0:
            continue
        if stats.mean < -_EPS:
            yield f"{label}.mean negative: {stats.mean}"
        if stats.max < -_EPS:
            yield f"{label}.max negative: {stats.max}"
        if stats.mean > stats.max + _EPS:
            yield f"{label}.mean ({stats.mean}) > max ({stats.max})"
        if exact:
            if not (stats.p50 <= stats.p95 + _EPS
                    and stats.p95 <= stats.p99 + _EPS
                    and stats.p99 <= stats.max + _EPS):
                yield (f"{label} quantiles not monotone: "
                       f"p50={stats.p50} p95={stats.p95} "
                       f"p99={stats.p99} max={stats.max}")


@invariant(
    "retry_bounds",
    "per-request attempts never exceed faults.retry_max_attempts",
)
def _retry_bounds(spec, outcome):
    records = getattr(outcome.result, "records", None)
    if records is None:
        return
    cap = 1 if spec.faults is None else spec.faults.retry_max_attempts
    for record in records:
        if record.attempts > cap:
            yield (f"request {record.request.request_id}: "
                   f"{record.attempts} attempts > cap {cap}")


# ---------------------------------------------------------------------------
# fairness

@invariant(
    "fairness_bounds",
    "Jain index in [1/n, 1], shares in [0, 1], share error in [0, 1], "
    "and per-tenant counters sum to the global ones",
)
def _fairness_bounds(spec, outcome):
    fairness = getattr(outcome.result, "fairness", None)
    if fairness is None:
        return
    n = max(len(fairness.tenants), 1)
    if not (1.0 / n - _EPS <= fairness.jain_goodput <= 1.0 + _EPS):
        yield (f"jain_goodput {fairness.jain_goodput} outside "
               f"[1/{n}, 1]")
    if not (-_EPS <= fairness.max_share_error <= 1.0 + _EPS):
        yield f"max_share_error {fairness.max_share_error} outside [0, 1]"
    share_sum = 0.0
    for usage in fairness.tenants:
        if not (-_EPS <= usage.share <= 1.0 + _EPS):
            yield f"tenant {usage.name}: share {usage.share} outside [0, 1]"
        share_sum += usage.share
    if share_sum > _EPS and abs(share_sum - 1.0) > 1e-6:
        yield f"tenant shares sum to {share_sum}, expected 1"
    m = _metrics(outcome)
    if m is not None:
        for field in ("offered", "admitted", "rejected", "completed"):
            total = sum(getattr(u.metrics, field) for u in fairness.tenants)
            if total != getattr(m, field):
                yield (f"per-tenant {field} sums to {total}, global is "
                       f"{getattr(m, field)}")


# ---------------------------------------------------------------------------
# faults / resilience

@invariant(
    "resilience_bounds",
    "availability in [0, 1]; wasted work, recovery counters and retry "
    "accounting are non-negative and internally consistent",
)
def _resilience_bounds(spec, outcome):
    r = getattr(outcome.result, "resilience", None)
    if r is None:
        return
    if not (-_EPS <= r.availability <= 1.0 + _EPS):
        yield f"availability {r.availability} outside [0, 1]"
    for field in ("crashes", "restarts", "preemptions", "restores",
                  "checkpoints", "wasted_steps", "step_failures",
                  "retries", "failed_requests", "exhausted_requests"):
        if getattr(r, field) < 0:
            yield f"negative {field}={getattr(r, field)}"
    for field in ("wasted_s", "checkpoint_overhead_s",
                  "restore_overhead_s"):
        if getattr(r, field) < -_EPS:
            yield f"negative {field}={getattr(r, field)}"
    if r.restarts > r.crashes:
        yield f"restarts ({r.restarts}) > crashes ({r.crashes})"
    cap = 1 if spec.faults is None else spec.faults.retry_max_attempts
    if cap <= 1 and r.retries > 0:
        yield f"{r.retries} retries recorded with retry_max_attempts <= 1"
    m = _metrics(outcome)
    if m is not None and r.failed_requests + r.exhausted_requests != m.failed:
        yield (f"failed_requests ({r.failed_requests}) + exhausted "
               f"({r.exhausted_requests}) != metrics.failed ({m.failed})")


@invariant(
    "no_faults_no_damage",
    "with no faults armed there are no crashes, no wasted work, no "
    "failed requests, and no task ever reports recovery activity",
)
def _no_faults_no_damage(spec, outcome):
    if _faults_armed(spec):
        return
    r = getattr(outcome.result, "resilience", None)
    if r is not None:
        for field in ("crashes", "restarts", "wasted_steps",
                      "step_failures", "failed_requests",
                      "exhausted_requests"):
            if getattr(r, field) != 0:
                yield f"healthy run reports {field}={getattr(r, field)}"
        if r.wasted_s > _EPS:
            yield f"healthy run reports wasted_s={r.wasted_s}"
    m = _metrics(outcome)
    if m is not None and m.failed != 0:
        yield f"healthy run reports {m.failed} failed requests"
    tasks = getattr(outcome.result, "tasks", None)
    for report in tasks or ():
        if report.wasted_steps or report.step_failures:
            yield (f"healthy run: task {report.name} reports "
                   f"wasted_steps={report.wasted_steps} "
                   f"step_failures={report.step_failures}")


# ---------------------------------------------------------------------------
# batch / cluster side tasks

@invariant(
    "tasks_terminal",
    "every submitted side task reaches the STOPPED terminal state with "
    "non-negative accounting",
)
def _tasks_terminal(spec, outcome):
    tasks = getattr(outcome.result, "tasks", None)
    if tasks is None:
        return
    for report in tasks:
        if report.final_state.value != "STOPPED":
            yield (f"task {report.name} ended {report.final_state.value}, "
                   f"not STOPPED")
        if report.steps_done < 0 or report.units_done < -_EPS:
            yield (f"task {report.name}: negative progress "
                   f"steps={report.steps_done} units={report.units_done}")
        if report.running_s < -_EPS or report.overhead_s < -_EPS:
            yield (f"task {report.name}: negative time "
                   f"running_s={report.running_s} "
                   f"overhead_s={report.overhead_s}")


@invariant(
    "training_progress",
    "every training run takes positive time and its trace is non-empty",
)
def _training_progress(spec, outcome):
    result = outcome.result
    trainings = []
    if hasattr(result, "total_time") and hasattr(result, "trace"):
        trainings.append(("train", result))
    training = getattr(result, "training", None)
    if training is not None:
        trainings.append(("train", training))
    for job in getattr(result, "jobs", None) or ():
        trainings.append((job.name, job.training))
    for name, tr in trainings:
        if not tr.total_time > 0:
            yield f"{name}: non-positive total_time {tr.total_time}"
        if not tr.trace.ops:
            yield f"{name}: empty op trace"


@invariant(
    "no_speedup",
    "every training run, a pool job's or a bare pipeline's, takes at "
    "least its no-side-task time T_noSideTask (total_time >= "
    "baseline_time(config)): side tasks and hooks only slow training down",
)
def _no_speedup(spec, outcome):
    from repro.experiments.common import baseline_time

    result = outcome.result
    if spec.kind == "cluster":
        jobs = [(job.name, job.training, config) for job, config
                in zip(result.jobs, spec.job_configs())]
    else:
        # a pipeline run's result is its training
        jobs = [("train", getattr(result, "training", result),
                 spec.train_config())]
    for name, training, config in jobs:
        t_no = baseline_time(config)
        if not training.total_time >= t_no:
            yield (f"{name}: total_time {training.total_time!r} is below "
                   f"T_noSideTask {t_no!r}")


@invariant(
    "solo_timeline",
    "baseline_time and profile_bubbles, computed from the op plan, equal "
    "a fresh PipelineEngine run of every training config bit for bit",
)
def _solo_timeline(spec, outcome):
    from repro.experiments.common import baseline_time
    from repro.gpu.cluster import make_server_i
    from repro.pipeline.engine import (
        PROFILING_EPOCHS,
        PipelineEngine,
        profile_bubbles,
        training_streams,
    )
    from repro.pipeline.instrumentation import BubbleProfile
    from repro.sim.engine import Engine

    if spec.kind == "cluster":
        jobs = [(config, job.cluster.factory()) for job, config
                in zip(spec.job_specs(), spec.job_configs())]
    else:
        jobs = [(spec.train_config(), spec.cluster.factory())]
    for index, (config, factory) in enumerate(jobs):
        sim = Engine()
        expected = PipelineEngine(
            sim, make_server_i(sim), config,
            rng=training_streams(config),
        ).run().total_time
        if baseline_time(config) != expected:
            yield (f"job {index}: baseline_time {baseline_time(config)!r} "
                   f"!= the engine's {expected!r}")
        probe = dataclasses.replace(config, epochs=PROFILING_EPOCHS)
        sim = Engine()
        reference = BubbleProfile.from_trace(
            PipelineEngine(sim, factory(sim), probe).run().trace)
        profile = profile_bubbles(factory, config)
        if profile.durations != reference.durations:
            yield f"job {index}: profiled bubble durations differ"
        if profile.available_gb != reference.available_gb:
            yield f"job {index}: profiled available memory differs"


# ---------------------------------------------------------------------------
# telemetry cross-checks

@invariant(
    "telemetry_consistency",
    "engine telemetry counters agree with the metrics layer "
    "(serving.admitted/dispatched/rejected mirror the aggregates)",
)
def _telemetry_consistency(spec, outcome):
    snap = outcome.telemetry
    m = _metrics(outcome)
    if snap is None or m is None:
        return
    counters = snap.get("counters", {})
    retries = counters.get("serving.retries", 0)
    pairs = (("serving.admitted", m.admitted),
             # dispatch is per *attempt*: retries re-dispatch a request
             ("serving.dispatched", m.assigned + retries),
             ("serving.rejected", m.rejected))
    for name, expected in pairs:
        observed = counters.get(name, 0)
        if observed != expected:
            yield (f"telemetry {name}={observed} but metrics layer "
                   f"says {expected}")
    r = getattr(outcome.result, "resilience", None)
    if r is not None and retries != r.retries:
        yield (f"telemetry serving.retries={retries} but resilience "
               f"says {r.retries}")
