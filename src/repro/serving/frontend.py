"""The serving frontend: admission control in front of ``FreeRide.submit``.

The batch harness hands the manager a fixed task set; the frontend turns
FreeRide into a *service*. Requests arrive on an open-loop schedule
(:mod:`repro.serving.arrivals`), pass an admission policy, wait in a
bounded queue, and are dispatched to the manager whenever a worker has
bubble memory for them — with the full lifecycle timestamped per request:

    arrival -> admit/reject -> assign -> first progress -> complete

Admission policies are pluggable (always-admit, token bucket, queue-length
backpressure); dispatch order comes from :mod:`repro.serving.slo` (FIFO,
EDF, starvation-aware EDF). :func:`run_serving` is the one-call
orchestration the `serve` experiment sweeps.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.middleware import FreeRide
from repro.core.policies import AssignmentPolicy
from repro.core.states import SideTaskState
from repro.core.task_spec import TaskProfile, TaskSpec
from repro.core.profiler import profile_side_task
from repro.pipeline.config import TrainConfig
from repro.pipeline.engine import TrainingResult
from repro.metrics.fairness import (
    FairnessMetrics,
    fairness_from_accumulators,
    fairness_metrics,
)
from repro.metrics.latency import (
    ServingAccumulator,
    ServingMetrics,
    serving_metrics,
)
from repro.metrics.resilience import RequestOutcomeCounts
from repro.metrics.resilience import ResilienceMetrics
from repro.serving import slo as slo_mod
from repro.serving.arrivals import ArrivalProcess, TaskRequest
from repro.workloads.adapters import FiniteJob, ImperativeAdapter
from repro.workloads.registry import make_workload

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import SideTaskRuntime
    from repro.faults.checkpoint import CheckpointPolicy
    from repro.faults.retry import RetryPolicy
    from repro.obs.export import TraceResult

#: default bound on the admission queue (requests, not bytes)
DEFAULT_QUEUE_CAPACITY = 64


# ----------------------------------------------------------------------
# admission policies
# ----------------------------------------------------------------------
class AdmissionPolicy:
    """Decides, per arrival, whether a request enters the queue."""

    name = "admission"

    def admit(self, now: float, request: TaskRequest,
              queue_length: int) -> tuple[bool, str | None]:
        """Return ``(admitted, reject_reason)``."""
        raise NotImplementedError


class AlwaysAdmit(AdmissionPolicy):
    """No admission control: every request enters the (bounded) queue."""

    name = "always"

    def admit(self, now, request, queue_length):
        return True, None


class TokenBucket(AdmissionPolicy):
    """Classic token bucket: sustained rate with bounded bursts."""

    name = "token_bucket"

    def __init__(self, rate_per_s: float, burst: float = 4.0):
        if rate_per_s <= 0:
            raise ValueError(f"refill rate must be positive, got {rate_per_s}")
        if burst < 1:
            raise ValueError(f"burst must allow at least one token, got {burst}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = burst
        self._last_refill = 0.0

    def refill(self, now: float) -> float:
        """Accrue tokens up to ``now``; returns the current balance."""
        elapsed = now - self._last_refill
        self._last_refill = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate_per_s)
        return self._tokens

    def take(self) -> bool:
        """Spend one token if the balance allows."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def admit(self, now, request, queue_length):
        self.refill(now)
        if self.take():
            return True, None
        return False, "token bucket empty"


class PerJobTokenBucket(AdmissionPolicy):
    """Cluster admission: one token bucket per training job.

    The combined pool's serving capacity scales with the number of jobs
    feeding it bubbles, so admission does too: each job contributes an
    independently refilled bucket, and an arrival spends a token from
    the fullest one. With one job this degenerates to the plain
    :class:`TokenBucket`.
    """

    name = "per_job_token_bucket"

    def __init__(self, jobs: int = 1, rate_per_s: float = 1.5,
                 burst: float = 4.0):
        if jobs < 1:
            raise ValueError(f"need at least one job bucket, got {jobs}")
        self.buckets = [TokenBucket(rate_per_s, burst) for _ in range(jobs)]

    def admit(self, now, request, queue_length):
        fullest = max(self.buckets, key=lambda bucket: bucket.refill(now))
        if fullest.take():
            return True, None
        return False, f"per-job token buckets empty ({len(self.buckets)} jobs)"


class QueueBackpressure(AdmissionPolicy):
    """Reject when the admission queue is already deep.

    Bounding queue depth bounds queueing latency: beyond the threshold a
    request would wait longer than its deadline anyway, so rejecting it
    immediately is strictly kinder than accepting and missing.
    """

    name = "backpressure"

    def __init__(self, max_queue: int = 8):
        if max_queue < 1:
            raise ValueError(f"queue threshold must be >= 1, got {max_queue}")
        self.max_queue = max_queue

    def admit(self, now, request, queue_length):
        if queue_length >= self.max_queue:
            return False, f"backpressure: queue at {queue_length}"
        return True, None


def _per_tenant_bucket(tenants):
    # Imported lazily: repro.tenancy builds on this module's base classes.
    from repro.tenancy.admission import PerTenantTokenBucket

    return PerTenantTokenBucket(tenants)


#: per-name factories (admission policies are stateful, so each run
#: needs a fresh instance) at the `serve` experiment's standard
#: settings; every factory takes the deployment's job count and tenant
#: set, which only the job-/tenant-aware policies use
NAMED_ADMISSION: dict[str, typing.Callable[..., AdmissionPolicy]] = {
    "always": lambda jobs=1, tenants=(): AlwaysAdmit(),
    "token_bucket":
        lambda jobs=1, tenants=(): TokenBucket(rate_per_s=1.5, burst=4.0),
    "backpressure": lambda jobs=1, tenants=(): QueueBackpressure(max_queue=8),
    "per_job_token_bucket":
        lambda jobs=1, tenants=(): PerJobTokenBucket(jobs=jobs),
    "per_tenant_token_bucket":
        lambda jobs=1, tenants=(): _per_tenant_bucket(tenants),
}


def make_admission(kind: "str | AdmissionPolicy", jobs: int = 1,
                   tenants: typing.Sequence = ()) -> AdmissionPolicy:
    """Build an admission policy from a name or pass an instance through.

    ``jobs`` sizes the job-aware policies (the cluster frontend passes
    its job count); ``tenants`` — :class:`~repro.tenancy.tenants.
    TenantShare` descriptors — sizes the tenant-aware ones. Callers
    without jobs or tenants can ignore both.
    """
    if isinstance(kind, AdmissionPolicy):
        return kind
    try:
        factory = NAMED_ADMISSION[kind]
    except KeyError:
        raise KeyError(f"unknown admission policy {kind!r}; "
                       f"choose from {sorted(NAMED_ADMISSION)}") from None
    return factory(jobs=jobs, tenants=tenants)


def make_discipline(kind: "str | slo_mod.QueueDiscipline",
                    tenants: typing.Sequence = ()) -> "slo_mod.QueueDiscipline":
    """Resolve a dispatch discipline name or pass a callable through.

    The stateless disciplines come from :data:`~repro.serving.slo.
    NAMED_DISCIPLINES`; the tenant-aware weighted-fair disciplines
    (:data:`~repro.tenancy.scheduler.NAMED_FAIR_DISCIPLINES`) carry
    per-run state, so each run gets a fresh instance sized by the
    tenant set.
    """
    if not isinstance(kind, str):
        return kind
    # Imported lazily: repro.tenancy builds on this module's base classes.
    from repro.tenancy.scheduler import NAMED_FAIR_DISCIPLINES

    if kind in NAMED_FAIR_DISCIPLINES:
        return NAMED_FAIR_DISCIPLINES[kind](tenants)
    try:
        return slo_mod.NAMED_DISCIPLINES[kind]
    except KeyError:
        choices = sorted(set(slo_mod.NAMED_DISCIPLINES)
                         | set(NAMED_FAIR_DISCIPLINES))
        raise KeyError(f"unknown dispatch discipline {kind!r}; "
                       f"choose from {choices}") from None


# ----------------------------------------------------------------------
# request lifecycle
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RequestRecord:
    """One request's lifecycle, stamped as the simulation progresses."""

    request: TaskRequest
    #: absolute completion deadline (arrival + class deadline); None = BE
    deadline_s: float | None
    #: arrived while the service was open (post-close arrivals are not
    #: part of the offered load)
    offered: bool = True
    admitted_at: float | None = None
    rejected_at: float | None = None
    reject_reason: str | None = None
    assigned_at: float | None = None
    stage: int | None = None
    first_progress_at: float | None = None
    completed_at: float | None = None
    final_state: str | None = None
    steps_done: int = 0
    units_done: float = 0.0
    #: dispatch attempts made (> 1 means the request was retried)
    attempts: int = 0
    #: explicit terminal outcome: "completed", "failed" (the attempt died
    #: and no retries were configured), or "exhausted" (all retries
    #: failed); None while the request is still in flight or unserved
    outcome: str | None = None
    #: why the last attempt died, when one did
    failure: str | None = None
    spec: TaskSpec | None = dataclasses.field(default=None, repr=False)

    @property
    def effective_deadline(self) -> float:
        """Deadline for EDF ordering; best-effort sorts strictly last
        (matching :meth:`TaskSpec.effective_deadline`). The
        starvation-aware discipline maps best-effort to a finite,
        ageable deadline separately."""
        return self.deadline_s if self.deadline_s is not None else float("inf")

    @property
    def met_slo(self) -> bool:
        return slo_mod.met_slo(self.deadline_s, self.completed_at)

    @property
    def tenant(self) -> str:
        """Owning tenant ("" for untenanted traffic)."""
        return self.request.tenant

    @property
    def status(self) -> str:
        if not self.offered:
            return "late"
        if self.rejected_at is not None:
            return "rejected"
        if self.outcome is not None:
            return self.outcome
        if self.completed_at is not None:
            return "completed"
        if self.assigned_at is not None:
            return "assigned"
        if self.admitted_at is not None:
            return "queued"
        return "pending"

    def summary(self) -> dict:
        """JSON-safe digest (the determinism tests serialize these)."""
        return {
            "id": self.request.request_id,
            "workload": self.request.workload,
            "tenant": self.request.tenant,
            "slo_class": self.request.slo_class,
            "arrival_s": self.request.arrival_s,
            "status": self.status,
            "reject_reason": self.reject_reason,
            "admitted_at": self.admitted_at,
            "assigned_at": self.assigned_at,
            "stage": self.stage,
            "first_progress_at": self.first_progress_at,
            "completed_at": self.completed_at,
            "met_slo": self.met_slo,
            "steps_done": self.steps_done,
            "units_done": self.units_done,
            "attempts": self.attempts,
            "outcome": self.outcome,
            "failure": self.failure,
        }


# ----------------------------------------------------------------------
# the frontend
# ----------------------------------------------------------------------
class ServingFrontend:
    """Bounded admission queue + dispatcher in front of the manager.

    ``freeride`` is any backend exposing the submission surface —
    ``sim``/``manager``/``workers``/``submit``/``runtime_for``: a
    single-job :class:`~repro.core.middleware.FreeRide` or a multi-job
    :class:`~repro.cluster.builder.Cluster`, whose *combined* worker
    pool then serves the traffic. ``jobs`` sizes job-aware admission
    policies (``per_job_token_bucket``); ``tenants`` —
    :class:`~repro.tenancy.tenants.TenantShare` descriptors — sizes the
    tenant-aware admission policy (``per_tenant_token_bucket``) and the
    weighted-fair dispatch discipline (``weighted``).
    """

    def __init__(
        self,
        freeride: "FreeRide",
        requests: typing.Sequence[TaskRequest],
        admission: "str | AdmissionPolicy" = "always",
        discipline: "str | slo_mod.QueueDiscipline" = "edf",
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        jobs: int = 1,
        tenants: typing.Sequence = (),
        retry: "RetryPolicy | None" = None,
        checkpoint: "CheckpointPolicy | None" = None,
        metrics_mode: str = "records",
    ):
        if queue_capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {queue_capacity}")
        if metrics_mode not in ("records", "streaming"):
            raise ValueError(
                f"metrics_mode must be 'records' or 'streaming', "
                f"got {metrics_mode!r}")
        #: "records" retains every RequestRecord for post-run folds (the
        #: byte-identical default); "streaming" folds each record into
        #: constant-memory accumulators the moment it turns terminal and
        #: then drops it, so memory tracks *live* requests, not history
        self.metrics_mode = metrics_mode
        self.streaming = metrics_mode == "streaming"
        self.freeride = freeride
        self.sim = freeride.sim
        self.tenants = tuple(tenants)
        self.admission = make_admission(admission, jobs=jobs,
                                        tenants=self.tenants)
        self.discipline = make_discipline(discipline, tenants=self.tenants)
        self.queue_capacity = queue_capacity
        # Observability: the engine's tracer (the no-op singleton unless
        # a runner attached a live one before building this frontend)
        # and the run's named metrics. Counter/gauge updates touch no
        # RNG and schedule nothing, so they cannot perturb the run.
        self.trace = self.sim.trace
        telemetry = self.sim.telemetry
        self._m_admitted = telemetry.counter("serving.admitted")
        self._m_rejected = telemetry.counter("serving.rejected")
        self._m_dispatched = telemetry.counter("serving.dispatched")
        self._m_retries = telemetry.counter("serving.retries")
        self._m_queue_depth = telemetry.gauge("serving.queue_depth")
        #: trace-only bookkeeping, populated only when tracing is on:
        #: id(record) -> when it (re)entered the queue, and
        #: id(spec) -> (record, dispatch time, stage) for open attempts
        self._queued_since: dict[int, float] = {}
        self._open_service: dict[int, tuple[RequestRecord, float, int]] = {}
        if self.trace.enabled:
            attach = getattr(self.discipline, "attach_tracer", None)
            if attach is not None:
                attach(self.trace)
        self.queue: list[RequestRecord] = []
        self.closed_at: float | None = None
        #: retry/backoff for attempts that die mid-service; None = one shot
        self.retry = retry
        #: recovery policy stamped on every dispatched task spec
        self.checkpoint = checkpoint
        #: live dispatch ledger: id(spec) -> the record it serves
        self._by_spec: dict[int, RequestRecord] = {}
        # A dedicated named stream, so enabling retries never perturbs
        # any other component's draws.
        self._retry_rng = freeride.rng.stream("serving:retry")
        # Streaming mode keeps only the in-flight records (keyed by
        # request id, so the close-time leftovers fold in the same order
        # the records-mode list would) plus the accumulators; the
        # records list the callers see stays empty by design.
        if self.streaming:
            self.records: list[RequestRecord] = []
            self._live: "dict[int, RequestRecord] | None" = {}
            self._acc: "ServingAccumulator | None" = (
                ServingAccumulator(streaming=True))
            self._tenant_accs: "dict[str, ServingAccumulator] | None" = {}
        else:
            self.records = []
            self._live = None
            self._acc = None
            self._tenant_accs = None
        #: one profiling pass per distinct request shape, not per request
        self._profiles: dict[tuple, TaskProfile] = {}
        freeride.manager.terminal_listeners.append(self._on_terminal)
        # Restarted workers mean re-queued retries may fit again.
        freeride.manager.capacity_listeners.append(self._on_capacity)
        self.feed(requests)

    def feed(self, requests: typing.Iterable[TaskRequest]) -> None:
        """Register requests and schedule their arrival events.

        The constructor feeds the whole pre-generated stream; the scale
        harness calls this again per chunk (from
        :meth:`~repro.serving.arrivals.ArrivalProcess.iter_time_chunks`)
        so only one chunk of not-yet-arrived requests is ever pending —
        the piece that keeps frontend memory flat at 10^6+ requests.
        Arrivals must not be in the past; feeding chunk ``k+1`` when
        chunk ``k``'s last arrival fires satisfies this by construction.
        A past arrival raises before it is registered, so it never
        counts as offered load.
        """
        for request in requests:
            delay = request.arrival_s - self.sim.now
            if delay < 0:
                raise ValueError(
                    f"request {request.request_id} arrives in the past "
                    f"({request.arrival_s} < {self.sim.now})"
                )
            record = RequestRecord(
                request=request,
                deadline_s=slo_mod.slo_class(request.slo_class)
                .absolute_deadline(request.arrival_s),
            )
            if self.streaming:
                self._live[request.request_id] = record
            else:
                self.records.append(record)
            timeout = self.sim.timeout(delay)
            timeout.callbacks.append(
                lambda _ev, record=record: self._on_arrival(record)
            )

    # -- workload assembly ---------------------------------------------
    @staticmethod
    def _build_workload(request: TaskRequest):
        job = FiniteJob(
            make_workload(request.workload, batch_size=request.batch_size),
            job_steps=request.job_steps,
        )
        if request.interface == "imperative":
            return ImperativeAdapter(job)
        return job

    def _profile_for(self, request: TaskRequest) -> TaskProfile:
        key = (request.workload, request.batch_size, request.interface)
        profile = self._profiles.get(key)
        if profile is None:
            probe = self._build_workload(request)
            profile = profile_side_task(probe, interface=request.interface)
            self._profiles[key] = profile
        return profile

    # -- observability seams --------------------------------------------
    def _tenant_track(self, record: RequestRecord) -> tuple[str, str]:
        return ("tenants", record.request.tenant or "default")

    def _trace_reject(self, record: RequestRecord) -> None:
        self._m_rejected.add()
        if self.trace.enabled:
            self.trace.instant(
                "reject", self.sim.now, cat="serving.admission",
                track=self._tenant_track(record),
                args={"id": record.request.request_id,
                      "reason": record.reject_reason},
            )

    def _trace_service_end(self, record: RequestRecord,
                           failure: "str | None") -> None:
        """Close the attempt's service span (no-op unless traced)."""
        entry = self._open_service.pop(id(record.spec), None)
        if entry is None:
            return
        _record, started, stage = entry
        self.trace.complete(
            "service", started, self.sim.now, cat="serving.service",
            track=("workers", f"stage{stage}"),
            args={"id": record.request.request_id,
                  "workload": record.request.workload,
                  "attempt": record.attempts,
                  "failure": failure},
        )

    # -- streaming accounting -------------------------------------------
    def _fold(self, record: RequestRecord) -> None:
        """Streaming mode: account a terminal record, then drop it."""
        if self._live.pop(record.request.request_id, None) is None:
            return  # already folded
        self._acc.add(record)
        self._tenant_accs[record.request.tenant].add(record)
        if record.spec is not None:
            self._by_spec.pop(id(record.spec), None)
            record.spec = None

    # -- lifecycle events ----------------------------------------------
    def _on_arrival(self, record: RequestRecord) -> None:
        now = self.sim.now
        if self.streaming:
            # Register the tenant at *arrival* so undeclared tenants
            # keep the records-mode first-seen ordering in the fairness
            # fold (arrival order is record order).
            tenant = record.request.tenant
            if tenant not in self._tenant_accs:
                self._tenant_accs[tenant] = ServingAccumulator(streaming=True)
        if self.closed_at is not None:
            record.offered = False
            record.rejected_at = now
            record.reject_reason = "service closed"
            if self.streaming:
                self._fold(record)
            return
        # Structural bound first: a full queue rejects without consulting
        # the admission policy, so stateful policies (the token bucket)
        # don't burn tokens on requests that could never be queued.
        if len(self.queue) >= self.queue_capacity:
            record.rejected_at = now
            record.reject_reason = (
                f"admission queue full ({len(self.queue)}/"
                f"{self.queue_capacity}; admission={self.admission.name})"
            )
            self._trace_reject(record)
            if self.streaming:
                self._fold(record)
            return
        admitted, reason = self.admission.admit(now, record.request,
                                                len(self.queue))
        if not admitted:
            record.rejected_at = now
            record.reject_reason = reason
            self._trace_reject(record)
            if self.streaming:
                self._fold(record)
            return
        record.admitted_at = now
        self.queue.append(record)
        self._m_admitted.add()
        self._m_queue_depth.set(len(self.queue), now)
        if self.trace.enabled:
            self._queued_since[id(record)] = now
            self.trace.instant(
                "admit", now, cat="serving.admission",
                track=self._tenant_track(record),
                args={"id": record.request.request_id,
                      "workload": record.request.workload,
                      "slo_class": record.request.slo_class},
            )
        self._dispatch()

    def _on_terminal(self, task: "SideTaskRuntime") -> None:
        """A task finished or died: settle its request, retry the queue."""
        record = self._by_spec.get(id(task.spec))
        if record is not None and record.spec is task.spec:
            self._settle_attempt(record, task)
        if self.closed_at is None:
            self._dispatch()

    def _on_capacity(self) -> None:
        """A crashed worker restarted: queued requests may fit again."""
        if self.closed_at is None:
            self._dispatch()

    def _settle_attempt(self, record: RequestRecord,
                        runtime: "SideTaskRuntime") -> None:
        """Decide a terminated attempt's fate: done, retry, or give up."""
        if self.trace.enabled:
            self._trace_service_end(record, runtime.failure)
        if record.outcome is not None or record.completed_at is not None:
            return
        workload = record.spec.workload
        if workload.is_finished and runtime.failure is None:
            record.outcome = "completed"
            record.completed_at = self.sim.now
            # Earlier attempts may have died; the request itself did not.
            record.failure = None
            if self.trace.enabled:
                self.trace.instant(
                    "complete", self.sim.now, cat="serving.lifecycle",
                    track=self._tenant_track(record),
                    args={"id": record.request.request_id,
                          "attempts": record.attempts},
                )
            if self.streaming:
                self._fold(record)
            return
        if self.closed_at is not None:
            # Teardown stops are not failures; finalize() sorts them out.
            return
        failure = runtime.failure or "task stopped before finishing"
        record.failure = failure
        retry = self.retry
        if retry is not None and record.attempts < retry.max_attempts:
            delay = retry.delay_s(record.attempts, self._retry_rng)
            self._m_retries.add()
            if self.trace.enabled:
                self.trace.instant(
                    "retry", self.sim.now, cat="serving.retry",
                    track=self._tenant_track(record),
                    args={"id": record.request.request_id,
                          "attempt": record.attempts,
                          "delay_s": delay,
                          "failure": failure},
                )
            timeout = self.sim.timeout(delay)
            timeout.callbacks.append(
                lambda _ev, record=record: self._requeue(record)
            )
            return
        if retry is not None and retry.max_attempts > 1:
            record.outcome = "exhausted"
            record.failure = (
                f"retries exhausted after {record.attempts} attempts; "
                f"last failure: {failure}"
            )
        else:
            record.outcome = "failed"
        if self.streaming:
            self._fold(record)

    def _requeue(self, record: RequestRecord) -> None:
        """Put a failed (admitted) request back in line for its retry.

        Re-admission is not re-adjudicated — the request already paid
        admission once — and the bounded queue does not apply: dropping
        an accepted request on retry would turn a transient fault into a
        silent loss.
        """
        if self.closed_at is not None or record.outcome is not None:
            return
        record.assigned_at = None
        record.stage = None
        record.spec = None
        self.queue.append(record)
        self._m_queue_depth.set(len(self.queue), self.sim.now)
        if self.trace.enabled:
            self._queued_since[id(record)] = self.sim.now
        self._dispatch()

    def _enforce_attempt_timeout(self, record: RequestRecord,
                                 spec: TaskSpec) -> None:
        """Kill an attempt that outlived the per-attempt timeout."""
        if record.spec is not spec or record.outcome is not None:
            return
        runtime = self.freeride.runtime_for(spec)
        if runtime.machine.terminated or spec.workload.is_finished:
            return
        reason = (
            f"attempt timeout after {self.retry.attempt_timeout_s}s"
        )
        if runtime.machine.resumable:
            runtime.abandon(reason)
        else:
            runtime.kill(reason)

    def _dispatch(self) -> None:
        """Hand queued requests to the manager while memory allows.

        Requests are tried in discipline order. When no worker can fit a
        pick that needs ``m`` GB, every queued request needing ``m`` GB
        or more is *blocked* for the rest of this round: hidden from the
        discipline's view but left in place in the queue. So a blocked
        request cannot head-of-line block smaller ones, and the round
        does not re-pick blocked requests one at a time.

        The prune relies on one condition: within a round, eligibility
        only shrinks. A worker's free memory is its bubble memory minus
        its reservations, and a round only adds reservations, so a
        request needing ``m`` GB or more would be blocked when picked.

        The round's first pick sees the whole queue, so tenant-aware
        disciplines see every tenant's backlog. Views keep queue order:
        arrival order, except that :meth:`_requeue` appends retries at
        the tail, so ties break by queue position. Blocked requests are
        retried when a task terminates and returns its memory.
        """
        # Stateful weighted-fair disciplines are charged per *successful*
        # dispatch, so a pick blocked for lack of memory costs its
        # tenant nothing.
        charge = getattr(self.discipline, "on_dispatch", None)
        limit_gb = float("inf")
        blocked: "set[int]" = set()
        while True:
            view = (self.queue if limit_gb == float("inf") and not blocked
                    else [record for record in self.queue
                          if id(record) not in blocked
                          and self._profile_for(record.request)
                          .gpu_memory_gb < limit_gb])
            if not view:
                break
            index = self.discipline(view, self.sim.now)
            record = view[index]
            request = record.request
            profile = self._profile_for(request)
            if not self.freeride.manager.eligible_workers(
                    profile.gpu_memory_gb):
                limit_gb = profile.gpu_memory_gb
                continue
            name = request.name
            if record.attempts > 0:
                # Stable, distinct task names per attempt keep every
                # derived RNG stream — and so the run — deterministic.
                name = f"{request.name}-a{record.attempts}"
            spec = self.freeride.submit(
                lambda request=request: self._build_workload(request),
                interface=request.interface,
                profile=profile,
                name=name,
                slo_class=request.slo_class,
                deadline_s=record.deadline_s,
                queue_depth=len(self.queue) - 1,
                checkpoint=self.checkpoint,
            )
            if spec is None:  # pragma: no cover - eligibility checked above
                blocked.add(id(record))
                continue
            self.queue.remove(record)
            record.assigned_at = self.sim.now
            record.spec = spec
            record.attempts += 1
            self._by_spec[id(spec)] = record
            self._m_dispatched.add()
            self._m_queue_depth.set(len(self.queue), self.sim.now)
            if self.trace.enabled:
                queued_from = self._queued_since.pop(
                    id(record), record.request.arrival_s
                )
                self.trace.complete(
                    "queued", queued_from, self.sim.now, cat="serving.queue",
                    track=self._tenant_track(record),
                    args={"id": request.request_id,
                          "attempt": record.attempts},
                )
                self._open_service[id(spec)] = (
                    record, self.sim.now,
                    self.freeride.runtime_for(spec).stage,
                )
            if charge is not None:
                charge(record)
            if (
                self.retry is not None
                and self.retry.attempt_timeout_s is not None
            ):
                timeout = self.sim.timeout(self.retry.attempt_timeout_s)
                timeout.callbacks.append(
                    lambda _ev, record=record, spec=spec:
                        self._enforce_attempt_timeout(record, spec)
                )

    def close(self) -> None:
        """Stop admitting (training over / service shutting down)."""
        if self.closed_at is None:
            self.closed_at = self.sim.now

    # -- post-run accounting -------------------------------------------
    def finalize(self) -> None:
        """Back-fill per-request outcomes from the runtimes' histories."""
        if self.trace.enabled:
            # Attempts still live at teardown never settled; close their
            # service spans at the drain's end so the track is complete.
            for record, started, stage in list(self._open_service.values()):
                self.trace.complete(
                    "service", started, self.sim.now, cat="serving.service",
                    track=("workers", f"stage{stage}"),
                    args={"id": record.request.request_id,
                          "workload": record.request.workload,
                          "attempt": record.attempts,
                          "failure": "open at teardown"},
                )
            self._open_service.clear()
        if self.streaming:
            # Only in-flight records remain; settle-time folds already
            # accounted for everything terminal. The dict preserves
            # request-id order, so leftovers fold in the same order the
            # records-mode list would visit them.
            leftovers = list(self._live.values())
            for record in leftovers:
                self._finalize_record(record)
            for record in leftovers:
                self._fold(record)
            return
        for record in self.records:
            self._finalize_record(record)

    def _finalize_record(self, record: RequestRecord) -> None:
        if record.spec is None:
            if record.failure is not None and record.outcome is None:
                # Admitted, failed at least once, and its retry never
                # found a worker before close: an explicit terminal
                # failure, not a silently unserved request.
                record.outcome = "failed"
            return
        runtime = self.freeride.runtime_for(record.spec)
        workload = record.spec.workload
        record.final_state = runtime.state.value
        record.steps_done = workload.steps_done
        record.units_done = workload.units_done
        for worker in self.freeride.workers:
            if runtime in worker.all_tasks:
                record.stage = worker.stage
                break
        history = runtime.machine.history
        record.first_progress_at = next(
            (when for when, state in history
             if state is SideTaskState.RUNNING), None,
        )
        if workload.is_finished and runtime.failure is None:
            record.completed_at = next(
                (when for when, state in reversed(history)
                 if state is SideTaskState.STOPPED), None,
            )
            if record.outcome is None:
                record.outcome = "completed"
        elif record.outcome is None and runtime.failure is not None:
            # The attempt died (worker crash, kill, OOM) and was
            # never settled as a retry: an explicit failure, not a
            # silently unserved request.
            record.outcome = "failed"
            record.failure = runtime.failure

    # -- metrics access -------------------------------------------------
    def metrics_for(self, duration_s: float) -> ServingMetrics:
        """The run's aggregate metrics, from whichever mode is active.

        Call after :meth:`finalize`; in streaming mode this reads the
        accumulators (no records survive), in records mode it folds the
        retained records exactly as before.
        """
        if self.streaming:
            return self._acc.metrics(duration_s)
        return serving_metrics(self.records, duration_s)

    def fairness_for(self, duration_s: float) -> FairnessMetrics:
        """Per-tenant fairness accounting, from whichever mode is active."""
        if self.streaming:
            return fairness_from_accumulators(
                self._tenant_accs, self.tenants, duration_s)
        return fairness_metrics(self.records, self.tenants, duration_s)

    @property
    def outcome_counts(self) -> "RequestOutcomeCounts | None":
        """Pre-folded retry/failure tallies (streaming mode only)."""
        if not self.streaming:
            return None
        return RequestOutcomeCounts(
            retries=self._acc.retries,
            failed=self._acc.failed_requests,
            exhausted=self._acc.exhausted_requests,
        )


# ----------------------------------------------------------------------
# one-call serving run
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ServingResult:
    """Outcome of one traffic-driven serving run."""

    training: TrainingResult
    records: list[RequestRecord]
    metrics: ServingMetrics
    #: seconds the service was open to traffic (rates normalize by this)
    open_duration_s: float
    #: per-tenant accounting; set when the scenario declared tenants
    fairness: FairnessMetrics | None = None
    #: failure/recovery accounting; set when the scenario declared faults
    resilience: "ResilienceMetrics | None" = None
    #: structured span trace; set when the scenario enabled ``obs.trace``
    trace: "TraceResult | None" = None

    def summaries(self) -> list[dict]:
        return [record.summary() for record in self.records]


def run_serving(
    config: TrainConfig,
    arrivals: ArrivalProcess,
    horizon_s: float,
    admission: "str | AdmissionPolicy" = "always",
    policy: "str | AssignmentPolicy" = "least_loaded",
    discipline: "str | slo_mod.QueueDiscipline" = "edf",
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    seed: int = 0,
    settle_s: float = 2.0,
) -> ServingResult:
    """Serve an open-loop request stream from one training job's bubbles.

    The one-call programmatic facade: builds the serving scenario ad hoc and
    delegates to :class:`repro.api.session.ServingRunner` — the same
    runner a declarative :class:`~repro.api.spec.ScenarioSpec` executes
    through. Policy/admission/discipline accept names or instances
    (instances bypass the spec vocabulary, e.g. a custom
    :class:`AdmissionPolicy` or a trace-replay arrival process).
    """
    # Imported here: the session layer sits above this module.
    from repro.api.session import ServingRunner
    from repro.api.spec import PolicySpec, ScenarioSpec

    policy_spec = PolicySpec(
        assignment=policy if isinstance(policy, str) else "least_loaded",
        admission=admission if isinstance(admission, str) else "always",
        discipline=discipline if isinstance(discipline, str) else "edf",
        queue_capacity=queue_capacity,
    )
    spec = ScenarioSpec(
        name="run_serving",
        kind="serving",
        seed=seed,
        policy=policy_spec,
        params={"horizon_s": horizon_s, "settle_s": settle_s},
    )
    runner = ServingRunner(
        spec,
        config=config,
        arrivals=arrivals,
        admission=None if isinstance(admission, str) else admission,
        policy=None if isinstance(policy, str) else policy,
        discipline=None if isinstance(discipline, str) else discipline,
    )
    return runner.run()
