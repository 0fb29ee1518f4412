"""The declarative scenario language: everything a run is, as data.

A :class:`ScenarioSpec` describes one FreeRide scenario — the cluster,
the training job, the side-task workloads (batch) or the workload mix
and arrival process (serving), the policies, and an optional sweep grid
— as a frozen dataclass family that serializes losslessly to and from
plain dicts/JSON. Specs are the single currency of the system: the
experiment registry stores them, :class:`~repro.api.session.Session`
executes them, ``experiments/common.sweep`` fans them across the
process pool, and the CLI overrides them with ``--set key=value``.

The round-trip contract is strict: ``ScenarioSpec.from_dict(s.to_dict())
== s``, and re-running a re-hydrated spec reproduces the original run
byte for byte (every source of randomness derives from fields of the
spec). ``tests/api/test_spec.py`` pins both properties.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing

from repro import calibration
from repro.errors import SpecError
from repro.faults.checkpoint import CheckpointPolicy
from repro.faults.plan import DropWindow, FaultPlan, SlowdownWindow, WorkerCrash
from repro.faults.plan import build_plan as _build_fault_plan
from repro.faults.retry import RetryPolicy
from repro.pipeline.config import MODEL_PRESETS, TrainConfig, model_config

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.cluster import Server
    from repro.serving.arrivals import ArrivalProcess, RequestTemplate
    from repro.sim.engine import Engine


# ----------------------------------------------------------------------
# dict codec helpers
# ----------------------------------------------------------------------
def _to_jsonable(value):
    """Recursively convert a spec value into JSON-shaped data (lists,
    dicts, scalars) — the exact structure ``json.loads`` hands back."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    return value


def _require_mapping(data, cls) -> dict:
    if not isinstance(data, dict):
        raise SpecError(
            f"{cls.__name__}.from_dict expects a mapping, got {type(data).__name__}"
        )
    known = {field.name for field in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SpecError(
            f"unknown {cls.__name__} field(s) {sorted(unknown)}; "
            f"known fields: {sorted(known)}"
        )
    return data


class SpecBase:
    """Shared dict codec for the spec dataclasses.

    ``to_dict`` emits JSON-shaped data; ``from_dict`` validates field
    names (unknown keys are a :class:`SpecError`). Classes with nested
    spec fields override ``from_dict`` to coerce them first.
    """

    def to_dict(self) -> dict:
        return _to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict):
        return cls(**_require_mapping(data, cls))


# ----------------------------------------------------------------------
# the spec family
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ClusterSpec(SpecBase):
    """The simulated server that runs the scenario: Server I, the
    paper's 4-GPU training testbed (every pipeline needs a GPU per
    stage)."""

    #: record per-GPU SM occupancy traces (off by default: it is the
    #: single hottest allocation in long runs; Figures 1 and 8 opt in)
    record_occupancy: bool = False

    def factory(self) -> "typing.Callable[[Engine], Server]":
        """Server I's constructor: one module-level function per setting,
        so the bubble-profile cache, which keys on it, hits across runs."""
        from repro.gpu.cluster import make_recording_server_i, make_server_i

        if self.record_occupancy:
            return make_recording_server_i
        return make_server_i


@dataclasses.dataclass(frozen=True)
class TrainingSpec(SpecBase):
    """The pipeline-training job whose bubbles the scenario harvests.

    Mirrors :class:`~repro.pipeline.config.TrainConfig` field for field,
    minus the seed (the scenario's root ``seed`` feeds every stream).
    """

    #: model preset label ("1.2B" / "3.6B" / "6B") or a size in billions
    model: "str | float" = "3.6B"
    num_stages: int = calibration.NUM_STAGES
    micro_batches: int = calibration.DEFAULT_MICRO_BATCHES
    epochs: int = 8
    op_jitter: float = calibration.OP_TIME_REL_JITTER
    schedule: str = "1f1b"

    #: the supported pipeline schedules (see :mod:`repro.pipeline.schedule`)
    SCHEDULES = ("1f1b", "gpipe")

    def __post_init__(self):
        if isinstance(self.model, str):
            if self.model not in MODEL_PRESETS:
                raise SpecError(
                    f"unknown model preset {self.model!r}; choose from "
                    f"{sorted(MODEL_PRESETS)} or give a size in billions"
                )
        elif not self.model > 0:
            raise SpecError(
                f"model size must be positive billions, got {self.model}"
            )
        for field, minimum in (("micro_batches", 1), ("epochs", 1)):
            value = getattr(self, field)
            if not isinstance(value, int) or value < minimum:
                raise SpecError(
                    f"training.{field} must be an integer >= {minimum}, "
                    f"got {value!r}"
                )
        # A pipeline has at least two stages, and Server I trains one
        # stage per GPU.
        stages = (2, calibration.SERVER_I_NUM_GPUS)
        if (not isinstance(self.num_stages, int)
                or not stages[0] <= self.num_stages <= stages[1]):
            raise SpecError(
                f"training.num_stages must be an integer in "
                f"[{stages[0]}, {stages[1]}], got {self.num_stages!r}"
            )
        if self.op_jitter < 0:
            raise SpecError(
                f"training.op_jitter must be >= 0, got {self.op_jitter}"
            )
        if self.schedule not in self.SCHEDULES:
            raise SpecError(
                f"unknown schedule {self.schedule!r}; "
                f"choose from {sorted(self.SCHEDULES)}"
            )

    def to_config(self, seed: int = 0) -> TrainConfig:
        return TrainConfig(
            model=model_config(self.model),
            num_stages=self.num_stages,
            micro_batches=self.micro_batches,
            epochs=self.epochs,
            seed=seed,
            op_jitter=self.op_jitter,
            schedule=self.schedule,
        )


@dataclasses.dataclass(frozen=True)
class WorkloadSpec(SpecBase):
    """One batch side-task submission (a row of the paper's deployments)."""

    #: workload registry name (see :mod:`repro.workloads.registry`)
    name: str = "resnet18"
    batch_size: int = 64
    interface: str = "iterative"
    #: one copy on every worker with enough bubble memory (the paper's
    #: standard deployment) vs a single submission
    replicate: bool = True
    #: cap on replicated copies (None = every eligible worker)
    copies: "int | None" = None

    def __post_init__(self):
        from repro.workloads.registry import WORKLOAD_NAMES

        if self.name not in WORKLOAD_NAMES:
            raise SpecError(
                f"unknown workload {self.name!r}; "
                f"choose from {sorted(WORKLOAD_NAMES)}"
            )
        if self.batch_size < 1:
            raise SpecError(
                f"workload batch_size must be >= 1, got {self.batch_size}"
            )
        if self.interface not in ("iterative", "imperative"):
            raise SpecError(
                f"unknown workload interface {self.interface!r}; "
                "choose from ['imperative', 'iterative']"
            )
        if self.copies is not None and self.copies < 1:
            raise SpecError(
                f"workload copies must be >= 1 (or None), got {self.copies}"
            )

    def factory(self):
        from repro.workloads.registry import workload_factory

        return workload_factory(self.name, batch_size=self.batch_size,
                                interface=self.interface)


@dataclasses.dataclass(frozen=True)
class JobSpec(SpecBase):
    """One training job of a ``kind="cluster"`` scenario.

    Pairs a per-job cluster (its server's settings) with a per-job
    training config. The scenario's root ``seed`` still feeds every
    stream; job *i* trains with ``seed + i`` so identical job specs
    produce distinct (but fully deterministic) bubble patterns.
    """

    cluster: ClusterSpec = dataclasses.field(default_factory=ClusterSpec)
    training: TrainingSpec = dataclasses.field(default_factory=TrainingSpec)
    #: display label; empty = "job<index>"
    name: str = ""

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        data = dict(_require_mapping(data, cls))
        if "cluster" in data:
            data["cluster"] = ClusterSpec.from_dict(data["cluster"])
        if "training" in data:
            data["training"] = TrainingSpec.from_dict(data["training"])
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class MixEntrySpec(SpecBase):
    """One entry of a serving workload mix (request template)."""

    workload: str
    job_steps: int
    slo_class: str = "standard"
    batch_size: int = 64
    interface: str = "iterative"
    weight: float = 1.0

    def __post_init__(self):
        from repro.workloads.registry import WORKLOAD_NAMES

        if self.workload not in WORKLOAD_NAMES:
            raise SpecError(
                f"unknown mix workload {self.workload!r}; "
                f"choose from {sorted(WORKLOAD_NAMES)}"
            )
        if self.job_steps < 1:
            raise SpecError(
                f"mix job_steps must be >= 1, got {self.job_steps}"
            )
        if self.batch_size < 1:
            raise SpecError(
                f"mix batch_size must be >= 1, got {self.batch_size}"
            )
        if not self.weight > 0:
            raise SpecError(
                f"mix weight must be positive, got {self.weight}"
            )

    def to_template(self) -> "RequestTemplate":
        from repro.serving.arrivals import RequestTemplate

        return RequestTemplate(
            workload=self.workload,
            job_steps=self.job_steps,
            slo_class=self.slo_class,
            batch_size=self.batch_size,
            interface=self.interface,
            weight=self.weight,
        )


def default_mix() -> "tuple[MixEntrySpec, ...]":
    """The serving layer's standard mix, as spec entries."""
    from repro.serving.arrivals import DEFAULT_MIX

    return tuple(
        MixEntrySpec(
            workload=template.workload,
            job_steps=template.job_steps,
            slo_class=template.slo_class,
            batch_size=template.batch_size,
            interface=template.interface,
            weight=template.weight,
        )
        for template in DEFAULT_MIX
    )


@dataclasses.dataclass(frozen=True)
class ArrivalSpec(SpecBase):
    """The open-loop arrival process of a serving scenario."""

    #: "poisson", "bursty", or "diurnal" (trace replay is programmatic —
    #: build a TraceArrivals and hand it to the Session directly)
    kind: str = "poisson"
    rate_per_s: float = 2.0
    mix: "tuple[MixEntrySpec, ...]" = dataclasses.field(default_factory=default_mix)

    def __post_init__(self):
        from repro.serving.arrivals import NAMED_ARRIVALS

        if self.kind not in NAMED_ARRIVALS:
            raise SpecError(
                f"unknown arrival kind {self.kind!r}; "
                f"choose from {sorted(NAMED_ARRIVALS)} "
                "(trace replay is built programmatically)"
            )
        if not self.rate_per_s > 0:
            raise SpecError(
                f"arrivals.rate_per_s must be positive, "
                f"got {self.rate_per_s}"
            )
        if not self.mix:
            raise SpecError("arrivals need at least one mix entry")

    def build(self, seed: int = 0) -> "ArrivalProcess":
        from repro.serving.arrivals import make_arrivals

        return make_arrivals(
            self.kind, self.rate_per_s, seed=seed,
            mix=tuple(entry.to_template() for entry in self.mix),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalSpec":
        data = dict(_require_mapping(data, cls))
        if "mix" in data:
            data["mix"] = tuple(
                MixEntrySpec.from_dict(entry) for entry in data["mix"]
            )
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class TenantSpec(SpecBase):
    """One tenant of a multi-tenant serving/cluster scenario.

    A tenant is a named traffic source with a weighted-fair share of
    dispatch, its own admission token bucket, and its own open-loop
    arrival stream (rate, process kind, and SLO-class mix). Tenant *i*
    of a scenario draws its arrivals with ``seed + i`` — identical
    tenant entries still offer distinct, fully deterministic traffic.
    """

    name: str = "tenant"
    #: weighted-fair dispatch share (2.0 gets twice the service of 1.0
    #: whenever both tenants are backlogged)
    weight: float = 1.0
    #: per-tenant admission token bucket: sustained refill rate ...
    rate_per_s: float = 2.0
    #: ... and burst allowance
    burst: float = 4.0
    #: this tenant's arrival process ("poisson" / "bursty" / "diurnal")
    arrival_kind: str = "poisson"
    #: this tenant's offered load (requests/second)
    arrival_rate_per_s: float = 2.0
    #: this tenant's request-class mix (defaults to the standard mix)
    mix: "tuple[MixEntrySpec, ...]" = dataclasses.field(default_factory=default_mix)

    def __post_init__(self):
        from repro.serving.arrivals import NAMED_ARRIVALS

        if not self.weight > 0:
            raise SpecError(
                f"tenant {self.name!r} weight must be positive, "
                f"got {self.weight}"
            )
        if not self.rate_per_s > 0:
            raise SpecError(
                f"tenant {self.name!r} rate_per_s must be positive, "
                f"got {self.rate_per_s}"
            )
        if self.burst < 1:
            raise SpecError(
                f"tenant {self.name!r} burst must allow at least one "
                f"token, got {self.burst}"
            )
        if self.arrival_kind not in NAMED_ARRIVALS:
            raise SpecError(
                f"tenant {self.name!r} has unknown arrival kind "
                f"{self.arrival_kind!r}; choose from {sorted(NAMED_ARRIVALS)}"
            )
        if not self.arrival_rate_per_s > 0:
            raise SpecError(
                f"tenant {self.name!r} arrival_rate_per_s must be "
                f"positive, got {self.arrival_rate_per_s}"
            )
        if not self.mix:
            raise SpecError(
                f"tenant {self.name!r} needs at least one mix entry"
            )

    def share(self):
        """The runtime descriptor the fairness mechanisms consume."""
        from repro.tenancy.tenants import TenantShare

        return TenantShare(
            name=self.name, weight=self.weight,
            rate_per_s=self.rate_per_s, burst=self.burst,
        )

    def build_arrivals(self, seed: int = 0):
        """This tenant's own open-loop :class:`ArrivalProcess`."""
        from repro.serving.arrivals import make_arrivals

        return make_arrivals(
            self.arrival_kind, self.arrival_rate_per_s, seed=seed,
            mix=tuple(entry.to_template() for entry in self.mix),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        data = dict(_require_mapping(data, cls))
        if "mix" in data:
            data["mix"] = tuple(
                MixEntrySpec.from_dict(entry) for entry in data["mix"]
            )
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class PolicySpec(SpecBase):
    """Every pluggable policy decision of a scenario, by name."""

    #: worker assignment (Algorithm 1): a :data:`NAMED_POLICIES` key
    assignment: str = "least_loaded"
    #: serving admission policy: a :data:`NAMED_ADMISSION` key
    admission: str = "always"
    #: serving queue dispatch discipline: a :data:`NAMED_DISCIPLINES` key
    discipline: str = "edf"
    #: bound on the serving admission queue
    queue_capacity: int = 64
    #: framework-enforced grace period (None = calibrated default)
    grace_period_s: "float | None" = None
    #: manager RPC latency (None = calibrated default)
    rpc_latency_s: "float | None" = None

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise SpecError(
                f"policy.queue_capacity must be >= 1, "
                f"got {self.queue_capacity}"
            )
        if self.grace_period_s is not None and not self.grace_period_s > 0:
            raise SpecError(
                f"policy.grace_period_s must be positive (or None), "
                f"got {self.grace_period_s}"
            )
        if self.rpc_latency_s is not None and self.rpc_latency_s < 0:
            raise SpecError(
                f"policy.rpc_latency_s must be >= 0 (or None), "
                f"got {self.rpc_latency_s}"
            )

    def assignment_policy(self):
        from repro.core.policies import NAMED_POLICIES

        try:
            return NAMED_POLICIES[self.assignment]
        except KeyError:
            raise SpecError(
                f"unknown assignment policy {self.assignment!r}; "
                f"choose from {sorted(NAMED_POLICIES)}"
            ) from None

    def freeride_kwargs(self) -> dict:
        """Keyword overrides for :class:`~repro.core.middleware.Cluster`
        and :class:`~repro.core.manager.SideTaskManager` (only the fields
        that deviate from the calibrated defaults)."""
        kwargs: dict = {"policy": self.assignment_policy()}
        if self.grace_period_s is not None:
            kwargs["grace_period_s"] = self.grace_period_s
        if self.rpc_latency_s is not None:
            kwargs["rpc_latency_s"] = self.rpc_latency_s
        return kwargs


@dataclasses.dataclass(frozen=True)
class ObsSpec(SpecBase):
    """The scenario's observability controls (the ``obs`` section).

    Tracing is off by default and — by hard contract, pinned in
    ``tests/obs/test_trace_determinism.py`` — can never change a run:
    turning it on yields byte-identical scenario outputs plus a
    :class:`~repro.obs.export.TraceResult` attached as ``result.trace``.
    ``--set trace=true`` is registry sugar for ``obs.trace``.
    """

    #: record structured spans and attach ``result.trace``
    trace: bool = False
    #: also convert the pipeline trace (op/bubble/epoch intervals) into
    #: spans after the run — the densest tracks, so they can be opted out
    trace_pipeline: bool = True
    #: bound on each telemetry metric's ring-buffer timeline
    ring_limit: int = 1024

    def __post_init__(self):
        if self.ring_limit < 1:
            raise SpecError(
                f"ring_limit must be >= 1, got {self.ring_limit}"
            )


#: metrics accounting modes a :class:`MetricsSpec` can name
METRICS_MODES = ("records", "streaming")


@dataclasses.dataclass(frozen=True)
class MetricsSpec(SpecBase):
    """The scenario's metrics accounting (the ``metrics`` section).

    In both modes the frontend folds each request into its accumulators
    the moment the request turns terminal, so counts and latency means
    agree bit for bit between them. ``records`` (default) keeps exact
    quantiles and every request record in ``result.records``.
    ``streaming`` keeps P² quantile sketches and drops each record once
    folded — the scale path for 10^6–10^7 request runs, still fully
    deterministic (serial and pool runs serialize byte-identically) but
    with approximate tracked quantiles and an empty ``result.records``.
    Always a section (never None) so ``--set metrics.mode=streaming``
    has a path to land on.
    """

    mode: str = "records"

    def __post_init__(self):
        if self.mode not in METRICS_MODES:
            raise SpecError(
                f"unknown metrics mode {self.mode!r}; "
                f"choose from {sorted(METRICS_MODES)}"
            )


#: recovery modes a :class:`FaultSpec` can name
RECOVERY_MODES = ("none", "restart", "checkpoint")


@dataclasses.dataclass(frozen=True)
class FaultSpec(SpecBase):
    """The scenario's fault model: what breaks, and how the run recovers.

    Injection knobs (crashes, step failures, slowdowns, RPC drops) and
    recovery knobs (checkpointing, serving retries) live together so one
    ``--set faults.crash_rate=2.0 --set faults.recovery=checkpoint``
    names a complete resilience experiment point. Everything derives
    from the scenario's root seed — a faulted run is exactly as
    reproducible as a healthy one.
    """

    #: expected worker crashes per stage over the open horizon (a
    #: seeded per-stage Poisson plan; 0 = only the explicit ``crashes``)
    crash_rate: float = 0.0
    #: explicit scripted crashes, on top of any sampled ones
    crashes: "tuple[WorkerCrash, ...]" = ()
    #: sampled crashes restart after this long (None = permanent loss);
    #: explicit crashes carry their own restart delay
    restart_after_s: "float | None" = 5.0
    #: probability an individual side-task step fails (pure hash of
    #: (seed, task, attempt) — independent of every other stream)
    step_failure_rate: float = 0.0
    #: straggler windows: a stage runs ``factor`` times slower inside
    slowdowns: "tuple[SlowdownWindow, ...]" = ()
    #: manager-cast drop windows (commands delayed, never lost)
    rpc_drop_windows: "tuple[DropWindow, ...]" = ()
    rpc_retransmit_delay_s: float = 0.05
    #: "none" (evicted work is killed), "restart" (preempted tasks
    #: resume from scratch), or "checkpoint" (resume from the last
    #: periodic snapshot)
    recovery: str = "none"
    checkpoint_interval_steps: int = 4
    checkpoint_cost_s: float = 0.05
    restore_cost_s: float = 0.1
    #: serving dispatch attempts per request (1 = no retries)
    retry_max_attempts: int = 1
    retry_backoff_s: float = 0.5
    retry_backoff_factor: float = 2.0
    retry_jitter: float = 0.1
    #: per-attempt serving timeout (None = attempts never time out)
    attempt_timeout_s: "float | None" = None

    def __post_init__(self):
        if self.recovery not in RECOVERY_MODES:
            raise SpecError(
                f"unknown recovery mode {self.recovery!r}; "
                f"choose from {sorted(RECOVERY_MODES)}"
            )
        if self.crash_rate < 0:
            raise SpecError(
                f"crash_rate must be >= 0, got {self.crash_rate}"
            )
        if not 0.0 <= self.step_failure_rate < 1.0:
            raise SpecError(
                "step_failure_rate must be in [0, 1), got "
                f"{self.step_failure_rate}"
            )
        if self.retry_max_attempts < 1:
            raise SpecError(
                f"retry_max_attempts must be >= 1, got "
                f"{self.retry_max_attempts}"
            )

    @property
    def active(self) -> bool:
        """Whether the spec injects any fault at all (recovery knobs
        alone do not make a plan worth arming)."""
        return bool(
            self.crash_rate > 0
            or self.crashes
            or self.step_failure_rate > 0
            or self.slowdowns
            or self.rpc_drop_windows
        )

    def retry_policy(self) -> "RetryPolicy | None":
        """The serving-frontend retry policy (None = no retry layer)."""
        if self.retry_max_attempts <= 1 and self.attempt_timeout_s is None:
            return None
        return RetryPolicy(
            max_attempts=self.retry_max_attempts,
            backoff_s=self.retry_backoff_s,
            backoff_factor=self.retry_backoff_factor,
            jitter=self.retry_jitter,
            attempt_timeout_s=self.attempt_timeout_s,
        )

    def checkpoint_policy(self) -> "CheckpointPolicy | None":
        """The side-task recovery policy: None for ``recovery="none"``,
        interval 0 (snapshot only at birth — restart from scratch) for
        ``"restart"``, the full periodic policy for ``"checkpoint"``."""
        if self.recovery == "none":
            return None
        interval = (self.checkpoint_interval_steps
                    if self.recovery == "checkpoint" else 0)
        return CheckpointPolicy(
            interval_steps=interval,
            checkpoint_cost_s=self.checkpoint_cost_s,
            restore_cost_s=self.restore_cost_s,
        )

    def build_plan(self, seed: int, horizon_s: float,
                   num_stages: int) -> FaultPlan:
        """The concrete :class:`~repro.faults.plan.FaultPlan`: sampled
        crashes (from ``crash_rate``) merged with the scripted ones."""
        plan = _build_fault_plan(
            seed, horizon_s, num_stages,
            crash_rate=self.crash_rate,
            restart_after_s=self.restart_after_s,
            step_failure_rate=self.step_failure_rate,
            slowdowns=self.slowdowns,
            rpc_drops=self.rpc_drop_windows,
            rpc_retry_delay_s=self.rpc_retransmit_delay_s,
        )
        if self.crashes:
            merged = tuple(sorted(
                plan.crashes + self.crashes,
                key=lambda crash: (crash.at_s, crash.stage),
            ))
            plan = dataclasses.replace(plan, crashes=merged)
        return plan

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        data = dict(_require_mapping(data, cls))
        if "crashes" in data:
            data["crashes"] = tuple(
                WorkerCrash(**_require_mapping(entry, WorkerCrash))
                for entry in data["crashes"]
            )
        if "slowdowns" in data:
            data["slowdowns"] = tuple(
                SlowdownWindow(**_require_mapping(entry, SlowdownWindow))
                for entry in data["slowdowns"]
            )
        if "rpc_drop_windows" in data:
            data["rpc_drop_windows"] = tuple(
                DropWindow(**_require_mapping(entry, DropWindow))
                for entry in data["rpc_drop_windows"]
            )
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class SweepSpec(SpecBase):
    """The sweep grid: either a cartesian product of override axes, or an
    explicit list of override points (for zipped/irregular grids).

    Keys are dotted override paths into the scenario (see
    :meth:`ScenarioSpec.override`); the product iterates the *last* axis
    fastest, matching the nested-loop order the experiments print in.
    """

    #: {"arrivals.rate_per_s": (1.0, 2.0), "policy.admission": (...)}
    axes: "dict[str, tuple]" = dataclasses.field(default_factory=dict)
    #: explicit points, each a {dotted-path: value} mapping
    points: "tuple[dict, ...]" = ()

    def __post_init__(self):
        if self.axes and self.points:
            raise SpecError("a sweep is either axes or points, not both")

    def overrides(self) -> "list[dict]":
        """The per-point override mappings, in sweep order."""
        if self.points:
            return [dict(point) for point in self.points]
        keys = list(self.axes)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.axes[key] for key in keys))
        ]

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        data = dict(_require_mapping(data, cls))
        if "axes" in data:
            data["axes"] = {key: tuple(values)
                            for key, values in data["axes"].items()}
        if "points" in data:
            data["points"] = tuple(dict(point) for point in data["points"])
        return cls(**data)


def _coerce_leaf(current, value, full: str):
    """Coerce an override leaf toward the type of the value it replaces.

    ``--set`` values arrive JSON-parsed-or-raw-string, so ``--set
    obs.trace=True`` hands the spec the *string* ``"True"`` and ``--set
    arrivals.rate_per_s=2`` hands a float knob the *int* ``2``. Rather
    than silently storing a truthy string in a bool field (round-trips,
    but lies about its type), bool/float/int leaves coerce compatible
    values and reject nonsense with a :class:`SpecError`. Non-scalar
    leaves (whole-section replacement, params keys, None) pass through
    untouched.
    """
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
        raise SpecError(
            f"cannot override {full!r}: expected a boolean "
            f"(true/false), got {value!r}"
        )
    if isinstance(value, bool):
        return value
    if isinstance(current, float):
        if isinstance(value, int):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise SpecError(
                    f"cannot override {full!r}: expected a number, "
                    f"got {value!r}"
                ) from None
    if isinstance(current, int) and isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise SpecError(
                f"cannot override {full!r}: expected an integer, "
                f"got {value!r}"
            ) from None
    return value


def _set_path(node, path: "list[str]", value, full: str) -> None:
    """Set ``value`` at a dotted ``path`` inside JSON-shaped ``node``."""
    head, rest = path[0], path[1:]
    if isinstance(node, list):
        try:
            index = int(head)
        except ValueError:
            raise SpecError(
                f"cannot override {full!r}: {head!r} is not a list index"
            ) from None
        if not 0 <= index < len(node):
            raise SpecError(
                f"cannot override {full!r}: index {index} out of range "
                f"(list has {len(node)} entries)"
            )
        if rest:
            _set_path(node[index], rest, value, full)
        else:
            node[index] = _coerce_leaf(node[index], value, full)
        return
    if not isinstance(node, dict):
        raise SpecError(
            f"cannot override {full!r}: {head!r} is not a settable field "
            f"of a {type(node).__name__}"
        )
    if rest:
        if head not in node or node[head] is None:
            raise SpecError(
                f"cannot override {full!r}: the scenario has no "
                f"{head!r} section"
            )
        _set_path(node[head], rest, value, full)
    else:
        node[head] = _coerce_leaf(node.get(head), value, full)


@dataclasses.dataclass(frozen=True)
class ScenarioSpec(SpecBase):
    """One declarative FreeRide scenario, sweep grid included."""

    name: str = "scenario"
    #: "batch" (FreeRide + fixed submissions), "serving" (open-loop
    #: traffic through the admission frontend), "pipeline" (training
    #: only, no side tasks), or "cluster" (several training jobs behind
    #: one shared manager)
    kind: str = "batch"
    #: root seed: feeds training jitter, worker RNG streams, and (for
    #: serving scenarios) the arrival process
    seed: int = 0
    cluster: ClusterSpec = dataclasses.field(default_factory=ClusterSpec)
    training: TrainingSpec = dataclasses.field(default_factory=TrainingSpec)
    #: batch submissions; for "cluster" scenarios this is the shared
    #: workload mix placed across the combined pool ("serving"/
    #: "pipeline" ignore it)
    workloads: "tuple[WorkloadSpec, ...]" = ()
    #: serving traffic (required for "serving" scenarios without
    #: tenants; optional for "cluster" — admits open-loop requests
    #: against the combined pool)
    arrivals: "ArrivalSpec | None" = None
    #: the scenario's tenants: an int (that many identically configured
    #: tenants — what ``--set tenants=4`` sets) or explicit per-tenant
    #: :class:`TenantSpec` entries; tenants bring their own arrival
    #: streams, so a tenant scenario has no ``arrivals`` section
    tenants: "int | tuple[TenantSpec, ...]" = ()
    policy: PolicySpec = dataclasses.field(default_factory=PolicySpec)
    #: the cluster's training jobs: an int (that many copies of the
    #: base ``cluster``+``training`` sections — what ``--set jobs=4``
    #: sets) or explicit per-job :class:`JobSpec` entries
    jobs: "int | tuple[JobSpec, ...]" = ()
    #: the scenario's fault model: injected failures plus recovery
    #: policy (serving/cluster kinds; None = nothing breaks)
    faults: "FaultSpec | None" = None
    #: observability controls; always a section (never None) so
    #: ``--set obs.trace=true`` has a path to land on
    obs: ObsSpec = dataclasses.field(default_factory=ObsSpec)
    #: metrics accounting; always a section so ``--set
    #: metrics.mode=streaming`` has a path to land on
    metrics: MetricsSpec = dataclasses.field(default_factory=MetricsSpec)
    sweep: "SweepSpec | None" = None
    #: free-form, JSON-safe experiment knobs (durations, method names,
    #: cached derived values such as a precomputed baseline time)
    params: dict = dataclasses.field(default_factory=dict)

    KINDS = ("batch", "serving", "pipeline", "cluster")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise SpecError(
                f"unknown scenario kind {self.kind!r}; "
                f"choose from {sorted(self.KINDS)}"
            )
        if isinstance(self.jobs, int):
            if self.jobs < 0:
                raise SpecError(f"jobs must be >= 0, got {self.jobs}")
        if self.kind == "cluster" and not self.jobs:
            raise SpecError(
                "cluster scenarios need jobs: an int (copies of the base "
                "training section) or a list of per-job specs"
            )
        if isinstance(self.tenants, int):
            if self.tenants < 0:
                raise SpecError(f"tenants must be >= 0, got {self.tenants}")
        else:
            names = [tenant.name for tenant in self.tenants]
            if len(set(names)) != len(names):
                raise SpecError(
                    f"tenant names must be unique, got {names}"
                )
        if self.tenants:
            if self.kind not in ("serving", "cluster"):
                raise SpecError(
                    f"tenants belong to serving/cluster scenarios, not "
                    f"kind {self.kind!r}"
                )
            if self.arrivals is not None:
                raise SpecError(
                    "a tenant scenario derives its traffic from the "
                    "tenants' own arrival streams; drop the arrivals "
                    "section"
                )
        if self.faults is not None and self.kind not in ("serving", "cluster"):
            raise SpecError(
                f"faults belong to serving/cluster scenarios, not kind "
                f"{self.kind!r}"
            )
        if (self.metrics.mode != "records"
                and self.kind not in ("serving", "cluster")):
            raise SpecError(
                f"streaming metrics belong to serving/cluster scenarios, "
                f"not kind {self.kind!r}"
            )

    # -- config assembly ------------------------------------------------
    def train_config(self) -> TrainConfig:
        return self.training.to_config(self.seed)

    def job_specs(self) -> "tuple[JobSpec, ...]":
        """The cluster's jobs, materialized.

        An int ``jobs`` expands to that many copies of the scenario's
        base ``cluster``/``training`` sections; an explicit tuple is
        returned as-is.
        """
        if isinstance(self.jobs, int):
            return tuple(
                JobSpec(cluster=self.cluster, training=self.training)
                for _ in range(self.jobs)
            )
        return self.jobs

    def job_configs(self) -> "list[TrainConfig]":
        """Per-job train configs; job *i* seeds with ``seed + i``."""
        return [
            job.training.to_config(self.seed + index)
            for index, job in enumerate(self.job_specs())
        ]

    @property
    def num_jobs(self) -> int:
        return len(self.job_specs())

    def tenant_specs(self) -> "tuple[TenantSpec, ...]":
        """The scenario's tenants, materialized.

        An int ``tenants`` expands to that many identically configured
        tenants named ``tenant0..tenantN-1``; an explicit tuple is
        returned as-is.
        """
        if isinstance(self.tenants, int):
            return tuple(
                TenantSpec(name=f"tenant{index}")
                for index in range(self.tenants)
            )
        return self.tenants

    @property
    def num_tenants(self) -> int:
        return len(self.tenant_specs())

    def tenant_shares(self) -> tuple:
        """Runtime :class:`~repro.tenancy.tenants.TenantShare` set."""
        return tuple(tenant.share() for tenant in self.tenant_specs())

    def tenant_arrivals(self):
        """The merged multi-tenant arrival stream (tenant *i* draws with
        ``seed + i``, mirroring how cluster job *i* trains)."""
        from repro.tenancy.arrivals import TenantArrivals

        return TenantArrivals([
            (tenant.name, tenant.build_arrivals(self.seed + index))
            for index, tenant in enumerate(self.tenant_specs())
        ])

    def param(self, key: str, default=None):
        return self.params.get(key, default)

    # -- dict / JSON codec ----------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = dict(_require_mapping(data, cls))
        if "cluster" in data:
            data["cluster"] = ClusterSpec.from_dict(data["cluster"])
        if "training" in data:
            data["training"] = TrainingSpec.from_dict(data["training"])
        if "workloads" in data:
            data["workloads"] = tuple(
                WorkloadSpec.from_dict(entry) for entry in data["workloads"]
            )
        if data.get("arrivals") is not None:
            data["arrivals"] = ArrivalSpec.from_dict(data["arrivals"])
        if "tenants" in data and not isinstance(data["tenants"], int):
            data["tenants"] = tuple(
                TenantSpec.from_dict(entry) for entry in data["tenants"]
            )
        if "policy" in data:
            if isinstance(data["policy"], str):
                # CLI sugar: --set policy=edf names the assignment policy.
                data["policy"] = PolicySpec(assignment=data["policy"])
            else:
                data["policy"] = PolicySpec.from_dict(data["policy"])
        if "jobs" in data and not isinstance(data["jobs"], int):
            data["jobs"] = tuple(
                JobSpec.from_dict(entry) for entry in data["jobs"]
            )
        if data.get("faults") is not None:
            data["faults"] = FaultSpec.from_dict(data["faults"])
        if "obs" in data:
            data["obs"] = ObsSpec.from_dict(data["obs"])
        if "metrics" in data:
            data["metrics"] = MetricsSpec.from_dict(data["metrics"])
        if data.get("sweep") is not None:
            data["sweep"] = SweepSpec.from_dict(data["sweep"])
        if "params" in data:
            data["params"] = dict(data["params"])
        return cls(**data)

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- overrides and sweep materialization ----------------------------
    def override(self, overrides: "typing.Mapping[str, object]") -> "ScenarioSpec":
        """A new spec with dotted-path overrides applied.

        Paths navigate nested sections ("training.epochs"), list entries
        ("workloads.0.batch_size"), and the free-form params dict
        ("params.method" — params keys may be created, spec fields must
        exist). Values replace whole subtrees: ``{"sweep.axes": {...}}``
        swaps the grid in one assignment.
        """
        if not overrides:
            return self
        data = self.to_dict()
        for path, value in overrides.items():
            _set_path(data, path.split("."), _to_jsonable(value), path)
        return type(self).from_dict(data)

    def sweep_points(
        self,
        extra: "typing.Mapping | typing.Callable[[dict], typing.Mapping] | None" = None,
    ) -> "list[ScenarioSpec]":
        """Materialize the sweep grid into self-contained point specs.

        Each point is this spec with one grid entry's overrides applied
        and the grid itself cleared (a point re-runs alone). ``extra``
        merges additional overrides into every point — either a constant
        mapping or a callable of the point's own overrides, which is how
        experiments bake derived context (e.g. a precomputed baseline
        time) into the specs they ship to pool workers.
        """
        grid = self.sweep.overrides() if self.sweep is not None else [{}]
        points = []
        for overrides in grid:
            merged = dict(overrides)
            if callable(extra):
                merged.update(extra(overrides))
            elif extra:
                merged.update(extra)
            merged["sweep"] = None
            points.append(self.override(merged))
        return points

    def with_points(
        self,
        points: "typing.Iterable[dict]",
        extra: "typing.Mapping | typing.Callable[[dict], typing.Mapping] | None" = None,
    ) -> "list[ScenarioSpec]":
        """:meth:`sweep_points` over an ad-hoc grid, ignoring any sweep
        already on the spec — how experiments with several sub-sweeps
        (fig7's three sensitivity axes, the ablations) materialize each
        one from the same base scenario."""
        swept = dataclasses.replace(self, sweep=SweepSpec(points=tuple(points)))
        return swept.sweep_points(extra)
