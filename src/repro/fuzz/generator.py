"""Seeded :class:`~repro.api.spec.ScenarioSpec` generator.

Every draw is a pure function of one integer seed: the RNG is seeded
with a version-tagged string (which Python hashes with SHA-512, so the
stream is identical across processes and interpreter runs — unlike
``hash()``-seeded streams), and no draw consults anything but that RNG.
The contract, pinned by ``tests/fuzz/test_generator.py``::

    draw_spec(seed).to_json() == draw_spec(seed).to_json()   # always,
                                                 # across processes too

Knob ranges come from the canonical vocabularies the spec layer itself
validates against (:data:`~repro.api.spec.ScenarioSpec.KINDS`,
:data:`~repro.serving.arrivals.NAMED_ARRIVALS`,
:data:`~repro.core.policies.NAMED_POLICIES`, the admission/discipline
registries, :data:`~repro.api.spec.RECOVERY_MODES`,
:data:`~repro.api.spec.METRICS_MODES`), so a new named policy is fuzzed
the day it is registered. Sizes are deliberately small — one fuzz case
must run in fractions of a second so hundreds fit in a CI slice.

:func:`draw_invalid` is the mirror image: seeded *invalid* spec
constructions that must raise :class:`~repro.errors.SpecError` with an
actionable message (never crash mid-run, never slip through).
"""

from __future__ import annotations

import random
import typing

from repro.api.spec import (
    METRICS_MODES,
    RECOVERY_MODES,
    ArrivalSpec,
    FaultSpec,
    JobSpec,
    MetricsSpec,
    MixEntrySpec,
    PolicySpec,
    ScenarioSpec,
    TenantSpec,
    TrainingSpec,
    WorkloadSpec,
)
from repro.errors import SpecError

#: bump when draw logic changes; part of the RNG seed so "same seed,
#: same spec" is scoped to one generator version
GENERATOR_VERSION = 1

#: kinds the fuzzer draws, with weights biased toward the kinds with
#: the most interacting knobs
FUZZ_KINDS = ("batch", "serving", "cluster", "pipeline")
_KIND_WEIGHTS = {"batch": 4, "serving": 8, "cluster": 4, "pipeline": 1}

#: SLO classes the serving mix can name (repro.serving.slo vocabulary)
_SLO_CLASSES = ("interactive", "standard", "best_effort")


def _rng(seed: int, salt: str = "") -> random.Random:
    """A process-stable RNG for ``seed`` (string seeds use SHA-512)."""
    return random.Random(f"repro.fuzz/v{GENERATOR_VERSION}/{salt}/{seed}")


def _round(value: float, digits: int = 3) -> float:
    """Keep drawn floats short so spec JSON stays readable in corpora."""
    return round(value, digits)


def _draw_training(rng: random.Random) -> TrainingSpec:
    return TrainingSpec(
        model=rng.choice(["1.2B", "3.6B", 2.0]),
        epochs=rng.choice([1, 1, 1, 2]),
        micro_batches=rng.choice([4, 4, 6, 8]),
        op_jitter=rng.choice([0.01, 0.01, 0.0, 0.03]),
        schedule=rng.choice(["1f1b", "1f1b", "gpipe"]),
    )


def _draw_arrivals(rng: random.Random) -> ArrivalSpec:
    from repro.serving.arrivals import NAMED_ARRIVALS

    kwargs: dict = {}
    if rng.random() < 0.5:
        kwargs["mix"] = _draw_mix_entries(rng)
    return ArrivalSpec(
        kind=rng.choice(sorted(NAMED_ARRIVALS)),
        rate_per_s=_round(rng.uniform(0.5, 6.0)),
        vectorized=rng.random() < 0.25,
        **kwargs,
    )


def _draw_mix_entries(rng: random.Random) -> "tuple[MixEntrySpec, ...]":
    from repro.workloads.registry import WORKLOAD_NAMES

    return tuple(
        MixEntrySpec(
            workload=rng.choice(sorted(WORKLOAD_NAMES)),
            job_steps=rng.randint(1, 4),
            slo_class=rng.choice(_SLO_CLASSES),
            batch_size=rng.choice([32, 64]),
            weight=_round(rng.uniform(0.5, 2.0)),
        )
        for _ in range(rng.randint(1, 3))
    )


def _draw_tenants(rng: random.Random) -> "tuple[TenantSpec, ...]":
    from repro.serving.arrivals import NAMED_ARRIVALS

    count = rng.randint(2, 3)
    tenants = []
    for index in range(count):
        kwargs: dict = {}
        if rng.random() < 0.3:
            kwargs["mix"] = _draw_mix_entries(rng)
        tenants.append(TenantSpec(
            name=f"tenant{index}",
            weight=rng.choice([1.0, 1.0, 2.0, 4.0]),
            rate_per_s=_round(rng.uniform(1.0, 4.0)),
            burst=rng.choice([2.0, 4.0, 8.0]),
            arrival_kind=rng.choice(sorted(NAMED_ARRIVALS)),
            arrival_rate_per_s=_round(rng.uniform(0.5, 3.0)),
            **kwargs,
        ))
    return tuple(tenants)


def _draw_policy(rng: random.Random, *, kind: str,
                 tenanted: bool) -> PolicySpec:
    from repro.core.policies import NAMED_POLICIES
    from repro.serving.frontend import NAMED_ADMISSION
    from repro.serving.slo import NAMED_DISCIPLINES
    from repro.tenancy.scheduler import NAMED_FAIR_DISCIPLINES

    admissions = sorted(NAMED_ADMISSION)
    if not tenanted:
        admissions.remove("per_tenant_token_bucket")
    if kind != "cluster":
        admissions.remove("per_job_token_bucket")
    disciplines = sorted(NAMED_DISCIPLINES)
    if tenanted:
        disciplines += sorted(NAMED_FAIR_DISCIPLINES)
    return PolicySpec(
        assignment=rng.choice(sorted(NAMED_POLICIES)),
        admission=rng.choice(admissions),
        discipline=rng.choice(disciplines),
        queue_capacity=rng.choice([4, 8, 16, 64]),
    )


def _draw_workloads(rng: random.Random) -> "tuple[WorkloadSpec, ...]":
    from repro.workloads.registry import WORKLOAD_NAMES

    return tuple(
        WorkloadSpec(
            name=rng.choice(sorted(WORKLOAD_NAMES)),
            batch_size=rng.choice([32, 64, 128]),
            interface=rng.choice(["iterative", "iterative", "imperative"]),
            replicate=rng.random() < 0.7,
            copies=rng.choice([None, None, 1, 2]),
        )
        for _ in range(rng.randint(1, 3))
    )


def _draw_faults(rng: random.Random) -> "FaultSpec | None":
    if rng.random() < 0.6:
        return None
    retry_max = rng.choice([1, 1, 2, 3])
    return FaultSpec(
        crash_rate=rng.choice([0.0, 0.5, 1.0, 2.0]),
        restart_after_s=rng.choice([1.0, 2.0, None]),
        step_failure_rate=rng.choice([0.0, 0.02, 0.05]),
        recovery=rng.choice(sorted(RECOVERY_MODES)),
        checkpoint_interval_steps=rng.choice([2, 4]),
        retry_max_attempts=retry_max,
        retry_backoff_s=0.2,
    )


def draw_spec(seed: int,
              kinds: "typing.Sequence[str]" = FUZZ_KINDS) -> ScenarioSpec:
    """One random-but-reproducible scenario: a pure function of ``seed``.

    ``kinds`` restricts the drawn scenario kinds (the CLI's ``--kind``);
    the draw stream is still a pure function of ``(seed, kinds)``.
    """
    unknown = sorted(set(kinds) - set(FUZZ_KINDS))
    if not kinds or unknown:
        raise SpecError(
            f"fuzz kinds must be a non-empty subset of "
            f"{sorted(FUZZ_KINDS)}, got {sorted(kinds) or '[]'}"
        )
    rng = _rng(seed)
    kind = rng.choices(
        list(kinds), weights=[_KIND_WEIGHTS[k] for k in kinds])[0]
    training = _draw_training(rng)
    policy_kwargs: dict = {}
    params: dict = {"settle_s": 2.0}
    kwargs: dict = {}

    serving_mode = False
    if kind == "serving":
        serving_mode = True
        if rng.random() < 0.3:
            kwargs["tenants"] = _draw_tenants(rng)
        else:
            kwargs["arrivals"] = _draw_arrivals(rng)
    elif kind == "cluster":
        kwargs["jobs"] = rng.choice([2, 2, 3])
        traffic = rng.choice(["workloads", "workloads", "arrivals",
                              "tenants"])
        if traffic == "arrivals":
            serving_mode = True
            kwargs["arrivals"] = _draw_arrivals(rng)
        elif traffic == "tenants":
            serving_mode = True
            kwargs["tenants"] = _draw_tenants(rng)
        else:
            kwargs["workloads"] = _draw_workloads(rng)
    elif kind == "batch":
        kwargs["workloads"] = _draw_workloads(rng)

    if kind in ("serving", "cluster"):
        kwargs["faults"] = _draw_faults(rng)
        if serving_mode and rng.random() < 0.25:
            kwargs["metrics"] = MetricsSpec(
                mode=rng.choice(sorted(METRICS_MODES)))
    if serving_mode:
        # A fixed small open window keeps every fuzz case sub-second and
        # makes the horizon independent of the drawn training length.
        params["horizon_s"] = _round(rng.uniform(2.0, 5.0), 2)

    if kind != "pipeline":
        policy_kwargs["policy"] = _draw_policy(
            rng, kind=kind, tenanted=bool(kwargs.get("tenants")))

    return ScenarioSpec(
        name=f"fuzz-{seed}",
        kind=kind,
        seed=rng.randrange(1_000_000),
        training=training,
        params=params,
        **policy_kwargs,
        **kwargs,
    )


# ----------------------------------------------------------------------
# invalid draws: every one of these MUST raise SpecError
# ----------------------------------------------------------------------
def _invalid_cases() -> "dict[str, typing.Callable[[random.Random], object]]":
    """Constructors of *invalid* specs, name -> thunk(rng).

    Each thunk performs the invalid construction (raising is the
    expected outcome); the harness asserts :class:`SpecError` — never a
    bare ``TypeError``/``ValueError``/crash — and that the message names
    the offending field.
    """
    base = ScenarioSpec()

    def negative_arrival_rate(rng):
        return ArrivalSpec(rate_per_s=-rng.uniform(0.1, 5.0))

    def zero_arrival_rate(rng):
        return ArrivalSpec(rate_per_s=0.0)

    def unknown_arrival_kind(rng):
        return ArrivalSpec(kind=rng.choice(["pareto", "weibull", "trace"]))

    def tenants_on_batch(rng):
        return ScenarioSpec(kind="batch", tenants=2)

    def tenants_and_arrivals(rng):
        return ScenarioSpec(kind="serving", tenants=2,
                            arrivals=ArrivalSpec())

    def negative_tenant_weight(rng):
        return TenantSpec(weight=-rng.uniform(0.1, 2.0))

    def duplicate_tenant_names(rng):
        return ScenarioSpec(kind="serving", tenants=(
            TenantSpec(name="dup"), TenantSpec(name="dup")))

    def faults_on_pipeline(rng):
        return ScenarioSpec(kind="pipeline", faults=FaultSpec())

    def unknown_recovery(rng):
        return FaultSpec(recovery=rng.choice(["magic", "redo", "rewind"]))

    def negative_crash_rate(rng):
        return FaultSpec(crash_rate=-rng.uniform(0.1, 3.0))

    def step_failure_rate_out_of_range(rng):
        return FaultSpec(step_failure_rate=rng.uniform(1.0, 2.0))

    def zero_queue_capacity(rng):
        return PolicySpec(queue_capacity=0)

    def zero_epochs(rng):
        return TrainingSpec(epochs=0)

    def unknown_model_preset(rng):
        return TrainingSpec(model=rng.choice(["9B", "120B", "tiny"]))

    def unknown_schedule(rng):
        return TrainingSpec(schedule="interleaved")

    def stage_count_out_of_range(rng):
        return TrainingSpec(num_stages=rng.choice([1, 5, 8]))

    def unknown_workload(rng):
        return WorkloadSpec(name=rng.choice(["bert", "llama", "dlrm"]))

    def zero_mix_weight(rng):
        return MixEntrySpec(workload="resnet18", job_steps=1, weight=0.0)

    def cluster_without_jobs(rng):
        return ScenarioSpec(kind="cluster")

    def unknown_kind(rng):
        return ScenarioSpec(kind=rng.choice(["stream", "offline", "svc"]))

    def streaming_metrics_on_batch(rng):
        return ScenarioSpec(kind="batch",
                            metrics=MetricsSpec(mode="streaming"))

    def unknown_metrics_mode(rng):
        return MetricsSpec(mode="sampled")

    def unknown_override_path(rng):
        return base.override({"training.epoch": 2})

    def unknown_override_section(rng):
        return base.override({"policies.admission": "always"})

    def override_missing_section(rng):
        return base.override({"faults.crash_rate": 1.0})

    def override_bad_list_index(rng):
        spec = ScenarioSpec(kind="batch",
                            workloads=(WorkloadSpec(name="resnet18"),))
        return spec.override({"workloads.5.batch_size": 32})

    def override_non_numeric_index(rng):
        spec = ScenarioSpec(kind="batch",
                            workloads=(WorkloadSpec(name="resnet18"),))
        return spec.override({"workloads.first.batch_size": 32})

    def override_bool_garbage(rng):
        return base.override({"obs.trace": "maybe"})

    def override_float_garbage(rng):
        return ScenarioSpec(kind="serving", arrivals=ArrivalSpec()).override(
            {"arrivals.rate_per_s": "fast"})

    def sweep_axes_and_points(rng):
        from repro.api.spec import SweepSpec

        return SweepSpec(axes={"seed": (1, 2)}, points=({"seed": 3},))

    def unknown_section_field(rng):
        return ScenarioSpec.from_dict(
            {"kind": "batch", "training": {"epochz": 2}})

    return {
        name: fn for name, fn in sorted(locals().items())
        if callable(fn) and not name.startswith("_") and name != "base"
    }


_INVALID_CASES = None


def invalid_case_names() -> "list[str]":
    """Every named invalid construction, in deterministic order."""
    global _INVALID_CASES
    if _INVALID_CASES is None:
        _INVALID_CASES = _invalid_cases()
    return sorted(_INVALID_CASES)


def draw_invalid(seed: int) -> "tuple[str, typing.Callable[[], object]]":
    """One seeded invalid construction: ``(case_name, thunk)``.

    Calling the thunk must raise :class:`~repro.errors.SpecError`;
    anything else (a crash, a silently accepted spec) is a fuzz failure.
    """
    names = invalid_case_names()
    rng = _rng(seed, salt="invalid")
    name = rng.choice(names)
    fn = _INVALID_CASES[name]
    return name, lambda: fn(rng)
