"""The experiment registry: every scenario the repo can (re)produce.

Each experiment module registers itself at import time with its default
:class:`~repro.api.spec.ScenarioSpec`, its spec-driven runner
(``run_spec``), its renderer, and a typed-row extractor. The CLI, the
artifact exporter, and the tests all go through this table — there is no
``inspect.signature`` probing anywhere: a scenario's parameters are its
spec's fields, overridable by dotted path (``--set training.epochs=16``,
``--seed 7``).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.api.results import ResultSet
from repro.api.spec import ScenarioSpec, SweepSpec
from repro.errors import SpecError


@dataclasses.dataclass(frozen=True)
class ExperimentDef:
    """One registered scenario."""

    name: str
    #: one-line description (``repro list``)
    title: str
    #: zero-argument default-spec factory (a fresh spec per call)
    spec: "typing.Callable[[], ScenarioSpec]"
    #: the spec-driven implementation: ``run_spec(spec) -> data``
    run_spec: "typing.Callable[[ScenarioSpec], object]"
    #: the paper-style renderer: ``render(data) -> str``
    render: "typing.Callable[[object], str]"
    #: typed-row extractor for CSV/JSON export (None = JSON/txt only)
    rows: "typing.Callable[[object], list] | None" = None
    #: accepts ``--spec`` files of *any* scenario kind (the ``fuzzcase``
    #: replayer — most experiments are bound to one kind)
    any_kind: bool = False


REGISTRY: "dict[str, ExperimentDef]" = {}


def register(
    name: str,
    title: str,
    spec: "typing.Callable[[], ScenarioSpec]",
    run_spec: "typing.Callable[[ScenarioSpec], object]",
    render: "typing.Callable[[object], str]",
    rows: "typing.Callable[[object], list] | None" = None,
    any_kind: bool = False,
) -> ExperimentDef:
    """Register one experiment (module import time); returns its def."""
    if name in REGISTRY:
        raise ValueError(f"experiment {name!r} is already registered")
    definition = ExperimentDef(
        name=name, title=title, spec=spec,
        run_spec=run_spec, render=render, rows=rows, any_kind=any_kind,
    )
    REGISTRY[name] = definition
    return definition


def _ensure_loaded() -> None:
    """Importing the experiments package populates the registry."""
    import repro.experiments  # noqa: F401  (registration side effect)


def names() -> "list[str]":
    _ensure_loaded()
    return sorted(REGISTRY)


def get(name: str) -> ExperimentDef:
    _ensure_loaded()
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {names()}"
        ) from None


def describe() -> "list[dict]":
    """JSON-safe listing (``repro list --json`` / the CI smoke step)."""
    return [
        {
            "name": definition.name,
            "title": definition.title,
            "kind": definition.spec().kind,
            "has_rows": definition.rows is not None,
        }
        for definition in (REGISTRY[name] for name in names())
    ]


#: top-level ``--set`` shorthands for the nested policy fields (the
#: spec-level ``--set policy=edf`` string sugar's dotted cousins)
_POLICY_SUGAR = ("assignment", "admission", "discipline")

#: top-level ``--set`` shorthands for the faults section (the resilience
#: experiment's vocabulary: ``--set crash_rate=2 --set recovery=checkpoint``)
_FAULT_SUGAR = {
    "crash_rate": "faults.crash_rate",
    "recovery": "faults.recovery",
}

#: top-level ``--set`` shorthand for the observability section
#: (``--set trace=true`` turns on span tracing for the run)
_OBS_SUGAR = {
    "trace": "obs.trace",
}


def expand_overrides(
    overrides: "typing.Mapping[str, object]",
) -> "dict[str, object]":
    """Normalize override shorthands to real dotted spec paths.

    ``assignment=edf`` / ``admission=backpressure`` / ``discipline=fifo``
    expand to the matching ``policy.*`` path, ``crash_rate=...`` /
    ``recovery=...`` to the matching ``faults.*`` path, and
    ``trace=true`` to ``obs.trace``. One special
    case: ``assignment=weighted`` (the fairness experiments' vocabulary)
    names the weighted-fair *dispatch* discipline — worker assignment
    proper stays as configured, since the weighting happens at the
    queue, not at worker choice — so it expands to ``policy.discipline``.

    Expansion happens before sweep-axis pinning, so a shorthand pins the
    same axis its dotted form would.
    """
    if not any(key in overrides
               for key in (*_POLICY_SUGAR, *_FAULT_SUGAR, *_OBS_SUGAR)):
        return dict(overrides)
    from repro.tenancy.scheduler import NAMED_FAIR_DISCIPLINES

    expanded: "dict[str, object]" = {}
    for key, value in overrides.items():
        if key in _POLICY_SUGAR:
            field = key
            if (key == "assignment" and isinstance(value, str)
                    and value in NAMED_FAIR_DISCIPLINES):
                field = "discipline"
            expanded[f"policy.{field}"] = value
        elif key in _FAULT_SUGAR:
            expanded[_FAULT_SUGAR[key]] = value
        elif key in _OBS_SUGAR:
            expanded[_OBS_SUGAR[key]] = value
        else:
            expanded[key] = value
    return expanded


def _pin_swept_fields(
    scenario: ScenarioSpec, overrides: "typing.Mapping[str, object]"
) -> ScenarioSpec:
    """An explicit override of a swept field *pins* that axis.

    Without this, ``--set policy.admission=backpressure`` on a scenario
    that sweeps ``policy.admission`` would be silently re-swept away at
    every point. Product axes are droppable one at a time; an explicit
    ``points`` grid is not, so colliding with one is an error rather
    than a silent no-op.
    """
    sweep = scenario.sweep
    if sweep is None:
        return scenario

    def _overridden(key: str) -> bool:
        # An override of the axis itself, of a parent subtree (--set
        # policy=edf replaces the whole policy section, so the
        # policy.assignment axis must not re-sweep it away), or of a
        # field *inside* a whole-subtree axis (--set
        # workloads.0.batch_size=32 against a swept 'workloads' axis
        # would otherwise be replaced wholesale at every point).
        return any(
            key == path
            or key.startswith(path + ".")
            or path.startswith(key + ".")
            for path in overrides
        )

    collisions = [
        key for point in sweep.points for key in point if _overridden(key)
    ]
    if collisions:
        raise SpecError(
            f"override(s) {sorted(set(collisions))} collide with the "
            "scenario's explicit sweep points and would be ignored; "
            "override 'sweep.points' itself instead"
        )
    pinned = [key for key in sweep.axes if _overridden(key)]
    if not pinned:
        return scenario
    axes = {key: values for key, values in sweep.axes.items()
            if key not in pinned}
    return dataclasses.replace(
        scenario, sweep=SweepSpec(axes=axes) if axes else None
    )


def resolve_scenario(
    name: str,
    overrides: "typing.Mapping[str, object] | None" = None,
    spec: "ScenarioSpec | None" = None,
) -> ScenarioSpec:
    """The scenario a ``run`` with these inputs would execute.

    ``spec`` replaces the experiment's default spec wholesale (e.g. one
    re-hydrated from an exported JSON artifact — its ``kind`` must match
    the experiment's); ``overrides`` then apply on top of whichever base
    is in play, pinning any sweep axis they name.
    """
    definition = get(name)
    if (spec is not None and not definition.any_kind
            and spec.kind != definition.spec().kind):
        raise SpecError(
            f"scenario {name!r} runs {definition.spec().kind!r}-kind specs; "
            f"the supplied spec is {spec.kind!r} (exported from a different "
            "experiment?)"
        )
    scenario = spec if spec is not None else definition.spec()
    if overrides:
        overrides = expand_overrides(overrides)
        scenario = _pin_swept_fields(scenario.override(overrides), overrides)
    return scenario


def run(
    name: str,
    overrides: "typing.Mapping[str, object] | None" = None,
    spec: "ScenarioSpec | None" = None,
) -> ResultSet:
    """Run a registered scenario and wrap the outcome as a ResultSet
    (base-spec/override resolution in :func:`resolve_scenario`). Its
    sweeps run on :func:`~repro.experiments.common.sweep`'s process
    pool, or serially under ``REPRO_SWEEP_WORKERS=1``."""
    definition = get(name)
    scenario = resolve_scenario(name, overrides, spec)
    return ResultSet(
        experiment=name,
        scenario=scenario,
        data=definition.run_spec(scenario),
        _render=definition.render,
        _rows=definition.rows,
    )
