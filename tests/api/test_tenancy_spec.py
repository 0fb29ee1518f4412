"""Spec-language and registry coverage for the tenancy surface."""

from __future__ import annotations

import pytest

from repro.api import registry
from repro.api.spec import MixEntrySpec, ScenarioSpec, TenantSpec
from repro.errors import SpecError
from repro.tenancy.tenants import TenantShare


def _tenant_spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict({
        "name": "tenanted",
        "kind": "serving",
        "seed": 3,
        "training": {"epochs": 2},
        "tenants": [
            {"name": "gold", "weight": 4.0, "rate_per_s": 3.0,
             "burst": 6.0, "arrival_rate_per_s": 5.0,
             "mix": [{"workload": "pagerank", "job_steps": 50,
                      "slo_class": "batch"}]},
            {"name": "bronze"},
        ],
        "policy": {"admission": "per_tenant_token_bucket",
                   "discipline": "weighted"},
    })


def test_tenant_spec_round_trips_dict_and_json():
    spec = _tenant_spec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    assert spec.to_json() == ScenarioSpec.from_json(spec.to_json()).to_json()


def test_tenant_fields_survive_the_round_trip():
    spec = ScenarioSpec.from_dict(_tenant_spec().to_dict())
    gold = spec.tenant_specs()[0]
    assert gold.weight == 4.0
    assert gold.rate_per_s == 3.0
    assert gold.mix[0] == MixEntrySpec(workload="pagerank", job_steps=50,
                                       slo_class="batch")


def test_int_tenants_expand_to_identical_named_tenants():
    spec = ScenarioSpec.from_dict({"kind": "serving", "tenants": 3})
    assert spec.tenants == 3
    assert [tenant.name for tenant in spec.tenant_specs()] == [
        "tenant0", "tenant1", "tenant2",
    ]
    assert spec.num_tenants == 3
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_tenant_shares_and_arrivals_derive_from_the_spec():
    spec = _tenant_spec()
    shares = spec.tenant_shares()
    assert shares == (
        TenantShare("gold", weight=4.0, rate_per_s=3.0, burst=6.0),
        TenantShare("bronze", weight=1.0, rate_per_s=2.0, burst=4.0),
    )
    requests = spec.tenant_arrivals().generate(10.0)
    assert {request.tenant for request in requests} == {"gold", "bronze"}
    # tenant i draws with seed + i: identical entries, distinct traffic
    twin = spec.override({"tenants.1": spec.to_dict()["tenants"][0] |
                          {"name": "gold2"}})
    gold, gold2 = (
        [r for r in twin.tenant_arrivals().generate(10.0)
         if r.tenant == name]
        for name in ("gold", "gold2")
    )
    assert [r.arrival_s for r in gold] != [r.arrival_s for r in gold2]


def test_tenant_validation_errors():
    with pytest.raises(SpecError, match="unique"):
        ScenarioSpec.from_dict({"kind": "serving",
                                "tenants": [{"name": "t"}, {"name": "t"}]})
    with pytest.raises(SpecError, match="arrivals"):
        ScenarioSpec.from_dict({"kind": "serving", "tenants": 2,
                                "arrivals": {"kind": "poisson"}})
    with pytest.raises(SpecError, match="serving/cluster"):
        ScenarioSpec.from_dict({"kind": "batch", "tenants": 2})
    with pytest.raises(SpecError, match=">= 0"):
        ScenarioSpec.from_dict({"kind": "serving", "tenants": -1})


def test_serving_without_arrivals_or_tenants_is_an_error():
    from repro.api.session import PoolRunner

    spec = ScenarioSpec(kind="serving")
    with pytest.raises(SpecError, match="no arrivals"):
        PoolRunner(spec).prepare()


def test_expand_overrides_policy_shorthands():
    assert registry.expand_overrides({"assignment": "edf"}) == {
        "policy.assignment": "edf"
    }
    assert registry.expand_overrides({"admission": "backpressure"}) == {
        "policy.admission": "backpressure"
    }
    assert registry.expand_overrides({"discipline": "fifo"}) == {
        "policy.discipline": "fifo"
    }
    # The fairness vocabulary: weighted "assignment" is dispatch-side.
    assert registry.expand_overrides({"assignment": "weighted"}) == {
        "policy.discipline": "weighted"
    }
    # Untouched keys pass through unchanged.
    assert registry.expand_overrides({"seed": 7}) == {"seed": 7}


def test_tenants_override_pins_the_fairness_sweep_axis():
    result = registry.run("fairness", overrides={
        "tenants": 2,
        "assignment": "weighted",
        "training.epochs": 1,
        "params.horizon_s": 3.0,
    })
    # Both swept axes pinned -> exactly one point, one row per tenant.
    assert result.scenario.sweep is None
    rows = result.rows()
    assert [row.tenant for row in rows] == ["tenant0", "tenant1"]
    assert all(row.discipline == "weighted" for row in rows)
