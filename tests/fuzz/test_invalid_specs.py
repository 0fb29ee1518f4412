"""Satellite: fuzz-generated *invalid* specs must raise SpecError with
actionable messages — never crash, never slip through."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.spec import ArrivalSpec, ScenarioSpec, TenantSpec, TrainingSpec
from repro.errors import SpecError
from repro.fuzz import draw_invalid, invalid_case_names
from repro.fuzz.generator import _invalid_cases
import random


def test_case_inventory_is_substantial():
    names = invalid_case_names()
    assert len(names) >= 25
    # the satellite's named examples are all present
    assert "negative_arrival_rate" in names
    assert "tenants_on_batch" in names
    assert "unknown_override_path" in names


@pytest.mark.parametrize("name", invalid_case_names())
def test_every_invalid_case_raises_spec_error(name):
    thunk = _invalid_cases()[name]
    with pytest.raises(SpecError) as excinfo:
        thunk(random.Random(0))
    # actionable: the message says something concrete, not just a type
    assert len(str(excinfo.value)) > 10


def test_draw_invalid_is_deterministic():
    for seed in range(20):
        name_a, _ = draw_invalid(seed)
        name_b, _ = draw_invalid(seed)
        assert name_a == name_b


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_drawn_invalid_specs_never_crash(seed):
    _, thunk = draw_invalid(seed)
    with pytest.raises(SpecError):
        thunk()


def test_messages_name_the_offending_field():
    with pytest.raises(SpecError, match="rate_per_s"):
        ArrivalSpec(rate_per_s=-1.0)
    with pytest.raises(SpecError, match="tenants"):
        ScenarioSpec(kind="batch", tenants=2)
    with pytest.raises(SpecError, match="weight"):
        TenantSpec(weight=0.0)
    with pytest.raises(SpecError, match="epoch"):
        ScenarioSpec().override({"training.epoch": 2})
    with pytest.raises(SpecError, match="epochs"):
        ScenarioSpec().override({"training.epochs": 0})


@pytest.mark.parametrize("stages", [0, 1, 5, 8, True, 2.0])
def test_stage_counts_server_i_cannot_train_are_rejected(stages):
    # One stage is no pipeline, and Server I has one GPU per stage.
    with pytest.raises(SpecError, match=r"training\.num_stages .*\[2, 4\]"):
        TrainingSpec(num_stages=stages)


@pytest.mark.parametrize("stages", [2, 3, 4])
def test_every_stage_count_server_i_can_train_is_accepted(stages):
    assert TrainingSpec(num_stages=stages).to_config().num_stages == stages
