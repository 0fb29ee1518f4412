"""Unit tests for the stride weighted-fair dispatch discipline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.arrivals import TaskRequest
from repro.serving.frontend import RequestRecord, make_discipline
from repro.tenancy.scheduler import NAMED_FAIR_DISCIPLINES, StrideDiscipline
from repro.tenancy.tenants import TenantShare
from tests.serving.test_dispatch_round import _ReferenceStride


def _record(request_id: int, tenant: str,
            deadline_s: "float | None" = None) -> RequestRecord:
    return RequestRecord(
        request=TaskRequest(
            request_id=request_id, arrival_s=float(request_id),
            workload="pagerank", job_steps=10, slo_class="batch",
            tenant=tenant,
        ),
        deadline_s=deadline_s,
    )


def _dispatch_counts(discipline, queue, rounds: int) -> "dict[str, int]":
    """Simulate ``rounds`` dispatches with every tenant permanently
    backlogged (records are never consumed)."""
    counts: "dict[str, int]" = {}
    for _ in range(rounds):
        record = queue[discipline(queue, now=0.0)]
        discipline.on_dispatch(record)
        tenant = record.request.tenant
        counts[tenant] = counts.get(tenant, 0) + 1
    return counts


def test_equal_weights_round_robin():
    discipline = StrideDiscipline([TenantShare("a"), TenantShare("b"),
                                   TenantShare("c")])
    queue = [_record(0, "a"), _record(1, "b"), _record(2, "c")]
    counts = _dispatch_counts(discipline, queue, 300)
    assert counts == {"a": 100, "b": 100, "c": 100}


def test_weighted_shares_are_exactly_proportional():
    discipline = StrideDiscipline([TenantShare("heavy", weight=3.0),
                                   TenantShare("light", weight=1.0)])
    queue = [_record(0, "heavy"), _record(1, "light")]
    counts = _dispatch_counts(discipline, queue, 400)
    assert counts == {"heavy": 300, "light": 100}


def test_ten_to_one_is_exact_under_permanent_backlog():
    discipline = StrideDiscipline([TenantShare("heavy", weight=10.0),
                                   TenantShare("light", weight=1.0)])
    queue = [_record(0, "heavy"), _record(1, "light")]
    counts = _dispatch_counts(discipline, queue, 440)
    assert counts == {"heavy": 400, "light": 40}


def test_idle_tenant_banks_no_credit():
    """A tenant that sat idle gets one catch-up dispatch, not a burst."""
    discipline = StrideDiscipline([TenantShare("a"), TenantShare("b")])
    only_a = [_record(0, "a")]
    for _ in range(10):
        discipline.on_dispatch(only_a[discipline(only_a, 0.0)])
    # b returns with an ancient pass: first pick goes to b (catch-up) ...
    queue = [_record(0, "a"), _record(1, "b")]
    first = queue[discipline(queue, 0.0)]
    assert first.request.tenant == "b"
    # ... then service alternates fairly instead of repaying b's absence.
    counts = _dispatch_counts(discipline, queue, 20)
    assert abs(counts["a"] - counts["b"]) <= 2


def test_undeclared_tenants_join_at_weight_one():
    discipline = StrideDiscipline([TenantShare("a", weight=2.0)])
    queue = [_record(0, "a"), _record(1, "mystery")]
    counts = _dispatch_counts(discipline, queue, 300)
    assert counts == {"a": 200, "mystery": 100}


def test_edf_order_within_a_tenant_lane():
    discipline = StrideDiscipline([TenantShare("a")])
    queue = [
        _record(0, "a", deadline_s=30.0),
        _record(1, "a", deadline_s=5.0),
        _record(2, "a", deadline_s=None),  # best effort sorts last
    ]
    assert discipline(queue, 0.0) == 1


def test_make_discipline_builds_fresh_instances():
    first = make_discipline("weighted", tenants=(TenantShare("a"),))
    second = make_discipline("weighted", tenants=(TenantShare("a"),))
    assert isinstance(first, StrideDiscipline)
    assert first is not second


def test_make_discipline_still_resolves_stateless_names():
    from repro.serving import slo

    assert make_discipline("edf") is slo.NAMED_DISCIPLINES["edf"]
    assert make_discipline("fifo") is slo.NAMED_DISCIPLINES["fifo"]


def test_make_discipline_rejects_unknown_names():
    import pytest

    with pytest.raises(KeyError, match="weighted"):
        make_discipline("wfq2")


def test_weighted_is_registered():
    assert "weighted" in NAMED_FAIR_DISCIPLINES


# ----------------------------------------------------------------------
# The one-pass pick against the earlier two-scan pick, over random
# backlogs and dispatch sequences.
# ----------------------------------------------------------------------
_DEADLINES = (None, 4.0, 9.0, 9.0, 12.0)


@pytest.mark.parametrize("declared", [
    (),
    (TenantShare("a", weight=2.0), TenantShare("b", weight=1.0)),
    (TenantShare("c", weight=3.0), TenantShare("a", weight=0.5),
     TenantShare("", weight=1.0)),
], ids=["none", "two", "three"])
@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.lists(
    st.tuples(st.sampled_from(("", "a", "b", "c", "d")),
              st.sampled_from(_DEADLINES),
              st.integers(0, 30)),
    min_size=1, max_size=25), min_size=1, max_size=6))
def test_one_pass_pick_matches_the_two_scan_pick(declared, picks):
    """Each list is one view; after every pick both schedulers charge
    the picked request, so their passes, order and virtual time evolve
    together. Request ids repeat, so (deadline, id) ties occur."""
    current, reference = StrideDiscipline(declared), _ReferenceStride(
        declared)
    for view in picks:
        queue = [RequestRecord(
            request=TaskRequest(request_id=request_id, arrival_s=0.0,
                                workload="pagerank", job_steps=1,
                                tenant=tenant),
            deadline_s=deadline) for tenant, deadline, request_id in view]
        index = current(queue, 0.0)
        assert index == reference(queue, 0.0)
        queue[index].assigned_at = 0.0
        current.on_dispatch(queue[index])
        reference.on_dispatch(queue[index])
        assert (current._pass, current._order, current._vtime) == (
            reference._pass, reference._order, reference._vtime)
