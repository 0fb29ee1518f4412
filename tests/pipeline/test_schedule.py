"""Unit tests for schedule generation and op dependency rules."""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.pipeline.ops import Op, OpKind, dependencies
from repro.pipeline.schedule import ScheduleKind, stage_order


def _kinds(order):
    return "".join("F" if op.kind is OpKind.FORWARD else "B" for op in order)


class TestOneFOneB:
    def test_first_stage_runs_all_forwards_then_backwards(self):
        order = stage_order("1f1b", stage=0, num_stages=4, micro_batches=4)
        assert _kinds(order) == "FFFFBBBB"

    def test_last_stage_strictly_alternates(self):
        order = stage_order("1f1b", stage=3, num_stages=4, micro_batches=4)
        assert _kinds(order) == "FBFBFBFB"

    def test_middle_stage_warmup_depth(self):
        order = stage_order("1f1b", stage=1, num_stages=4, micro_batches=4)
        assert _kinds(order) == "FFFBFBBB"
        order = stage_order("1f1b", stage=2, num_stages=4, micro_batches=4)
        assert _kinds(order) == "FFBFBFBB"

    def test_every_micro_batch_appears_once_per_kind(self):
        for stage in range(4):
            order = stage_order("1f1b", stage, 4, 6)
            forwards = [op.micro_batch for op in order if op.kind is OpKind.FORWARD]
            backwards = [op.micro_batch for op in order if op.kind is OpKind.BACKWARD]
            assert forwards == sorted(forwards) == list(range(6))
            assert backwards == sorted(backwards) == list(range(6))

    def test_warmup_capped_by_micro_batches(self):
        # 8 stages, 2 micro-batches: warmup cannot exceed M.
        order = stage_order("1f1b", stage=0, num_stages=8, micro_batches=2)
        assert _kinds(order) == "FFBB"

    def test_backward_never_precedes_own_forward(self):
        for stage in range(4):
            order = stage_order("1f1b", stage, 4, 4)
            seen_forward: set[int] = set()
            for op in order:
                if op.kind is OpKind.FORWARD:
                    seen_forward.add(op.micro_batch)
                else:
                    assert op.micro_batch in seen_forward


class TestGPipe:
    def test_all_forwards_then_all_backwards(self):
        order = stage_order(ScheduleKind.GPIPE, stage=2, num_stages=4,
                            micro_batches=3)
        assert _kinds(order) == "FFFBBB"


class TestOp:
    def test_ops_define_no_order(self):
        # An order over (stage, micro_batch, kind) would break on the
        # kind, which has none; a stage runs its ops in schedule order.
        with pytest.raises(TypeError):
            sorted([Op(1, 0, OpKind.FORWARD), Op(0, 0, OpKind.FORWARD)])
        with pytest.raises(TypeError):
            sorted([Op(0, 0, OpKind.BACKWARD), Op(0, 0, OpKind.FORWARD)])


class TestDependencies:
    def test_forward_depends_on_upstream_forward(self):
        deps = dependencies(Op(2, 1, OpKind.FORWARD), num_stages=4)
        assert deps == [Op(1, 1, OpKind.FORWARD)]

    def test_first_stage_forward_has_no_deps(self):
        assert dependencies(Op(0, 0, OpKind.FORWARD), num_stages=4) == []

    def test_backward_depends_on_downstream_backward_and_own_forward(self):
        deps = dependencies(Op(1, 2, OpKind.BACKWARD), num_stages=4)
        assert Op(2, 2, OpKind.BACKWARD) in deps
        assert Op(1, 2, OpKind.FORWARD) in deps

    def test_last_stage_backward_depends_on_own_forward_only(self):
        deps = dependencies(Op(3, 0, OpKind.BACKWARD), num_stages=4)
        assert deps == [Op(3, 0, OpKind.FORWARD)]

    def test_stage_out_of_range_rejected(self):
        with pytest.raises(PipelineError):
            stage_order("1f1b", stage=4, num_stages=4, micro_batches=4)
        with pytest.raises(PipelineError):
            stage_order("1f1b", stage=-1, num_stages=4, micro_batches=4)
