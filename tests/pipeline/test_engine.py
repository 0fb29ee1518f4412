"""Integration tests: the pipeline engine reproduces the paper's bubbles."""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.experiments.common import train_config
from repro.gpu.cluster import make_server_i
from repro.pipeline.analysis import BubbleType, bubble_rate, bubble_shape_stats
from repro.pipeline.config import TrainConfig, model_config
from repro.pipeline.engine import PipelineEngine, profile_bubbles
from repro.pipeline.instrumentation import BubbleListener, RecordingListener
from repro.pipeline.ops import OpKind, dependencies
from repro.sim.engine import Engine


def run_training(size="3.6B", micro_batches=4, epochs=2, jitter=0.0,
                 listener=None, profile=None, schedule="1f1b", seed=0):
    sim = Engine()
    server = make_server_i(sim)
    config = TrainConfig(
        model=model_config(size),
        micro_batches=micro_batches,
        epochs=epochs,
        op_jitter=jitter,
        schedule=schedule,
        seed=seed,
    )
    engine = PipelineEngine(sim, server, config, listener=listener,
                            profile=profile)
    result = engine.run()
    return result, server


class TestDependencyCorrectness:
    def test_every_op_executes_exactly_once_per_epoch(self):
        result, _ = run_training(epochs=2)
        per_epoch = {}
        for record in result.trace.ops:
            per_epoch.setdefault(record.epoch, []).append(record.op)
        for epoch, ops in per_epoch.items():
            assert len(ops) == len(set(ops)) == 4 * 4 * 2

    def test_no_op_starts_before_its_dependencies_finish(self):
        result, _ = run_training(epochs=2)
        for epoch in range(2):
            ends = {
                record.op: record.end
                for record in result.trace.ops if record.epoch == epoch
            }
            for record in result.trace.ops:
                if record.epoch != epoch:
                    continue
                for dep in dependencies(record.op, 4):
                    assert record.start >= ends[dep] - 1e-9, (
                        f"{record.op} started before {dep} finished"
                    )

    def test_ops_on_one_stage_never_overlap(self):
        result, _ = run_training(epochs=2)
        for stage in range(4):
            records = sorted(result.trace.ops_of(stage), key=lambda r: r.start)
            for before, after in zip(records, records[1:]):
                assert after.start >= before.end - 1e-9


class TestBubbleReproduction:
    """The headline characterization results of paper section 2.2."""

    def test_bubble_rate_is_about_42_percent(self):
        result, _ = run_training("1.2B", epochs=3)
        assert bubble_rate(result.trace) == pytest.approx(0.424, abs=0.01)

    def test_bubble_rate_falls_slightly_with_model_size(self):
        small, _ = run_training("1.2B", epochs=3)
        large, _ = run_training("6B", epochs=3)
        rate_small = bubble_rate(small.trace)
        rate_large = bubble_rate(large.trace)
        assert rate_large < rate_small
        assert rate_small - rate_large < 0.05  # "drops only slightly"

    def test_micro_batch_8_drops_rate_to_about_26_percent(self):
        result, _ = run_training("3.6B", micro_batches=8, epochs=3)
        assert bubble_rate(result.trace) == pytest.approx(0.262, abs=0.02)

    def test_figure1_stage0_pattern_is_B_C_C_C(self):
        result, _ = run_training(epochs=1)
        pattern = [
            bubble.btype.value
            for bubble in sorted(result.trace.bubbles_of(stage=0),
                                 key=lambda b: b.start)
        ]
        assert pattern == ["B", "C", "C", "C"]

    def test_figure1_stage3_has_only_type_A(self):
        result, _ = run_training(epochs=1)
        types = {b.btype for b in result.trace.bubbles_of(stage=3)}
        assert types == {BubbleType.TYPE_A}

    def test_type_a_missing_only_on_first_stage(self):
        result, _ = run_training(epochs=1)
        leading_a = [
            bubble for bubble in result.trace.bubbles_of(btype=BubbleType.TYPE_A)
            if bubble.index == 0
        ]
        assert {bubble.stage for bubble in leading_a} == {1, 2, 3}

    def test_type_b_duration_decreases_with_stage(self):
        result, _ = run_training(epochs=1)
        durations = {}
        for bubble in result.trace.bubbles_of(btype=BubbleType.TYPE_B):
            durations[bubble.stage] = bubble.duration
        assert sorted(durations) == [0, 1, 2]
        assert durations[0] > durations[1] > durations[2]

    def test_leading_type_a_duration_increases_with_stage(self):
        result, _ = run_training(epochs=1)
        leading = {
            bubble.stage: bubble.duration
            for bubble in result.trace.bubbles_of(btype=BubbleType.TYPE_A)
            if bubble.index == 0
        }
        assert leading[1] < leading[2] < leading[3]

    def test_bubble_durations_span_paper_range(self):
        result, _ = run_training(epochs=2)
        stats = bubble_shape_stats(result.trace)
        assert stats["min_s"] == pytest.approx(0.22, abs=0.03)
        assert 1.0 <= stats["max_s"] <= 1.5

    def test_bubbles_repeat_identically_across_epochs(self):
        """Epochs are 'repetitive and stable' (paper sections 2.2, 8)."""
        result, _ = run_training(epochs=3)
        def shape(epoch):
            return [
                (b.stage, b.index, b.btype, round(b.duration, 9))
                for b in sorted(result.trace.bubbles_of(epoch=epoch),
                                key=lambda b: (b.stage, b.index))
            ]
        assert shape(0) == shape(1) == shape(2)

    def test_gpipe_schedule_also_runs(self):
        result, _ = run_training(epochs=1, schedule="gpipe")
        assert result.total_time > 0
        assert bubble_rate(result.trace) > 0.3


class TestAccounting:
    def test_busy_plus_bubble_covers_epoch_span(self):
        """Per stage: op time + optimizer + bubbles == epoch duration."""
        result, _ = run_training(epochs=1)
        epoch = result.trace.epochs[0]
        for stage in range(4):
            busy = sum(r.duration for r in result.trace.ops_of(stage))
            idle = sum(b.duration for b in result.trace.bubbles_of(stage=stage))
            # the optimizer kernel is the only unaccounted interval
            gap = epoch.duration - busy - idle
            assert 0 <= gap < 0.5, f"stage {stage}: unaccounted {gap}"

    def test_memory_constant_during_training(self):
        _result, server = run_training(epochs=1)
        for stage in range(4):
            assert server.gpu(stage).used_gb > 0

    def test_deterministic_given_seed(self):
        first, _ = run_training(jitter=0.01, seed=5, epochs=2)
        second, _ = run_training(jitter=0.01, seed=5, epochs=2)
        assert first.total_time == second.total_time

    def test_different_seeds_differ_with_jitter(self):
        first, _ = run_training(jitter=0.01, seed=1, epochs=2)
        second, _ = run_training(jitter=0.01, seed=2, epochs=2)
        assert first.total_time != second.total_time


class TestInstrumentation:
    def test_listener_sees_bubble_starts_and_ends(self):
        listener = RecordingListener()
        result, _ = run_training(epochs=1, listener=listener)
        assert len(listener.starts) >= len(result.trace.bubbles)
        assert len(listener.epoch_starts) == len(listener.epoch_ends) == 1

    def test_reported_types_match_trace(self):
        listener = RecordingListener()
        result, _ = run_training(epochs=1, listener=listener)
        reported = {(s.stage, s.index): s.btype for s in listener.starts}
        for bubble in result.trace.bubbles:
            assert reported[(bubble.stage, bubble.index)] == bubble.btype

    def test_profile_provides_expected_durations(self):
        from repro.pipeline.config import TrainConfig
        profile = profile_bubbles(
            make_server_i,
            TrainConfig(model=model_config("3.6B"), epochs=4),
            profiling_epochs=3,
        )
        assert profile.bubbles_per_epoch(0) == 4
        assert profile.total_bubble_time(0) == pytest.approx(9 * 0.22, rel=0.05)
        # Bubbles are keyed by the op position they precede: stage 0's
        # first wait is before its first backward at position 4 (FFFFBBBB).
        assert profile.expected_duration(0, 4) is not None
        assert profile.expected_duration(0, 0) is None  # F0 never waits
        assert profile.expected_duration(0, 99) is None

    def test_serving_run_reports_expected_durations(self):
        profile = profile_bubbles(
            make_server_i,
            TrainConfig(model=model_config("3.6B"), epochs=2),
        )
        listener = RecordingListener()
        run_training(epochs=1, listener=listener, profile=profile)
        assert listener.starts, "no bubbles reported"
        for start in listener.starts:
            assert start.expected_duration is not None
            assert start.expected_end == pytest.approx(
                start.start + start.expected_duration
            )

    def test_hook_cost_stretches_training(self):
        plain, _ = run_training(epochs=2)
        costly = RecordingListener(hook_cost_s=0.005)
        profile = profile_bubbles(
            make_server_i, TrainConfig(model=model_config("3.6B"), epochs=2)
        )
        slowed, _ = run_training(epochs=2, listener=costly, profile=profile)
        increase = slowed.total_time / plain.total_time - 1
        assert 0.0 < increase < 0.03


class _HookError(Exception):
    pass


class _RaisingListener(BubbleListener):
    """Raises from one hook: the second bubble position's start report,
    the first end report, or the first epoch's end."""

    def __init__(self, hook: str):
        self.hook = hook

    def on_bubble_start(self, report):
        if self.hook == "on_bubble_start" and report.index == 1:
            raise _HookError(self.hook)

    def on_bubble_end(self, stage, now):
        if self.hook == "on_bubble_end":
            raise _HookError(self.hook)

    def on_epoch_end(self, epoch, now):
        if self.hook == "on_epoch_end":
            raise _HookError(self.hook)


class TestErrors:
    def test_oversized_stage_raises_from_run(self):
        sim = Engine()
        config = TrainConfig(model=model_config(40.0), epochs=1)
        engine = PipelineEngine(sim, make_server_i(sim), config)
        with pytest.raises(PipelineError, match="stage 0 needs"):
            engine.run()
        assert sim.now == 0.0

    @pytest.mark.parametrize("hook, now", [
        ("on_bubble_start", 5.461529),
        ("on_bubble_end", 0.216849),
        ("on_epoch_end", 4.79907),
    ])
    def test_hook_exception_surfaces_from_run(self, hook, now):
        sim = Engine()
        engine = PipelineEngine(sim, make_server_i(sim),
                                train_config(epochs=2, seed=1),
                                listener=_RaisingListener(hook))
        with pytest.raises(_HookError, match=hook):
            engine.run()
        # The instant the hook ran; the event count is not pinned, since
        # how the failure travels to run() is the engine's business.
        assert sim.now == pytest.approx(now, abs=1e-6)
