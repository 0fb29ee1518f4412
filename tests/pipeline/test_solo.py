"""The no-side-task timeline computed from the op plan, against the engine.

:func:`~repro.pipeline.engine.solo_training` computes a training run with
nothing co-located in one max-plus pass; :class:`PipelineEngine` is its
reference. Over schedules, shapes (one micro-batch, fewer micro-batches
than stages minus one), model sizes, epochs, op jitter, seeds, both RNG
roots the program draws from (the profile's root streams and the
baseline's ``spawn("pipeline")``) and a server whose GPUs run at other
speeds, the two must agree float for float: the same end time and
epochs, and the same bubbles with the same index, type and available
memory. Bubble order may differ; the profile's medians do not depend on
it. For a server or config the engine cannot train, both raise the same
error.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.errors import PipelineError
from repro.experiments.common import baseline_time
from repro.gpu.cluster import make_server_i
from repro.pipeline.config import TrainConfig, model_config
from repro.pipeline.engine import (
    PipelineEngine,
    _profile_bubbles_cached,
    profile_bubbles,
    solo_training,
)
from repro.pipeline.instrumentation import BubbleProfile
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams

SCHEDULES = ("1f1b", "gpipe")
#: (stages, micro-batches): one micro-batch, fewer than stages - 1, and
#: the usual shapes
SHAPES = ((4, 1), (4, 2), (3, 1), (2, 1), (4, 4), (4, 8), (3, 6), (2, 4))
MODELS = ("1.2B", "3.6B", "6B", 2.0)
JITTERS = (0.0, 0.01, 0.05)
#: 6B fits in memory only on four stages
CASES = [
    (schedule, stages, micro_batches, model)
    for schedule, (stages, micro_batches), model in itertools.product(
        SCHEDULES, SHAPES, MODELS)
    if model != "6B" or stages == 4
]
SPEEDS = (0.85, 1.3, 0.7, 1.1)


def make_uneven_server(sim):
    """Server I with GPUs that run at other speeds than 1."""
    server = make_server_i(sim)
    for gpu, speed in zip(server.gpus, SPEEDS):
        gpu.speed_factor = speed
    return server


def _rng(config: TrainConfig, root: str) -> RandomStreams:
    streams = RandomStreams(config.seed)
    return streams if root == "profile" else streams.spawn("pipeline")


def _engine_run(factory, config, rng):
    sim = Engine()
    return PipelineEngine(sim, factory(sim), config, rng=rng).run()


def _bubbles(result):
    return sorted(result.trace.bubbles,
                  key=lambda b: (b.epoch, b.stage, b.index))


def _outcome(fn):
    """``fn()``'s result, or the type and message of what it raised."""
    try:
        return fn()
    except (ValueError, PipelineError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("schedule,stages,micro_batches,model", CASES)
def test_solo_training_equals_the_engine(schedule, stages, micro_batches,
                                          model):
    case = CASES.index((schedule, stages, micro_batches, model))
    for variant, (root, factory) in enumerate(itertools.product(
            ("profile", "baseline"), (make_server_i, make_uneven_server))):
        draw = 4 * case + variant
        config = TrainConfig(
            model=model_config(model), num_stages=stages,
            micro_batches=micro_batches, epochs=1 + draw % 4,
            seed=draw % 7, op_jitter=JITTERS[draw % 3], schedule=schedule)
        reference = _engine_run(factory, config, _rng(config, root))
        solo = solo_training(factory(Engine()), config, _rng(config, root))
        assert solo.total_time == reference.total_time
        assert solo.trace.epochs == reference.trace.epochs
        assert _bubbles(solo) == _bubbles(reference)
        profile = BubbleProfile.from_trace(solo.trace)
        expected = BubbleProfile.from_trace(reference.trace)
        assert profile.durations == expected.durations
        assert profile.available_gb == expected.available_gb


@pytest.mark.parametrize("change", [
    {}, {"schedule": "gpipe"}, {"num_stages": 2, "micro_batches": 1},
    {"op_jitter": 0.0}, {"op_jitter": 0.05, "epochs": 4},
], ids=["default", "gpipe", "2-stages-m1", "no-jitter", "jitter-0.05"])
def test_baseline_time_is_the_engines_training_time(change):
    config = dataclasses.replace(
        TrainConfig(model=model_config("3.6B"), epochs=2, seed=5), **change)
    reference = _engine_run(make_server_i, config, _rng(config, "baseline"))
    assert baseline_time(config) == reference.total_time


@pytest.mark.parametrize("factory", [make_server_i, make_uneven_server])
@pytest.mark.parametrize("change", [
    {}, {"schedule": "gpipe", "micro_batches": 2}, {"op_jitter": 0.05},
], ids=["default", "gpipe-m2", "jitter-0.05"])
def test_profile_bubbles_is_the_engines_profile(factory, change):
    config = dataclasses.replace(
        TrainConfig(model=model_config("1.2B"), epochs=8, seed=2), **change)
    probe = dataclasses.replace(config, epochs=3)
    expected = BubbleProfile.from_trace(
        _engine_run(factory, probe, _rng(probe, "profile")).trace)
    profile = profile_bubbles(factory, config)
    assert profile.durations == expected.durations
    assert profile.available_gb == expected.available_gb


@pytest.mark.parametrize("model,stages", [
    ("3.6B", 5),  # Server I has four GPUs
    ("6B", 2), ("6B", 3),  # a stage outgrows its GPU's memory
])
def test_an_untrainable_config_raises_what_the_engine_raises(model, stages):
    config = TrainConfig(model=model_config(model), num_stages=stages,
                         epochs=1)
    for root in ("profile", "baseline"):
        expected = _outcome(lambda: _engine_run(make_server_i, config,
                                                _rng(config, root)))
        assert isinstance(expected, tuple)
        assert _outcome(lambda: solo_training(
            make_server_i(Engine()), config, _rng(config, root))) == expected
    baseline = _outcome(lambda: baseline_time(config))
    profile = _outcome(lambda: profile_bubbles(make_server_i, config))
    assert baseline[0] is profile[0] is expected[0]
    assert baseline[1] == profile[1] == expected[1]


def test_the_caches_keep_their_keys_and_sizes():
    config = TrainConfig(model=model_config("3.6B"), epochs=6, seed=11)
    before = _profile_bubbles_cached.cache_info()
    first = profile_bubbles(make_server_i, config)
    again = profile_bubbles(make_server_i,
                            dataclasses.replace(config, epochs=9))
    after = _profile_bubbles_cached.cache_info()
    assert again is first
    assert after.hits - before.hits >= 1
    assert after.maxsize == 64
    assert baseline_time.cache_info().maxsize == 32
