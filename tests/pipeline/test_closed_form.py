"""The pipeline engine against its closed form.

Without op jitter, each stage of a *p*-stage, *m*-micro-batch epoch is
busy for m(t_f + t_b) of (m + p - 1)(t_f + t_b) + t_opt seconds under
1F1B and GPipe alike, so the bubble rate is

    (p - 1) / (m + p - 1 + ω),    ω = t_opt / (t_f + t_b),

with t_b = BP_OVER_FP_RATIO · t_f and t_opt = OPTIMIZER_TIME_PER_BILLION
· B for a model of B billion parameters.
"""

from __future__ import annotations

import itertools

import pytest

from repro import calibration
from repro.errors import PipelineError
from repro.gpu.cluster import make_server_i
from repro.pipeline.analysis import bubble_rate
from repro.pipeline.config import TrainConfig, model_config
from repro.pipeline.engine import PipelineEngine
from repro.sim.engine import Engine

#: (stages, micro-batches)
SHAPES = ((4, 4), (4, 8), (2, 4), (3, 6))
SIZES = ("1.2B", "3.6B", "6B")
#: 6B needs all four GPUs of Server I for its weights and optimizer state
CASES = [
    (schedule, stages, micro_batches, size, epochs)
    for schedule, (stages, micro_batches), size, epochs in itertools.product(
        ("1f1b", "gpipe"), SHAPES, SIZES, (1, 2))
    if size != "6B" or stages == 4
]


def _train(size: str, stages: int, micro_batches: int, epochs: int = 1,
           schedule: str = "1f1b"):
    sim = Engine()
    config = TrainConfig(model=model_config(size), num_stages=stages,
                         micro_batches=micro_batches, epochs=epochs,
                         op_jitter=0.0, schedule=schedule)
    return PipelineEngine(sim, make_server_i(sim), config).run()


def closed_form(size: str, stages: int, micro_batches: int) -> float:
    billions = model_config(size).params_billion
    omega = (calibration.OPTIMIZER_TIME_PER_BILLION * billions
             / ((1 + calibration.BP_OVER_FP_RATIO)
                * calibration.FP_TIME_BY_MODEL_B[billions]))
    return (stages - 1) / (micro_batches + stages - 1 + omega)


@pytest.mark.parametrize("schedule,stages,micro_batches,size,epochs", CASES)
def test_bubble_rate_matches_the_closed_form(schedule, stages, micro_batches,
                                             size, epochs):
    result = _train(size, stages, micro_batches, epochs, schedule)
    assert bubble_rate(result.trace) == pytest.approx(
        closed_form(size, stages, micro_batches), rel=0, abs=1e-12)


@pytest.mark.parametrize("stages", (2, 3))
def test_6b_does_not_fit_fewer_than_four_stages(stages):
    with pytest.raises(PipelineError):
        _train("6B", stages, 4)
