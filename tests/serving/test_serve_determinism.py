"""Determinism regression for the serving subsystem.

Same pattern as ``tests/test_determinism.py``: a reduced `serve`-shaped
sweep must produce byte-identical results whether the points run
serially, in process-pool workers, or twice in the same process. Serving
adds new determinism hazards — arrival generation, admission state,
dispatch order, streaming quantiles — so the guard covers the whole
serving session path end to end.
"""

from __future__ import annotations

import json

from repro.api.session import Session
from repro.api.spec import PolicySpec, ScenarioSpec, TrainingSpec
from repro.experiments import common, serve
from repro.serving.arrivals import PoissonArrivals


def _serialize(results) -> bytes:
    return json.dumps(results, sort_keys=True).encode()


#: reduced serve-sweep grid: 1 epoch, two policy pairs, moderate load
ITEMS = (
    (2.0, "always", "least_loaded"),
    (2.0, "token_bucket", "edf"),
)


def _point(item):
    """One serving point; module-level so pool workers can unpickle it."""
    rate, admission, policy = item
    spec = ScenarioSpec(
        kind="serving",
        seed=0,
        training=TrainingSpec(epochs=1),
        policy=PolicySpec(assignment=policy, admission=admission),
        params={"horizon_s": 5.0},
    )
    session = Session(spec, arrivals=PoissonArrivals(rate, seed=0))
    result = session.run().results()
    metrics = result.metrics
    return {
        "rate": rate,
        "admission": admission,
        "policy": policy,
        "training_time": result.training.total_time,
        "open_s": result.open_duration_s,
        "queueing": metrics.queueing.summary(),
        "completion": metrics.completion.summary(),
        "goodput": metrics.goodput_rps,
        "records": [record.summary() for record in result.records],
    }


def test_serial_rerun_is_byte_identical():
    first = _serialize(common.sweep(ITEMS, _point, max_workers=1))
    second = _serialize(common.sweep(ITEMS, _point, max_workers=1))
    assert first == second


def test_parallel_sweep_matches_serial_byte_for_byte():
    serial = _serialize(common.sweep(ITEMS, _point, max_workers=1))
    parallel = _serialize(common.sweep(ITEMS, _point, max_workers=2))
    assert serial == parallel


def test_full_serve_experiment_row_is_reproducible():
    """The registered experiment's own reduced sweep, run twice."""
    overrides = {
        "training.epochs": 1,
        "sweep.axes": {
            "arrivals.rate_per_s": [2.0],
            "policy.admission": ["backpressure"],
            "policy.assignment": ["edf"],
        },
    }
    spec = serve.default_spec().override(overrides)
    first = _serialize(serve.run_spec(spec)["rows"])
    second = _serialize(serve.run_spec(spec)["rows"])
    assert first == second
