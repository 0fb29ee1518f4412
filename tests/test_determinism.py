"""Determinism regression: serial and parallel sweeps, byte for byte.

The fast-path kernel, the trajectory memoization, and the process-pool
sweep executor must all be invisible in the numbers: the same seed has to
produce the same bubble counts, task units, and total times whether the
points run serially, in pool workers, or twice in the same process.
"""

from __future__ import annotations

import json

from repro.api.session import Session
from repro.api.spec import ScenarioSpec, TrainingSpec, WorkloadSpec
from repro.experiments import common


def _serialize(results) -> bytes:
    """Canonical by-value bytes (float repr is exact, so equal bytes
    mean equal numbers; pickle would differ on object identity alone)."""
    return json.dumps(results, sort_keys=True).encode()

#: fig7-scale points (model-size sweep shape, 1 epoch to stay quick)
ITEMS = (("1.2B", "pagerank"), ("3.6B", "resnet18"))


def _point(item):
    """One sweep point; module-level so pool workers can unpickle it."""
    size, name = item
    spec = ScenarioSpec(
        training=TrainingSpec(model=size, epochs=1),
        workloads=(WorkloadSpec(name=name),),
    )
    result = Session(spec).run().results()
    return {
        "size": size,
        "task": name,
        "total_time": result.training.total_time,
        "total_units": result.total_units,
        "total_steps": result.total_steps,
        "bubble_count": len(result.bubble_profile.durations),
        "per_task": [
            (report.name, report.stage, report.steps_done,
             report.units_done, report.running_s, report.overhead_s)
            for report in result.tasks
        ],
    }


#: sha256 of _point(("3.6B", "resnet18")) captured before the RPC
#: cast-coalescing optimization landed: coalescing (and any future event
#: plumbing change) must be invisible in the simulation's numbers.
PRE_COALESCE_GOLDEN = \
    "1f2d682de2fccd24d0d66f6cea3444e9c47aaf1c57b3cc58729f1d0ab52f72ec"


def test_rpc_coalescing_left_the_numbers_untouched():
    import hashlib

    blob = _serialize(_point(("3.6B", "resnet18")))
    assert hashlib.sha256(blob).hexdigest() == PRE_COALESCE_GOLDEN


def test_serial_rerun_is_byte_identical():
    first = _serialize(common.sweep(ITEMS, _point, max_workers=1))
    second = _serialize(common.sweep(ITEMS, _point, max_workers=1))
    assert first == second


def test_parallel_sweep_matches_serial_byte_for_byte():
    serial = _serialize(common.sweep(ITEMS, _point, max_workers=1))
    parallel = _serialize(common.sweep(ITEMS, _point, max_workers=2))
    assert serial == parallel


def test_sweep_preserves_order():
    assert common.sweep([3, 1, 2], _identity, max_workers=2) == [3, 1, 2]


def _identity(item):
    return item
