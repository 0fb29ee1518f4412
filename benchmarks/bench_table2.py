"""Benchmark: regenerate Table 2 (time increase / cost savings, 4 methods).

The headline result: FreeRide's iterative interface costs about 1% of
training time and saves money; the imperative interface costs a little
more; raw MPS and naive co-location cost tens of percent and mostly lose
money — with Graph SGD under MPS as the pathological case.
"""

from __future__ import annotations

import statistics

from repro.experiments import table2


def test_table2(record_output):
    data = table2.run_spec(table2.default_spec())
    record_output("table2", table2.render(data))
    cells = {(cell.task, cell.method): cell for cell in data["cells"]}
    tasks = [cell.task for cell in data["cells"] if cell.method == "iterative"]

    # Iterative: ~1% overhead, positive savings for every task.
    for task in tasks:
        iterative = cells[(task, "iterative")]
        assert iterative.time_increase < 0.03, task
        assert iterative.cost_savings > 0, task

    # Imperative: higher overhead than iterative, still far below MPS.
    for task in tasks:
        assert cells[(task, "imperative")].time_increase >= \
            cells[(task, "iterative")].time_increase - 0.005, task
        assert cells[(task, "imperative")].time_increase < \
            cells[(task, "mps")].time_increase, task

    # Baselines: big overheads; naive worse than MPS except Graph SGD.
    for task in tasks:
        assert cells[(task, "mps")].time_increase > 0.05, task
        assert cells[(task, "naive")].time_increase > 0.3, task

    # The Graph SGD anomaly: >100% time increase under MPS (paper: 231%).
    assert cells[("graph_sgd", "mps")].time_increase > 1.0

    # Naive co-location loses money on every task (paper: -9% to -44%).
    for task in tasks:
        assert cells[(task, "naive")].cost_savings < 0, task

    # Averages in the right bands (paper: iterative 1.1% / 7.8%).
    mean_iter_i = statistics.fmean(
        cells[(task, "iterative")].time_increase for task in tasks
    )
    mean_iter_s = statistics.fmean(
        cells[(task, "iterative")].cost_savings for task in tasks
    )
    assert mean_iter_i < 0.02
    assert 0.03 < mean_iter_s < 0.15

    # Mixed workload: positive savings, ~1% overhead (paper: 10.1% / 1.1%).
    mixed = cells[("mixed", "iterative")]
    assert mixed.time_increase < 0.03
    assert mixed.cost_savings > 0.04
