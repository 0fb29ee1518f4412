"""Smoke tests: every registered experiment runs and renders.

The benchmarks exercise the full-size experiments; these tests run
reduced versions through the registry (the only entry point since the
PR-3 deprecation shims were dropped) so `pytest tests/` stays fast
while still covering the experiment code paths end to end.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import registry
from repro.experiments import ablations, common, fig7
from repro.gpu.cluster import make_server_i
from repro.pipeline.engine import PipelineEngine
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams


def test_registry_contains_all_artifacts():
    assert set(registry.names()) == {
        "fig1", "fig2", "table1", "table2", "fig7", "fig8", "fig9",
        "ablations", "serve", "cluster", "fairness", "resilience",
        "fuzzcase",
    }


@pytest.mark.parametrize("change, expected", [
    ({}, 9.613017),
    ({"schedule": "gpipe"}, 9.655424),
    ({"num_stages": 3}, 8.275080),
    ({"num_stages": 2}, 6.939439),
    ({"op_jitter": 0.0}, 9.592800),
    ({"op_jitter": 0.05}, 9.704346),
], ids=["default", "gpipe", "3-stages", "2-stages", "no-jitter",
        "jitter-0.05"])
def test_baseline_time_is_the_configs_own_training_time(change, expected):
    config = dataclasses.replace(common.train_config(epochs=2, seed=3),
                                 **change)
    sim = Engine()
    direct = PipelineEngine(
        sim, make_server_i(sim), config,
        rng=RandomStreams(config.seed).spawn("pipeline"),
    ).run().total_time
    assert common.baseline_time(config) == direct
    assert direct == pytest.approx(expected, abs=1e-6)


def test_fig1_runs_and_renders():
    result = registry.run("fig1")
    text = result.render()
    assert "stage 0" in text and "Figure 1(b)" in text
    assert result.data["stages"][0]["pattern"] == "B C C C"


def test_fig2_reduced():
    result = registry.run("fig2", overrides={"training.epochs": 2})
    assert "bubble rate" in result.render()
    assert len(result.data["by_model"]) == 3


def test_table1_reduced():
    result = registry.run("table1", overrides={
        "training.epochs": 2,
        "sweep.points": [{"workloads.0.name": name}
                         for name in ("resnet18", "pagerank")],
    })
    text = result.render()
    assert "resnet18" in text and "pagerank" in text
    for row in result.rows():
        assert row.freeride_iterative > 0


def test_table2_reduced():
    result = registry.run("table2", overrides={
        "training.epochs": 2,
        "sweep.axes": {"workloads.0.name": ["resnet18"],
                       "params.method": ["iterative", "imperative", "mps",
                                         "naive"]},
        "params.include_mixed": False,
    })
    assert "resnet18" in result.render()
    cells = {cell.method: cell for cell in result.data["cells"]}
    assert cells["iterative"].time_increase < cells["mps"].time_increase


def test_fig7_reduced():
    spec = fig7.default_spec().override({
        "training.epochs": 2, "params.tasks": ["resnet18"],
    })
    points = fig7.micro_batch_sweep(spec)
    assert {point.x for point in points} == {4, 6, 8}


def test_fig8_runs():
    result = registry.run("fig8")
    assert result.data["time_limit"]["killed_at_s"] is not None
    assert result.data["memory_limit"]["killed"]
    assert "Figure 8" in result.render()


def test_fig9_reduced():
    result = registry.run("fig9", overrides={
        "training.epochs": 2,
        "sweep.points": [{"workloads.0.name": name}
                         for name in ("resnet18", "vgg19")],
    })
    rows = {row["task"]: row for row in result.data["rows"]}
    assert rows["vgg19"]["no_task_oom"] > rows["resnet18"]["no_task_oom"]
    assert "bubble time breakdown" in result.render()


def test_ablations_reduced():
    rows = ablations.schedule_sweep(
        ablations.default_spec().override({"training.epochs": 2}))
    assert {row["schedule"] for row in rows} == {"1f1b", "gpipe"}


SERVE_REDUCED = {
    "training.epochs": 2,
    "sweep.axes": {
        "arrivals.rate_per_s": [2.0],
        "policy.admission": ["always"],
        "policy.assignment": ["least_loaded"],
    },
}


def test_serve_reduced():
    result = registry.run("serve", overrides=SERVE_REDUCED)
    assert len(result.data["rows"]) == 1
    row = result.data["rows"][0]
    assert row["offered"] > 0
    assert row["completed"] > 0
    assert 0.0 <= row["rejection_rate"] <= 1.0
    assert row["completion_p50"] <= row["completion_p95"] <= row["completion_p99"]
    text = result.render()
    assert "goodput" in text and "rejected" in text


def test_serve_seed_changes_traffic():
    base = registry.run("serve", overrides=SERVE_REDUCED).data["rows"][0]
    other = registry.run(
        "serve", overrides={**SERVE_REDUCED, "seed": 1}).data["rows"][0]
    assert base["offered"] != other["offered"] or \
        base["completion_p50"] != other["completion_p50"]


CLUSTER_REDUCED = {
    "training.epochs": 2,
    "sweep.axes": {
        "jobs": [1, 2],
        "policy.assignment": ["least_loaded"],
        "workloads": [[{"name": "pagerank"}]],
    },
}


def test_cluster_reduced():
    result = registry.run("cluster", overrides=CLUSTER_REDUCED)
    rows = result.data["rows"]
    assert [row["jobs"] for row in rows] == [1, 2]
    # Two jobs double the pool: more workers, more placements, more units.
    assert rows[1]["workers"] == 2 * rows[0]["workers"]
    assert rows[1]["total_units"] > rows[0]["total_units"]
    for row in rows:
        assert 0.0 < row["utilization"] <= 1.0
    assert "utilization" in result.render()


def test_cli_runs_fig1(capsys):
    """`repro run fig1` prints the figure."""
    from repro.cli import main
    assert main(["run", "fig1"]) == 0
    captured = capsys.readouterr()
    assert "Figure 1(a)" in captured.out


def test_cli_positional_form_is_gone():
    """The pre-registry positional form was dropped with the PR-3 shims."""
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["fig1"])


def test_cli_rejects_unknown_experiment():
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_cli_seed_flag_applies_to_every_scenario(capsys):
    """--seed is spec-level: fig1 (which ignored it pre-registry)
    accepts it and reseeds the training jitter."""
    from repro.cli import main
    assert main(["run", "fig1", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert "does not take" not in captured.err
    assert "Figure 1(a)" in captured.out
