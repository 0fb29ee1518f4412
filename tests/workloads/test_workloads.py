"""The side tasks perform real, verifiable computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.adapters import ImperativeAdapter
from repro.workloads.graph_analytics import GraphSGDTask, PageRankTask
from repro.workloads.image_processing import (
    ImageTask,
    add_watermark,
    bilinear_resize,
)
from repro.workloads.model_training import make_resnet18, make_resnet50, make_vgg19
from repro.workloads.registry import WORKLOAD_NAMES, make_workload


def drive(task, steps):
    """Run a task's compute core directly (no simulator needed)."""
    task.create_side_task()
    for _ in range(steps):
        task.compute_step()


class TestModelTraining:
    def test_loss_decreases(self):
        task = make_resnet18()
        drive(task, 300)
        assert np.mean(task.losses[-10:]) < np.mean(task.losses[:10])

    def test_losses_are_finite(self):
        task = make_resnet50()
        drive(task, 100)
        assert np.all(np.isfinite(task.losses))

    def test_batch_size_rescales_profile(self):
        small = make_resnet18(batch_size=16)
        assert small.perf.units_per_step == 16
        assert small.perf.memory_gb < make_resnet18().perf.memory_gb

    def test_three_models_have_increasing_cost(self):
        r18, r50, vgg = make_resnet18(), make_resnet50(), make_vgg19()
        assert r18.perf.step_time_s < r50.perf.step_time_s < vgg.perf.step_time_s
        assert r18.perf.memory_gb < r50.perf.memory_gb < vgg.perf.memory_gb


class TestPageRank:
    def test_converges(self):
        task = PageRankTask(num_nodes=500)
        drive(task, 80)
        assert task.residuals[-1] < 1e-6
        assert task.residuals[0] > task.residuals[-1]

    def test_rank_is_a_probability_distribution(self):
        task = PageRankTask(num_nodes=500)
        drive(task, 60)
        rank = task.rank_vector
        assert rank.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(rank >= 0)

    def test_residuals_monotone_decreasing_eventually(self):
        task = PageRankTask(num_nodes=300)
        drive(task, 50)
        tail = task.residuals[10:]
        assert all(b <= a * 1.001 for a, b in zip(tail, tail[1:]))


class TestGraphSGD:
    def test_factorization_loss_decreases(self):
        task = GraphSGDTask()
        drive(task, 300)
        assert np.mean(task.losses[-20:]) < np.mean(task.losses[:20])

    def test_factors_stay_finite(self):
        task = GraphSGDTask()
        drive(task, 200)
        assert np.all(np.isfinite(task._user_factors))
        assert np.all(np.isfinite(task._item_factors))


class TestImageProcessing:
    def test_resize_shape_and_range(self):
        image = np.full((64, 48, 3), 128, dtype=np.uint8)
        out = bilinear_resize(image, 32, 24)
        assert out.shape == (32, 24, 3)
        assert out.dtype == np.uint8
        assert np.all(out == 128)  # constant image stays constant

    def test_resize_interpolates_gradient(self):
        gradient = np.linspace(0, 255, 64).astype(np.uint8)
        image = np.repeat(gradient[:, None], 16, axis=1)[..., None]
        out = bilinear_resize(image, 32, 8)
        column = out[:, 0, 0].astype(float)
        assert np.all(np.diff(column) >= 0)  # monotone preserved

    def test_watermark_blends_corner_only(self):
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        mark = np.full((16, 16, 3), 255, dtype=np.uint8)
        out = add_watermark(image, mark, alpha=0.5)
        assert np.all(out[:48, :48] == 0)
        assert np.all(out[-16:, -16:] == 127)

    def test_task_processes_images(self):
        task = ImageTask(image_count=4)
        drive(task, 6)
        assert task.processed == 6
        assert task.last_output is not None
        assert task.last_output.shape == (128, 128, 3)

    def test_finite_task_reports_finished(self):
        task = ImageTask(total_images=3)
        drive(task, 3)
        assert task.is_finished


@pytest.mark.parametrize("factory, history", [
    (make_resnet18, "losses"),
    (PageRankTask, "residuals"),
    (GraphSGDTask, "losses"),
], ids=["resnet18", "pagerank", "graph_sgd"])
def test_restore_rolls_back_the_step_history(factory, history):
    """A task restored from 5 steps to a 2-step snapshot keeps 2 history
    entries, and its next step reads trajectory step 3."""
    task = factory()
    task.create_side_task()
    snapshot = None
    for step in range(5):
        if step == 2:
            snapshot = task.checkpoint_state()
        task.compute_step()
        task._account_step()
    task.restore_state(snapshot)
    assert len(getattr(task, history)) == task.steps_done == 2
    task.compute_step()
    fresh = factory()
    drive(fresh, 3)
    assert getattr(task, history) == getattr(fresh, history)


class TestRegistryAndAdapters:
    def test_registry_builds_all_six(self):
        for name in WORKLOAD_NAMES:
            task = make_workload(name)
            assert task.perf.name == name

    def test_registry_rejects_unknown(self):
        with pytest.raises(KeyError):
            make_workload("bitcoin-miner")
        with pytest.raises(ValueError):
            make_workload("resnet18", interface="declarative")

    def test_imperative_adapter_shares_compute_core(self):
        adapter = make_workload("pagerank", interface="imperative")
        assert isinstance(adapter, ImperativeAdapter)
        adapter.create_side_task()
        adapter.compute_step()
        assert adapter.inner.residuals  # the inner task really ran
