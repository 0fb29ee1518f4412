"""Model-training side tasks: ResNet18, ResNet50, VGG19 (paper 6.1.4).

The paper trains out-of-the-box torchvision models. Here the virtual cost
of each step follows the calibrated profile (e.g. ResNet18 batch 64:
30.4 ms and 2.63 GB, section 2.3), while the computation inside the step
is a real softmax-regression SGD update on synthetic data — a stand-in
documented in DESIGN.md. The loss trajectory is recorded so tests can
assert that training genuinely progresses through pause/resume cycles.
"""

from __future__ import annotations

import numpy as np

from repro import calibration
from repro.core.interfaces import IterativeSideTask
from repro.workloads.datasets import SyntheticClassificationData


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class _SgdTrajectory:
    """The shared deterministic loss sequence of one SGD configuration.

    The stand-in computation depends only on ``(batch_size, learning_rate,
    seed)`` — not on which torchvision model the profile describes — so one
    trajectory serves every replica of ResNet18/ResNet50/VGG19 alike, and
    every sweep point re-reads it instead of re-running the updates.
    """

    def __init__(self, batch_size: int, learning_rate: float, seed: int):
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self._data = SyntheticClassificationData.generate(seed=seed)
        self._rng = np.random.default_rng(seed + 1)
        dimensions = self._data.features.shape[1]
        self._weights = np.zeros((dimensions, self._data.num_classes))
        self._bias = np.zeros(self._data.num_classes)
        self.losses: list[float] = []

    def ensure(self, steps: int) -> None:
        while len(self.losses) < steps:
            self._step()

    def _step(self) -> None:
        """One SGD step — arithmetic identical to the original task."""
        features, labels = self._data.batch(self.batch_size, self._rng)
        logits = features @ self._weights + self._bias
        probabilities = _softmax(logits)
        one_hot = np.eye(self._data.num_classes)[labels]
        loss = -np.mean(
            np.log(probabilities[np.arange(len(labels)), labels] + 1e-12)
        )
        gradient = (probabilities - one_hot) / len(labels)
        self._weights -= self.learning_rate * (features.T @ gradient)
        self._bias -= self.learning_rate * gradient.sum(axis=0)
        self.losses.append(float(loss))


_SGD_TRAJECTORIES: dict[tuple[int, float, int], _SgdTrajectory] = {}


class ModelTrainingTask(IterativeSideTask):
    """One of the paper's model-training side tasks."""

    def __init__(
        self,
        profile: calibration.SideTaskProfile,
        batch_size: int = 64,
        learning_rate: float = 0.05,
        seed: int = 0,
    ):
        if batch_size != 64:
            profile = calibration.scale_model_training_profile(profile, batch_size)
        super().__init__(profile)
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.losses: list[float] = []
        self._trajectory: _SgdTrajectory | None = None

    # -- life-cycle hooks -------------------------------------------------
    def create_side_task(self) -> None:
        """CREATED: dataset, model and optimizer state in host memory."""
        key = (self.batch_size, self.learning_rate, self.seed)
        trajectory = _SGD_TRAJECTORIES.get(key)
        if trajectory is None:
            if len(_SGD_TRAJECTORIES) >= 16:  # many distinct configs: restart
                _SGD_TRAJECTORIES.clear()
            trajectory = _SGD_TRAJECTORIES[key] = _SgdTrajectory(*key)
        self._trajectory = trajectory
        self.host_loaded = True

    def compute_step(self) -> None:
        """One real SGD step; the loss history proves forward progress."""
        step = len(self.losses) + 1
        self._trajectory.ensure(step)
        self.losses.append(self._trajectory.losses[step - 1])

    def restore_state(self, snapshot: dict) -> None:
        """Roll back to ``snapshot``, the loss history with it."""
        super().restore_state(snapshot)
        del self.losses[snapshot["steps_done"]:]

    # -- diagnostics -------------------------------------------------------
    @property
    def loss_improved(self) -> bool:
        """Mean of the last 10 losses below the mean of the first 10."""
        if len(self.losses) < 20:
            return False
        return float(np.mean(self.losses[-10:])) < float(np.mean(self.losses[:10]))


def make_resnet18(batch_size: int = 64, seed: int = 0) -> ModelTrainingTask:
    return ModelTrainingTask(calibration.RESNET18, batch_size, seed=seed)


def make_resnet50(batch_size: int = 64, seed: int = 0) -> ModelTrainingTask:
    return ModelTrainingTask(calibration.RESNET50, batch_size, seed=seed)


def make_vgg19(batch_size: int = 64, seed: int = 0) -> ModelTrainingTask:
    return ModelTrainingTask(calibration.VGG19, batch_size, seed=seed)
