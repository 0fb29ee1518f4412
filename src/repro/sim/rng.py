"""Deterministic, named random-number streams.

Each component draws from its own stream (derived from a root seed and a
stable name hash) so adding randomness to one component never perturbs the
draws seen by another — a standard trick for reproducible discrete-event
simulations.
"""

from __future__ import annotations

import hashlib
import random


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent named :class:`random.Random` streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]

    def jitter(self, name: str, mean: float, rel_sigma: float = 0.02) -> float:
        """A positive duration near ``mean`` with relative spread ``rel_sigma``.

        Uses a lognormal so durations stay strictly positive; with the
        default 2% sigma this models the run-to-run variation of GPU kernels
        on an otherwise idle device.
        """
        if mean <= 0:
            raise ValueError(f"jitter mean must be positive, got {mean}")
        if rel_sigma <= 0:
            return mean
        return self.stream(name).lognormvariate(0.0, rel_sigma) * mean

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory whose streams are independent of ours."""
        return RandomStreams(_derive_seed(self.seed, f"spawn:{name}"))
