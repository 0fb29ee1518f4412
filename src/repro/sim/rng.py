"""Deterministic, named random-number streams.

Each component draws from its own stream (derived from a root seed and a
stable name hash) so adding randomness to one component never perturbs the
draws seen by another — a standard trick for reproducible discrete-event
simulations.

A stream that is drawn long enough can also be read through a
**standard-normal source** (:meth:`RandomStreams.normal`), which gives
the values ``random.Random.normalvariate(0.0, 1.0)`` would, bit for bit.
It serves a stream's first :data:`NORMAL_PREFIX` draws one at a time from
``normalvariate`` itself, and later ones from blocks computed with numpy:
one ``getrandbits`` call yields the 32-bit words ``random()`` would have
consumed, and the Kinderman–Monahan candidates ``normalvariate`` would
have tried are built from them with the same float operations. Only the
acceptance test calls ``log``, and numpy's may differ from ``math.log`` in
the last place, so a candidate near the acceptance boundary is decided
again with ``math.log``.
"""

from __future__ import annotations

import hashlib
import math
import random
import typing

import numpy as np

#: draws a normal source serves one at a time, from ``normalvariate``,
#: before it turns to blocks. Short streams never pay for a block: a
#: set-up probe draws at most 24 values from a stream, and a pipeline's
#: op streams at most 32 per run.
NORMAL_PREFIX = 64
#: the largest block, in Kinderman–Monahan candidate pairs. A block is
#: as many pairs as the source has served draws, up to this cap, so a
#: stream that stops early leaves at most about as many draws unused as
#: it used.
NORMAL_BLOCK_PAIRS = 512
#: a candidate whose ``z*z/4`` and ``-log(u2)`` are this close, relative
#: to ``-log(u2)``, is decided again with ``math.log``: far wider than
#: the few-ulp gap between numpy's ``log`` and ``math.log``
_NEAR = 1e-9
#: ``random()`` is ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53`` of its
#: two 32-bit words
_TWO_26 = 67108864.0
_TWO_M53 = 1.0 / 9007199254740992.0


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def normal_source(rng: random.Random, prefix: int = NORMAL_PREFIX,
                  max_pairs: int = NORMAL_BLOCK_PAIRS
                  ) -> typing.Callable[[], float]:
    """A callable returning ``rng``'s next standard normal.

    Its values are those of successive ``rng.normalvariate(0.0, 1.0)``
    calls, bit for bit, as long as nothing else draws from ``rng``: past
    the first ``prefix`` draws, the source takes the words of a whole
    block from ``rng`` at once.
    """
    if prefix < 0 or max_pairs < 1:
        raise ValueError(
            f"need prefix >= 0 and max_pairs >= 1, got {prefix}, {max_pairs}")
    return _normals(rng, prefix, max_pairs).__next__


def _normals(rng: random.Random, prefix: int,
             max_pairs: int) -> typing.Iterator[float]:
    normalvariate = rng.normalvariate
    for _ in range(prefix):
        # Explicit arguments: before Python 3.11 they have no defaults.
        yield normalvariate(0.0, 1.0)
    served = prefix
    while True:
        block = _kinderman_monahan(rng, min(max_pairs, max(1, served)))
        served += len(block)
        yield from block


def _kinderman_monahan(rng: random.Random, pairs: int) -> list[float]:
    """The normals ``normalvariate`` makes from ``rng``'s next ``pairs``
    candidate pairs: each pair is two ``random()`` values, four words."""
    words = np.frombuffer(
        rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little"),
        dtype="<u4").reshape(pairs, 4)
    u1 = ((words[:, 0] >> 5) * _TWO_26 + (words[:, 1] >> 6)) * _TWO_M53
    u2 = 1.0 - ((words[:, 2] >> 5) * _TWO_26 + (words[:, 3] >> 6)) * _TWO_M53
    z = random.NV_MAGICCONST * (u1 - 0.5) / u2
    zz = z * z / 4.0
    bound = -np.log(u2)
    accept = zz <= bound
    for index in np.flatnonzero(np.abs(zz - bound) <= _NEAR * bound).tolist():
        accept[index] = zz[index] <= -math.log(u2[index])
    return z[accept].tolist()


class RandomStreams:
    """A factory of independent named :class:`random.Random` streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}
        self._normals: dict[str, typing.Callable[[], float]] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]

    def normal(self, name: str) -> typing.Callable[[], float]:
        """Return (creating on first use) the standard-normal source of
        the stream ``name`` (see :func:`normal_source`).

        There is one source per name, so every reader of the name
        continues the same sequence. Once a source exists, nothing else
        may draw from the stream itself.
        """
        source = self._normals.get(name)
        if source is None:
            source = self._normals[name] = normal_source(self.stream(name))
        return source

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
