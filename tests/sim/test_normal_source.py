"""The standard-normal source gives ``normalvariate``'s values, bit for bit.

``RandomStreams.normal(name)`` serves a stream's first draws from
``random.Random.normalvariate(0.0, 1.0)`` and later ones from numpy
blocks of Kinderman–Monahan candidates. ``SideTaskContext.jitter`` turns
each into ``exp(0.0 + z * sigma) * mean``, which must equal
``lognormvariate(0.0, sigma) * mean`` on the same stream.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interfaces import SideTaskContext
from repro.sim import rng as rng_mod
from repro.sim.rng import RandomStreams, _derive_seed, normal_source


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       sigma=st.sampled_from([0.01, 0.02, 0.5, 3.0]),
       mean=st.sampled_from([1e-3, 0.0123, 1.0, 7.5]),
       prefix=st.sampled_from([0, 1, 64]),
       max_pairs=st.sampled_from([1, 2, 5, 64, 512]))
def test_jitter_matches_lognormvariate_bit_for_bit(seed, sigma, mean, prefix,
                                                   max_pairs):
    normal = normal_source(random.Random(seed), prefix, max_pairs)
    reference = random.Random(seed)
    draws = 20_000 if max_pairs > 5 else 4_000
    for _ in range(draws):
        expected = reference.lognormvariate(0.0, sigma) * mean
        assert math.exp(0.0 + normal() * sigma) * mean == expected


@pytest.mark.parametrize("max_pairs", [1, 512])
@pytest.mark.parametrize("prefix", [0, 1, 64])
@pytest.mark.parametrize("sigma", [0.01, 0.02, 0.5, 3.0])
def test_every_sigma_prefix_and_block_size_is_exact(sigma, prefix,
                                                    max_pairs):
    """The grid the property test samples, every point of it on every
    run."""
    seed = 20_251_019 + prefix
    normal = normal_source(random.Random(seed), prefix, max_pairs)
    reference = random.Random(seed)
    draws = 3_000 if max_pairs == 1 else 20_000
    for _ in range(draws):
        expected = reference.lognormvariate(0.0, sigma) * 0.0123
        assert math.exp(0.0 + normal() * sigma) * 0.0123 == expected


def test_the_source_is_normalvariate_over_many_seeds():
    for seed in range(20):
        normal = RandomStreams(seed).normal("task:x")
        reference = random.Random(_derive_seed(seed, "task:x"))
        assert [normal() for _ in range(5_000)] == [
            reference.normalvariate(0.0, 1.0) for _ in range(5_000)]


def test_a_stream_has_one_source():
    streams = RandomStreams(4)
    assert streams.normal("a") is streams.normal("a")
    assert streams.normal("a") is not streams.normal("b")


@pytest.mark.parametrize("prefix, max_pairs", [(-1, 8), (0, 0)])
def test_bad_source_sizes_raise(prefix, max_pairs):
    with pytest.raises(ValueError):
        normal_source(random.Random(0), prefix, max_pairs)


# ----------------------------------------------------------------------
# The acceptance boundary. numpy's log may differ from math.log in the
# last place, so a candidate whose z*z/4 and -log(u2) nearly tie must be
# decided with math.log. Random draws almost never come that close, so
# the candidates below are built to tie, and np.log is perturbed by a
# relative 1e-12 both ways: enough to flip numpy's decision on them.
# ----------------------------------------------------------------------
class _Replay(random.Random):
    """A ``random.Random`` whose words come from a fixed list."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)
        self.position = 0

    def _word(self) -> int:
        word = self.words[self.position]
        self.position += 1
        return word

    def random(self) -> float:
        first, second = self._word(), self._word()
        return ((first >> 5) * 67108864.0 + (second >> 6)) * (
            1.0 / 9007199254740992.0)

    def getrandbits(self, k: int) -> int:
        assert k % 32 == 0
        return sum(self._word() << (32 * i) for i in range(k // 32))


def _words(grid: int) -> tuple[int, int]:
    """The two words whose ``random()`` is ``grid * 2**-53``."""
    return (grid >> 26) << 5, (grid & (2**26 - 1)) << 6


def _candidates_at_the_boundary():
    """Two candidate pairs whose ``z*z/4`` and ``-log(u2)`` differ by a
    few ulps: one accepted by ``math.log``, one rejected."""
    found = {}
    r2_grid = round(0.7 * 2**53)
    u2 = 1.0 - r2_grid * 2.0**-53
    bound = -math.log(u2)
    u1_target = 0.5 + 2.0 * math.sqrt(bound) * u2 / random.NV_MAGICCONST
    center = round(u1_target * 2**53)
    for u1_grid in range(center - 64, center + 64):
        z = random.NV_MAGICCONST * (u1_grid * 2.0**-53 - 0.5) / u2
        zz = z * z / 4.0
        if abs(zz - bound) <= 1e-12 * bound:
            found.setdefault(zz <= bound, (u1_grid, zz))
    assert set(found) == {True, False}
    return {accepted: (_words(u1_grid) + _words(r2_grid), zz, u2)
            for accepted, (u1_grid, zz) in found.items()}


#: a candidate with u1 = 0.5, so z = 0: always accepted
_PLAIN = _words(2**52) + _words(2**51)


@pytest.mark.parametrize("accepted", [True, False])
@pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0 + 1e-12])
def test_a_candidate_at_the_boundary_is_decided_with_math_log(
        accepted, scale, monkeypatch):
    words, zz, u2 = _candidates_at_the_boundary()[accepted]
    real_log = np.log
    monkeypatch.setattr(np, "log", lambda x: real_log(x) * scale)
    expected = _Replay(words + _PLAIN).normalvariate(0.0, 1.0)
    assert (expected != 0.0) == accepted
    normal = normal_source(_Replay(words + _PLAIN), prefix=0, max_pairs=1)
    assert normal() == expected


def test_the_perturbation_flips_numpys_decision():
    """Each boundary candidate is decided differently by the perturbed
    np.log at one of the two scales, so the test above has teeth."""
    for accepted, (_words_, zz, u2) in _candidates_at_the_boundary().items():
        flips = [(zz <= -(float(np.log(u2)) * scale)) != accepted
                 for scale in (1.0 - 1e-12, 1.0 + 1e-12)]
        assert any(flips)


# ----------------------------------------------------------------------
# A preempted task restored on a new process gets a new context; its
# jitter continues the stream the first context drew from.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("crash_at", [1.0, 6.0], ids=["prefix", "blocks"])
def test_a_restored_task_continues_its_stream(crash_at, monkeypatch):
    """Crashed while its source still serves single draws, or once it
    serves blocks, the restored task draws the values that follow."""
    from repro.core.middleware import FreeRide
    from repro.experiments import common
    from repro.faults import CheckpointPolicy, FaultInjector, FaultPlan
    from repro.faults import WorkerCrash
    from repro.workloads.registry import workload_factory

    # Every draw of a task's jitter, the step driver's and ctx.jitter's,
    # comes from its context's normal source.
    draws = []
    normal_source = SideTaskContext.normal_source

    def logged(ctx):
        normal = normal_source(ctx)

        def draw():
            value = normal()
            draws.append((ctx, value))
            return value
        return draw

    monkeypatch.setattr(SideTaskContext, "normal_source", logged)
    freeride = FreeRide(common.train_config(epochs=2))
    freeride.submit(workload_factory("pagerank"), name="pr0",
                    checkpoint=CheckpointPolicy(interval_steps=4))
    FaultInjector(FaultPlan(crashes=(
        WorkerCrash(stage=0, at_s=crash_at, restart_after_s=3.0),))).arm(
            freeride)
    result = freeride.run()
    assert [report.restores for report in result.tasks] == [1]
    # The profiler's probe runs the workload on its own process first.
    draws = [draw for draw in draws
             if not draw[0].proc.name.startswith("profile:")]
    contexts = []
    for ctx, _value in draws:
        if all(ctx is not seen for seen in contexts):
            contexts.append(ctx)
    assert len(contexts) == 2  # the first process's, the restored one's
    before = sum(ctx is contexts[0] for ctx, _value in draws)
    # Where the crash fell: before or after the source turned to blocks.
    assert (before > rng_mod.NORMAL_PREFIX) == (crash_at > 1.0)
    assert before > 0
    assert len(draws) > before + rng_mod.NORMAL_PREFIX
    stream = random.Random(_derive_seed(contexts[0].rng.seed, "task:pr0"))
    assert [value for _ctx, value in draws] == [
        stream.normalvariate(0.0, 1.0) for _draw in draws]
