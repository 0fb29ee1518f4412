"""The sweep executor: worker-count parsing, when ``sweep()`` runs in a
process pool and when serially, and that the pool is invisible in
every registered scenario's artifacts."""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import threading

import pytest

from repro.api import registry
from repro.errors import SweepConfigError
from repro.experiments import common
from repro.obs.telemetry import PROCESS

#: every scenario with a default spec of its own (``fuzzcase`` replays
#: a given one)
SCENARIOS = [name for name in registry.names() if name != "fuzzcase"]
#: scenarios whose runs call no sweep at all
NO_SWEEP = ("fig1", "fig8")


def _pid(item) -> int:
    return os.getpid()


def _double(item):
    return 2 * item


def _record_call(item):
    """Log one call to the item's file, then fail on the failing point."""
    log, index, failing, error = item
    with open(log, "a") as handle:
        handle.write(f"{index}\n")
    if index == failing:
        raise error(f"point {index} failed")
    return index


@pytest.fixture
def pool_allowed(monkeypatch):
    """Let sweep() start a pool even under pytest-xdist."""
    monkeypatch.delenv("PYTEST_XDIST_WORKER", raising=False)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: maps in this process."""

    def __init__(self, max_workers, initializer=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class _BrokenExecutor(_InlineExecutor):
    def map(self, fn, items):
        raise concurrent.futures.process.BrokenProcessPool("a worker died")


class TestSweepWorkersParsing:
    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert common.sweep_workers() >= 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", " 4 ")
        assert common.sweep_workers() == 4

    @pytest.mark.parametrize("value", ["zero", "2.5", "", "-", "1e2"])
    def test_garbage_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        if not value.strip():
            assert common.sweep_workers() >= 1
        else:
            with pytest.raises(SweepConfigError,
                               match="REPRO_SWEEP_WORKERS"):
                common.sweep_workers()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_is_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        with pytest.raises(SweepConfigError, match="positive"):
            common.sweep_workers()


class TestWhereThePointsRun:
    def test_empty_items_return_an_empty_list(self, pool_allowed):
        assert common.sweep([], _record_call, max_workers=2) == []

    def test_points_run_in_pool_workers(self, pool_allowed):
        pids = common.sweep(range(4), _pid, max_workers=2)
        assert len(pids) == 4
        assert os.getpid() not in pids

    def test_one_worker_runs_in_this_process(self, pool_allowed):
        assert common.sweep(range(3), _pid, max_workers=1) \
            == [os.getpid()] * 3

    def test_xdist_worker_runs_in_this_process(self, monkeypatch):
        monkeypatch.setenv("PYTEST_XDIST_WORKER", "gw0")
        assert common.sweep(range(3), _pid, max_workers=2) \
            == [os.getpid()] * 3

    def test_nested_sweep_runs_in_this_process(self, pool_allowed,
                                               monkeypatch):
        monkeypatch.setattr(common, "_IN_SWEEP_WORKER", True)
        assert common.sweep(range(3), _pid, max_workers=2) \
            == [os.getpid()] * 3

    def test_the_pool_never_has_more_workers_than_items(self, pool_allowed,
                                                        monkeypatch):
        created = []

        def executor(max_workers, initializer=None):
            created.append(max_workers)
            return _InlineExecutor(max_workers, initializer)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            executor)
        assert common.sweep(range(3), _double, max_workers=8) == [0, 2, 4]
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "8")
        assert common.sweep(range(3), _double) == [0, 2, 4]
        assert created == [3, 3]


class TestFallbacks:
    @pytest.mark.parametrize("kind", ["lambda", "local function"])
    def test_an_unpicklable_callable_runs_serially(self, pool_allowed, kind):
        if kind == "lambda":
            fn = lambda item: (2 * item, os.getpid())  # noqa: E731
        else:
            def fn(item):
                return 2 * item, os.getpid()
        pid = os.getpid()
        assert common.sweep(range(3), fn, max_workers=2) \
            == [(0, pid), (2, pid), (4, pid)]

    def test_an_unpicklable_item_runs_serially(self, pool_allowed):
        items = [threading.Lock(), threading.Lock()]
        with pytest.raises(TypeError):
            pickle.dumps(items)
        assert common.sweep(items, _pid, max_workers=2) \
            == [os.getpid()] * 2

    @pytest.mark.parametrize("error", [ValueError, AttributeError])
    def test_an_error_from_fn_surfaces_after_each_point_ran_once(
            self, pool_allowed, tmp_path, error):
        # The last point fails, so every other point has finished by
        # the time its error reaches the parent: a rerun would show as
        # a second line for some point.
        log = tmp_path / "calls.log"
        items = [(str(log), index, 5, error) for index in range(6)]
        with pytest.raises(error, match="point 5 failed"):
            common.sweep(items, _record_call, max_workers=2)
        assert sorted(log.read_text().split()) == [str(i) for i in range(6)]

    def test_a_broken_pool_falls_back_to_a_serial_run(self, pool_allowed,
                                                      monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _BrokenExecutor)
        assert common.sweep(range(3), _pid, max_workers=2) \
            == [os.getpid()] * 3


def _artifacts(name: str, out_dir) -> "tuple[dict, int]":
    """Run ``name`` at one epoch; its artifact bytes and event count."""
    with PROCESS.scoped("sim.events_processed") as scope:
        result = registry.run(name, {"training.epochs": 1})
    result.write_artifacts(str(out_dir))
    files = {path.name: path.read_bytes()
             for path in sorted(out_dir.iterdir())}
    return files, scope.delta


@pytest.mark.parametrize("name", SCENARIOS)
def test_pool_and_serial_write_identical_artifacts(name, tmp_path,
                                                   monkeypatch,
                                                   pool_allowed):
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", workers)
        outputs[workers] = _artifacts(name, tmp_path / workers)
    serial_files, serial_events = outputs["1"]
    assert {f"{name}.json", f"{name}.txt"} <= set(serial_files)
    assert outputs["2"] == (serial_files, serial_events)


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_sweep_call_pickles(name, monkeypatch):
    # An unpicklable point would run serially without a word; the
    # identity test above cannot see that, because the outputs match.
    calls, unpicklable = [], []
    sweep = common.sweep

    def spy(items, fn, *args, **kwargs):
        items = list(items)
        calls.append(fn)
        try:
            pickle.dumps((fn, items))
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            unpicklable.append(f"{fn!r}: {error}")
        return sweep(items, fn, *args, **kwargs)

    monkeypatch.setattr(common, "sweep", spy)
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
    registry.run(name, {"training.epochs": 1})
    assert unpicklable == []
    assert bool(calls) == (name not in NO_SWEEP), calls
