"""The sweep executor, the no-side-task baseline, and rendering helpers."""

from __future__ import annotations

import concurrent.futures
import functools
import os
import pickle
import typing

from repro.gpu.cluster import make_server_i
from repro.pipeline.config import TrainConfig, model_config
from repro.pipeline.engine import solo_training, training_streams
from repro.sim import engine as sim_engine
from repro.sim.engine import Engine

#: default epochs for experiments (the paper runs 128; epochs are
#: repetitive, so rates and ratios are unchanged)
DEFAULT_EPOCHS = 8
SEED = 0

#: set in pool workers so nested sweeps stay serial
_IN_SWEEP_WORKER = False


def _worker_init() -> None:
    global _IN_SWEEP_WORKER
    _IN_SWEEP_WORKER = True


def _sweep_call(fn, item):
    """Pool-side wrapper: run one point and report its event count."""
    from repro.obs.telemetry import PROCESS

    with PROCESS.scoped("sim.events_processed") as scope:
        result = fn(item)
    return result, scope.delta


def sweep_workers() -> int:
    """Worker count for :func:`sweep`: REPRO_SWEEP_WORKERS or the CPU count.

    Rejects garbage and non-positive values outright — a silently
    clamped or ignored setting runs the sweep at a parallelism the user
    did not ask for, which is far harder to notice than an error.
    """
    from repro.errors import SweepConfigError

    env = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise SweepConfigError(
            f"REPRO_SWEEP_WORKERS must be a positive integer, got {env!r}"
        ) from None
    if workers < 1:
        raise SweepConfigError(
            f"REPRO_SWEEP_WORKERS must be a positive integer, got {workers}"
        )
    return workers


def sweep(
    items: typing.Iterable,
    fn: typing.Callable,
    max_workers: int | None = None,
) -> list:
    """Run ``fn(item)`` for every item and return the results in order.

    Every experiment point is an independent, fully seeded simulation, so
    the sweep fans them across a :class:`~concurrent.futures.
    ProcessPoolExecutor` when the machine has spare cores. Results are
    identical to the serial path *provided each point is self-contained*:
    ordering is preserved, and ``fn`` must derive all randomness from its
    arguments (explicit task names / seeds), never from process-global
    counters — a default :class:`~repro.core.task_spec.TaskSpec` name
    embeds one and would differ between pool workers and the parent.

    Runs serially when parallelism cannot help or would misbehave: a
    single item, ``max_workers=1`` (or ``REPRO_SWEEP_WORKERS=1``, or a
    1-CPU host), inside a pytest-xdist worker, nested inside another
    sweep, or when ``fn`` or an item cannot be pickled (a lambda, a
    local function, a lock). A pool torn down under the sweep also
    falls back to a serial run. Errors raised *by fn* propagate
    unchanged, and no point runs twice for them.
    """
    items = list(items)
    if not items:
        return []
    if _IN_SWEEP_WORKER:
        return [fn(item) for item in items]
    if max_workers is None:
        max_workers = sweep_workers()
    max_workers = min(max_workers, len(items))
    if (
        max_workers <= 1
        or os.environ.get("PYTEST_XDIST_WORKER")
    ):
        return [fn(item) for item in items]
    try:
        pickle.dumps((fn, items))
    except (pickle.PicklingError, AttributeError, TypeError):
        # The pool cannot ship fn or an item to its workers.
        return [fn(item) for item in items]
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, initializer=_worker_init
        ) as pool:
            outcomes = list(pool.map(functools.partial(_sweep_call, fn), items))
    except concurrent.futures.process.BrokenProcessPool:
        # A worker died under the pool: the points themselves are fine,
        # only the transport failed — run them serially.
        return [fn(item) for item in items]
    results = []
    for result, events in outcomes:
        sim_engine.add_foreign_events(events)
        results.append(result)
    return results


def train_config(size: str = "3.6B", micro_batches: int = 4,
                 epochs: int = DEFAULT_EPOCHS, seed: int = SEED) -> TrainConfig:
    return TrainConfig(
        model=model_config(size),
        micro_batches=micro_batches,
        epochs=epochs,
        op_jitter=0.01,
        seed=seed,
    )


@functools.lru_cache(maxsize=32)
def baseline_time(config: TrainConfig) -> float:
    """T_noSideTask for this configuration, cached on the whole config:
    the schedule, stage count and op jitter shape the time as much as the
    model, micro-batches, epochs and seed do.

    With nothing co-located the run is computed from the op plan
    (:func:`~repro.pipeline.engine.solo_training`), not simulated; it
    equals a :class:`~repro.pipeline.engine.PipelineEngine` run on
    Server I with the same jitter stream float for float, and the tests
    check it against one."""
    result = solo_training(make_server_i(Engine()), config,
                           training_streams(config))
    return result.total_time


def render_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table, the shape the paper's tables print in."""
    widths = [
        max(len(str(headers[col])), *(len(str(row[col])) for row in rows))
        if rows else len(str(headers[col]))
        for col in range(len(headers))
    ]
    def fmt(cells):
        return "  ".join(str(cell).ljust(width)
                         for cell, width in zip(cells, widths))
    lines = [title, fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def pct(value: float) -> str:
    return f"{100 * value:.1f}%"
