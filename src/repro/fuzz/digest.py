"""Deterministic, JSON-safe digests of run results.

The differential harness compares two runs of the "same" scenario by
digesting each result into a plain dict and serializing it with
``json.dumps(..., sort_keys=True)``. Two digests are equal iff the runs
agreed on every counter, latency statistic, per-record summary, and
fairness/resilience figure the digest covers — which is exactly the
byte-identical contract the determinism tests already pin for exports.

Two flavours:

- :func:`digest_result` — the full digest: counters, quantiles, a hash
  over every per-record summary, task reports, fairness/resilience
  summaries. Frames that promise *byte-identical* behaviour
  (JSON-round-trip, pool-vs-serial, traced-vs-untraced) compare these.
- :func:`exact_digest` — the full digest minus everything the streaming
  metrics mode only bounds rather than matches: quantile estimates
  (P² sketches vs exact sorted lists) and the per-record hash (the
  streaming accumulator drops records). Counts, means, extremes,
  fairness counters, and resilience accounting remain — those are exact
  in both modes, so records-vs-streaming compares this subset.
"""

from __future__ import annotations

import hashlib
import json
import re
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.api.spec import ScenarioSpec

#: dict keys that only exist as sketch-estimated quantiles in streaming
#: mode ("p50", "queueing_p95", ...) — stripped from the exact subset.
_QUANTILE_KEY = re.compile(r"(^|_)p\d{2}$")


def _round(value: float) -> float:
    """Stabilize float repr across json encoders (no-op for our runs,
    but keeps digests short and diff-friendly)."""
    return float(f"{value:.12g}")


def _latency(stats) -> dict:
    return {
        "count": stats.count,
        "mean": _round(stats.mean),
        "max": _round(stats.max),
        "p50": _round(stats.p50),
        "p95": _round(stats.p95),
        "p99": _round(stats.p99),
    }


def _records_hash(records) -> str:
    payload = json.dumps(
        [record.summary() for record in records], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _serving(metrics, records) -> dict:
    out = {
        "offered": metrics.offered,
        "admitted": metrics.admitted,
        "rejected": metrics.rejected,
        "assigned": metrics.assigned,
        "completed": metrics.completed,
        "slo_met": metrics.slo_met,
        "failed": metrics.failed,
        "unserved": metrics.unserved,
        "duration_s": _round(metrics.duration_s),
        "queueing": _latency(metrics.queueing),
        "completion": _latency(metrics.completion),
    }
    if records is not None:
        out["records"] = _records_hash(records)
    return out


def _task(report) -> dict:
    return {
        "name": report.name,
        "interface": report.interface,
        "stage": report.stage,
        "final_state": report.final_state.value,
        "failure": report.failure,
        "steps_done": report.steps_done,
        "units_done": _round(report.units_done),
        "running_s": _round(report.running_s),
        "overhead_s": _round(report.overhead_s),
        "preemptions": report.preemptions,
        "restores": report.restores,
        "checkpoints": report.checkpoints,
        "wasted_steps": report.wasted_steps,
        "wasted_s": _round(report.wasted_s),
        "step_failures": report.step_failures,
    }


def _training(training) -> dict:
    return {
        "total_time": _round(training.total_time),
        "mean_epoch_time": _round(training.mean_epoch_time),
        "ops": len(training.trace.ops),
        "bubbles": len(training.trace.bubbles),
    }


def digest_result(spec: "ScenarioSpec", result) -> dict:
    """Digest any runner result (serving/batch/cluster/pipeline) into a
    JSON-safe dict; equal dicts == behaviourally identical runs."""
    digest: dict = {"kind": spec.kind}

    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        digest["serving"] = _serving(metrics, getattr(result, "records", None))
    fairness = getattr(result, "fairness", None)
    if fairness is not None:
        digest["fairness"] = fairness.summary()
    resilience = getattr(result, "resilience", None)
    if resilience is not None:
        digest["resilience"] = {
            key: (_round(value) if isinstance(value, float) else value)
            for key, value in resilience.summary().items()
        }

    tasks = getattr(result, "tasks", None)
    if tasks is not None:
        digest["tasks"] = [_task(report) for report in tasks]
    rejections = getattr(result, "rejections", None)
    if rejections is not None:
        digest["rejections"] = [list(pair) for pair in rejections]

    jobs = getattr(result, "jobs", None)
    if jobs is not None:  # ClusterResult
        digest["jobs"] = [
            {
                "name": job.name,
                "training": _training(job.training),
                "bubble_s": _round(job.bubble_time_s),
                "harvested_s": _round(job.harvested_s),
            }
            for job in jobs
        ]
    training = getattr(result, "training", None)
    if training is not None:  # FreeRideResult / ServingResult
        digest["training"] = _training(training)
    if hasattr(result, "total_time"):  # bare TrainingResult (pipeline)
        digest["training"] = _training(result)
    return digest


def _strip_estimates(node):
    if isinstance(node, dict):
        return {
            key: _strip_estimates(value)
            for key, value in node.items()
            if not _QUANTILE_KEY.search(key) and key != "records"
        }
    if isinstance(node, list):
        return [_strip_estimates(item) for item in node]
    return node


def exact_digest(spec: "ScenarioSpec", result) -> dict:
    """The subset of :func:`digest_result` that is exact in *both*
    metrics modes: counts, means, extremes, fairness counters,
    resilience accounting — no quantile sketches, no per-record hash."""
    return _strip_estimates(digest_result(spec, result))
