"""Round-trip tests for the offline-plotting trace exporters."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.gpu.cluster import make_server_i
from repro.gpu.device import SimGPU
from repro.metrics.traces import (
    bubbles_json,
    memory_csv,
    occupancy_csv,
    ops_csv,
    trace_summary,
)
from repro.pipeline.config import TrainConfig, model_config
from repro.pipeline.engine import PipelineEngine
from repro.sim.engine import Engine


@pytest.fixture(scope="module")
def training():
    """One short recorded training run shared by the module's tests."""
    sim = Engine()
    server = make_server_i(sim, record_occupancy=True)
    config = TrainConfig(model=model_config("3.6B"), epochs=2)
    result = PipelineEngine(sim, server, config).run()
    return result, server


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestOccupancyCsv:
    def test_round_trip(self, training):
        _, server = training
        gpu = server.gpus[0]
        rows = _rows(occupancy_csv(gpu))
        assert len(rows) == len(gpu.occupancy_trace)
        for row, (time, total, tr, side) in zip(rows, gpu.occupancy_trace):
            assert float(row["time_s"]) == pytest.approx(time, abs=1e-6)
            assert float(row["occupancy"]) == pytest.approx(total, abs=1e-3)
            assert float(row["training"]) == pytest.approx(tr, abs=1e-3)
            assert float(row["side"]) == pytest.approx(side, abs=1e-3)

    def test_non_recording_device_raises(self):
        gpu = SimGPU(Engine(), "gpu0", memory_gb=16.0)
        with pytest.raises(ValueError, match="record_occupancy=False"):
            occupancy_csv(gpu)

    def test_error_message_is_one_sentence(self):
        gpu = SimGPU(Engine(), "gpu0", memory_gb=16.0)
        with pytest.raises(ValueError) as excinfo:
            occupancy_csv(gpu)
        message = str(excinfo.value)
        assert message.startswith("gpu0 has no occupancy trace")
        assert "record_occupancy=True" in message


class TestMemoryCsv:
    def test_round_trip(self, training):
        _, server = training
        gpu = server.gpus[0]
        rows = _rows(memory_csv(gpu))
        assert len(rows) == len(gpu.memory_trace)
        for row, (time, used) in zip(rows, gpu.memory_trace):
            assert float(row["time_s"]) == pytest.approx(time, abs=1e-6)
            assert float(row["used_gb"]) == pytest.approx(used, abs=1e-3)


class TestOpsCsv:
    def test_round_trip(self, training):
        result, _ = training
        rows = _rows(ops_csv(result.trace))
        assert len(rows) == len(result.trace.ops)
        for row, record in zip(rows, result.trace.ops):
            assert int(row["epoch"]) == record.epoch
            assert int(row["stage"]) == record.op.stage
            assert row["kind"] == record.op.kind.value
            assert int(row["micro_batch"]) == record.op.micro_batch
            assert float(row["start_s"]) == pytest.approx(
                record.start, abs=1e-6
            )
            assert float(row["end_s"]) == pytest.approx(record.end, abs=1e-6)


class TestBubblesJson:
    def test_round_trip(self, training):
        result, _ = training
        bubbles = json.loads(bubbles_json(result.trace))
        assert len(bubbles) == len(result.trace.bubbles)
        for entry, bubble in zip(bubbles, result.trace.bubbles):
            assert entry["epoch"] == bubble.epoch
            assert entry["stage"] == bubble.stage
            assert entry["index"] == bubble.index
            assert entry["type"] == bubble.btype.value
            assert entry["start_s"] == pytest.approx(bubble.start, abs=1e-6)
            assert entry["duration_s"] == pytest.approx(
                bubble.duration, abs=1e-6
            )
            assert entry["available_gb"] == pytest.approx(
                bubble.available_gb, abs=1e-3
            )

    def test_output_is_stable(self, training):
        result, _ = training
        assert bubbles_json(result.trace) == bubbles_json(result.trace)


class TestTraceSummary:
    def test_digest_matches_trace(self, training):
        result, _ = training
        summary = trace_summary(result.trace)
        assert summary["epochs"] == len(result.trace.epochs)
        assert summary["ops"] == len(result.trace.ops)
        assert summary["bubble_count"] == len(result.trace.bubbles)
        assert json.dumps(summary)  # JSON-serializable digest

    def test_bubble_rate_is_in_the_papers_range(self, training):
        result, _ = training
        assert 0.3 < trace_summary(result.trace)["bubble_rate"] < 0.5
