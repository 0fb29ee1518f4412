"""Server definitions matching the paper's testbeds (section 6.1.1).

* **Server-I** — 4x RTX 6000 Ada (48 GB each), $3.96/hour: runs pipeline
  training and, during bubbles, the side tasks.
* **Server-II** — 1x RTX 3080 (10 GB), $0.18/hour: the dedicated lower-tier
  GPU the cost model prices side tasks against.
* **Server-CPU** — 8-core Xeon: the CPU comparison point of Table 1.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import calibration
from repro.gpu.device import SimGPU
from repro.gpu.mps import MpsControl
from repro.gpu.sharing import SharingMode

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


@dataclasses.dataclass
class Server:
    """A (possibly GPU-less) server with an hourly price."""

    name: str
    engine: "Engine"
    gpus: list[SimGPU]
    price_per_hour: float
    is_cpu_only: bool = False
    mps: MpsControl | None = None

    def gpu(self, index: int) -> SimGPU:
        return self.gpus[index]

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)


def make_server_i(engine: "Engine", sharing: SharingMode = SharingMode.MPS,
                  record_occupancy: bool = False) -> Server:
    """The 4x RTX 6000 Ada training server.

    ``record_occupancy`` enables the per-GPU SM-occupancy trace; only the
    experiments that plot it (Figures 1 and 8) should pay for it.
    """
    gpus = [
        SimGPU(
            engine,
            name=f"gpu{i}",
            memory_gb=calibration.SERVER_I_GPU_MEMORY_GB,
            sharing=sharing,
            record_occupancy=record_occupancy,
        )
        for i in range(calibration.SERVER_I_NUM_GPUS)
    ]
    return Server(
        name="server-i",
        engine=engine,
        gpus=gpus,
        price_per_hour=calibration.SERVER_I_PRICE_PER_HOUR,
        mps=MpsControl(gpus),
    )


def make_recording_server_i(engine: "Engine") -> Server:
    """Server I with the SM-occupancy trace on (Figures 1 and 8)."""
    return make_server_i(engine, record_occupancy=True)


def make_server_ii(engine: "Engine") -> Server:
    """The RTX 3080 server used to price dedicated side-task execution."""
    gpu = SimGPU(
        engine,
        name="rtx3080",
        memory_gb=calibration.SERVER_II_GPU_MEMORY_GB,
        sharing=SharingMode.EXCLUSIVE,
    )
    return Server(
        name="server-ii",
        engine=engine,
        gpus=[gpu],
        price_per_hour=calibration.SERVER_II_PRICE_PER_HOUR,
        mps=None,
    )


def make_server_cpu(engine: "Engine") -> Server:
    """The 8-core CPU server of Table 1 (no GPUs)."""
    return Server(
        name="server-cpu",
        engine=engine,
        gpus=[],
        price_per_hour=calibration.SERVER_CPU_PRICE_PER_HOUR,
        is_cpu_only=True,
    )
