"""Discrete-event simulation engine.

This package is a small, dependency-free discrete-event simulator in the
style of SimPy: simulation *processes* are Python generators that ``yield``
events (timeouts, bare events, or composite conditions) and are resumed by
the :class:`~repro.sim.engine.Engine` when those events trigger. A timer
that nothing waits on skips the event: ``Engine.call_later`` schedules a
bare callback.

It is the substrate on which the simulated GPUs (:mod:`repro.gpu`), the
pipeline-training engine (:mod:`repro.pipeline`) and the FreeRide middleware
(:mod:`repro.core`) all run in *virtual time*, which lets the whole
multi-GPU evaluation of the paper execute deterministically on a laptop.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Interrupt, SimEvent, Timeout
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.signals import Signal

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Signal",
    "SimEvent",
    "Timeout",
]
