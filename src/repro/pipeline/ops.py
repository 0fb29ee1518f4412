"""Pipeline operations and their dependency rules.

The dependency structure is what creates bubbles (paper section 2.1):

* ``FP(s, m)`` needs ``FP(s-1, m)`` — activations arriving from upstream;
* ``BP(s, m)`` needs ``BP(s+1, m)`` — gradients arriving from downstream —
  and, on the last stage, ``FP(S-1, m)``;
* every ``BP(s, m)`` also needs its own ``FP(s, m)`` (stored activations).
"""

from __future__ import annotations

import dataclasses
import enum


class OpKind(enum.Enum):
    FORWARD = "FP"
    BACKWARD = "BP"


@dataclasses.dataclass(frozen=True)
class Op:
    """One forward or backward pass of one micro-batch at one stage."""

    stage: int
    micro_batch: int
    kind: OpKind

    def __str__(self) -> str:
        return f"{self.kind.value}(s{self.stage},m{self.micro_batch})"


def dependencies(op: Op, num_stages: int) -> list[Op]:
    """Cross-stage (and FP-before-BP) dependencies of ``op``."""
    deps: list[Op] = []
    if op.kind is OpKind.FORWARD:
        if op.stage > 0:
            deps.append(Op(op.stage - 1, op.micro_batch, OpKind.FORWARD))
    else:
        deps.append(Op(op.stage, op.micro_batch, OpKind.FORWARD))
        if op.stage < num_stages - 1:
            deps.append(Op(op.stage + 1, op.micro_batch, OpKind.BACKWARD))
    return deps


@dataclasses.dataclass(frozen=True)
class OpRecord:
    """Execution interval of one op, for traces and Figure 1."""

    epoch: int
    op: Op
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start
