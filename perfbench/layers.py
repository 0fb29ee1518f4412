"""Per-layer self time and call counts from a cProfile run.

A layer is a subpackage of ``repro`` (``repro.sim``, ``repro.gpu``, ...).
Functions in a layer's modules count to that layer. Functions outside
the package (``heapq``, ``random``, numpy, builtins) count to the layers
that called them: cProfile records a function's self time and calls per
calling function, so each share goes to its caller's layer, and through
callers outside the package up to the nearest caller inside it. Time
with no caller inside the package counts to ``other``.
"""

from __future__ import annotations

import os

OTHER = "other"


def layer_resolver(package_dir: str, layers: "tuple[str, ...]"):
    """``filename -> layer`` for modules under ``package_dir``.

    Returns None for files outside the package, and :data:`OTHER` for
    package modules outside ``layers``.
    """
    prefix = os.path.abspath(package_dir) + os.sep

    def layer_of(filename: str) -> "str | None":
        if not filename.startswith(prefix):
            return None
        head = filename[len(prefix):].split(os.sep, 1)[0]
        return head if head in layers else OTHER

    return layer_of


def attribute(stats: dict, layer_of) -> "tuple[dict, dict]":
    """Split ``pstats``-style ``stats`` into per-layer self seconds and
    calls: ``({layer: seconds}, {layer: calls})``.

    ``stats`` maps ``(filename, line, name)`` to ``(primitive calls,
    calls, self time, cumulative time, callers)``; ``callers`` maps each
    caller to ``(calls, primitive calls, self time, cumulative time)``
    of the callee under that caller.
    """
    shares_of: dict = {}

    def shares(func) -> dict:
        """Fraction of ``func``'s work done on behalf of each layer."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares_of:
            return shares_of[func]
        shares_of[func] = {OTHER: 1.0}  # breaks recursion cycles
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        result: dict = {}
        if total > 0:
            for caller, edge in callers.items():
                for name, fraction in shares(caller).items():
                    result[name] = (result.get(name, 0.0)
                                    + fraction * edge[3] / total)
        shares_of[func] = result or {OTHER: 1.0}
        return shares_of[func]

    seconds: dict = {}
    calls: dict = {}

    def charge(func, self_s: float, ncalls: int) -> None:
        for name, fraction in shares(func).items():
            seconds[name] = seconds.get(name, 0.0) + fraction * self_s
            calls[name] = calls.get(name, 0.0) + fraction * ncalls

    for func, (_prim, ncalls, self_s, _cum, callers) in stats.items():
        if layer_of(func[0]) is not None:
            charge(func, self_s, ncalls)
            continue
        # Calls made from outside the profiled region have no caller
        # entry; their share stays with ``other``.
        for caller, edge in callers.items():
            charge(caller, edge[2], edge[0])
            self_s -= edge[2]
            ncalls -= edge[0]
        seconds[OTHER] = seconds.get(OTHER, 0.0) + max(self_s, 0.0)
        calls[OTHER] = calls.get(OTHER, 0.0) + max(ncalls, 0)
    return seconds, calls
