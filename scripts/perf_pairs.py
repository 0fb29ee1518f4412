"""Compare two checkouts on perfbench in alternating pairs.

    python scripts/perf_pairs.py PARENT CHANGE --workload cluster --pairs 10
    python scripts/perf_pairs.py PARENT CHANGE --workload serve --pairs 6 \
        --seconds 10 --seed 40

``PARENT`` and ``CHANGE`` are two checkouts of this repository (for
instance the parent commit, made with ``git archive``, and the working
tree). Pair ``i`` runs ``perfbench/run.py --workload W --seed S+i
--seconds T --trace 0`` in each checkout, one after the other; the
parent goes first in even pairs and the change in odd ones, so a drift
in the host's speed favours neither side. The script prints every run's
end-to-end metrics with its ``correct`` and ``failed``, then per metric
each side's median and quartiles, the change's median against the
parent's, the pairs the change won (lower is better for every metric),
the parent's quartile distance, which the difference of the medians
must exceed to count, and a verdict (:func:`verdict`). It exits
non-zero when a run fails or reports an incorrect or failed scenario.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    return args


def perfbench(checkout: pathlib.Path, workload: str, seed: int,
              seconds: float) -> dict | None:
    """The JSON result of one perfbench run, or None if it crashed."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(parent: list[float], change: list[float]) -> str:
    """``gain``, ``loss`` or ``unresolved`` for a lower-is-better metric
    over pairs of runs (``parent[i]`` against ``change[i]``).

    A gain: the change is lower in at least 9/10 of the pairs and its
    median is below the parent's by more than the parent's quartile
    distance. A loss is the mirror: higher in at least 9/10 of the pairs
    and above by more than that distance. Anything else is unresolved.
    """
    low, median, high = quartiles(parent)
    gap = statistics.median(change) - median
    lower = sum(new < old for old, new in zip(parent, change))
    higher = sum(new > old for old, new in zip(parent, change))
    if 10 * lower >= 9 * len(parent) and -gap > high - low:
        return "gain"
    if 10 * higher >= 9 * len(parent) and gap > high - low:
        return "loss"
    return "unresolved"


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    ok = True
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = perfbench(checkouts[side], args.workload, seed,
                               args.seconds)
            if result is None:
                print(f"pair {pair} seed {seed} {side}: perfbench failed")
                return 1
            results[side].append(result)
            metrics = "  ".join(
                f"{name} {entry['value']:.6g}"
                for name, entry in result["metrics"].items())
            print(f"pair {pair} seed {seed} {side:6s} {metrics}  "
                  f"correct {result['correct']}  failed {result['failed']}",
                  flush=True)
            ok = ok and result["correct"] and result["failed"] == 0
    names = list(results["parent"][0]["metrics"])
    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    for name in names:
        values = {side: [result["metrics"][name]["value"]
                         for result in results[side]] for side in SIDES}
        low, parent, high = quartiles(values["parent"])
        c_low, change, c_high = quartiles(values["change"])
        wins = sum(new < old for old, new in zip(values["parent"],
                                                 values["change"]))
        print(f"  {name:11s} parent {parent:.6g} [{low:.6g}, {high:.6g}]  "
              f"change {change:.6g} [{c_low:.6g}, {c_high:.6g}]  "
              f"{(change - parent) / parent:+.1%}  "
              f"change lower in {wins} of {args.pairs}  "
              f"parent quartile distance {high - low:.6g}  "
              f"{verdict(values['parent'], values['change'])}")
    if not ok:
        print("some run was incorrect or had failed scenarios")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
