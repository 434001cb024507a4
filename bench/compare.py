"""Compare two sets of benchmark results, or show the spread of one.

    python3 bench/compare.py PARENT CHANGE
    python3 bench/compare.py RESULTS

Each argument is a ``results.jsonl`` written by ``run.py`` or a directory
holding one.  Only untraced runs count.  For each workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
spread (quartile distance over the median) and, for two sets, the pair win
count and a verdict:

- ``gain``: the change wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the parent's quartile distance;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: a side's spread exceeds the bound and not every change run
  beats every parent run;
- ``same``: none of these.

Runs pair by seed where both sides ran it, otherwise in file order.  With
one set the verdict says whether the spread is within the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(arg: str) -> dict[str, list[dict]]:
    path = Path(arg)
    if path.is_dir():
        path = path / "results.jsonl"
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["env"]["seed"]: r for r in change}
    matched = [(p, by_seed[p["env"]["seed"]]) for p in parent if p["env"]["seed"] in by_seed]
    if matched:
        return matched
    return list(zip(parent, change))


def verdict(metric: dict, parent: list[float], change: list[float], wins: int, n: int) -> str:
    bound, higher = metric["bound"], metric["better"] == "higher"
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse = (pm - cm if higher else cm - pm) / abs(pm)
    all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if n and wins >= 0.9 * n and abs(cm - pm) > p3 - p1 and worse < 0:
        return "gain"
    if worse > bound:
        return "regression"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(a) for a in argv]
    failed = 0
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        sides = [s.get(workload, []) for s in sets]
        if not all(sides):
            print("   missing on one side")
            continue
        for side, name in zip(sides, ("parent", "change") if len(sets) == 2 else ("runs",)):
            bad = sum(r["failed"] for r in side)
            failed += bad
            print(f"   {name}: {len(side)} runs, {bad} failed ops of "
                  f"{sum(r['attempted'] for r in side)}")
        for metric in SPEC["end_to_end"]:
            m = metric["name"]
            vals = [[r["metrics"][m] for r in side] for side in sides]
            cols = []
            for v in vals:
                q1, q2, q3 = quartiles(v)
                cols.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread(v):.3f}")
            if len(sets) == 1:
                state = "steady" if spread(vals[0]) <= metric["bound"] else "unsteady"
                print(f"   {m:12} {cols[0]}  bound {metric['bound']}  {state}")
                continue
            matched = pairs(*sides)
            higher = metric["better"] == "higher"
            wins = sum((c["metrics"][m] > p["metrics"][m]) if higher else
                       (c["metrics"][m] < p["metrics"][m]) for p, c in matched)
            losses = sum((c["metrics"][m] < p["metrics"][m]) if higher else
                         (c["metrics"][m] > p["metrics"][m]) for p, c in matched)
            v = verdict(metric, vals[0], vals[1], wins, len(matched))
            print(f"   {m:12} parent {cols[0]} | change {cols[1]} | "
                  f"wins {wins}/{len(matched)} losses {losses} | bound {metric['bound']} | {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
