"""Compare the benchmark records of a parent commit and a change.

    python3 perfbench/compare.py --parent base/*.json --change new/*.json

Takes record files written by ``run.py`` (``.perfbench_work/results/``,
untraced runs) and pairs them by workload and seed. It refuses, with exit
code 1, when any record has a failed stage or check, or when the two sides
differ in machine facts, sizes or run length. For every workload and
end-to-end metric it prints each side's median and quartiles, how many
pairs the change won, and a verdict:

- ``gain``: the change won at least 9 of 10 pairs and the medians differ by
  more than the parent's own quartile spread;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread is wider than the bound;
- ``no regression`` otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME = ("machine", "sizes", "seconds", "threads")


def load(paths: list[str]) -> dict[tuple[str, int], dict]:
    records = {}
    for p in paths:
        rec = json.loads(Path(p).read_text(encoding="utf-8"))
        records[(rec["workload"], rec["seed"])] = rec
    return records


def refusal(parent: dict, change: dict) -> str | None:
    for key, rec in [*parent.items(), *change.items()]:
        bad = [c["name"] for c in rec["checks"] if not c["passed"]] + rec["errors"]
        if bad or rec["trace"]:
            return f"{key}: {'traced record' if rec['trace'] else 'failures: ' + ', '.join(bad)}"
    for key in parent.keys() & change.keys():
        for field in SAME:
            if parent[key][field] != change[key][field]:
                return f"{key}: {field} differs between the two sides"
    if not parent.keys() & change.keys():
        return "no (workload, seed) pair is on both sides"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base: list[float], new: list[float], bound: float, lower_better: bool) -> tuple[int, str]:
    """(pairs the change won, verdict); ties count for neither side."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for b, n in zip(base, new) if sign * (b - n) > 0)
    q1, mb, q3 = quartiles(base)
    mn = statistics.median(new)
    if sign * (mn - mb) / mb > bound:
        return wins, "regression"
    if (q3 - q1) / mb > bound:
        return wins, "unresolved"
    if wins >= 0.9 * len(base) and abs(mn - mb) > q3 - q1:
        return wins, "gain"
    return wins, "no regression"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    parent, change = load(args.parent), load(args.change)
    reason = refusal(parent, change)
    if reason:
        print(f"refused: {reason}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in sorted({w for w, _ in parent.keys() & change.keys()}):
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [parent[(workload, s)]["summary"][name]["value"] for s in seeds]
            new = [change[(workload, s)]["summary"][name]["value"] for s in seeds]
            wins, text = verdict(base, new, metric["bound"], metric["better"] == "lower")
            print(f"{workload:16s} {name:12s} parent {_fmt(base)}  change {_fmt(new)}  "
                  f"wins {wins}/{len(seeds)}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
