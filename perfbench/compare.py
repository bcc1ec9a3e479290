#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py runs.jsonl               # spread check
    python3 perfbench/compare.py parent.jsonl change.jsonl

Inputs are files written by ``collect.py``.  For one set it prints, per
workload and end-to-end metric, the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, against the metric's
bound from ``BENCHMARK.json``.

For two sets (A the parent, B the change) it pairs runs by seed and gives
per metric: both medians and quartiles, the ratio B/A of the medians, the
pairs B wins, and a verdict:

* ``better``: B wins at least 9 of every 10 pairs (10 pairs at least) and
  the medians differ by more than A's quartile distance;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: neither, and the spread of A or B is wider than the
  bound, unless every run of B reads better than every run of A;
* ``same``: neither, within the bound.

It also reports how many seeds gave bit-identical output digests, and, for
traced runs, the per-layer medians side by side.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def by_workload(runs: list[dict], trace: int) -> dict[str, dict[int, dict]]:
    """workload -> seed -> run, for runs that produced a result."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    for run in runs:
        if run["trace"] == trace and run["result"] is not None:
            out[run["workload"]][run["seed"]] = run
    return out


def values(runs: dict[int, dict], metric: str) -> list[float]:
    return [runs[s]["result"]["metrics"][metric]["value"] for s in sorted(runs)]


def failures(runs: dict[int, dict]) -> str:
    attempted = sum(r["result"]["attempted"] for r in runs.values())
    failed = sum(r["result"]["failed"] for r in runs.values())
    return f"{failed}/{attempted} operations failed"


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    def gain(x, y):   # how much better y is than x
        return x - y if lower_is_better else y - x

    wins = sum(gain(x, y) > 0 for x, y in pairs)
    q1a, med_a, q3a = quartiles(a)
    med_b = quartiles(b)[1]
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain(med_a, med_b) > q3a - q1a):
        return "better", wins
    if -gain(med_a, med_b) > bound * abs(med_a):
        return "worse", wins
    b_beats_all = all(gain(x, y) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not b_beats_all:
        return "unresolved", wins
    return "same", wins


def summarize_one(runs: list[dict], bench: dict) -> None:
    for workload, seeded in sorted(by_workload(runs, 0).items()):
        print(f"{workload}: {len(seeded)} runs, {failures(seeded)}")
        for m in bench["end_to_end"]:
            vals = values(seeded, m["name"])
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            mark = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"]
                                                     else "TOO WIDE")
            print(f"  {m['name']:>12} median {med:10.4f} {m['unit']:<3} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {s:6.3f} "
                  f"bound {m['bound']:.2f} {mark}")


def compare(runs_a: list[dict], runs_b: list[dict], bench: dict) -> None:
    a_all, b_all = by_workload(runs_a, 0), by_workload(runs_b, 0)
    for workload in sorted(set(a_all) & set(b_all)):
        a, b = a_all[workload], b_all[workload]
        common = sorted(set(a) & set(b))
        print(f"{workload}: A {len(a)} runs ({failures(a)}), "
              f"B {len(b)} runs ({failures(b)}), {len(common)} pairs by seed")
        for m in bench["end_to_end"]:
            va, vb = values(a, m["name"]), values(b, m["name"])
            pairs = [(a[s]["result"]["metrics"][m["name"]]["value"],
                      b[s]["result"]["metrics"][m["name"]]["value"]) for s in common]
            q1a, meda, q3a = quartiles(va)
            q1b, medb, q3b = quartiles(vb)
            v, wins = verdict(va, vb, pairs, m["bound"], m["better"] == "lower")
            print(f"  {m['name']:>12} A {meda:9.4f} [{q1a:.4f}, {q3a:.4f}]  "
                  f"B {medb:9.4f} [{q1b:.4f}, {q3b:.4f}]  B/A {medb / meda:6.3f}  "
                  f"B wins {wins}/{len(pairs)}  {v}")
        same = sum(a[s]["info"]["digest"] == b[s]["info"]["digest"] for s in common)
        print(f"  output digests bit-identical on {same}/{len(common)} seeds")

    ta, tb = by_workload(runs_a, 1), by_workload(runs_b, 1)
    for workload in sorted(set(ta) & set(tb)):
        print(f"{workload} per layer (median of traced runs), A -> B:")
        for m in bench["per_layer"]:
            va, vb = values(ta[workload], m["name"]), values(tb[workload], m["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma == 0 and mb == 0:
                continue
            ratio = f"{mb / ma:7.3f}" if ma else "      -"
            print(f"  {m['name']:<54} {ma:12.6g} -> {mb:12.6g} {m['unit']:<6} B/A {ratio}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        summarize_one(load(argv[0]), bench)
    else:
        compare(load(argv[0]), load(argv[1]), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
