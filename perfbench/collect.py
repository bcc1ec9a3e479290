#!/usr/bin/env python3
"""Run the benchmark over several seeds and save every run as a JSON line.

    python3 perfbench/collect.py --out runs.jsonl
    python3 perfbench/collect.py --seeds 1-10 --trace 1 --out traced.jsonl
    python3 perfbench/collect.py --root ../parent --out parent.jsonl \\
                                 --root . --out change.jsonl

Each run is a fresh process started with the command in the checkout's
``BENCHMARK.json``, from the root of that checkout.  With two or more
``--root``/``--out`` pairs the checkouts run in turn for each workload and
seed, and the side that goes first alternates from seed to seed.  Compare
the files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "returncode": proc.returncode,
              "elapsed_s": time.perf_counter() - started,
              "result": None, "info": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        for line in lines:
            if line.startswith("perfbench-info "):
                record["info"] = json.loads(line[len("perfbench-info "):])
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", action="append", required=True,
                        help="JSON-lines file to append runs to (one per --root)")
    parser.add_argument("--root", action="append", default=None,
                        help="checkout to run (default: this one)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    roots = [Path(r).resolve() for r in (args.root or [ROOT])]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")

    failures = 0
    for workload in args.workloads.split(","):
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = list(range(len(roots)))
            if i % 2:
                order.reverse()
            for k in order:
                rec = run_one(roots[k], workload, seed, bench["run_seconds"], args.trace)
                with open(args.out[k], "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                res = rec["result"]
                ok = res is not None and res["correct"]
                failures += not ok
                summary = " ".join(f"{name}={m['value']:.4g}"
                                   for name, m in list(res["metrics"].items())[:4]) \
                    if res else f"exit {rec['returncode']}"
                print(f"{roots[k].name:>12} {workload:>10} seed {seed:>3}: "
                      f"{'ok ' if ok else 'BAD'} {summary}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
