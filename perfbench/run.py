#!/usr/bin/env python3
"""lapasym benchmark: one run of one workload.

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there, and nothing outside the checkout is read or written.

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload (see ``workloads.py``) repeats as a closed loop until
``--seconds`` have passed, and the run reports the median wall and CPU
seconds per repetition, the process's peak RSS, and ``setup_s``, the
median over several fresh interpreters of the time ``import lapasym``
takes.  ``--trace 1`` gives the per-layer metrics: each round runs the
layered call sequence three times, with tracing off, with spans, and with
spans plus ``tracemalloc``, and the differences between those passes are
the tracing and ``tracemalloc`` overheads.  Spans are written to
``.perfbench/trace-<workload>-s<seed>.json`` in the checkout.

Every output is checked; an operation that raises or misses its check
counts as failed.  The last line of standard output is the JSON result;
the line before it, starting with ``perfbench-info``, holds the
environment, the output digest and the per-size accuracy numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PER_ROUND = 1   # import probes after each repetition
SETUP_MIN = 7

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import lapasym\n"
    "t1 = time.perf_counter()\n"
    "assert lapasym.__file__.startswith(sys.argv[1]), lapasym.__file__\n"
    "print(t1 - t0)\n"
)


def _import_once(importtime: bool) -> tuple[float, dict[str, float]]:
    """Seconds a fresh interpreter spends in ``import lapasym``.

    With ``importtime`` also returns the cumulative import seconds of each
    top-level package, parsed from ``-X importtime``.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", _IMPORT_PROBE, str(SRC)]
    # bytecode caches on, as for an installed package, whatever the caller's setting
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    packages = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            packages.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return float(proc.stdout.strip().splitlines()[-1]), packages


def summarize_setup(samples) -> tuple[float, dict[str, float]]:
    """Median import seconds, and per package when -X importtime was on."""
    seconds = statistics.median(r[0] for r in samples)
    packages = {name: statistics.median(r[1].get(name, 0.0) for r in samples)
                for name in ("numpy", "lapasym")}
    return seconds, packages


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import lapasym
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lapasym": lapasym.__version__,
        "LAPASYM_WORKERS": os.environ.get("LAPASYM_WORKERS"),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def run_pass(workload, inputs, reference, workdir, layered, tracer):
    """One execution of the workload -> (wall s, cpu s, checks, accuracy)."""
    import workloads
    checks = workloads.Checks()
    ctx = workloads.Context(tracer, checks, layered, workdir, reference)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with tracer:
            workloads.WORKLOADS[workload](inputs, ctx)
    except Exception:   # a raising operation is a failed one; keep measuring
        checks.op("workload raised", False, traceback.format_exc(limit=3))
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return t1 - t0, cpu, checks, ctx.accuracy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lapasym benchmark run")
    parser.add_argument("--workload", required=True,
                        choices=("figure1", "large-n", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lapasym" / "__init__.py").is_file():
        print(f"perfbench: no lapasym package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _import_once(False)  # writes the bytecode caches a user's second call has

    import lapasym
    import layers
    import workloads
    from spans import Tracer
    if not Path(lapasym.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported lapasym from {lapasym.__file__}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = workloads.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    attempted = failed = 0
    misses: list[str] = []
    digests: list[str] = []
    accuracy: list[dict] = []
    walls: list[float] = []
    cpus: list[float] = []
    rounds: list[dict] = []
    setup_samples: list[tuple] = []
    all_spans: list[dict] = []

    def tally(checks, acc):
        nonlocal attempted, failed, accuracy
        attempted += checks.attempted
        failed += checks.failed
        misses.extend(checks.misses[: 20 - len(misses)])
        digests.append(checks.hexdigest())
        accuracy = acc

    try:
        origin = time.perf_counter()
        rnd = 0
        while True:
            if args.trace:
                passes = {}
                for mode in ("off", "spans", "alloc"):
                    tracer = Tracer(f"{args.workload}-s{args.seed}-r{rnd}-{mode}",
                                    enabled=mode != "off", track_alloc=mode == "alloc",
                                    origin=origin)
                    wall, _cpu, checks, acc = run_pass(
                        args.workload, inputs, reference, workdir, True, tracer)
                    tally(checks, acc)
                    passes[mode] = (wall, tracer.spans)
                    all_spans.extend(tracer.spans)
                rounds.append(layers.round_metrics(passes, acc))
            else:
                wall, cpu, checks, acc = run_pass(
                    args.workload, inputs, reference, workdir, False,
                    Tracer("", enabled=False))
                tally(checks, acc)
                walls.append(wall)
                cpus.append(cpu)
            rnd += 1
            # import probes spread over the run, so a slow spell of the
            # machine does not hit all of them
            setup_samples += [_import_once(bool(args.trace))
                              for _ in range(SETUP_PER_ROUND)]
            if time.perf_counter() - origin >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(setup_samples) < SETUP_MIN:
        setup_samples.append(_import_once(bool(args.trace)))
    setup_s, import_split = summarize_setup(setup_samples)

    # the same inputs must give the same outputs on every repetition
    attempted += 1
    if len(set(digests)) != 1:
        failed += 1
        misses.append(f"output digest differs between repetitions: {sorted(set(digests))}")

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs": inputs,
            "env": environment(), "digest": digests[0], "repetitions": len(digests),
            "failed_frac": failed / attempted, "misses": misses, "accuracy": accuracy}
    if args.trace:
        metrics = layers.summarize(rounds, setup_s, import_split)
        trace_file = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"info": info, "spans": all_spans}, fh)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        info["wall_s"] = walls
        info["cpu_s"] = cpus
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(f"perfbench-info {json.dumps(info)}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {failed / attempted:>16.6g} fraction")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
