"""Command-line front end.

Subcommands:

* ``sum``    : one exact lattice sum and pseudoinverse trace
* ``errors`` : error ladders against the expansion models, CSV and
               optionally a gnuplot script
* ``verify`` : the cross-module verification suites

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical error, 4 I/O error.  Workers come from --workers, else the
LAPASYM_WORKERS environment variable, else the CPU count.  All floats are
written with 17 significant digits so CSV output round-trips binary64.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass

from . import verify
from .asymptotics import model_for_lattice
from .exceptions import (ConsistencyError, ConvergenceError, DomainError,
                         FitError, SingularityError)
from .extrapolation import error_series
from .lattice_sum import (BUILTIN_LATTICES, LatticeSpec, builtin_lattice,
                          exact_sum, parse_lattice_file)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FIGURE_LADDER = (25, 2500, 25)   # bottom panel: 25..2500 step 25
_SMALL_PANEL_MAX = 100            # top panel: 1..100 step 1


@dataclass
class RunConfig:
    """Parsed command configuration."""

    subcommand: str
    lattice: str = "square"
    lattice_file: str | None = None
    n: int | None = None
    start: int = _FIGURE_LADDER[0]
    stop: int = _FIGURE_LADDER[1]
    step: int = _FIGURE_LADDER[2]
    n_list: tuple[int, ...] = ()
    out: str | None = None
    plot: str | None = None
    csv: bool = False
    suite: str = "all"
    max_n: int = 200
    n0: int = 0
    workers: int | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapasym",
        description="Exact lattice pseudoinverse-trace sums and their asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--lattice-file", default=None,
                       help="custom lattice config file (lines 's = j k', 'divisor = d')")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: LAPASYM_WORKERS or CPU count)")

    p_sum = sub.add_parser("sum", help="one exact sum and trace")
    p_sum.add_argument("--lattice", default="square",
                       choices=sorted(BUILTIN_LATTICES), help="built-in lattice")
    p_sum.add_argument("--n", type=int, required=True, help="grid size")
    p_sum.add_argument("--csv", action="store_true", help="emit one CSV row")
    common(p_sum)

    p_err = sub.add_parser("errors", help="error ladder CSV against the expansion models")
    p_err.add_argument("--lattice", default="all",
                       choices=sorted(BUILTIN_LATTICES) + ["all"])
    p_err.add_argument("--start", type=int, default=_FIGURE_LADDER[0])
    p_err.add_argument("--stop", type=int, default=_FIGURE_LADDER[1])
    p_err.add_argument("--step", type=int, default=_FIGURE_LADDER[2])
    p_err.add_argument("--n-list", default=None,
                       help="explicit comma-separated ladder, overrides start/stop/step")
    p_err.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_err.add_argument("--plot", default=None,
                       help="also write a gnuplot script rendering the two error panels")
    common(p_err)

    p_ver = sub.add_parser("verify", help="run the cross-module verification suites")
    p_ver.add_argument("--suite", default="all", choices=verify.available_suites())
    p_ver.add_argument("--max-n", type=int, default=200, dest="max_n")
    p_ver.add_argument("--n0", type=int, default=0, choices=(0, 1, 2, 3))
    common(p_ver)
    return parser


def config_from_argv(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig(subcommand=ns.subcommand)
    for name in ("lattice", "lattice_file", "n", "start", "stop", "step",
                 "out", "plot", "csv", "suite", "max_n", "n0", "workers"):
        if hasattr(ns, name):
            value = getattr(ns, name)
            if value is not None or name in ("lattice_file", "out", "plot", "workers", "n"):
                setattr(cfg, name, value)
    if getattr(ns, "n_list", None):
        try:
            cfg.n_list = tuple(int(tok) for tok in ns.n_list.split(",") if tok)
        except ValueError:
            raise DomainError(f"--n-list must be comma-separated integers, "
                              f"got {ns.n_list!r}") from None
    return cfg


def _resolve_lattice(cfg: RunConfig, name: str | None = None) -> LatticeSpec:
    if cfg.lattice_file:
        return parse_lattice_file(cfg.lattice_file)
    return builtin_lattice(name or cfg.lattice)


def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sum(cfg: RunConfig, out=sys.stdout) -> int:
    spec = _resolve_lattice(cfg)
    started = time.perf_counter()
    result = exact_sum(spec, cfg.n, workers=cfg.workers)
    elapsed = time.perf_counter() - started
    trace = result.value / spec.trace_divisor
    if cfg.csv:
        writer = csv.writer(out)
        writer.writerow(["lattice", "n", "F_n", "trace", "terms", "seconds"])
        writer.writerow([spec.name, result.n, _fmt(result.value), _fmt(trace),
                         result.term_count, f"{elapsed:.3f}"])
    else:
        print(f"lattice={spec.name} n={result.n} F_n={_fmt(result.value)} "
              f"trace={_fmt(trace)} terms={result.term_count} "
              f"seconds={elapsed:.3f}", file=out)
    return EXIT_OK


def _ladder(cfg: RunConfig) -> list[int]:
    if cfg.n_list:
        return list(cfg.n_list)
    return list(range(cfg.start, cfg.stop + 1, cfg.step))


def _gnuplot_script(csv_path: str, lattices: list[str]) -> str:
    titles = " ".join(lattices)
    lines = [
        "# gnuplot script: residuals of the exact sums against the",
        f"# two-term expansion models, read from {csv_path}",
        'set datafile separator ","',
        "set multiplot layout 2,1",
        "set xlabel 'n'",
        "set ylabel 'E_n'",
        "set key outside",
        f"# lattices: {titles}",
    ]
    small = ", ".join(
        f"'{csv_path}' using (strcol(1) eq '{name}' && $2 <= {_SMALL_PANEL_MAX} ? $2 : 1/0):5 "
        f"with linespoints title '{name}'"
        for name in lattices)
    big = ", ".join(
        f"'{csv_path}' using (strcol(1) eq '{name}' && $2 >= {_FIGURE_LADDER[0]} ? $2 : 1/0):5 "
        f"with linespoints title '{name}'"
        for name in lattices)
    lines += [f"set title 'n = 1..{_SMALL_PANEL_MAX}'", f"plot {small}"]
    lines += [
        f"set title 'n = {_FIGURE_LADDER[0]}..{_FIGURE_LADDER[1]} "
        f"step {_FIGURE_LADDER[2]}'",
        f"plot {big}",
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


def cmd_errors(cfg: RunConfig, out=sys.stdout) -> int:
    if cfg.lattice_file:
        raise DomainError("errors needs a built-in lattice; only those carry "
                          "expansion models")
    names = sorted(BUILTIN_LATTICES) if cfg.lattice == "all" else [cfg.lattice]
    ladder = _ladder(cfg)
    if not ladder:
        raise DomainError("empty ladder")
    requested_ns = set(ladder)
    panel_ns = sorted(requested_ns | set(range(1, _SMALL_PANEL_MAX + 1))) \
        if cfg.plot else ladder

    rows = []
    summaries = []
    for name in names:
        spec = _resolve_lattice(cfg, name)
        model = model_for_lattice(name)
        series = error_series(spec, model, panel_ns, workers=cfg.workers)
        for rec in series.records:
            rows.append([name, rec.n, _fmt(rec.exact), _fmt(rec.model), _fmt(rec.error)])
        requested = [r for r in series.records if r.n in requested_ns]
        decile = max(1, len(requested) // 10)
        top = sorted(requested, key=lambda r: r.n)[-decile:]
        summaries.append((name, sum(r.error for r in top) / len(top)))

    header = ["lattice", "n", "F_n", "model", "E_n"]
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)

    if cfg.plot:
        if not cfg.out:
            raise DomainError("--plot requires --out (the script references the CSV)")
        with open(cfg.plot, "w") as fh:
            fh.write(_gnuplot_script(cfg.out, names))

    for name, mean in summaries:
        print(f"plateau {name}: mean E_n over top decile = {mean:.4f}", file=out)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out=sys.stdout) -> int:
    results = verify.run_suite(cfg.suite, max_n=cfg.max_n, n0=cfg.n0,
                               workers=cfg.workers)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status} {r.name}: {r.detail}", file=out)
    print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    try:
        cfg = config_from_argv(argv if argv is not None else sys.argv[1:])
        if cfg.subcommand == "sum":
            return cmd_sum(cfg)
        if cfg.subcommand == "errors":
            return cmd_errors(cfg)
        if cfg.subcommand == "verify":
            return cmd_verify(cfg)
        raise DomainError(f"unknown subcommand {cfg.subcommand!r}")
    except SystemExit as exc:  # argparse reports config errors with code 2
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (SingularityError, ConvergenceError, ConsistencyError, FitError,
            ZeroDivisionError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
