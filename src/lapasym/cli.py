"""Command-line front end.

Subcommands:

* ``sum``    : one exact lattice sum and pseudoinverse trace
* ``errors`` : error ladders against the expansion models, CSV and
               optionally a gnuplot script
* ``verify`` : the cross-module verification suites

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including a size too large for the available memory), 3 numerical
error, 4 I/O error.  All floats are written with 17
significant digits so CSV output round-trips binary64.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import time
from typing import NamedTuple

from . import verify
from .asymptotics import model_for_lattice
from .exceptions import (ConsistencyError, ConvergenceError, DomainError,
                         FitError, SingularityError)
from .lattice_sum import (BUILTIN_LATTICES, builtin_lattice, exact_sum,
                          exact_sums, parse_lattice_file)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FIGURE_LADDER = (25, 2500, 25)   # bottom panel: 25..2500 step 25
_SMALL_PANEL_MAX = 100            # top panel: 1..100 step 1


class RunConfig(NamedTuple):
    """Parsed command configuration.

    The field defaults are the CLI's defaults, except that ``errors
    --lattice`` defaults to ``all``.  ``workers`` is ignored; kept for
    existing callers.
    """

    subcommand: str
    lattice: str = "square"
    lattice_file: str | None = None
    n: int | None = None
    n_list: tuple[int, ...] = ()
    out: str | None = None
    plot: str | None = None
    csv: bool = False
    suite: str = "all"
    max_n: int = 200
    n0: int = 0
    workers: int | None = None


def _build_parser() -> argparse.ArgumentParser:
    # options left out of argv stay out of the namespace, so every default
    # comes from RunConfig
    parser = argparse.ArgumentParser(
        prog="lapasym",
        description="Exact lattice pseudoinverse-trace sums and their asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sum = sub.add_parser("sum", argument_default=argparse.SUPPRESS,
                           help="one exact sum and trace")
    which = p_sum.add_mutually_exclusive_group()
    which.add_argument("--lattice", choices=sorted(BUILTIN_LATTICES),
                       help="built-in lattice")
    which.add_argument("--lattice-file",
                       help="custom lattice config file (lines 's = j k', 'divisor = d')")
    p_sum.add_argument("--n", type=int, required=True, help="grid size")
    p_sum.add_argument("--csv", action="store_true", help="emit one CSV row")

    p_err = sub.add_parser("errors", argument_default=argparse.SUPPRESS,
                           help="error ladder CSV against the expansion models")
    p_err.add_argument("--lattice", default="all",
                       choices=sorted(BUILTIN_LATTICES) + ["all"])
    p_err.add_argument("--n-list",
                       help="comma-separated ladder (default 25..2500 step 25)")
    p_err.add_argument("--out", help="CSV output path (default stdout)")
    p_err.add_argument("--plot",
                       help="also write a gnuplot script rendering the two error panels")

    p_ver = sub.add_parser("verify", argument_default=argparse.SUPPRESS,
                           help="run the cross-module verification suites")
    p_ver.add_argument("--suite", choices=verify.available_suites())
    p_ver.add_argument("--max-n", type=int)
    p_ver.add_argument("--n0", type=int, choices=(0, 1, 2, 3))
    return parser


def config_from_argv(argv) -> RunConfig:
    fields = vars(_build_parser().parse_args(argv))
    if "n_list" in fields:
        try:
            fields["n_list"] = tuple(int(tok) for tok in fields["n_list"].split(",") if tok)
        except ValueError:
            raise DomainError(f"--n-list must be comma-separated integers, "
                              f"got {fields['n_list']!r}") from None
        if not fields["n_list"]:  # () would read as "not given"
            raise DomainError("--n-list names no size")
    return RunConfig(**fields)


def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sum(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    spec = (parse_lattice_file(cfg.lattice_file) if cfg.lattice_file
            else builtin_lattice(cfg.lattice))
    started = time.perf_counter()
    result = exact_sum(spec, cfg.n)
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
    start, stop, step = _FIGURE_LADDER
    return list(cfg.n_list) or list(range(start, stop + 1, step))


def _gnuplot_script(csv_path: str, lattices: list[str]) -> str:
    lines = [
        "# gnuplot script: residuals of the exact sums against the",
        f"# two-term expansion models, read from {csv_path}",
        'set datafile separator ","',
        "set multiplot layout 2,1",
        "set xlabel 'n'",
        "set ylabel 'E_n'",
        "set key outside",
        f"# lattices: {' '.join(lattices)}",
    ]
    panels = [(f"n = 1..{_SMALL_PANEL_MAX}", f"$2 <= {_SMALL_PANEL_MAX}"),
              (f"n = {_FIGURE_LADDER[0]}..{_FIGURE_LADDER[1]} step {_FIGURE_LADDER[2]}",
               f"$2 >= {_FIGURE_LADDER[0]}")]
    for title, condition in panels:
        curves = ", ".join(
            f"'{csv_path}' using (strcol(1) eq '{name}' && {condition} ? $2 : 1/0):5 "
            f"with linespoints title '{name}'"
            for name in lattices)
        lines += [f"set title '{title}'", f"plot {curves}"]
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def cmd_errors(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    if cfg.lattice_file:
        raise DomainError("errors needs a built-in lattice; only those carry "
                          "expansion models")
    if cfg.plot and not cfg.out:
        raise DomainError("--plot requires --out (the script references the CSV)")
    names = sorted(BUILTIN_LATTICES) if cfg.lattice == "all" else [cfg.lattice]
    ladder = _ladder(cfg)
    requested_ns = set(ladder)
    panel_ns = sorted(requested_ns | set(range(1, _SMALL_PANEL_MAX + 1))) \
        if cfg.plot else ladder

    rows = []
    summaries = []
    for name in names:
        model = model_for_lattice(name)
        requested = []  # (n, E_n), a size listed twice counted twice
        for result in exact_sums(builtin_lattice(name), panel_ns):
            n, exact = result.n, result.value
            m = model.evaluate(n)
            rows.append([name, n, _fmt(exact), _fmt(m), _fmt(exact - m)])
            if n in requested_ns:
                requested.append((n, exact - m))
        top = sorted(requested)[-max(1, len(requested) // 10):]
        summaries.append((name, sum(e for _, e in top) / len(top)))

    sink = open(cfg.out, "w", newline="") if cfg.out else contextlib.nullcontext(out)
    with sink as fh:
        writer = csv.writer(fh)
        writer.writerow(["lattice", "n", "F_n", "model", "E_n"])
        writer.writerows(rows)

    if cfg.plot:
        with open(cfg.plot, "w") as fh:
            fh.write(_gnuplot_script(cfg.out, names))

    for name, mean in summaries:
        print(f"plateau {name}: mean E_n over top decile = {mean:.4f}", file=out)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    results = verify.run_suite(cfg.suite, max_n=cfg.max_n, n0=cfg.n0)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status} {r.name}: {r.detail}", file=out)
    print(f"{len(results) - failed}/{len(results)} checks passed", file=out)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


_COMMANDS = {"sum": cmd_sum, "errors": cmd_errors, "verify": cmd_verify}


def _largest_n(cfg: RunConfig) -> int:
    """The largest grid size a command asks for."""
    if cfg.subcommand == "sum":
        return cfg.n
    if cfg.subcommand == "verify":
        return cfg.max_n
    return max(_ladder(cfg))


def main(argv=None) -> int:
    try:
        cfg = config_from_argv(argv if argv is not None else sys.argv[1:])
        try:
            return _COMMANDS[cfg.subcommand](cfg)
        except MemoryError:
            raise DomainError(f"n = {_largest_n(cfg)} needs more memory "
                              "than is available") from None
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
