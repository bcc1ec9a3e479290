#!/usr/bin/env python3
"""Reproduce the two error-plateau panels for the three built-in lattices.

Writes a long-format CSV (lattice, n, F_n, model, E_n) covering n = 1..100
and n = 25..2500 step 25, plus a gnuplot script rendering both panels, and
prints the plateau summary.  Equivalent to

    lapasym errors --lattice all --out errors.csv --plot errors.gp

but runnable straight from a checkout.
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lapasym.cli import config_from_argv, cmd_errors  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = ["errors", "--lattice", "all",
            "--out", str(out_dir / "figure1_errors.csv"),
            "--plot", str(out_dir / "figure1_errors.gp")]
    code = cmd_errors(config_from_argv(argv))
    print(f"wrote {out_dir / 'figure1_errors.csv'} and {out_dir / 'figure1_errors.gp'}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
