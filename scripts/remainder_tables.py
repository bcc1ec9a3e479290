#!/usr/bin/env python3
"""Tabulate the large-n remainders behind the O(1)-error claims.

For a ladder of sizes in one residue class mod 4 this prints one column
per entry of ``lapasym.verify.REMAINDERS``, where each remainder and its
limit are defined, and then the route gap: the relative gap between the
quadrant double sum by the digamma route and by the Laplace quadrature of
``quadrant_sum`` (rounding level, about 1e-16).
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lapasym.decomposition import piece_sums                         # noqa: E402
from lapasym.lattice_sum import quadrant_sum                          # noqa: E402
from lapasym.verify import REMAINDERS                                 # noqa: E402


def size_ladder(text):
    """Comma-separated sizes, each an integer n >= 4 (the restricted window)."""
    try:
        sizes = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be integers, got {text!r}") from None
    small = [n for n in sizes if n < 4]
    if small:
        raise argparse.ArgumentTypeError(f"sizes must be at least 4, got {small}")
    return sizes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=size_ladder, default="100,200,400,800,1600",
                        help="comma-separated ladder of n >= 4 (one residue class mod 4)")
    sizes = parser.parse_args().sizes

    header = f"{'n':>6} " + " ".join(f"{r.name:>12}" for r in REMAINDERS) \
        + f" {'route gap':>10}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        p = piece_sums(n)
        cells = [format(r.value(n, p), ">12.3e" if r.name == "exp_tail" else ">12.6f")
                 for r in REMAINDERS]
        laplace = quadrant_sum(n)
        route = abs(p.r_double - laplace) / laplace  # r_double is the digamma route
        print(f"{n:>6} " + " ".join(cells) + f" {route:>10.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
