#!/usr/bin/env python3
"""Tabulate the large-n remainders behind the O(1)-error claims.

For a ladder of sizes in one residue class mod 4 this prints

* D(n): the six-piece assembly of the restricted quartic-kernel sum minus
  its direct value (stays near 0.621 in every class),
* Delta(n): the restricted quartic integral minus its three-term
  expansion, which tends to Delta_inf(n0) = pi/12 - 1/2
  + (2 - n0)^2 (h1 + (pi^2/2) h2 - 1/pi) (-1.08196 for the 0 class;
  ``restricted_integral_remainder_limit``),
* the exponential-tail row sum minus its Dedekind-eta limit (O(1/n^2)),
* n^2 (axis row sum - pi^2/6 - c1/n) with c1 from ``axis_sum_expansion``,
  which tends to L(n0) = 8 + pi^4/(6 (48 - pi^2)) - 192 n0/(48 - pi^2)
  (8.42577 for the 0 class; ``axis_gap_limit``),
* n (n r_edge - beta3), the edge row sum against its decay coefficient,
  which tends to E(n0) (-5.03535 for the 0 class; ``edge_sum_gap_limit``),
* the relative gap between the quadrant double sum by the digamma route
  and by the Laplace quadrature of ``quadrant_sum`` (rounding level,
  about 1e-16).
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from lapasym.asymptotics import (axis_sum_expansion,                 # noqa: E402
                                 edge_sum_decay_coefficient, exp_tail_limit,
                                 restricted_integral_expansion)
from lapasym.decomposition import double_sum_via_digamma, piece_sums  # noqa: E402
from lapasym.lattice_sum import quadrant_sum, restricted_sum_f2      # noqa: E402
from lapasym.quadrature import integral_f2_restricted                 # noqa: E402


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

    beta3 = edge_sum_decay_coefficient()
    tail_limit = exp_tail_limit()
    header = f"{'n':>6} {'D(n)':>12} {'Delta(n)':>12} {'exp tail':>12} " \
             f"{'n^2 axis gap':>13} {'n edge gap':>12} {'route gap':>10}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        p = piece_sums(n)
        d = p.assembled() - restricted_sum_f2(n).value
        delta = integral_f2_restricted(n).value - restricted_integral_expansion(n)
        tail = p.r_exp - tail_limit
        axis = n * n * (p.q_axis - axis_sum_expansion(n))
        edge = n * (n * p.r_edge - beta3)
        laplace = quadrant_sum(n)
        route = abs(double_sum_via_digamma(n) - laplace) / laplace
        print(f"{n:>6} {d:>12.6f} {delta:>12.6f} {tail:>12.3e} "
              f"{axis:>13.6f} {edge:>12.6f} {route:>10.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
