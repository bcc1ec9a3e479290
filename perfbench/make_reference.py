#!/usr/bin/env python3
"""Record the reference sums the benchmark checks against.

Writes ``perfbench/reference.json``: F_n for every Figure-1 size below the
plateau range (n < 1000, each built-in lattice) and for the custom stencil
at every n of the large-n workload's custom window.  Run it from the root
of a checkout:

    python3 perfbench/make_reference.py

The file is recorded once, from a commit whose sums are trusted, and is
not regenerated to make a later commit pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lapasym.lattice_sum import (BUILTIN_LATTICES, exact_sum,  # noqa: E402
                                 parse_lattice_file)

import workloads  # noqa: E402


def main() -> int:
    small = [n for n in workloads.FIG_LADDER if n < workloads.PLATEAU_MIN_N]
    figure1 = {name: {str(n): exact_sum(spec, n).value for n in small}
               for name, spec in sorted(BUILTIN_LATTICES.items())}
    spec = parse_lattice_file(str(workloads.CUSTOM_LATTICE))
    lo, hi = workloads.CUSTOM_N_WINDOW
    custom = {str(n): exact_sum(spec, n).value for n in range(lo, hi + 1)}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump({"figure1": figure1, "custom": custom}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
