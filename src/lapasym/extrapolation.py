"""Coefficient recovery by least-squares fit over a ladder of sizes.

The fit basis is the model family {n^2 log n, n^2, n, 1}.  Because those
columns span seven orders of magnitude at n ~ 2500, every column is scaled
to unit norm before the orthogonal-factorization least squares; constants
would otherwise drown in the normal equations.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .exceptions import DomainError, FitError

__all__ = ["BASIS_FUNCTIONS", "FitResult", "fit_expansion"]

BASIS_FUNCTIONS = {
    "n2logn": lambda n: n * n * math.log(n),
    "n2": lambda n: float(n * n),
    "n": float,
    "1": lambda n: 1.0,
}


class FitResult(NamedTuple):
    coefficients: dict[str, float]   # keyed by basis name, fixed ones included
    residual_max: float
    condition_estimate: float


def fit_expansion(values: Sequence[tuple[int, float]],
                  basis: Sequence[str] = ("n2logn", "n2", "n", "1"),
                  fixed: Mapping[str, float] | None = None) -> FitResult:
    """Least-squares coefficients of the expansion basis over a ladder.

    ``fixed`` pins coefficients (by basis name) that are subtracted from
    the data before fitting the rest.  Ladders must stay in one residue
    class mod 4, so that residue-dependent constants are constant across
    the ladder; a mixed ladder raises DomainError.
    """
    fixed = dict(fixed or {})
    for name in list(fixed) + list(basis):
        if name not in BASIS_FUNCTIONS:
            raise DomainError(f"unknown basis column {name!r}")
    free = [b for b in basis if b not in fixed]
    if len(values) < len(free) + 2:
        raise DomainError(
            f"ladder of {len(values)} points is too short for {len(free)} columns")
    ns = [n for n, _ in values]
    if len({n % 4 for n in ns}) > 1:
        raise DomainError("ladder mixes residue classes mod 4")

    rhs = np.array([f - sum(c * BASIS_FUNCTIONS[b](n) for b, c in fixed.items())
                    for n, f in values])
    design = np.array([[BASIS_FUNCTIONS[b](n) for b in free] for n in ns])
    norms = np.linalg.norm(design, axis=0)
    if np.any(norms == 0.0):
        raise FitError("zero basis column")
    scaled = design / norms
    coef_scaled, _res, rank, sing = np.linalg.lstsq(scaled, rhs, rcond=None)
    if rank < len(free):
        raise FitError(f"rank-deficient design matrix (rank {rank} < {len(free)})")
    coef = coef_scaled / norms
    coefficients = dict(fixed)
    coefficients.update({b: float(c) for b, c in zip(free, coef)})
    predicted = np.array([
        sum(c * BASIS_FUNCTIONS[b](n) for b, c in coefficients.items()) for n in ns
    ])
    residual_max = float(np.max(np.abs(predicted - np.array([f for _, f in values]))))
    condition = float(sing[0] / sing[-1]) if sing.size else math.inf
    return FitResult(
        coefficients=coefficients,
        residual_max=residual_max,
        condition_estimate=condition,
    )
