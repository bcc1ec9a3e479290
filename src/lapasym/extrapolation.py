"""Error ladders against expansion models, and coefficient recovery by fit.

The fit basis is the model family {n^2 log n, n^2, n, 1}.  Because those
columns span seven orders of magnitude at n ~ 2500, every column is scaled
to unit norm before the orthogonal-factorization least squares; constants
would otherwise drown in the normal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .asymptotics import ExpansionForm
from .exceptions import DomainError, FitError
from .lattice_sum import LatticeSpec, builtin_lattice, exact_sums

__all__ = [
    "BASIS_FUNCTIONS",
    "ErrorRecord",
    "ErrorSeries",
    "FitResult",
    "error_series",
    "fit_expansion",
]

BASIS_FUNCTIONS = {
    "n2logn": lambda n: n * n * math.log(n),
    "n2": lambda n: float(n * n),
    "n": float,
    "1": lambda n: 1.0,
}

_BASIS_TO_COEFF = {"n2logn": "c0", "n2": "c1", "n": "c2", "1": "c3"}


@dataclass(frozen=True)
class ErrorRecord:
    n: int
    exact: float
    model: float
    error: float


@dataclass(frozen=True)
class ErrorSeries:
    lattice: str
    model_label: str
    records: tuple[ErrorRecord, ...]

    def errors(self) -> list[float]:
        return [r.error for r in self.records]


def error_series(lattice: LatticeSpec | str, model: ExpansionForm,
                 n_values: Sequence[int], workers: int | None = None) -> ErrorSeries:
    """E_n = F_n - model(n) for each requested n, all F_n from one :func:`exact_sums`."""
    if isinstance(lattice, str):
        lattice = builtin_lattice(lattice)
    if not n_values:
        raise DomainError("n_values must be nonempty")
    records = []
    for result in exact_sums(lattice, n_values, workers=workers):
        exact, m = result.value, model.evaluate(result.n)
        records.append(ErrorRecord(n=result.n, exact=exact, model=m, error=exact - m))
    return ErrorSeries(lattice.name, model.label or "model", tuple(records))


@dataclass(frozen=True)
class FitResult:
    coefficients: dict[str, float]   # keyed by basis name, fixed ones included
    residual_max: float
    n_ladder: tuple[int, ...]
    condition_estimate: float

    def as_expansion_form(self, label: str = "fit",
                          n0_class: int | str = "all") -> ExpansionForm:
        kw = {_BASIS_TO_COEFF[k]: v for k, v in self.coefficients.items()}
        return ExpansionForm(label=label, n0_class=n0_class, **kw)


def fit_expansion(values: Sequence[tuple[int, float]],
                  basis: Sequence[str] = ("n2logn", "n2", "n", "1"),
                  fixed: Mapping[str, float] | None = None,
                  allow_mixed_residues: bool = False) -> FitResult:
    """Least-squares coefficients of the expansion basis over a ladder.

    ``fixed`` pins coefficients (by basis name) that are subtracted from
    the data before fitting the rest.  Ladders are required to stay in one
    residue class mod 4 (residue-dependent constants must be constant
    across the ladder) unless ``allow_mixed_residues`` is set.
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
    if not allow_mixed_residues and len({n % 4 for n in ns}) > 1:
        raise DomainError(
            "ladder mixes residue classes mod 4; pass allow_mixed_residues=True "
            "to override")

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
        n_ladder=tuple(ns),
        condition_estimate=condition,
    )
