"""Adaptive quadrature oracles, independent of any closed form they check.

The workhorse is a 7-point Gauss / 15-point Kronrod pair under adaptive
bisection.  On top of it sit the oracle of the restricted-region integral
of the quartic kernel f2 (reduced to one angular integral by polar
coordinates) and the pair of log-cosine integrals it factors through.
A small tensor-product 2-D rule is included purely as a cross-check oracle
for moderate grid sizes.  :mod:`lapasym.asymptotics` imports nothing from
here: the f1 and f2 integrals and the limit constants are closed forms
there, which these integrals check.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .asymptotics import integral_f1_restricted
from .exceptions import ConvergenceError, DomainError
from .lattice_sum import GridGeometry

__all__ = [
    "QuadratureResult",
    "integrate_1d",
    "integrate_2d",
    "eta_sq",
    "integral_f2_restricted",
    "factored_log_integrals",
]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = (
    0.991455371120812639207,
    0.949107912342758524526,
    0.864864423359769072789,
    0.741531185599394439864,
    0.586087235467691130294,
    0.405845151377397166907,
    0.207784955007898467600,
    0.0,
)
_WGK = (
    0.022935322010529224964,
    0.063092092629978553291,
    0.104790010322250183840,
    0.140653259715525918745,
    0.169004726639267902827,
    0.190350578064785409913,
    0.204432940075298892414,
    0.209482141084727828013,
)
_WG = (
    0.129484966168869693271,
    0.279705391489276667901,
    0.381830050505118944950,
    0.417959183673469387755,
)

_MAX_DEPTH = 40
_MAX_EVALUATIONS = 100_000  # integrand evaluations per integrate_1d call


class QuadratureResult(NamedTuple):
    value: float
    abs_error_estimate: float
    evaluations: int


def _gk15(fn, a, b):
    """One Gauss-Kronrod 7/15 application on [a, b] -> (k15, |k15-g7|)."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = fn(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = h * _XGK[i]
        fsum = fn(c - x) + fn(c + x)
        kron += _WGK[i] * fsum
        if i % 2 == 1:  # odd Kronrod indices are the Gauss-7 nodes
            gauss += _WG[i // 2] * fsum
    kron *= h
    gauss *= h
    return kron, abs(kron - gauss)


def integrate_1d(fn: Callable[[float], float], a: float, b: float,
                 tol: float = 1e-11) -> QuadratureResult:
    """Adaptive bisection with the nested Gauss-Kronrod 7/15 rule.

    Each subinterval is bisected until its |K15 - G7| discrepancy fits its
    share of ``tol`` or depth 40 is reached.  Mild endpoint log
    singularities are absorbed by depth.  Once 100000 evaluations are
    spent, no segment is bisected further: the pending ones (at most one
    per level) are evaluated once and accepted.  Raises
    :class:`~lapasym.exceptions.ConvergenceError` (with the partial result
    attached) at the first segment whose estimate is nan or infinite, and
    when the depth or evaluation limit cut refinement short and the total
    estimate is still not within ``tol``.  A ``tol`` that is negative or
    nan, which no estimate can meet, raises DomainError before the first
    evaluation; ``tol = 0`` is accepted.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a!r}, {b!r}]")
    if not tol >= 0.0:
        raise DomainError(f"need tol >= 0, got {tol!r}")
    total = 0.0
    err_total = 0.0
    evaluations = 0
    stack = [(a, b, tol, 0)]
    while stack:
        lo, hi, seg_tol, depth = stack.pop()
        val, err = _gk15(fn, lo, hi)
        evaluations += 15
        if not math.isfinite(err):  # never fits a share of tol; bisecting would spend the budget
            raise ConvergenceError(
                f"non-finite error estimate {err} on [{lo!r}, {hi!r}]",
                partial=QuadratureResult(total + val, err_total + err, evaluations))
        if (err <= seg_tol or depth >= _MAX_DEPTH
                or evaluations >= _MAX_EVALUATIONS):
            total += val
            err_total += err
            continue
        mid = 0.5 * (lo + hi)
        half_tol = 0.5 * seg_tol
        stack.append((lo, mid, half_tol, depth + 1))
        stack.append((mid, hi, half_tol, depth + 1))
    result = QuadratureResult(total, err_total, evaluations)
    # a segment accepted within its share adds at most that share, and the
    # shares tol 2^-depth sum to tol exactly, so only a cut segment can
    # leave the total outside tol
    if not err_total <= tol:
        raise ConvergenceError(
            f"subdivision or evaluation limit reached with estimate "
            f"{err_total:.3e} > {tol:.3e}",
            partial=result,
        )
    return result


def integrate_2d(fn: Callable[[float, float], float],
                 ax: float, bx: float, ay: float, by: float) -> QuadratureResult:
    """Tensor-product oracle: adaptive outer integral of adaptive inner ones.

    The outer integral runs to tolerance 1e-8, each inner one to 1e-9, and
    abs_error_estimate adds (bx - ax) 1e-9 for the inner errors.  Meant
    only for small cross-checks; cost grows multiplicatively.
    """
    evaluations = 0

    def outer(x: float) -> float:
        nonlocal evaluations
        inner = integrate_1d(lambda y: fn(x, y), ay, by, tol=1e-9)
        evaluations += inner.evaluations
        return inner.value

    res = integrate_1d(outer, ax, bx, tol=1e-8)
    return QuadratureResult(res.value, res.abs_error_estimate + (bx - ax) * 1e-9, evaluations)


# ---------------------------------------------------------------------------
# Restricted-region kernel integrals (square lattice)
# ---------------------------------------------------------------------------

def eta_sq(theta: float) -> float:
    """eta^2(theta) = cos^4 theta + sin^4 theta, the angular quartic factor.

    By eight-fold symmetry the region [0, beta_n]^2 minus [0, pi/n]^2 maps
    to angles theta in [0, pi/4] with radius running between
    pi/(n cos theta) and beta_n/cos theta; the quartic part of the kernel
    enters only through eta^2(theta).
    """
    c = math.cos(theta)
    s = math.sin(theta)
    return c ** 4 + s ** 4


def integral_f2_restricted(n: int) -> QuadratureResult:
    """Quadrature oracle of :func:`lapasym.asymptotics.restricted_integral_f2`.

    The same f1 value plus (4 n^2 / pi^2) times the angular integral of
    log(12 - (pi/n)^2 g) - log(12 - beta_n^2 g), here by adaptive
    quadrature instead of the closed form.
    """
    beta = GridGeometry.restricted(n).beta_n
    pin = math.pi / n

    def angular(theta: float) -> float:
        c = math.cos(theta)
        g = eta_sq(theta) / (c * c)
        return math.log(12.0 - pin * pin * g) - math.log(12.0 - beta * beta * g)

    inner = integrate_1d(angular, 0.0, 0.25 * math.pi)
    scale = 4.0 * n * n / (math.pi * math.pi)
    return QuadratureResult(
        integral_f1_restricted(n) + scale * inner.value,
        scale * inner.abs_error_estimate,
        inner.evaluations,
    )


def factored_log_integrals(u: float) -> tuple[float, float]:
    """The two log integrals the quartic factorization produces.

    Returns (J1, J2) with
    J1 = int_0^{pi/2} log(2u - 1 - cos t) dt and
    J2 = int_0^{pi/2} log(cos t + 1 - 1/u) dt, both by quadrature.
    Requires u > 1 so that both integrands stay positive.
    """
    if not u > 1.0:
        raise DomainError(f"need u > 1, got {u!r}")
    s1 = 2.0 * u - 1.0
    s2 = 1.0 - 1.0 / u
    j1 = integrate_1d(lambda t: math.log(s1 - math.cos(t)), 0.0, 0.5 * math.pi)
    j2 = integrate_1d(lambda t: math.log(math.cos(t) + s2), 0.0, 0.5 * math.pi)
    return j1.value, j2.value
