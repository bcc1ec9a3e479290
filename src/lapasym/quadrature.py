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
import sys
from typing import Callable, NamedTuple

import numpy as np

from .asymptotics import integral_f1_restricted
from .exceptions import ConvergenceError, DomainError
from .lattice_sum import GridGeometry

__all__ = [
    "QuadratureResult",
    "integrate_1d",
    "integrate_2d",
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

# The rule on [-1, 1] with its 15 nodes in ascending order: the Kronrod
# weights, and the Kronrod minus the Gauss-7 weights (the Gauss weight is
# 0 at the Kronrod-only nodes), whose sum is K15 - G7.
_X = np.array([-x for x in _XGK[:7]] + list(_XGK[::-1]))
_W = np.array([_WGK[:7] + _WGK[::-1],
               (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
                0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0)])
_W[1] = _W[0] - _W[1]
_HALVES = np.array([-1.0, 1.0])

_MAX_DEPTH = 40
_MAX_EVALUATIONS = 100_000  # node evaluations per integrate_1d call


class QuadratureResult(NamedTuple):
    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int


def _scalar(x):
    """A numpy scalar as a float; an array as it is."""
    return x if isinstance(x, np.ndarray) else float(x)


def _add_level(total, err_total, h, ke):
    """The running sums plus h times a level's K15 and |K15 - G7| sums."""
    sums = h * np.add.reduce(ke, axis=-2)
    return total + sums[..., 0], err_total + sums[..., 1]


def integrate_1d(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 tol: float = 1e-11) -> QuadratureResult:
    """Adaptive bisection with the nested Gauss-Kronrod 7/15 rule, a level at a time.

    ``fn`` is a numpy function of an array: every segment pending at one
    depth is evaluated in one call ``fn(nodes)``, with ``nodes`` of shape
    (m, 15), and its values broadcast to (..., m, 15).  A leading shape
    makes a vector of integrals over shared segments; ``value`` and
    ``abs_error_estimate`` then take that shape, and are floats for a
    scalar integrand.  A segment is bisected while any component's
    |K15 - G7| exceeds the segment's share tol 2^-depth, up to depth 40,
    and only while the evaluations so far plus 30 per segment to split
    stay within 100000 nodes; otherwise the level's segments are accepted.
    Mild endpoint log singularities are absorbed by depth.  Raises
    :class:`~lapasym.exceptions.ConvergenceError` (with the partial result
    attached) at the first level with a nan or infinite estimate, and when
    the depth or evaluation limit cut refinement short and some total
    estimate is still not within ``tol``.  A ``tol`` that is negative or
    nan, which no estimate can meet, raises DomainError before the first
    evaluation; ``tol = 0`` is accepted.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a!r}, {b!r}]")
    if not tol >= 0.0:
        raise DomainError(f"need tol >= 0, got {tol!r}")
    # the segments pending at a depth share one half-width h, and their
    # centres form an (m, 1) column.  A share tol 2^-depth over h is
    # tol / h at every depth; capped at the largest float, a nan or
    # infinite estimate misses it even for tol = inf
    c = np.array([[0.5 * (a + b)]])
    h = 0.5 * (b - a)
    limit = min(tol / h, sys.float_info.max)
    total = err_total = 0.0
    evaluations = 0
    depth = 0
    while True:
        nodes = c + h * _X
        f = np.asarray(fn(nodes))
        if f.shape[-2:] != nodes.shape:
            f = np.broadcast_to(f, np.broadcast_shapes(f.shape, nodes.shape))
        evaluations += nodes.size
        # K15 and |K15 - G7| over h per segment, shape (..., m, 2)
        ke = np.add.reduce(f[..., None, :] * _W, axis=-1)
        err = np.abs(ke[..., 1], out=ke[..., 1])
        fits = err <= limit
        if fits.ndim > 1:  # a segment fits if every component does
            fits = fits.reshape(-1, len(c)).all(axis=0)
        count = len(c) - np.count_nonzero(fits)  # segments to split
        # nan or inf: bisecting would only spend the budget
        if count and not np.maximum.reduce(err, axis=None) < math.inf:
            total, err_total = _add_level(total, err_total, h, ke)
            raise ConvergenceError(
                f"non-finite error estimate at depth {depth}",
                partial=QuadratureResult(_scalar(total), _scalar(err_total), evaluations))
        if (not count or depth >= _MAX_DEPTH
                or evaluations + 30 * count > _MAX_EVALUATIONS):
            total, err_total = _add_level(total, err_total, h, ke)
            break
        if count < len(c):
            total, err_total = _add_level(total, err_total, h, ke[..., fits, :])
            c = c[~fits]
        h *= 0.5
        c = (c + h * _HALVES).reshape(-1, 1)  # each split centre c -> c - h, c + h
        depth += 1
    result = QuadratureResult(_scalar(total), _scalar(err_total), evaluations)
    # a segment accepted within its share adds at most that share, and the
    # shares tol 2^-depth sum to tol exactly, so only a cut segment can
    # leave a total outside tol
    worst = np.maximum.reduce(err_total, axis=None)
    if not worst <= tol:
        raise ConvergenceError(
            f"subdivision or evaluation limit reached with estimate "
            f"{worst:.3e} > {tol:.3e}",
            partial=result,
        )
    return result


def integrate_2d(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 ax: float, bx: float, ay: float, by: float) -> QuadratureResult:
    """Tensor-product oracle: an adaptive outer integral of adaptive inner ones.

    ``fn(x, y)`` is a numpy function of broadcast arrays.  The outer
    integral runs to tolerance 1e-8; at each of its levels, one
    vector-valued :func:`integrate_1d` over y takes the inner integrals of
    all outer nodes to 1e-9 each, on shared segments.  abs_error_estimate
    adds (bx - ax) 1e-9 for the inner errors, and ``evaluations`` counts
    outer nodes, one inner integral each.  Meant only for small
    cross-checks; cost grows multiplicatively.
    """
    res = integrate_1d(
        lambda x: integrate_1d(lambda y: fn(x[..., None, None], y), ay, by, tol=1e-9).value,
        ax, bx, tol=1e-8)
    return res._replace(abs_error_estimate=res.abs_error_estimate + (bx - ax) * 1e-9)


# ---------------------------------------------------------------------------
# Restricted-region kernel integrals (square lattice)
# ---------------------------------------------------------------------------

def integral_f2_restricted(n: int) -> QuadratureResult:
    """Quadrature oracle of :func:`lapasym.asymptotics.restricted_integral_f2`.

    By eight-fold symmetry the window [0, beta_n]^2 minus [0, pi/n]^2 maps
    to angles theta in [0, pi/4], the radius running from pi/(n cos theta)
    to beta_n/cos theta.  So the result is the same f1 value plus
    (4 n^2 / pi^2) times the angular integral of log(12 - (pi/n)^2 g)
    - log(12 - beta_n^2 g), g = (cos^4 + sin^4)/cos^2, here by adaptive
    quadrature instead of the closed form; the integrand is one log of
    the quotient, a numpy function of the angles.
    """
    beta = GridGeometry.restricted(n).beta_n
    low, high = (math.pi / n) ** 2 / 12.0, beta * beta / 12.0

    def angular(theta):
        # g = (1 + t^2)/(1 + t) with t = tan^2 theta, so the quotient
        # (12 - 12 low g)/(12 - 12 high g) is (p - low q)/(p - high q)
        t = np.tan(theta) ** 2
        p, q = 1.0 + t, 1.0 + t * t
        return np.log((p - low * q) / (p - high * q))

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
    J2 = int_0^{pi/2} log(cos t + 1 - 1/u) dt, both by quadrature of
    numpy integrands.  Requires u > 1 so that both integrands stay positive.
    """
    if not u > 1.0:
        raise DomainError(f"need u > 1, got {u!r}")
    s1 = 2.0 * u - 1.0
    s2 = 1.0 - 1.0 / u
    j1 = integrate_1d(lambda t: np.log(s1 - np.cos(t)), 0.0, 0.5 * math.pi)
    j2 = integrate_1d(lambda t: np.log(np.cos(t) + s2), 0.0, 0.5 * math.pi)
    return j1.value, j2.value
