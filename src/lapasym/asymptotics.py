"""Closed-form asymptotic expansions of the lattice sums and integrals.

The full-window models are two-term, c0 n^2 log n + c1 n^2 with an O(1)
remainder; only :func:`restricted_integral_expansion` adds a c2 n term.
The coefficients are exact combinations of Catalan's constant, Euler's
constant, Gamma values, and Clausen-function terms.  All constants are
drawn from :data:`lapasym.specfun.CONSTANTS` so the whole module shares
one source of truth.  No quadrature: the restricted integrals of the
kernels f1 and f2 are closed forms at every n (f2 through the Clausen forms
of the factored quartic), the restricted-window limit constants are
partial-fraction closed forms, and :mod:`lapasym.quadrature` holds oracles.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

from .exceptions import DomainError
from .lattice_sum import GridGeometry
from .specfun import CONSTANTS, clausen_cl2

__all__ = [
    "ExpansionForm",
    "square_integral_form",
    "integral_f1_restricted",
    "restricted_integral_f2",
    "restricted_integral_lambda",
    "restricted_integral_expansion",
    "restricted_integral_remainder_limit",
    "quartic_factor_params",
    "log_cos_closed_forms",
    "edge_sum_decay_coefficient",
    "edge_sum_gap_limit",
    "exp_tail_limit",
    "axis_sum_expansion",
    "axis_gap_limit",
    "MODEL_FORMS",
    "model_for_lattice",
]


class ExpansionForm(NamedTuple):
    """Coefficients of the two-term model c0 n^2 log n + c1 n^2."""

    c0: float
    c1: float

    def evaluate(self, n: int | float) -> float:
        return (self.c0 * math.log(n) + self.c1) * n * n


# ---------------------------------------------------------------------------
# Full-window sums, one form per built-in lattice
# ---------------------------------------------------------------------------

def _sum_form(c0: float, k: float) -> ExpansionForm:
    """c0 n^2 log n + c0 (gamma + log k) n^2."""
    return ExpansionForm(c0, c0 * (CONSTANTS.euler_gamma + math.log(k)))


MODEL_FORMS = {
    # (2/pi) n^2 log n + (2/pi)(gamma + log(4 sqrt(2 pi) / Gamma(1/4)^2)) n^2
    "square": _sum_form(
        2.0 / math.pi,
        4.0 * math.sqrt(2.0 * math.pi) / CONSTANTS.gamma_quarter ** 2),
    # (sqrt 3/pi) n^2 log n + (sqrt 3/pi)(gamma + log(4 pi 3^(1/4) / Gamma(1/3)^3)) n^2
    "triangular": _sum_form(
        math.sqrt(3.0) / math.pi,
        4.0 * math.pi * 3.0 ** 0.25 / CONSTANTS.gamma_third ** 3),
    # (4/3pi) n^2 log n + (4/3pi)(gamma + log(4 sqrt(6 pi) / Gamma(1/4)^2)) n^2
    "modified_union_jack": _sum_form(
        4.0 / (3.0 * math.pi),
        4.0 * math.sqrt(6.0 * math.pi) / CONSTANTS.gamma_quarter ** 2),
}


def model_for_lattice(name: str) -> ExpansionForm:
    try:
        return MODEL_FORMS[name]
    except KeyError:
        raise DomainError(
            f"no expansion model for lattice {name!r}; "
            f"known: {sorted(MODEL_FORMS)}"
        ) from None


@lru_cache(maxsize=None)
def square_integral_form() -> ExpansionForm:
    """Full-window integral of f for the square lattice.

    (2/pi) n^2 log n + (1/pi)(log(8/pi^2) + 4 G / pi) n^2.
    """
    c = CONSTANTS
    c1 = (1.0 / math.pi) * (
        math.log(8.0 / (math.pi * math.pi)) + 4.0 * c.catalan_G / math.pi
    )
    return ExpansionForm(2.0 / math.pi, c1)


# ---------------------------------------------------------------------------
# Restricted integral of the quartic kernel
# ---------------------------------------------------------------------------

def integral_f1_restricted(n: int) -> float:
    """Normalized integral of the quadratic kernel f1 over the restricted region.

    In polar coordinates the integral is elementary:
    (2 n^2 / pi) * log(n beta_n / pi).  Exact arithmetic, no quadrature.
    """
    return (2.0 * n * n / math.pi) * math.log(n * GridGeometry.restricted(n).beta_n / math.pi)


def _quartic_root(beta: float) -> tuple[float, float]:
    """(alpha, u) of the angular quartic at beta, as derived in :func:`_phi`."""
    alpha = (beta * beta + 6.0) / (2.0 * beta * beta)
    return alpha, alpha + math.sqrt(alpha * alpha - 0.5)


def _factored_logs(beta: float) -> float:
    """J11(2u - 1) + J21(1 - 1/u) at the root u of :func:`_quartic_root`."""
    _, u = _quartic_root(beta)
    j11, _ = log_cos_closed_forms(2.0 * u - 1.0, "gt1")
    j21, _ = log_cos_closed_forms(1.0 - 1.0 / u, "in01")
    return j11 + j21


def _phi(beta: float) -> float:
    """Phi(beta) = int_0^{pi/4} log(12 - beta^2 g) dtheta in closed form,
    g = (cos^4 theta + sin^4 theta)/cos^2 theta.

    With c = cos^2 theta the quartic factors as
    12 - beta^2 g = 2 beta^2 (u - c)(c - 1/(2u))/c, with
    alpha = (beta^2 + 6)/(2 beta^2) and u = alpha + sqrt(alpha^2 - 1/2).
    In t = 2 theta, c = (1 + cos t)/2, u - c = (2u - 1 - cos t)/2 and
    c - 1/(2u) = (cos t + 1 - 1/u)/2; with
    int_0^{pi/2} log((1 + cos t)/2) dt = 2G - pi log 2 this leaves

        Phi = (pi/4) log(2 beta^2) + (J11(2u - 1) + J21(1 - 1/u))/2 - G,

    J11 and J21 from :func:`log_cos_closed_forms`.  For small beta the first
    two terms nearly cancel, so the absolute error against 30-digit mpmath
    grows from 7.7e-16 at beta = 0.3 to 6.5e-15 near beta = 2e-5.
    """
    return (0.25 * math.pi * math.log(2.0 * beta * beta) + 0.5 * _factored_logs(beta)
            - CONSTANTS.catalan_G)


def restricted_integral_f2(n: int) -> float:
    """Normalized integral of the quartic kernel f2 over the restricted region.

    Splitting 1/(r - eta^2 r^3 / 12) into 1/r plus a rational remainder
    turns the radial integral into logs: the f1 value plus
    (4 n^2/pi^2) (Phi(pi/n) - Phi(beta_n)), Phi from :func:`_phi`.  Within
    8e-16 relative of 30-digit mpmath (7.5e-16 at n = 7 is the worst over
    every n up to 400 and 1500 random sizes up to 10^5);
    :func:`lapasym.quadrature.integral_f2_restricted` is its oracle.
    """
    beta_n = GridGeometry.restricted(n).beta_n
    scale = 4.0 * n * n / (math.pi * math.pi)
    return integral_f1_restricted(n) + scale * (_phi(math.pi / n) - _phi(beta_n))


@lru_cache(maxsize=None)
def restricted_integral_lambda() -> float:
    """The constant lambda of the restricted integral's n^2 coefficient,

        lambda = -J11(2u - 1) - J21(1 - 1/u) - pi log 2,

    at the root u of beta = pi/2 (:func:`_phi`), where 2u - 1 is the
    paper's nu = (mu + 24)/pi^2, mu = sqrt(24^2 + 48 pi^2 - pi^4).
    """
    return -_factored_logs(0.5 * math.pi) - math.pi * math.log(2.0)


def quartic_factor_params(n: int) -> tuple[float, float]:
    """Per-n factorization parameters (alpha_n, u_n) of the angular quartic
    at beta_n (see :func:`_phi`).  As n grows, 2 u_n - 1 -> nu and
    1 - 1/u_n -> (nu - 1)/(nu + 1), the arguments of
    :func:`restricted_integral_lambda`.
    """
    return _quartic_root(GridGeometry.restricted(n).beta_n)


def restricted_integral_expansion(n: int) -> float:
    """Three-term expansion of the restricted quartic-kernel integral.

    (2/pi) n^2 log n
    + (2/pi)((2G + lambda)/pi + log(2 sqrt 6 / pi)) n^2
    + c2 (2 - n0) n,
    with lambda from :func:`restricted_integral_lambda` and c2 = 2/pi + 2 h1.
    """
    n0 = GridGeometry.restricted(n).n0
    g = CONSTANTS.catalan_G
    lam = restricted_integral_lambda()
    c1 = (2.0 / math.pi) * (
        (2.0 * g + lam) / math.pi + math.log(2.0 * math.sqrt(6.0) / math.pi)
    )
    c2, _, _ = _window_constants()
    return ((2.0 / math.pi) * math.log(n) + c1) * n * n + c2 * (2.0 - n0) * n


def _check_residue(n0: int) -> None:
    if n0 not in (0, 1, 2, 3):
        raise DomainError(f"residue class n0 must be 0, 1, 2 or 3, got {n0!r}")


def restricted_integral_remainder_limit(n0: int) -> float:
    """Limit of restricted_integral_f2(n) - restricted_integral_expansion(n)
    over n = 4 N + n0.

    The integral is (2n^2/pi) log(n beta_n/pi) + (4n^2/pi^2)(Phi(pi/n) - Phi(beta_n)).
    Expanding in eps = (2 - n0)/n, with beta_n = (pi/2)(1 + eps) and
    int_0^{pi/4} g = 3/2 - pi/4, gives the linear coefficient 2/pi + 2 h1
    (the expansion's c2) and the limit
    pi/12 - 1/2 + (2 - n0)^2 (h1 + (pi^2/2) h2 - 1/pi), approached like 1/n
    (h1, h2 from :func:`_window_constants`).
    """
    _check_residue(n0)
    _, h1, h2 = _window_constants()
    return (math.pi / 12.0 - 0.5
            + (2 - n0) ** 2 * (h1 + 0.5 * math.pi ** 2 * h2 - 1.0 / math.pi))


# ---------------------------------------------------------------------------
# Partial-fraction closed forms of the remainder integrals
# ---------------------------------------------------------------------------

def _pole_integral(r: complex) -> complex:
    """int_0^1 du/(u^2 - r) = -atanh(1/sqrt r)/sqrt r for r off [0, 1]; even in
    sqrt r, so r < 0 (an atan) needs no branch."""
    s = cmath.sqrt(r)
    return -cmath.atanh(1.0 / s) / s


def _slope(f, x: float) -> float:
    """f'(x) = Im f(x + i h)/h, h = 1e-100: a complex step, so nothing cancels
    (Squire & Trapp, SIAM Review 40 (1998) 110); f must be analytic."""
    return f(complex(x, 1e-100)).imag * 1e100


def _edge_integral(a: complex) -> complex:
    """I(a) = int_0^1 dx/(1 + x^2 - a (1 + x^4)) = (P(v-) - P(v+))/calA.

    P is :func:`_pole_integral` at the poles v+ = (1 + calA)/(2a) and
    v- = -2(1 - a)/(1 + calA) in v = x^2, calA = sqrt(1 + 4a(1 - a)).
    """
    cal_a = cmath.sqrt(1.0 + 4.0 * a * (1.0 - a))
    return (_pole_integral(-2.0 * (1.0 - a) / (1.0 + cal_a)) / cal_a
            - _pole_integral((1.0 + cal_a) / (2.0 * a)) / cal_a)


def _window_integral(lam: complex) -> complex:
    """h1(lam) = int_0^{pi/4} g/(12 - lam g), g = (cos^4 t + sin^4 t)/cos^2 t.

    u = tan t makes it rational in v = u^2, with poles -1 (residue -1/lam,
    P(-1) = pi/4), (6 + d)/lam and (lam - 12)/(6 + d) (residues -+6/(lam d),
    as 1 + v^2 = 12 (1 + v)/lam there), d = sqrt(36 + lam (12 - lam)).
    """
    d = cmath.sqrt(36.0 + lam * (12.0 - lam))
    return (6.0 / d * (_pole_integral((lam - 12.0) / (6.0 + d))
                       - _pole_integral((6.0 + d) / lam)) - 0.25 * math.pi) / lam


@lru_cache(maxsize=None)
def _window_constants() -> tuple[float, float, float]:
    """(c2, h1, h2): h1 = h1(pi^2/4), h2 = dh1/dlam = int (g/(12 - lam g))^2
    and the expansion's linear coefficient c2 = 2/pi + 2 h1."""
    lam = 0.25 * math.pi ** 2
    h1 = _window_integral(lam).real
    return 2.0 / math.pi + 2.0 * h1, h1, _slope(_window_integral, lam)


# ---------------------------------------------------------------------------
# Closed forms of the factored log integrals
# ---------------------------------------------------------------------------

def log_cos_closed_forms(a: float, regime: str) -> tuple[float, float]:
    """Closed forms of the log-cosine integrals and their derivative pair.

    regime "gt1" (a > 1): returns (J11, J12) with
      J11 = int_0^{pi/2} log(a - cos t) dt
          = Cl2(pi + 2 atan r) - Cl2(2 atan r)
            - (pi/2 + 2 atan r) log r - (pi/2) log 2,
          r = a - sqrt(a^2-1) = 1/(a + sqrt(a^2-1)),
      J12 = int_0^{pi/2} dt/(a - cos t)
          = (2/sqrt(a^2-1)) atan(sqrt((a+1)/(a-1))).

    regime "in01" (0 < a < 1): returns (J21, J22) with
      J21 = int_0^{pi/2} log(cos t + a) dt
          = Cl2(pi/2 + acos a) + Cl2(pi/2 - acos a) - (pi/2) log 2,
      J22 = int_0^{pi/2} dt/(cos t + a)
          = (1/sqrt(1-a^2)) log((1 + sqrt(1-a^2))/a).
    """
    if regime == "gt1":
        if not a > 1.0:
            raise DomainError(f"regime 'gt1' needs a > 1, got {a!r}")
        r = 1.0 / (a + math.sqrt(a * a - 1.0))  # a - sqrt(a^2 - 1) would cancel
        t = math.atan(r)
        j11 = (
            clausen_cl2(math.pi + 2.0 * t)
            - clausen_cl2(2.0 * t)
            - (0.5 * math.pi + 2.0 * t) * math.log(r)
            - 0.5 * math.pi * math.log(2.0)
        )
        j12 = 2.0 / math.sqrt(a * a - 1.0) * math.atan(math.sqrt((a + 1.0) / (a - 1.0)))
        return j11, j12
    if regime == "in01":
        if not 0.0 < a < 1.0:
            raise DomainError(f"regime 'in01' needs 0 < a < 1, got {a!r}")
        phi = math.acos(a)
        j21 = (
            clausen_cl2(0.5 * math.pi + phi)
            + clausen_cl2(0.5 * math.pi - phi)
            - 0.5 * math.pi * math.log(2.0)
        )
        root = math.sqrt(1.0 - a * a)
        j22 = math.log((1.0 + root) / a) / root
        return j21, j22
    raise DomainError(f"regime must be 'gt1' or 'in01', got {regime!r}")


# ---------------------------------------------------------------------------
# Row-sum decomposition constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def edge_sum_decay_coefficient() -> float:
    """Limit beta3 = 4 I(pi^2/48) of n times the edge row sum.

    In the cascade at the edge row (``cascade_profile(1.0)``) it reads
    2 (alpha8 - 2 alpha9 + pi alpha11).
    """
    return 4.0 * _edge_integral(math.pi ** 2 / 48.0).real


def edge_sum_gap_limit(n0: int) -> float:
    """Limit of n (n r_edge(n) - edge_sum_decay_coefficient()) over n = 4 N + n0.

    r_edge = N^-2 sum_{k<=N} g(k/N) with g(x) = 1/(1 + x^2 - a (1 + x^4))
    and a = a0 (1 - n0/n)^2, a0 = pi^2/48.  Euler-Maclaurin gives
    N r_edge = I(a) + (g(1) - g(0))/(2N) + O(N^-2); with n/N = 4/(1 - n0/n)
    and dI/da = I' this is n0 (4 I - 8 a0 I') - 4/(1 - a0), approached
    like 1/n.  4 I is :func:`edge_sum_decay_coefficient` and I' the
    complex-step slope of the same closed form.
    """
    _check_residue(n0)
    a0 = math.pi ** 2 / 48.0
    return (n0 * (edge_sum_decay_coefficient() - 8.0 * a0 * _slope(_edge_integral, a0))
            - 4.0 / (1.0 - a0))


@lru_cache(maxsize=None)
def exp_tail_limit() -> float:
    """Limit of the exponentially-weighted row sum.

    log(2 pi^(3/4)) - pi/12 - log Gamma(1/4), which equals the Lambert
    series of 1/(q;q)_inf at q = exp(-2 pi) through the Dedekind eta value
    eta(i) = Gamma(1/4)/(2 pi^(3/4)).
    """
    return (math.log(2.0 * math.pi ** 0.75) - math.pi / 12.0
            - math.log(CONSTANTS.gamma_quarter))


def axis_sum_expansion(n: int) -> float:
    """Two-term expansion pi^2/6 + c1/n of the axis row sum, with

    c1 = (pi/(2 sqrt 3)) log((4 sqrt 3 + pi)/(4 sqrt 3 - pi)) - 4.
    """
    GridGeometry.restricted(n)  # the n >= 4 guard
    s3 = math.sqrt(3.0)
    c1 = (math.pi / (2.0 * s3)) * math.log((4.0 * s3 + math.pi) / (4.0 * s3 - math.pi)) - 4.0
    return math.pi ** 2 / 6.0 + c1 / n


def axis_gap_limit(n0: int) -> float:
    """Limit of n^2 (q_axis(n) - axis_sum_expansion(n)) over n = 4 N + n0.

    q_axis = sum_{k<=N} 1/k^2 + a sum_{k<=N} 1/(1 - a k^2), a = pi^2/(3n^2).
    The zeta(2) tail gives -1/N + 1/(2N^2) and Euler-Maclaurin on the
    second sum, with sqrt(a) N = (pi/(4 sqrt 3))(1 - n0/n), gives the rest:
    8 + pi^4/(6 (48 - pi^2)) - 192 n0/(48 - pi^2), approached like 1/n.
    """
    _check_residue(n0)
    d = 48.0 - math.pi ** 2
    return 8.0 + math.pi ** 4 / (6.0 * d) - 192.0 * n0 / d
