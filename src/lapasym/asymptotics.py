"""Closed-form asymptotic expansions of the lattice sums and integrals.

Every expansion is of the shape c0 n^2 log n + c1 n^2 + c2 n + c3 with an
O(1) (or better) remainder; the coefficients are exact combinations of
Catalan's constant, Euler's constant, Gamma values, and Clausen-function
terms.  All constants are drawn from :data:`lapasym.specfun.CONSTANTS` so
the whole module shares one source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .exceptions import DomainError
from .lattice_sum import GridGeometry
from .quadrature import integrate_1d
from .specfun import CONSTANTS, clausen_cl2, log_q_pochhammer_inv

__all__ = [
    "ExpansionForm",
    "RestrictedIntegralConstants",
    "square_sum_form",
    "triangular_sum_form",
    "union_jack_sum_form",
    "square_integral_form",
    "square_sum_expansion",
    "triangular_sum_expansion",
    "union_jack_sum_expansion",
    "square_integral_expansion",
    "restricted_integral_constants",
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


@dataclass(frozen=True)
class ExpansionForm:
    """Coefficients of c0 n^2 log n + c1 n^2 + c2 n + c3.

    ``n0_class`` records the residue class (n mod 4) the linear term is
    valid for, or "all" when the form is residue-independent.
    """

    c0: float
    c1: float
    c2: float = 0.0
    c3: float = 0.0
    n0_class: int | str = "all"
    label: str = ""

    def evaluate(self, n: int | float) -> float:
        return ((self.c0 * math.log(n) + self.c1) * n + self.c2) * n + self.c3


# ---------------------------------------------------------------------------
# Full-window sums, one form per built-in lattice
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def square_sum_form() -> ExpansionForm:
    """(2/pi) n^2 log n + (2/pi)(gamma + log(4 sqrt(2 pi) / Gamma(1/4)^2)) n^2."""
    c = CONSTANTS
    c1 = (2.0 / math.pi) * (
        c.euler_gamma + math.log(4.0 * math.sqrt(2.0 * math.pi) / c.gamma_quarter ** 2)
    )
    return ExpansionForm(2.0 / math.pi, c1, label="square")


@lru_cache(maxsize=None)
def triangular_sum_form() -> ExpansionForm:
    """(sqrt 3/pi) n^2 log n + (sqrt 3/pi)(gamma + log(4 pi 3^(1/4) / Gamma(1/3)^3)) n^2."""
    c = CONSTANTS
    lead = math.sqrt(3.0) / math.pi
    c1 = lead * (
        c.euler_gamma + math.log(4.0 * math.pi * 3.0 ** 0.25 / c.gamma_third ** 3)
    )
    return ExpansionForm(lead, c1, label="triangular")


@lru_cache(maxsize=None)
def union_jack_sum_form() -> ExpansionForm:
    """(4/3pi) n^2 log n + (4/3pi)(gamma + log(4 sqrt(6 pi) / Gamma(1/4)^2)) n^2."""
    c = CONSTANTS
    lead = 4.0 / (3.0 * math.pi)
    c1 = lead * (
        c.euler_gamma + math.log(4.0 * math.sqrt(6.0 * math.pi) / c.gamma_quarter ** 2)
    )
    return ExpansionForm(lead, c1, label="modified_union_jack")


@lru_cache(maxsize=None)
def square_integral_form() -> ExpansionForm:
    """Full-window integral of f for the square lattice.

    (2/pi) n^2 log n + (1/pi)(log(8/pi^2) + 4 G / pi) n^2.
    """
    c = CONSTANTS
    c1 = (1.0 / math.pi) * (
        math.log(8.0 / c.pi_squared) + 4.0 * c.catalan_G / math.pi
    )
    return ExpansionForm(2.0 / math.pi, c1, label="square_integral")


def square_sum_expansion(n: int) -> float:
    return square_sum_form().evaluate(n)


def triangular_sum_expansion(n: int) -> float:
    return triangular_sum_form().evaluate(n)


def union_jack_sum_expansion(n: int) -> float:
    return union_jack_sum_form().evaluate(n)


def square_integral_expansion(n: int) -> float:
    return square_integral_form().evaluate(n)


MODEL_FORMS = {
    "square": square_sum_form,
    "triangular": triangular_sum_form,
    "modified_union_jack": union_jack_sum_form,
}


def model_for_lattice(name: str) -> ExpansionForm:
    try:
        return MODEL_FORMS[name]()
    except KeyError:
        raise DomainError(
            f"no expansion model for lattice {name!r}; "
            f"known: {sorted(MODEL_FORMS)}"
        ) from None


# ---------------------------------------------------------------------------
# Restricted integral of the quartic kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedIntegralConstants:
    """Constants of the restricted quartic-kernel integral expansion.

    mu = sqrt(24^2 + 48 pi^2 - pi^4), nu = (mu + 24)/pi^2,
    rho = nu - sqrt(nu^2 - 1), and ``clausen_term`` is the five-term
    Clausen/log combination entering the n^2 coefficient:

        Cl2(2 atan rho) - Cl2(pi + 2 atan rho) + (pi/2 + 2 atan rho) log rho
        - Cl2(pi/2 + acos((nu-1)/(nu+1))) - Cl2(pi/2 - acos((nu-1)/(nu+1))).
    """

    mu: float
    nu: float
    rho: float
    clausen_term: float


@lru_cache(maxsize=None)
def restricted_integral_constants() -> RestrictedIntegralConstants:
    mu = math.sqrt(24.0 ** 2 + 48.0 * math.pi ** 2 - math.pi ** 4)
    nu = (mu + 24.0) / math.pi ** 2
    rho = nu - math.sqrt(nu * nu - 1.0)
    # acos((nu-1)/(nu+1)) is shared by the last two Clausen terms
    phi = math.acos((nu - 1.0) / (nu + 1.0))
    lam = (
        clausen_cl2(2.0 * math.atan(rho))
        - clausen_cl2(math.pi + 2.0 * math.atan(rho))
        + (0.5 * math.pi + 2.0 * math.atan(rho)) * math.log(rho)
        - clausen_cl2(0.5 * math.pi + phi)
        - clausen_cl2(0.5 * math.pi - phi)
    )
    return RestrictedIntegralConstants(mu=mu, nu=nu, rho=rho, clausen_term=lam)


def quartic_factor_params(n: int) -> tuple[float, float]:
    """Per-n factorization parameters (alpha_n, u_n) of the angular quartic.

    12 cos^2 t - beta_n^2 eta^2(t) factors through cos^2 t = u with roots
    controlled by alpha_n = (beta_n^2 + 6) / (2 beta_n^2) and
    u_n = alpha_n + sqrt(alpha_n^2 - 1/2).  As n grows, 2 u_n - 1 -> nu
    and 1 - 1/u_n -> (nu - 1)/(nu + 1).
    """
    beta_n = GridGeometry.from_n(n).beta_n
    alpha = (beta_n * beta_n + 6.0) / (2.0 * beta_n * beta_n)
    u = alpha + math.sqrt(alpha * alpha - 0.5)
    return alpha, u


def restricted_integral_expansion(n: int) -> float:
    """Three-term expansion of the restricted quartic-kernel integral.

    (2/pi) n^2 log n
    + (2/pi)((2G + lambda)/pi + log(2 sqrt 6 / pi)) n^2
    + (96/(pi^2 mu)) (2 sqrt((nu+1)/(nu-1)) atan sqrt((nu+1)/(nu-1))
                      + (1/sqrt nu) log((sqrt nu + 1)/(sqrt nu - 1)))
      (2 - n0) n,
    with lambda, mu, nu from :func:`restricted_integral_constants`.
    """
    n0 = GridGeometry.restricted(n).n0
    k = restricted_integral_constants()
    g = CONSTANTS.catalan_G
    c1 = (2.0 / math.pi) * (
        (2.0 * g + k.clausen_term) / math.pi + math.log(2.0 * math.sqrt(6.0) / math.pi)
    )
    r = math.sqrt((k.nu + 1.0) / (k.nu - 1.0))
    sq = math.sqrt(k.nu)
    c2 = (96.0 / (math.pi ** 2 * k.mu)) * (
        2.0 * r * math.atan(r) + math.log((sq + 1.0) / (sq - 1.0)) / sq
    )
    return ((2.0 / math.pi) * math.log(n) + c1) * n * n + c2 * (2.0 - n0) * n


def _check_residue(n0: int) -> None:
    if n0 not in (0, 1, 2, 3):
        raise DomainError(f"residue class n0 must be 0, 1, 2 or 3, got {n0!r}")


@lru_cache(maxsize=None)
def _remainder_integrals() -> tuple[float, float]:
    """h1 = int_0^{pi/4} g/(12 - (pi^2/4) g) and h2 = int_0^{pi/4} of its square,

    with g = (cos^4 t + sin^4 t)/cos^2 t; both integrands are smooth.
    """
    def ratio(t):
        c = math.cos(t)
        g = (c ** 4 + math.sin(t) ** 4) / (c * c)
        return g / (12.0 - 0.25 * math.pi ** 2 * g)

    h1 = integrate_1d(ratio, 0.0, 0.25 * math.pi, tol=1e-14).value
    h2 = integrate_1d(lambda t: ratio(t) ** 2, 0.0, 0.25 * math.pi, tol=1e-14).value
    return h1, h2


def restricted_integral_remainder_limit(n0: int) -> float:
    """Limit of integral_f2_restricted(n) - restricted_integral_expansion(n)
    over n = 4 N + n0.

    In polar form the integral is (2n^2/pi) log(n beta_n/pi) plus
    (4n^2/pi^2) int_0^{pi/4} [log(12 - (pi/n)^2 g) - log(12 - beta_n^2 g)].
    Expanding in eps = (2 - n0)/n, with beta_n = (pi/2)(1 + eps) and
    int_0^{pi/4} g = 3/2 - pi/4, gives the linear coefficient 2/pi + 2 h1
    (the expansion's c2) and the limit
    pi/12 - 1/2 + (2 - n0)^2 (h1 + (pi^2/2) h2 - 1/pi), approached like 1/n.
    """
    _check_residue(n0)
    h1, h2 = _remainder_integrals()
    return (math.pi / 12.0 - 0.5
            + (2 - n0) ** 2 * (h1 + 0.5 * math.pi ** 2 * h2 - 1.0 / math.pi))


# ---------------------------------------------------------------------------
# Closed forms of the factored log integrals
# ---------------------------------------------------------------------------

def log_cos_closed_forms(a: float, regime: str) -> tuple[float, float]:
    """Closed forms of the log-cosine integrals and their derivative pair.

    regime "gt1" (a > 1): returns (J11, J12) with
      J11 = int_0^{pi/2} log(a - cos t) dt
          = Cl2(pi + 2 atan r) - Cl2(2 atan r)
            - (pi/2 + 2 atan r) log r - (pi/2) log 2,   r = a - sqrt(a^2-1),
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
        r = a - math.sqrt(a * a - 1.0)
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
    """Limit of n times the edge row sum of the restricted decomposition.

    With calA = sqrt(1 + (pi^2/12)(1 - pi^2/48)) and s = sqrt(1 + calA):

      a8  = (pi/(2 sqrt 6)) (1/(calA s)) log((2 sqrt6 s + pi)/(2 sqrt6 s - pi))
      a9  = (2 sqrt6/sqrt(48-pi^2)) (s/calA) atan(sqrt(48-pi^2)/(2 sqrt6 s))
      a11 = (2 sqrt6/sqrt(48-pi^2)) (s/calA)

    and the coefficient is 2 (a8 - 2 a9 + pi a11).
    """
    cal_a = math.sqrt(1.0 + (math.pi ** 2 / 12.0) * (1.0 - math.pi ** 2 / 48.0))
    s = math.sqrt(1.0 + cal_a)
    s6 = 2.0 * math.sqrt(6.0)
    root = math.sqrt(48.0 - math.pi ** 2)
    a8 = (math.pi / s6) * (1.0 / (cal_a * s)) * math.log((s6 * s + math.pi) / (s6 * s - math.pi))
    a9 = (s6 / root) * (s / cal_a) * math.atan(root / (s6 * s))
    a11 = (s6 / root) * (s / cal_a)
    return 2.0 * (a8 - 2.0 * a9 + math.pi * a11)


@lru_cache(maxsize=None)
def _edge_integrals() -> tuple[float, float]:
    """I = int_0^1 g and I' = int_0^1 (1 + x^4) g^2 at a0 = pi^2/48,

    with g = 1/(1 + x^2 - a0 (1 + x^4)); both integrands are smooth.
    """
    a0 = math.pi ** 2 / 48.0

    def g(x):
        return 1.0 / (1.0 + x * x - a0 * (1.0 + x ** 4))

    i0 = integrate_1d(g, 0.0, 1.0, tol=1e-14).value
    i1 = integrate_1d(lambda x: (1.0 + x ** 4) * g(x) ** 2, 0.0, 1.0, tol=1e-14).value
    return i0, i1


def edge_sum_gap_limit(n0: int) -> float:
    """Limit of n (n r_edge(n) - edge_sum_decay_coefficient()) over n = 4 N + n0.

    r_edge = N^-2 sum_{k<=N} g(k/N) with g(x) = 1/(1 + x^2 - a (1 + x^4))
    and a = a0 (1 - n0/n)^2, a0 = pi^2/48.  Euler-Maclaurin gives
    N r_edge = I(a) + (g(1) - g(0))/(2N) + O(N^-2); with n/N = 4/(1 - n0/n)
    and dI/da = I' this is n0 (4 I - 8 a0 I') - 4/(1 - a0), approached
    like 1/n.  4 I is the decay coefficient itself.
    """
    _check_residue(n0)
    a0 = math.pi ** 2 / 48.0
    i0, i1 = _edge_integrals()
    return n0 * (4.0 * i0 - 8.0 * a0 * i1) - 4.0 / (1.0 - a0)


@lru_cache(maxsize=None)
def exp_tail_limit() -> float:
    """Limit of the exponentially-weighted row sum.

    log(2 pi^(3/4)) - pi/12 - log Gamma(1/4), which equals the Lambert
    series of 1/(q;q)_inf at q = exp(-2 pi) through the Dedekind eta value
    eta(i) = Gamma(1/4)/(2 pi^(3/4)).
    """
    c = CONSTANTS
    return math.log(2.0 * c.pi_three_quarters) - math.pi / 12.0 - math.log(c.gamma_quarter)


def exp_tail_limit_series() -> float:
    """Same limit evaluated through the q-Pochhammer series (cross-check)."""
    return log_q_pochhammer_inv(math.exp(-2.0 * math.pi))


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
