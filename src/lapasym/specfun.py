"""Scalar special functions feeding the lattice-sum asymptotics.

Everything is plain IEEE-754 binary64, no external special-function
dependency.  Provided here:

* exact rational Bernoulli numbers and periodic Bernoulli polynomials,
* the Clausen function Cl2(theta) = sum_{k>=1} sin(k theta)/k^2,
* the digamma function on the real line and on the complex plane, for
  scalars and elementwise over numpy arrays,
* log of the inverse q-Pochhammer symbol, -log((q;q)_inf),
* a table of fundamental constants shared by every closed-form expansion.

Accuracy targets: Cl2 absolute error <= 1e-13 on [0, 2 pi]; the
q-Pochhammer series is truncated once terms drop below 1e-17.  Digamma,
against 40-digit mpmath (relative error, absolute where |psi| < 1):
at most 7.6e-16 for real x >= 2 and 1.6e-15 on [0.05, 2], where the
recurrence's reciprocals cancel against log x (20000 random points per
interval); the digamma-route gap of the restricted quadrant sum is then
8.3e-16 at n = 7 and 3.8e-16 at n = 8.

All functions are pure; the constant tables are built once at import and
never mutated, so concurrent use needs no locking.
"""

from __future__ import annotations

import cmath
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
    "periodic_bernoulli",
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
    # B_m = -(1/(m+1)) sum_{j<m} C(m+1, j) B_j, exact in rational arithmetic
    values = [Fraction(1)]
    for m in range(1, max_index + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return BernoulliTable(tuple(values), tuple(float(v) for v in values))


BERNOULLI = _make_bernoulli(40)


def periodic_bernoulli(p: int, x: float) -> float:
    """Value of the p-th Bernoulli polynomial on the fractional part of x.

    The polynomial on [0, 1) is extended with period one, so
    ``periodic_bernoulli(p, x + 1) == periodic_bernoulli(p, x)``.
    Supported degrees: 1 <= p <= 8.
    """
    if not isinstance(p, int) or not 1 <= p <= 8:
        raise DomainError(f"polynomial degree must be an integer in [1, 8], got {p!r}")
    t = x - math.floor(x)
    if t == 1.0:  # x just below an integer can round up to the period end
        t = 0.0
    acc = 0.0
    for j in range(p + 1):  # descending powers: coefficient of t^(p-j)
        acc = acc * t + math.comb(p, j) * BERNOULLI.floats[j]
    return acc


# ---------------------------------------------------------------------------
# Fundamental constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalConstants:
    """Shared source of truth for the constants entering the expansions.

    ``eta_at_i`` is the Dedekind eta function at the imaginary unit,
    eta(i) = Gamma(1/4) / (2 pi^(3/4)).
    """

    catalan_G: float
    euler_gamma: float
    gamma_quarter: float
    gamma_third: float
    eta_at_i: float
    pi: float
    pi_squared: float
    pi_three_quarters: float


def _make_constants() -> FundamentalConstants:
    gamma_quarter = 3.6256099082219083119306851558676720029951676828800654674333
    return FundamentalConstants(
        catalan_G=0.9159655941772190150546035149323841107741493742816721342665,
        euler_gamma=0.5772156649015328606065120900824024310421593359399235988058,
        gamma_quarter=gamma_quarter,
        gamma_third=2.6789385347077476336556929409746776441286893779573011009505,
        eta_at_i=gamma_quarter / (2.0 * math.pi ** 0.75),
        pi=math.pi,
        pi_squared=math.pi * math.pi,
        pi_three_quarters=math.pi ** 0.75,
    )


CONSTANTS = _make_constants()


# ---------------------------------------------------------------------------
# Clausen function
# ---------------------------------------------------------------------------

# Series around 0:  Cl2(x) = x - x log x + sum_m c_m x^(2m+1),
# c_m = |B_{2m}| / (2m (2m+1) (2m)!).  Converges like (x / 2 pi)^(2m);
# at the 0.5 cutover twelve terms are far below 1e-18.
_CL2_SMALL = tuple(
    abs(BERNOULLI.floats[2 * m]) / (2 * m * (2 * m + 1) * math.factorial(2 * m))
    for m in range(1, 13)
)

_CL2_DIRECT_TERMS = 72
_CL2_TAIL_TERMS = 40


def _cl2_zero_series(x: float) -> float:
    x2 = x * x
    acc = 0.0
    p = x * x2
    for c in _CL2_SMALL:
        t = c * p
        acc += t
        if t < 1e-18:
            break
        p *= x2
    return x - x * math.log(x) + acc


def _cl2_sine_series(x: float) -> float:
    # Direct partial sum, then a tail from iterated summation by parts:
    #   sum_{k>K} z^k/k^2 = z^(K+1)/(1-z) * sum_m w^m D_m,  w = z/(1-z),
    # with the forward differences of f(k)=1/k^2 in the stable closed form
    #   D_m = (-1)^m (m! / prod_{i=1}^{m+1}(K+i)) * sum_{i=K+1}^{K+m+1} 1/i.
    K = _CL2_DIRECT_TERMS
    head = math.fsum(math.sin(k * x) / (k * k) for k in range(1, K + 1))
    z = cmath.exp(1j * x)
    w = z / (1.0 - z)
    diff = 1.0 / (K + 1)  # m!/prod(K+i) at m = 0
    harm = 1.0 / (K + 1)
    series = complex(diff * harm)
    wpow = complex(1.0)
    sign = 1.0
    for m in range(1, _CL2_TAIL_TERMS + 1):
        diff *= m / (K + m + 1)
        harm += 1.0 / (K + m + 1)
        wpow *= w
        sign = -sign
        term = sign * wpow * (diff * harm)
        series += term
        if abs(term) < 1e-19:
            break
    tail = (z ** (K + 1) / (1.0 - z) * series).imag
    return head + tail


def clausen_cl2(theta: float) -> float:
    """Clausen function Cl2, the odd 2 pi-periodic primitive of -log|2 sin(t/2)|.

    Any finite real argument is accepted; it is reduced modulo 2 pi first.
    Near zero the sine series converges too slowly, so there the expansion
    x - x log x + sum c_m x^(2m+1) handles the x log x singularity; from 0.5
    up to pi the sine series is summed with an accelerated tail correction.
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
    if x < 0.5:
        return sign * _cl2_zero_series(x)
    return sign * _cl2_sine_series(x)


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------

_DIGAMMA_SHIFT = 10.0
# B_{2j}/(2j) for j=1..7: the first omitted term, |B_16|/(16 x^16), is
# 4.4e-17 at the shift threshold x = 10, below the rounding of psi there.
_DIGAMMA_COEFF = tuple(float(BERNOULLI.exact[2 * j] / (2 * j)) for j in range(1, 8))


def digamma_real(x: float) -> float:
    """Digamma (logarithmic derivative of Gamma) for real non-pole arguments.

    Uses the recurrence psi(x) = psi(x+1) - 1/x to shift the argument to
    x >= 10, then psi(x) = log x - 1/(2x) - sum_j B_{2j}/(2j x^{2j}).
    """
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"digamma pole at {x!r}")
    acc = 0.0
    while x < _DIGAMMA_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_COEFF):
        tail = (tail + c) * u
    return acc + math.log(x) - 0.5 / x - tail


def digamma_complex(z: complex) -> complex:
    """Digamma on the complex plane minus the poles at 0, -1, -2, ...

    Same recurrence-shift plus asymptotic-series scheme as
    :func:`digamma_real`; the shift continues until Re z >= 10, which keeps
    the expansion safely inside its sector of validity.  Conjugate symmetry
    psi(conj z) = conj(psi(z)) holds to within rounding.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"argument must be finite, got {z!r}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"digamma pole at {z!r}")
    acc = complex(0.0)
    while z.real < _DIGAMMA_SHIFT:
        acc -= 1.0 / z
        z += 1.0
    u = 1.0 / (z * z)
    tail = complex(0.0)
    for c in reversed(_DIGAMMA_COEFF):
        tail = (tail + c) * u
    return acc + cmath.log(z) - 0.5 / z - tail


def digamma_array(z) -> np.ndarray:
    """Digamma elementwise over a real or complex array.

    The scheme of :func:`digamma_real` and :func:`digamma_complex`: every
    entry with real part below 10 is shifted up by the recurrence, the
    others are masked out, then the same asymptotic series is applied.
    Real input gives a float array, complex input a complex array.
    """
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, np.float64))  # a copy
    if not np.all(np.isfinite(z)):
        raise DomainError("arguments must be finite")
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if pole.any():
        raise PoleError(f"digamma pole at {z[pole][0]!r}")
    acc = np.zeros_like(z)
    low = z.real < _DIGAMMA_SHIFT
    while low.any():
        acc[low] -= 1.0 / z[low]
        z[low] += 1.0
        low = z.real < _DIGAMMA_SHIFT
    u = 1.0 / (z * z)
    tail = np.zeros_like(z)
    for c in reversed(_DIGAMMA_COEFF):
        tail = (tail + c) * u
    return acc + np.log(z) - 0.5 / z - tail


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
