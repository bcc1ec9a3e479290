"""Decomposition of the restricted quartic-kernel sum into tractable rows.

The restricted sum splits as (4 n^2 / pi^2) (axis part + quadrant part).
For each row k of the quadrant part, the summand 1/(j^2 - a j^4 + b_k)
with a = pi^2/(3 n^2) and b_k = k^2 - a k^4, the row formula u_k of
:func:`lapasym.lattice_sum.quartic_rows`, admits the partial fraction
decomposition

    1/(x^2 - a x^4 + b) = (1/(2 A sqrt B)) (1/(x + sqrt B) - 1/(x - sqrt B))
                        + (i/(2 A sqrt C)) (1/(x + i sqrt C) - 1/(x - i sqrt C)),

    A = sqrt(1 + 4 a b),  B = (1 + A)/(2 a),  C = (A - 1)/(2 a) = 2 b/(1 + A),

so the inner j-sum telescopes into digamma values.  Rearranging with the
digamma functional equations and the pi-periodicity of the cotangent makes
the row sum exactly

    (1/(2 A sqrt B)) [psi(sqrt B + N) - psi(sqrt B - N)
                      + 1/(sqrt B + N) - 1/sqrt B]
    + i (1/(2 A sqrt C)) [psi(N + i sqrt C) - psi(N - i sqrt C)
                          - 2 i sqrt C/(C + N^2) - 1/(i sqrt C)
                          + pi cot(pi i sqrt C)].

Replacing the digammas by their large-argument expansion then yields the
six elementary row-sum families (log, arctan, edge, inverse-sqrt,
exponential tail, axis) whose large-n behavior the asymptotics module pins
down, and whose summands this module also expands to second order in the
residue shift 1/N0 (the coefficient cascade).

The row functions are O(N) and share one n >= 4 guard,
:meth:`lapasym.lattice_sum.GridGeometry.restricted`.  :func:`factor_rows`
is the one place that forms u, A, B and C, and it asserts their
bracketing bounds on every call.  :func:`piece_sums` reads those rows,
sums the six families directly over k = 1..N and takes the quadrant
double sum through the exact chain above (:func:`double_sum_via_digamma`).
:func:`lapasym.lattice_sum.quadrant_sum` gets the same double sum by an
independent route, the trapezoidal rule on its Laplace integral, and the
tests check both against direct O(N^2) summation.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exceptions import ConsistencyError, DomainError
from .lattice_sum import GridGeometry, _segment_sums, quartic_rows
from .quadrature import integrate_1d
from .specfun import BERNOULLI, digamma_array

__all__ = [
    "FactorRows",
    "CascadeRow",
    "PieceSums",
    "ProfileDecomposition",
    "factor_rows",
    "piece_sums",
    "double_sum_via_digamma",
    "cascade_profile",
    "euler_maclaurin",
    "profile_decomposition",
]


# ---------------------------------------------------------------------------
# Per-row factorization quantities
# ---------------------------------------------------------------------------

class FactorRows(NamedTuple):
    """Quartic factorization data for the quadrant rows k = 1..N, as arrays."""

    u: np.ndarray    # u_k = k^2 - a k^4, the row formula of quartic_rows
    A: np.ndarray    # sqrt(1 + 4 a u_k)
    B: np.ndarray    # (1 + A) / (2a): square of the real root pair
    C: np.ndarray    # (A - 1) / (2a): square of the imaginary root pair


def factor_rows(n: int) -> FactorRows:
    """All rows k = 1..N, with their bracketing bounds asserted.

    A violated bound means an implementation bug and raises
    ConsistencyError; every route that reads A, B or C takes them from here.
    """
    u = quartic_rows(n)
    N = len(u)
    c = math.pi ** 2 / (3.0 * n * n)
    A = np.sqrt(1.0 + 4.0 * c * u)
    B = (1.0 + A) / (2.0 * c)
    # C = (A - 1)/(2c) cancels for small k (A - 1 ~ 2 c k^2); 2u/(1 + A) does not
    C = 2.0 * u / (1.0 + A)
    k2 = np.arange(1, N + 1, dtype=np.float64) ** 2
    sB = np.sqrt(B)
    ok = ((1.0 < A) & (A < 1.3)
          & (3.0 * n * n / math.pi ** 2 < B) & (B < 3.5 * n * n / math.pi ** 2)
          & (0.69 * k2 < C) & (C <= k2)
          & (0.3 * n < sB - N) & (sB + N < 0.85 * n))
    if not ok.all():
        raise ConsistencyError(f"factor-row bounds violated at n = {n}")
    return FactorRows(u, A, B, C)


# ---------------------------------------------------------------------------
# Direct row sums
# ---------------------------------------------------------------------------

class PieceSums(NamedTuple):
    """The six row-sum families plus the quadrant double sum.

    The six families are direct sums over k = 1..N; r_double is the
    quadrant double sum through the exact digamma route, which agrees with
    the direct double sum to rounding.

    r_log   : (1/N) sum_k (1/A_k)(N/sqrt B_k) log((1 + N/sqrt B_k)/(1 - N/sqrt B_k))
    r_atan  : (1/N) sum_k (1/A_k) atan(sqrt C_k / N)/(sqrt C_k / N)
    r_edge  : sum_k 1/(b_k + b_N) = sum_k 1/(k^2 + N^2 - a (k^4 + N^4))
    r_sqrt  : sum_k 1/(A_k sqrt C_k)
    r_exp   : sum_k (1/(A_k sqrt C_k)) e^(-2 pi sqrt C_k)/(1 - e^(-2 pi sqrt C_k))
    q_axis  : sum_k 1/(k^2 - a k^4)
    r_double: sum_{j,k=1}^N 1/(j^2 + k^2 - a (j^4 + k^4))

    The assembly identity is
    restricted f2 sum = (4 n^2/pi^2)(q_axis + r_double), and up to an O(1)
    remainder also (2 n^2/pi^2)(r_log - 2 r_atan + r_edge + pi r_sqrt
    + 2 pi r_exp + q_axis).
    """

    r_log: float
    r_atan: float
    r_edge: float
    r_sqrt: float
    r_exp: float
    q_axis: float
    r_double: float
    n: int

    def assembled(self) -> float:
        """Six-piece assembly of the restricted f2 sum, up to its O(1) remainder."""
        n = self.n
        return (2.0 * n * n / math.pi ** 2) * (
            self.r_log - 2.0 * self.r_atan + self.r_edge + math.pi * self.r_sqrt
            + 2.0 * math.pi * self.r_exp + self.q_axis)


def piece_sums(n: int) -> PieceSums:
    """Every row-sum family at size n, in O(N) time and memory.

    The six families are summed directly over k = 1..N; r_double comes
    from :func:`double_sum_via_digamma`, whose identity chain is exact, so
    no quadrant is formed here.  The Laplace quadrature of
    :func:`lapasym.lattice_sum.quadrant_sum` is the independent check of
    that route.
    """
    rows = factor_rows(n)
    u, A, B, C = rows
    N = len(u)
    sB = np.sqrt(B)
    sC = np.sqrt(C)
    ratio = N / sB
    r_log = float(np.sum((1.0 / N) * (1.0 / A) * ratio * np.log((1.0 + ratio) / (1.0 - ratio))))
    rc = sC / N
    r_atan = float(np.sum((1.0 / N) * (1.0 / A) * np.arctan(rc) / rc))
    q_axis = float(np.sum(1.0 / u))
    r_edge = float(np.sum(1.0 / (u + u[-1])))
    r_sqrt = float(np.sum(1.0 / (A * sC)))
    # e^(-2 pi sqrt C) decays like e^(-pi k); cut once terms are below 1e-18
    cut = int(np.searchsorted(2.0 * math.pi * sC, 42.0)) + 1
    e = np.exp(-2.0 * math.pi * sC[:cut])
    r_exp = float(np.sum((1.0 / (A[:cut] * sC[:cut])) * e / (1.0 - e)))
    return PieceSums(
        r_log=r_log, r_atan=r_atan, r_edge=r_edge, r_sqrt=r_sqrt, r_exp=r_exp,
        q_axis=q_axis, r_double=_route_sum(rows), n=n,
    )


# ---------------------------------------------------------------------------
# Exact digamma route for the quadrant double sum
# ---------------------------------------------------------------------------

def double_sum_via_digamma(n: int) -> float:
    """Quadrant double sum through partial fractions and digamma identities.

    No asymptotic truncation anywhere: the identity chain is exact, so
    this must agree with the direct double sum to rounding.  The imaginary
    pair's bracket is i times 2 Im psi(N + i sqrt C) - 2 sqrt C/(C + N^2)
    + 1/sqrt C - pi coth(pi sqrt C), summed in reals; each quotient is a
    product with a reciprocal, the bits numpy's complex division by a real
    gave.  All rows k = 1..N are evaluated as arrays and combined into the
    float math.fsum would return.  Digamma takes Re z >= 10 only, and
    N + i sqrt C has real part N, so a window with N < 10 (n < 40) sums its
    at most 81 pairs 1/(u_j + u_k) directly, also correctly rounded.
    """
    return _route_sum(factor_rows(n))


def _route_sum(rows: FactorRows) -> float:
    """:func:`double_sum_via_digamma` from the rows of :func:`factor_rows`."""
    u, A, B, C = rows
    N = len(A)
    if N < 10:  # digamma takes Re z >= 10 only, and Re(N + i sqrt C) = N
        return math.fsum((1.0 / (u[:, None] + u)).ravel().tolist())
    sB = np.sqrt(B)
    sC = np.sqrt(C)
    psi = digamma_array(np.concatenate((sB + N, sB - N)))
    real_part = (
        psi[:N] - psi[N:]
        + 1.0 / (sB + N) - 1.0 / sB
    ) / (2.0 * A * sB)
    bracket = (  # times i, the bracket of the imaginary pair
        2.0 * digamma_array(N + 1j * sC).imag
        - 2.0 * sC * (1.0 / (C + N * N))
        + 1.0 / sC
        - math.pi * (1.0 / np.tanh(math.pi * sC))  # pi cot(pi i sqrt C) = -i pi coth
    )
    imag_part = -bracket * (1.0 / (2.0 * A * sC))
    terms = real_part + imag_part
    # one float either way; the extraction passes are faster from about 512 terms
    return math.fsum(terms.tolist()) if N < 512 else _segment_sums(terms, np.array([N]))[0]


# ---------------------------------------------------------------------------
# Coefficient cascade
# ---------------------------------------------------------------------------

class CascadeRow(NamedTuple):
    """Second-order expansion coefficients of one row's summands in 1/N0.

    Eleven (alpha, beta, gamma) triples; index i holds the coefficients of
    stage i in ``alpha[i]``, ``beta[i]``, ``gamma[i]`` (index 0 unused).
    Stages 1..6 and 10 expand the building blocks 1/A, sqrt(1+A),
    1/sqrt(1+A), N/sqrt B, the log ratio, sqrt C / N and its reciprocal;
    stages 8, 9 and 11 assemble the log summand, the arctan summand and
    1/(A sqrt C).
    """

    a: float
    cal_A: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]


def cascade_profile(x: float) -> CascadeRow:
    """Cascade coefficients as smooth functions of the row fraction x = k/N.

    Rows themselves have x in (0, 1]; the function is analytic on
    |x| < 4 sqrt(3)/pi = 2.205, and a margin of that disk is accepted so
    finite differences can probe just outside the endpoints.
    """
    if not -2.0 <= x <= 2.0:
        raise DomainError(f"row fraction must lie within [-2, 2], got {x!r}")
    a = (math.pi / (4.0 * math.sqrt(3.0))) * x
    aa = a * a
    calA = math.sqrt(1.0 + 4.0 * aa * (1.0 - aa))
    one_p = 1.0 + calA

    alpha = [math.nan] * 12
    beta = [math.nan] * 12
    gamma = [math.nan] * 12

    alpha[1] = 1.0 / calA
    beta[1] = -4.0 * aa * (2.0 * aa - 1.0) / calA ** 2
    gamma[1] = 2.0 * aa * (8.0 * aa ** 3 + 4.0 * aa ** 2 + 10.0 * aa - 3.0) / calA ** 4

    alpha[2] = math.sqrt(one_p)
    beta[2] = 2.0 * aa * (2.0 * aa - 1.0) / (calA * one_p)
    shared = aa / (calA ** 2 * one_p)
    cross = (2.0 * aa - 3.0) * (12.0 * aa ** 2 - 1.0) / calA
    square = 2.0 * aa * (2.0 * aa - 1.0) ** 2 / one_p
    gamma[2] = shared * (cross - square)

    alpha[3] = 1.0 / math.sqrt(one_p)
    beta[3] = -beta[2]
    gamma[3] = shared * (3.0 * square - cross)

    alpha[4] = (math.pi / (2.0 * math.sqrt(6.0))) * alpha[3]
    beta[4] = beta[3] - 1.0
    gamma[4] = 1.0 - beta[3] + gamma[3]

    one_m4 = 1.0 - alpha[4] ** 2
    alpha[5] = (1.0 + alpha[4]) / (1.0 - alpha[4])
    beta[5] = 2.0 * alpha[4] * beta[4] / one_m4
    gamma[5] = (2.0 * alpha[4] * gamma[4] / one_m4
                + 2.0 * alpha[4] ** 3 * beta[4] ** 2 / one_m4 ** 2)

    one_ma = 1.0 - aa
    alpha[6] = math.sqrt(2.0) * math.sqrt(one_ma) / math.sqrt(one_p) * x
    beta[6] = beta[3] + aa / one_ma
    gamma[6] = (gamma[3] + beta[3] * aa / one_ma
                + aa * (2.0 * aa - 3.0) / (2.0 * one_ma ** 2))

    t = alpha[6]
    if abs(t) < 1e-4:  # atan(t)/t by its series; avoids 0/0 at the x = 0 endpoint
        t2 = t * t
        alpha[7] = 1.0 - t2 / 3.0 + t2 * t2 / 5.0
    else:
        alpha[7] = math.atan(t) / t
    beta[7] = -beta[6]
    gamma[7] = beta[6] ** 2 - gamma[6]
    # the additive (not multiplicative) first and second order terms of
    # stage 7, the arctan(x)/x block; they feed stage 9
    one_pt = 1.0 + t * t
    beta7_off = beta[6] / one_pt
    gamma7_off = gamma[6] / one_pt - beta[6] ** 2 * (1.0 + 2.0 * t * t) / one_pt ** 2

    log5 = math.log(alpha[5])
    alpha[8] = alpha[1] * alpha[4] * log5
    beta[8] = alpha[1] * alpha[4] * ((beta[1] + beta[4]) * log5 + beta[5])
    gamma[8] = alpha[1] * alpha[4] * (
        (beta[1] * beta[4] + gamma[1] + gamma[4]) * log5
        + (beta[1] + beta[4]) * beta[5] + gamma[5]
    )

    alpha[9] = alpha[1] * alpha[7]
    beta[9] = alpha[1] * (alpha[7] * (beta[1] + beta[7]) + beta7_off)
    gamma[9] = alpha[1] * (
        (beta[1] * beta[7] + gamma[1] + gamma[7]) * alpha[7]
        + beta[1] * beta7_off + gamma7_off
    )

    alpha[10] = math.sqrt(one_p) / (math.sqrt(2.0) * math.sqrt(one_ma))
    beta[10] = -beta[6]
    gamma[10] = beta[6] ** 2 - gamma[6]

    alpha[11] = alpha[1] * alpha[10]
    beta[11] = beta[1] + beta[10]
    gamma[11] = beta[1] * beta[10] + gamma[1] + gamma[10]

    return CascadeRow(
        a=a, cal_A=calA,
        alpha=tuple(alpha), beta=tuple(beta), gamma=tuple(gamma),
    )


# ---------------------------------------------------------------------------
# Euler-Maclaurin engine
# ---------------------------------------------------------------------------

def _fd_derivative(g, order, h):
    """The central difference of g: g once on x + h (-r..r), r = ceil(order / 2),
    differenced order times, the one or two values left averaged, over h^order."""
    r = (order + 1) // 2
    offsets = h * np.arange(-r, r + 1)
    scale = h ** -order

    def d(x):
        x = np.asarray(x)[..., None] + offsets
        return scale * np.diff(np.broadcast_to(g(x), x.shape), order).mean(axis=-1)

    return d


def euler_maclaurin(g: Callable[[np.ndarray], np.ndarray], N: int, p: int,
                    derivatives: Sequence[Callable[[np.ndarray], np.ndarray]] | None = None,
                    ) -> tuple[float, float]:
    """Euler-Maclaurin value of (1/N) sum_{k=1}^N g(k/N) plus a remainder bound.

    Returns (approximation, bound) with

      approximation = int_0^1 g + (1/N)(g(1) - g(0))
                      + sum_{l=1}^p (B_l / (l! N^l)) [g^(l-1)]_0^1,
      bound = (1/(N^p p!)) max|B_p(.)| int_0^1 |g^(p)|,

    where B_l are Bernoulli numbers and B_p(.) the periodic Bernoulli
    polynomial, max|B_p(.)| is exact (for odd p >= 3 a bound at most 1.65
    times it) and int_0^1 |g^(p)| is a 513-point trapezoid estimate.
    ``g`` and each derivative are numpy functions of an array (a constant
    is broadcast).  ``derivatives``, when given, supplies g', g'', ... up
    to order p; otherwise central differences with step eps^(1/(p+2)) are
    used, which requires g to be evaluable slightly outside [0, 1], and
    the bound is inflated by the differentiation error estimate.
    """
    if not 1 <= p <= 6:
        raise DomainError(f"derivative order must satisfy 1 <= p <= 6, got {p}")
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    fd_step = None
    if derivatives is None:
        fd_step = np.finfo(float).eps ** (1.0 / (p + 2))
        derivatives = [_fd_derivative(g, m, fd_step) for m in range(1, p + 1)]
    elif len(derivatives) < p:
        raise DomainError(f"need derivatives up to order {p}, got {len(derivatives)}")

    integral = integrate_1d(g, 0.0, 1.0, tol=1e-12).value
    value = integral + (g(1.0) - g(0.0)) / N
    for ell in range(1, p + 1):
        b = BERNOULLI.floats[ell]
        if b == 0.0:
            continue
        d = g if ell == 1 else derivatives[ell - 2]
        value += b / (math.factorial(ell) * N ** ell) * (d(1.0) - d(0.0))

    # max|B_p(.)|: B_1(x) = x - 1/2 on [0, 1), and even B_p(x) peaks at
    # x = 0.  For odd p, |B_p(x)| <= 2 p! zeta(p) / (2 pi)^p by the Fourier
    # series, and zeta(p) < zeta(p - 1) = |B_(p-1)| (2 pi)^(p-1) / (2 (p-1)!).
    if p % 2 == 0:
        max_bp = abs(BERNOULLI.floats[p])
    else:
        max_bp = 0.5 if p == 1 else p * abs(BERNOULLI.floats[p - 1]) / (2.0 * math.pi)
    xs = np.linspace(0.0, 1.0, 513)
    dp = derivatives[p - 1]
    vals = np.abs(np.broadcast_to(dp(xs), xs.shape))
    int_abs = float(np.trapezoid(vals, xs))
    bound = max_bp * int_abs / (math.factorial(p) * N ** p)
    if fd_step is not None:
        bound += max_bp * (fd_step ** 2 * (1.0 + float(vals.max()))) / (math.factorial(p) * N ** p)
    return value, bound


# ---------------------------------------------------------------------------
# Profile route for the log and arctan row sums
# ---------------------------------------------------------------------------

class ProfileDecomposition(NamedTuple):
    """Direct row sums next to their cascade-profile reconstruction.

    For n = 0 mod 4 the residue shift vanishes and the stage 8/9 profiles
    reproduce the summands exactly; otherwise the reconstruction carries
    the first and second order 1/N0 corrections.
    """

    r_log: float
    r_atan: float
    r_log_profile: float
    r_atan_profile: float


def profile_decomposition(n: int) -> ProfileDecomposition:
    geom = GridGeometry.restricted(n)
    pieces = piece_sums(n)
    inv_n0 = geom.n0 / (4.0 * geom.N) if geom.n0 else 0.0
    rows = [cascade_profile(k / geom.N) for k in range(1, geom.N + 1)]
    corr_log = [r.alpha[8] + inv_n0 * (r.beta[8] + inv_n0 * r.gamma[8]) for r in rows]
    corr_atan = [r.alpha[9] + inv_n0 * (r.beta[9] + inv_n0 * r.gamma[9]) for r in rows]
    return ProfileDecomposition(
        r_log=pieces.r_log,
        r_atan=pieces.r_atan,
        r_log_profile=math.fsum(corr_log) / geom.N,
        r_atan_profile=math.fsum(corr_atan) / geom.N,
    )
