"""Tests for the scalar special functions."""
import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lapasym import specfun, verify
from lapasym.decomposition import factor_rows
from lapasym.exceptions import DomainError
from lapasym.quadrature import integrate_1d
from lapasym.specfun import (BERNOULLI, CONSTANTS, clausen_cl2,
                             digamma_array, log_q_pochhammer_inv)


def accelerated_alternating_sum(terms, passes=60):
    """Euler-transform an alternating series sum_m (-1)^m a_m.

    Repeated averaging of the partial sums converges geometrically, so a
    slowly alternating series reaches 1e-15 from a few dozen terms.
    """
    partial = []
    acc = 0.0
    for m, a in enumerate(terms):
        acc += a if m % 2 == 0 else -a
        partial.append(acc)
    row = partial
    for _ in range(passes):
        if len(row) < 2:
            break
        row = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
    return row[-1]


def catalan_oracle():
    # G = sum_m (-1)^m / (2m+1)^2, accelerated to ~1e-15
    return accelerated_alternating_sum(
        [1.0 / (2 * m + 1) ** 2 for m in range(80)])


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

def test_bernoulli_exact_values():
    b = BERNOULLI.exact
    assert BERNOULLI.max_index >= 12
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[12] == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for i in range(3, BERNOULLI.max_index + 1, 2):
        assert BERNOULLI.exact[i] == 0


def test_bernoulli_float_rendering():
    for frac, flt in zip(BERNOULLI.exact, BERNOULLI.floats):
        assert flt == float(frac)


def bernoulli_by_recurrence(max_index):
    """B_m = -(1/(m+1)) sum_{j<m} C(m+1, j) B_j, exact in rational arithmetic."""
    values = [Fraction(1)]
    for m in range(1, max_index + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values


@pytest.mark.parametrize("max_index", [0, 1, 2, 3, 4, 7, 40, 61])
def test_bernoulli_tangent_numbers_match_recurrence(max_index):
    table = specfun._make_bernoulli(max_index)
    want = bernoulli_by_recurrence(max_index)
    assert list(table.exact) == want
    assert list(table.floats) == [float(b) for b in want]
    if max_index == BERNOULLI.max_index:
        assert table == BERNOULLI


# ---------------------------------------------------------------------------
# Clausen function
# ---------------------------------------------------------------------------

def test_clausen_at_zero():
    assert clausen_cl2(0.0) == 0.0


def test_clausen_at_pi():
    assert abs(clausen_cl2(math.pi)) <= 1e-13


def test_clausen_catalan():
    oracle = catalan_oracle()
    assert abs(oracle - CONSTANTS.catalan_G) <= 1e-14
    assert abs(clausen_cl2(math.pi / 2.0) - oracle) <= 1e-13


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.499, 0.5, 0.9, 1.7, 2.6, 3.1])
def test_clausen_integral_representation(theta):
    # Cl2(t) = -int_0^t log(2 sin(u/2)) du; split off the log-singular head
    eps = 1e-7
    head = eps * math.log(eps) - eps  # int_0^eps log u du, sine factor is O(eps^3)
    tail = integrate_1d(lambda u: math.log(2.0 * math.sin(0.5 * u)),
                        eps, theta, tol=1e-13).value
    assert clausen_cl2(theta) == pytest.approx(-(head + tail), abs=5e-13)


def test_clausen_duplication_grid():
    # Cl2(2t) = 2 Cl2(t) - 2 Cl2(pi - t) on 200 uniform samples of (0, pi)
    worst = 0.0
    for i in range(200):
        t = (i + 0.5) * math.pi / 200.0
        r = clausen_cl2(2.0 * t) - 2.0 * clausen_cl2(t) + 2.0 * clausen_cl2(math.pi - t)
        worst = max(worst, abs(r))
    assert worst <= 1e-12


@given(st.floats(min_value=-50.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
def test_clausen_odd_and_periodic(theta):
    assert clausen_cl2(-theta) == pytest.approx(-clausen_cl2(theta), abs=5e-13)
    assert clausen_cl2(theta + 2.0 * math.pi) == pytest.approx(
        clausen_cl2(theta), abs=5e-13)


def test_clausen_against_20_digit_reference():
    # both series over [0, pi], densely near 0, on both sides of the 2 pi/3
    # split and just below pi, plus the end points; a 20-digit reference is
    # off by about 1e-20, far inside the bound
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 20
    split = 2.0 * math.pi / 3.0
    x = np.random.default_rng(20261019).uniform(0.0, math.pi, 2000).tolist()
    x += np.geomspace(1e-12, 1e-3, 100).tolist()
    x += (split + np.linspace(-1e-3, 1e-3, 101)).tolist()
    x += (math.pi - np.geomspace(1e-12, 1e-3, 100)).tolist()
    x += [0.0, split, math.pi]
    worst = max(float(abs(mp.mpf(clausen_cl2(t)) - mp.clsin(2, t))) for t in x)
    assert worst <= 4e-16


def test_clausen_rejects_non_finite():
    with pytest.raises(DomainError):
        clausen_cl2(math.inf)
    with pytest.raises(DomainError):
        clausen_cl2(math.nan)


# ---------------------------------------------------------------------------
# Digamma
# ---------------------------------------------------------------------------

def test_digamma_at_one_against_harmonic_oracle():
    # gamma = lim (H_M - log M - 1/(2M) + 1/(12 M^2)), here at M = 10^6
    M = 1_000_000
    h = math.fsum(1.0 / k for k in range(1, M + 1))
    gamma_est = h - math.log(M) - 0.5 / M + 1.0 / (12.0 * M * M)
    assert abs(gamma_est - CONSTANTS.euler_gamma) <= 1e-12
    assert abs(digamma_array(1.0) + gamma_est) <= 1e-12


def test_digamma_at_two():
    assert digamma_array(2.0) == pytest.approx(
        digamma_array(1.0) + 1.0, abs=1e-13)
    assert digamma_array(2.0) == pytest.approx(
        1.0 - CONSTANTS.euler_gamma, abs=1e-13)


def test_digamma_difference_is_finite_sum():
    expected = 1.0 / 1.5 + 1.0 / 2.5 + 1.0 / 3.5
    assert digamma_array(4.5) - digamma_array(1.5) == pytest.approx(expected, abs=1e-12)


def test_digamma_half():
    assert digamma_array(0.5) == pytest.approx(
        -CONSTANTS.euler_gamma - 2.0 * math.log(2.0), abs=1e-12)


def test_digamma_recurrence_random_points():
    rng = np.random.default_rng(99)
    x = rng.uniform(0.1, 100.0, size=1000)
    worst = np.max(np.abs(digamma_array(1.0 + x) - digamma_array(x) - 1.0 / x))
    mag, ang = rng.uniform([1.0, -0.49 * math.pi], [100.0, 0.49 * math.pi], size=(1000, 2)).T
    z = mag * np.exp(1j * ang)
    worst = max(worst, np.max(np.abs(digamma_array(1.0 + z) - digamma_array(z) - 1.0 / z)))
    assert worst <= 1e-12


def test_digamma_finite_sum_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 51))
        a = float(rng.uniform(0.1, 5.0))
        direct = math.fsum(1.0 / (j + a) for j in range(1, N + 1))
        via = digamma_array(N + 1 + a) - digamma_array(1 + a)
        worst = max(worst, abs(direct - via))
    assert worst <= 1e-11


def test_digamma_complex_matches_real_axis():
    z = digamma_array(2.0 + 0j)
    assert z.imag == 0.0
    assert z.real == pytest.approx(digamma_array(2.0), abs=1e-14)


def test_digamma_complex_reflection_recurrence():
    # psi(1+z) - psi(1-z) = 1/z - pi cot(pi z), checked at z = i
    z = 1j
    lhs = digamma_array(1 + z) - digamma_array(1 - z)
    rhs = 1.0 / z - math.pi / cmath.tan(math.pi * z)
    assert abs(lhs - rhs) <= 1e-12
    assert abs(lhs.real) <= 1e-13  # purely imaginary


def test_digamma_schwarz_reflection():
    z = 3.0 + 2.0j
    assert abs(digamma_array(z.conjugate()) - digamma_array(z).conjugate()) <= 1e-13


@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_digamma_schwarz_property(re, im):
    z = complex(re, im)
    assert abs(digamma_array(z.conjugate())
               - digamma_array(z).conjugate()) <= 1e-13


def test_digamma_array_of_a_scalar_is_a_scalar():
    # one argument in the disc about 2 after a shift, one past the shift
    for x in (1.0, 30.0, 1.0 + 0.1j):
        got = digamma_array(x)
        assert np.ndim(got) == 0 and got == digamma_array([x])[0]


def test_digamma_array_rejects_poles_and_non_finite():
    # the domain is finite z with Re z > 0: the poles, the rest of the left
    # half-plane, the imaginary axis, nan and inf are refused, and the
    # message names the first refused entry
    for bad in (0.0, -0.0, -0.5, -1.0, -2.0, -2.0 + 0j, -7.0 + 0j, 1e-300j, -1024.5, -1e7 + 1j,
                math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(1.0, math.inf)):
        with pytest.raises(DomainError) as err:
            digamma_array(bad)
        assert str(err.value) == f"digamma needs finite z with Re z > 0, got {bad!r}"
    for bad, first in (([1.5, 0.0, -3.0], 0.0), (np.array([2.0 + 0j, -1.0 + 0j]), -1.0 + 0j),
                       ([[1.0, 2.0], [math.nan, -1.0]], math.nan)):
        with pytest.raises(DomainError) as err:
            digamma_array(bad)
        assert str(err.value).endswith(f", got {first!r}")


def _digamma_stepwise(z):
    """digamma_array's recurrence one masked step at a time, as it ran
    before its one-pass grid, with the same tail and series: the bit oracle."""
    z = np.asarray(z)
    z = z.astype(np.result_type(z.dtype, np.float64))
    acc = np.zeros_like(z)
    near = np.zeros(z.shape, dtype=bool)
    low = z.real < specfun._DIGAMMA_SHIFT
    while low.any():
        near |= low & (np.abs(z - 2.0) <= specfun._DIGAMMA_DISC)
        low &= ~near
        acc[low] -= 1.0 / z[low]
        z[low] += 1.0
        low &= z.real < specfun._DIGAMMA_SHIFT
    u = 1.0 / (z * z)
    tail = 0.0
    for c in reversed(specfun._DIGAMMA_COEFF):
        tail = (tail + c) * u
    out = np.asarray(acc + np.log(z) - 0.5 / z - tail)
    if near.any():
        out[near] = acc[near] + specfun._digamma_near_two(z[near] - 2.0)
    return out[()]


def test_digamma_rounds_match_the_stepwise_loop_bit_for_bit():
    rng = np.random.default_rng(20261019)
    edges = np.concatenate([c + np.arange(-6, 7) * np.spacing(c) for c in (1.5, 2.5)])
    edges = np.concatenate([edges - k for k in range(3)])  # reached after k steps
    edges = edges[edges > 0.0]
    sector = np.exp(rng.uniform(0.0, math.log(100.0), 5000)
                    + 1j * rng.uniform(-0.49 * math.pi, 0.49 * math.pi, 5000))
    # z with Re z just above 0 and |Im z| > 1/2 misses the disc and takes
    # all 10 steps; a real x < 2.5 stops in the disc first
    cases = [120.0 - rng.uniform(0.0, 120.0, 20000), edges, edges + 0j, edges + 1e-9j,
             edges - 1e-200j, np.array([1e-300 + 1j, 1e-300 - 0.6j, 1e-3 + 2j, 0.7 - 0.5j]),
             sector, 1.0 + sector, np.conj(sector), np.array([30.0, complex(12.0, -0.0)]),
             np.append(np.arange(3.0, 10.0), 0.3), np.arange(1.0, 10.0) + 0.5j,  # land on 10
             np.array([[1.0, 2.0], [30.0, 3.3]]).T, np.array([], dtype=float)]
    for n in range(5, 65):
        _, A, B, C = factor_rows(n)
        N, sB = len(A), np.sqrt(B)
        cases += [N + 1j * np.sqrt(C), np.concatenate((sB + N, sB - N))]
    for x in cases:
        got, want = digamma_array(x), _digamma_stepwise(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), x
    for x in (1.0, 30.0, 7.7, 2.5, 1.0 + 0.1j, complex(3.5, -0.0), np.float64(7.3),
              np.array(4.2), np.array(1e-300 + 1j)):
        got, want = digamma_array(x), _digamma_stepwise(x)
        assert type(got) is type(want) and np.ndim(got) == 0
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x


def test_digamma_round_memory_is_bounded():
    # the one pass's grid holds acc and z, z + 1, ..., z + _DIGAMMA_STEPS:
    # 12 entries per shifted entry; the slack of 8 covers the working copy,
    # acc, the shifted z, the stop mask, the index arrays and the
    # fancy-index temporaries (18.3 entries seen in all)
    z = np.full(10_000, 1e-3 + 1j)
    tracemalloc.start()
    try:
        digamma_array(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (specfun._DIGAMMA_STEPS + 2 + 8) * z.nbytes


def test_digamma_against_40_digit_reference():
    # relative error, absolute where |psi| < 1; the real grid starts far
    # below the shift threshold 10 and reaches 1e8
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    x = np.concatenate([np.linspace(0.05, 30.0, 600), np.geomspace(30.0, 1e8, 60)])
    z = np.concatenate([x[::4] + 1j * np.linspace(-30.0, 30.0, len(x[::4])),
                        3.0 + 1j * np.linspace(0.1, 50.0, 500)])  # N + i sqrt(C)
    for args, bound in ((x, 1e-15), (z, 1e-15)):
        arr = digamma_array(args)
        assert arr.dtype == args.dtype
        for got, arg in zip(arr.tolist(), args.tolist()):
            want = mp.digamma(arg)
            err = abs(mp.mpmathify(got) - want) / max(abs(want), 1)
            assert err <= bound, arg


def test_digamma_sector_against_40_digit_reference():
    # the sector of verify's digamma_recurrence draws, z and 1 + z with
    # 1 <= |z| <= 100, |arg z| <= 0.49 pi: off the real axis near |z| = 1.3
    # the recurrence's reciprocals cancel against the log (1.03e-15 seen
    # over 20000 random points), beyond the real-line 6.9e-16
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    rng = np.random.default_rng(20261019)
    z = np.exp(rng.uniform(0.0, math.log(100.0), 1500)
               + 1j * rng.uniform(-0.49 * math.pi, 0.49 * math.pi, 1500))
    worst = 0.0
    for args in (z, 1.0 + z):
        for got, arg in zip(digamma_array(args).tolist(), args.tolist()):
            want = mp.digamma(arg)
            worst = max(worst, float(abs(mp.mpmathify(got) - want) / max(abs(want), 1)))
    assert worst <= verify._PSI_SECTOR_ERROR


def test_digamma_near_one_against_40_digit_reference():
    # the recurrence from x near 1 summed nine reciprocals (about -2.8)
    # that cancelled against log(x + 9): 1.4e-15 here before the series
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    x = np.random.default_rng(20261018).uniform(1.0, 1.1, 20000)
    worst = 0.0
    for t, got in zip(x.tolist(), digamma_array(x).tolist()):
        worst = max(worst, float(abs(mp.mpf(got) - mp.digamma(mp.mpf(t)))))
    assert worst <= 8e-16


def test_digamma_series_coefficients_are_zeta_minus_one():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for k, c in enumerate(specfun._ZETA_MINUS_ONE, start=2):
        assert c == float(mp.zeta(k) - 1), k
    assert specfun._DIGAMMA_AT_TWO == float(1 - mp.euler)


# ---------------------------------------------------------------------------
# q-Pochhammer
# ---------------------------------------------------------------------------

def test_q_pochhammer_small_q_limit():
    # empty-product limit: the series behaves like q as q -> 0+
    assert log_q_pochhammer_inv(1e-12) == pytest.approx(0.0, abs=2e-12)


def test_q_pochhammer_at_exp_minus_two_pi():
    q = math.exp(-2.0 * math.pi)
    closed = math.log(2.0 * math.pi ** 0.75) - math.pi / 12.0 \
        - math.log(CONSTANTS.gamma_quarter)
    assert log_q_pochhammer_inv(q) == pytest.approx(closed, abs=1e-15)


def test_q_pochhammer_double_series_oracle():
    q = 0.5
    # sum_{k,m} q^(k(m+1)) / k, truncated below 1e-16
    total = 0.0
    for k in range(1, 200):
        for m in range(0, 200):
            t = q ** (k * (m + 1)) / k
            if t < 1e-16:
                break
            total += t
    assert log_q_pochhammer_inv(q) == pytest.approx(total, abs=1e-13)


@pytest.mark.parametrize("q", [0.1, 0.5, math.exp(-2.0 * math.pi)])
def test_q_pochhammer_product_identity(q):
    # -sum_m log(1 - q^(m+1))
    total = 0.0
    m = 0
    while True:
        t = q ** (m + 1)
        if t < 1e-18:
            break
        total -= math.log1p(-t)
        m += 1
    assert log_q_pochhammer_inv(q) == pytest.approx(total, abs=1e-13)


def test_q_pochhammer_domain():
    for q in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            log_q_pochhammer_inv(q)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

def test_constant_windows():
    assert 0.9159 < CONSTANTS.catalan_G < 0.9160
    assert 0.5772 < CONSTANTS.euler_gamma < 0.5773


def test_eta_gamma_relation():
    # eta(i) = q^(1/24) prod_k (1 - q^k) at q = e^(-2 pi); eight factors reach 1e-24
    eta = math.exp(-math.pi / 12.0) * math.prod(
        1.0 - math.exp(-2.0 * math.pi * k) for k in range(1, 9))
    rel = eta * 2.0 * math.pi ** 0.75 / CONSTANTS.gamma_quarter
    assert abs(rel - 1.0) <= 1e-14


def test_gamma_literals_against_libm():
    assert CONSTANTS.gamma_quarter == pytest.approx(math.gamma(0.25), rel=1e-15, abs=0.0)
    assert CONSTANTS.gamma_third == pytest.approx(math.gamma(1.0 / 3.0), rel=1e-15, abs=0.0)


def test_eta_against_q_series():
    # eta(i) = q^(1/24) (q;q)_inf at q = exp(-2 pi)
    q = math.exp(-2.0 * math.pi)
    eta = q ** (1.0 / 24.0) * math.exp(-specfun.log_q_pochhammer_inv(q))
    # abs=0: approx's default abs of 1e-12 would swamp rel=1e-14 here
    assert eta == pytest.approx(CONSTANTS.gamma_quarter / (2.0 * math.pi ** 0.75),
                                rel=1e-14, abs=0.0)
