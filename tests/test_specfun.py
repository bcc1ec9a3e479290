"""Tests for the scalar special functions."""
import cmath
import math
import time
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
    tail = integrate_1d(lambda u: np.log(2.0 * np.sin(0.5 * u)),
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
    # gamma = lim (H_M - log M - 1/(2M) + 1/(12 M^2)), here at M = 10^6;
    # psi(1) = psi(10) - H_9 by the recurrence
    M = 1_000_000
    h = math.fsum(1.0 / k for k in range(1, M + 1))
    gamma_est = h - math.log(M) - 0.5 / M + 1.0 / (12.0 * M * M)
    assert abs(gamma_est - CONSTANTS.euler_gamma) <= 1e-12
    h9 = math.fsum(1.0 / k for k in range(1, 10))
    assert abs(digamma_array(10.0) - h9 + gamma_est) <= 1e-12


def test_digamma_at_two():
    # psi(2) = psi(10) - sum_{j=2}^{9} 1/j = 1 - gamma
    assert digamma_array(11.0) == pytest.approx(
        digamma_array(10.0) + 0.1, abs=1e-15)
    psi2 = digamma_array(10.0) - math.fsum(1.0 / j for j in range(2, 10))
    assert psi2 == pytest.approx(1.0 - CONSTANTS.euler_gamma, abs=1e-15)


def test_digamma_difference_is_finite_sum():
    expected = 1.0 / 10.5 + 1.0 / 11.5 + 1.0 / 12.5
    assert digamma_array(13.5) - digamma_array(10.5) == pytest.approx(expected, abs=1e-15)


def test_digamma_half():
    # psi(m + 1/2) = -gamma - 2 log 2 + sum_{j<=m} 2/(2j - 1), here at m = 10
    want = math.fsum([-CONSTANTS.euler_gamma, -2.0 * math.log(2.0)]
                     + [2.0 / (2 * j - 1) for j in range(1, 11)])
    assert digamma_array(10.5) == pytest.approx(want, abs=2e-15)


def test_digamma_references_are_math_fsum_of_the_float_loops():
    # the flat array references of verify's digamma_recurrence against
    # math.fsum of the Python float loops they replace, bit for bit
    gamma = CONSTANTS.euler_gamma
    m = np.array([10, 57, 110])
    N, y = np.array([10, 33, 50]), np.array([1.0, 17.25, 99.9])
    loops = (
        [[-gamma] + [1.0 / j for j in range(1, k)] for k in m.tolist()],
        [[-gamma, -2.0 * math.log(2.0)] + [2.0 / (2 * j - 1) for j in range(1, k + 1)]
         for k in m.tolist()],
        [[-0.5 / t, (math.pi / 2.0) / math.tanh(math.pi * t)]
         + [-t / (j * j + t * t) for j in range(1, n)] for n, t in zip(N.tolist(), y.tolist())],
    )
    for (terms, lengths), loop in zip(verify._digamma_references(m, N, y), loops):
        assert lengths.tolist() == [len(terms_) for terms_ in loop]
        assert np.array_equal(terms, np.concatenate(loop))
        want = [math.fsum(terms_).hex() for terms_ in loop]
        assert [v.hex() for v in verify._segment_sums(terms, lengths)] == want
        sizes = [math.fsum(map(abs, terms_)).hex() for terms_ in loop]
        assert [v.hex() for v in verify._segment_sums(np.abs(terms), lengths)] == sizes


def test_digamma_recurrence_random_points():
    rng = np.random.default_rng(99)
    x = rng.uniform(10.0, 110.0, size=1000)
    worst = np.max(np.abs(digamma_array(1.0 + x) - digamma_array(x) - 1.0 / x))
    z = rng.uniform(10.0, 110.0, size=1000) + 1j * rng.uniform(-100.0, 100.0, size=1000)
    worst = max(worst, np.max(np.abs(digamma_array(1.0 + z) - digamma_array(z) - 1.0 / z)))
    assert worst <= 1e-14


def test_digamma_finite_sum_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 51))
        a = float(rng.uniform(0.1, 5.0))
        direct = math.fsum(1.0 / (j + a) for j in range(10, N + 10))
        via = digamma_array(N + 10 + a) - digamma_array(10 + a)
        worst = max(worst, abs(direct - via))
    assert worst <= 4e-15


def test_digamma_complex_matches_real_axis():
    z = digamma_array(12.0 + 0j)
    assert z.imag == 0.0
    assert z.real == digamma_array(12.0)


def test_digamma_complex_reflection_recurrence():
    # psi(1 + z) - psi(1 - z) = 1/z - pi cot(pi z) at z = i, carried to
    # psi(10 + i) - psi(10 - i) by the recurrence: purely imaginary
    z = 1j
    lhs = digamma_array(10 + z) - digamma_array(10 - z)
    rhs = 1.0 / z - math.pi / cmath.tan(math.pi * z) + sum(
        1.0 / (j + z) - 1.0 / (j - z) for j in range(1, 10))
    assert abs(lhs - rhs) <= 1e-15
    assert lhs.real == 0.0


def test_digamma_schwarz_reflection():
    z = 13.0 + 2.0j
    assert digamma_array(z.conjugate()) == digamma_array(z).conjugate()


@given(st.floats(min_value=10.0, max_value=110.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_digamma_schwarz_property(re, im):
    z = complex(re, im)
    assert abs(digamma_array(z.conjugate())
               - digamma_array(z).conjugate()) <= 1e-15


def test_digamma_array_of_a_scalar_is_a_scalar():
    # the domain's edge, a real past it and a complex point on the edge
    for x in (10.0, 30.0, 10.0 + 0.1j):
        got = digamma_array(x)
        assert np.ndim(got) == 0 and got == digamma_array([x])[0]


def test_digamma_array_rejects_poles_and_non_finite():
    # the domain is finite z with Re z >= 10: the poles, the rest of the
    # plane left of Re z = 10, nan and inf are refused, and the message
    # names the first refused entry; the edge Re z = 10, which the route
    # reaches at N = 10 (n = 40), is taken
    below = float(np.nextafter(10.0, 0.0))
    for bad in (9.999, below, complex(below, 5.0), 0.5, 0.0, -0.0, -1.0, -2.0 + 0j, 1e-300j,
                9.0 + 50j, math.nan, math.inf, -math.inf, complex(10.0, math.nan),
                complex(10.0, math.inf), complex(math.inf, 0.0)):
        with pytest.raises(DomainError) as err:
            digamma_array(bad)
        assert str(err.value) == f"digamma needs finite z with Re z >= 10, got {bad!r}"
    for bad, first in (([10.5, 9.5, -3.0], 9.5), (np.array([12.0 + 0j, 1.0 + 0j]), 1.0 + 0j),
                       ([[11.0, 12.0], [math.nan, 1.0]], math.nan)):
        with pytest.raises(DomainError) as err:
            digamma_array(bad)
        assert str(err.value).endswith(f", got {first!r}")
    _, A, _, C = factor_rows(40)
    assert len(A) == 10 and np.all(np.isfinite(digamma_array(10 + 1j * np.sqrt(C))))
    assert np.isfinite(digamma_array(10.0)) and np.isfinite(digamma_array([10.0 - 0j]))


def test_digamma_round_memory_is_bounded():
    # the asymptotic series' temporaries: 5.1 entries per input entry seen
    z = np.full(10_000, 10.0 + 1j)
    tracemalloc.start()
    try:
        digamma_array(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * z.nbytes


def test_digamma_against_40_digit_reference():
    # relative error; the real grid starts at the domain's edge 10 and
    # reaches 1e8, the complex points fill Re z in [10, 110), |Im z| <= 100
    # and the route's range, Re z up to 4000 with 0 < Im z <= 1.2 Re z, and
    # take the route's N + i sqrt C at N = 10 and N = 4000 (n = 16000).  A
    # call takes its number of terms from its smallest |z|, so the route's
    # range is also called from Re z = 250 (2 terms) and 3703 (1 term) on
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    x = np.concatenate([np.linspace(10.0, 30.0, 600), np.geomspace(30.0, 1e8, 60)])
    rng = np.random.default_rng(20261020)

    def route_range(low, size):
        re = np.exp(rng.uniform(math.log(low), math.log(4000.0), size))
        return re + 1j * re * (1.2 - rng.uniform(0.0, 1.2, size))  # in (0, 1.2 Re z]

    z = np.concatenate([rng.uniform(10.0, 110.0, 500) + 1j * rng.uniform(-100.0, 100.0, 500),
                        10.0 + 1j * np.linspace(0.1, 50.0, 500)])  # N + i sqrt(C)
    _, _, _, C = factor_rows(16000)
    calls = [(x, 1), (z, 1), (route_range(10.0, 300), 1), (route_range(250.0, 200), 1),
             (route_range(3703.0, 100), 1), (4000.0 + 1j * np.sqrt(C), 20)]  # every 20th
    for args, step in calls:
        arr = digamma_array(args)
        assert arr.dtype == args.dtype
        for got, arg in zip(arr[::step].tolist(), args[::step].tolist()):
            want = mp.digamma(arg)
            err = abs(mp.mpmathify(got) - want) / abs(want)
            assert err <= verify._PSI_ERROR, arg


def test_digamma_term_count_thresholds():
    # 7 terms from the edge |z| = 10, then one fewer from each derived
    # threshold on; just below and just above each, in a call of its own,
    # real and complex, against 40-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    fewer = specfun._DIGAMMA_FEWER
    assert [round(r, 1) for r in fewer] == [12.3, 16.7, 26.5, 55.8, 211.5, 3702.9]
    for r in (10.0, *fewer):
        for radius in (r * (1.0 - 1e-12), r * (1.0 + 1e-12)):
            if radius < 10.0:
                continue  # below the domain's edge
            re = max(10.0, 0.8 * radius)
            for arg in (radius, complex(re, math.sqrt(radius * radius - re * re))):
                got = digamma_array(arg)
                err = abs(mp.mpmathify(got.item()) - mp.digamma(arg)) / abs(mp.digamma(arg))
                assert err <= verify._PSI_ERROR, arg


def test_digamma_conjugate_symmetry_is_exact():
    # log |z| and atan2, odd in Im z, and the series in 1/z keep
    # psi(conj z) = conj(psi(z)) bit for bit over the route's range
    rng = np.random.default_rng(41)
    re = np.exp(rng.uniform(math.log(10.0), math.log(4000.0), 2000))
    z = re + 1j * re * rng.uniform(-1.2, 1.2, 2000)
    for args in (z, z[re > 3703.0], z[:1]):
        assert np.array_equal(digamma_array(args.conj()), digamma_array(args).conj())


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


def test_q_pochhammer_term_budget():
    # 10^4 terms admit q = 0.997; q = 1 - 1e-9 would need about 3e10
    assert 0.0 < log_q_pochhammer_inv(0.997) < math.inf
    start = time.perf_counter()
    with pytest.raises(DomainError, match="10\\^4 terms"):
        log_q_pochhammer_inv(1.0 - 1e-9)
    assert time.perf_counter() - start < 0.1


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
