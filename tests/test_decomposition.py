"""Tests for the row-sum decomposition machinery."""
import math

import numpy as np
import pytest

from lapasym import decomposition, lattice_sum
from lapasym.asymptotics import exp_tail_limit
from lapasym.decomposition import (cascade_profile, double_sum_via_digamma,
                                   euler_maclaurin, factor_rows, piece_sums,
                                   profile_decomposition)
from lapasym.exceptions import ConsistencyError, DomainError
from lapasym.lattice_sum import quadrant_sum, quartic_rows, restricted_sum_f2

_LOWER = np.tri(64, dtype=bool)  # a block's k <= j corner


def direct_double_sum(n):
    """The quadrant double sum by direct summation, independent of the route.

    The denominators are symmetric in j <-> k, so row j contributes
    1/(2 u_j) + 2 sum_{k>j} 1/(u_j + u_k).  Rows are formed 64 at a time
    over the columns k >= j0 of their block, with the block's leading
    corner k <= j masked: about N^2/2 reciprocals in O(64 N) memory.  The
    folded rows are combined by math.fsum.
    """
    u = quartic_rows(n)
    rows = []
    for i0 in range(0, len(u), 64):
        size = min(64, len(u) - i0)
        v = 1.0 / np.add(u[i0:i0 + size, None], u[i0:])
        diag = v.diagonal().copy()
        v[:, :size][_LOWER[:size, :size]] = 0.0
        rows += (2.0 * v.sum(axis=1) + diag).tolist()
    return math.fsum(rows)


def invsqrt_profile_reduced(x):
    """(alpha_11(x) - 1)/x, extended by continuity to 0 at x = 0."""
    if x == 0.0:
        return 0.0
    return (cascade_profile(x).alpha[11] - 1.0) / x


# ---------------------------------------------------------------------------
# Factor rows
# ---------------------------------------------------------------------------

def test_factor_row_smallest_grid():
    rows = factor_rows(4)
    assert all(len(field) == 1 for field in rows)
    assert rows.u[0] == 1.0 - math.pi ** 2 / 48.0
    expected = math.sqrt(1.0 + (math.pi ** 2 / 12.0) * (1.0 - math.pi ** 2 / 48.0))
    assert rows.A[0] == pytest.approx(expected, abs=1e-5)
    # n = 4 has n0 = 0, so A equals its n0 = 0 value calA at k/N = 1
    assert rows.A[0] == pytest.approx(cascade_profile(1.0).cal_A, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [5, 12, 37, 100])
def test_factor_row_discriminant_identity(n):
    # A^2 - 1 == (4 pi^2 k^2 / 3 n^2)(1 - pi^2 k^2 / 3 n^2)
    c = math.pi ** 2 / (3.0 * n * n)
    for k, A in enumerate(factor_rows(n).A.tolist(), start=1):
        rhs = 4.0 * c * k ** 2 * (1.0 - c * k ** 2)
        assert A ** 2 - 1.0 == pytest.approx(rhs, abs=1e-13)


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
def test_scaled_row_fraction_below_half(n):
    N = len(factor_rows(n).A)
    a = [cascade_profile(k / N).a for k in range(1, N + 1)]
    assert all(0.0 < a_k <= math.pi / (4.0 * math.sqrt(3.0)) for a_k in a)
    assert a[-1] < 0.5


@pytest.mark.parametrize("n", [5, 11, 26, 103, 500, 1000, 2500])
def test_factor_row_bounds_hold(n):
    factor_rows(n)  # bound violations raise ConsistencyError


@pytest.mark.parametrize("n", [8, 29, 106])
def test_imag_root_identity(n):
    # C == (2/(1+A)) k^2 (1 - pi^2 k^2 / 3 n^2)
    c = math.pi ** 2 / (3.0 * n * n)
    rows = factor_rows(n)
    for k, (A, C) in enumerate(zip(rows.A.tolist(), rows.C.tolist()), start=1):
        rhs = (2.0 / (1.0 + A)) * k ** 2 * (1.0 - c * k ** 2)
        assert C == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_factor_rows_reject_tiny_n():
    with pytest.raises(DomainError):
        factor_rows(3)


@pytest.mark.parametrize("route", [piece_sums, double_sum_via_digamma])
def test_routes_check_the_factor_row_bounds(monkeypatch, route):
    # rows formed from 10 u break C <= k^2; every route that reads them must say so
    def scaled(n):
        return 10.0 * lattice_sum.quartic_rows(n)

    monkeypatch.setattr(decomposition, "quartic_rows", scaled)
    with pytest.raises(ConsistencyError, match="factor-row bounds violated at n = 100"):
        route(100)


# ---------------------------------------------------------------------------
# Direct piece sums
# ---------------------------------------------------------------------------

def test_axis_sum_smallest_grid():
    assert piece_sums(4).q_axis == pytest.approx(
        1.0 / (1.0 - math.pi ** 2 / 48.0), abs=1e-10)


def test_double_sum_hand_enumeration():
    # n = 8 has N = 2: four (j,k) pairs
    n = 8
    c = math.pi ** 2 / (3.0 * n * n)
    expected = math.fsum(
        1.0 / (j * j + k * k - c * (j ** 4 + k ** 4))
        for j in (1, 2) for k in (1, 2))
    assert piece_sums(8).r_double == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_exp_tail_against_limit():
    assert abs(piece_sums(100).r_exp - exp_tail_limit()) <= 1e-3


def test_piece_sums_positive():
    for n in (5, 16, 100):
        p = piece_sums(n)
        assert p.r_double > 0.0 and p.q_axis > 0.0
        assert p.r_log > 0.0 and p.r_atan > 0.0 and p.r_edge > 0.0
        assert p.r_sqrt > 0.0 and p.r_exp > 0.0


@pytest.mark.parametrize("n", [4, 517, 16003])
def test_piece_sums_never_enters_the_blocked_engine(monkeypatch, n):
    def refuse(*args, **kwargs):
        raise AssertionError("piece_sums formed a quadrant")

    monkeypatch.setattr(lattice_sum, "_laplace_quadrant", refuse)
    monkeypatch.setattr(lattice_sum, "_gathered_rows", refuse)
    p = piece_sums(n)
    assert p.r_double > 0.0 and p.q_axis > 0.0


# N = 1..10, N = 321 in every residue class, and N up to 4000
@pytest.mark.parametrize("n", list(range(4, 41)) + [1284, 1285, 1286, 1287,
                                                     4001, 15939, 16003])
def test_quadrant_sum_matches_direct(n):
    direct = direct_double_sum(n)
    assert abs(quadrant_sum(n) - direct) <= 4e-16 * direct


@pytest.mark.parametrize("n", list(range(4, 65)) + [100, 500] + list(range(16000, 16004)))
def test_piece_sums_double_sum_matches_direct(n):
    # both entry points of the route: through piece_sums and on its own;
    # below n = 40 (N < 10) the route sums its pairs directly
    direct = direct_double_sum(n)
    rel = 4e-16 if n < 40 else 1e-15
    for via in (piece_sums(n).r_double, double_sum_via_digamma(n)):
        assert type(via) is float
        assert abs(via - direct) <= rel * direct


def test_route_keeps_its_bits_at_the_cut():
    # the bits the route had with its bracket in complex arithmetic
    bits = {
        40: "0x1.8fb108d94ce65p+1",  # the first size through digamma: N = 10, Re z = 10
        43: "0x1.8ca7cfda59c26p+1",
        # plain division instead of the reciprocal products moves these two:
        44: "0x1.a0f30f75b2036p+1",  # by 2 A sqrt C
        45: "0x1.9ff220c87391cp+1",  # by tanh
        100: "0x1.1d90ea27c6c0ap+2",
        2500: "0x1.2e7789f156071p+3",
        16003: "0x1.8bb279c3ea3aep+3",
    }
    for n, want in bits.items():
        assert double_sum_via_digamma(n).hex() == want, n
        assert piece_sums(n).r_double.hex() == want, n


def test_piece_sums_families_unchanged():
    # the five direct row families, written out without factor_rows: bit for bit
    n = 517
    N = n // 4
    c = math.pi ** 2 / (3.0 * n * n)
    k = np.arange(1, N + 1, dtype=np.float64)
    k2 = k * k
    A = np.sqrt(1.0 + 4.0 * (c * k2) * (1.0 - c * k2))
    sB = np.sqrt(3.0 * n * n / (2.0 * math.pi ** 2) * (1.0 + A))
    sC = np.sqrt(2.0 * (k2 - c * (k2 * k2)) / (1.0 + A))
    ratio = N / sB
    rc = sC / N
    cut = int(np.searchsorted(2.0 * math.pi * sC, 42.0)) + 1
    e = np.exp(-2.0 * math.pi * sC[:cut])
    want = {
        "r_log": np.sum((1.0 / N) * (1.0 / A) * ratio * np.log((1.0 + ratio) / (1.0 - ratio))),
        "r_atan": np.sum((1.0 / N) * (1.0 / A) * np.arctan(rc) / rc),
        "r_edge": np.sum(1.0 / (k2 + N * N - c * (k2 * k2 + N ** 4))),
        "r_sqrt": np.sum(1.0 / (A * sC)),
        "r_exp": np.sum((1.0 / (A[:cut] * sC[:cut])) * e / (1.0 - e)),
    }
    p = piece_sums(n)
    for name, value in want.items():
        assert getattr(p, name) == float(value), name


# ---------------------------------------------------------------------------
# Digamma route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,rel", [(8, 1e-11), (100, 1e-10), (500, 1e-10)])
def test_digamma_route_equals_direct(n, rel):
    direct = direct_double_sum(n)
    assert double_sum_via_digamma(n) == pytest.approx(direct, rel=rel, abs=0.0)


@pytest.mark.parametrize("n", [16000, 16003])
def test_digamma_route_at_large_n(n):
    direct = direct_double_sum(n)
    via = double_sum_via_digamma(n)
    assert type(via) is float
    assert abs(via - direct) <= 1e-13 * direct


def partial_fraction_reference(mp, n):
    """Quadrant double sum to mp's precision, one row at a time.

    Row k sums 1/p(j) over j = 1..N with p(x) = x^2 - a x^4 + b_k; over the
    four roots rho of p that is sum_rho (psi(N + 1 - rho) - psi(1 - rho))/p'(rho).
    The roots are +-sqrt B and +-i sqrt C; the imaginary pair is conjugate.
    """
    N = n // 4
    a = mp.pi ** 2 / (3 * mp.mpf(n) ** 2)
    total = mp.mpf(0)
    for k in range(1, N + 1):
        b = k * k - a * k ** 4
        A = mp.sqrt(1 + 4 * a * b)
        sB = mp.sqrt((1 + A) / (2 * a))
        isC = mp.mpc(0, mp.sqrt(2 * b / (1 + A)))

        def term(rho):
            return ((mp.digamma(N + 1 - rho) - mp.digamma(1 - rho))
                    / (2 * rho - 4 * a * rho ** 3))

        total += term(sB) + term(-sB) + 2 * mp.re(term(isC))
    return total


@pytest.mark.parametrize("n", [517, 4001])
def test_double_sum_against_30_digit_partial_fractions(n):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    want = partial_fraction_reference(mp, n)
    for got in (double_sum_via_digamma(n), direct_double_sum(n), quadrant_sum(n)):
        assert abs(mp.mpf(got) / want - 1) <= 1e-15


def test_imag_root_square_against_40_digit_reference():
    # C = (A - 1)/(2a) cancels for small k; the code must not lose those digits
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for n in (100, 15938, 31872):
        a = mp.pi ** 2 / (3 * mp.mpf(n) ** 2)
        for k, C in enumerate(factor_rows(n).C[:5].tolist(), start=1):
            b = k ** 2 - a * k ** 4
            want = 2 * b / (1 + mp.sqrt(1 + 4 * a * b))
            assert abs(mp.mpf(C) / want - 1) <= 1e-15, (n, k)


def test_assembly_remainder_steady_across_residue_classes():
    # D(n) settles near 0.621 in every class; a cancelling C once drove it
    # to 0.84 and 0.96 at n = 15937 and 15938
    def remainder(n):
        return piece_sums(n).assembled() - restricted_sum_f2(n).value

    base = remainder(3984)
    for n in range(15936, 15940):
        assert abs(remainder(n) - base) <= 0.01, n


def test_partial_fraction_spot_check():
    x, a, b = 3.0, 0.01, 5.0
    A = math.sqrt(1.0 + 4.0 * a * b)
    B = (1.0 + A) / (2.0 * a)
    C = (A - 1.0) / (2.0 * a)
    sB, sC = math.sqrt(B), math.sqrt(C)
    rebuilt = (1.0 / (2.0 * A * sB)) * (1.0 / (x + sB) - 1.0 / (x - sB)) \
        + (1j / (2.0 * A * sC)) * (1.0 / (x + 1j * sC) - 1.0 / (x - 1j * sC))
    target = 1.0 / (x * x - a * x ** 4 + b)
    assert abs(rebuilt - target) <= 1e-14
    assert C == pytest.approx(2.0 * b / (1.0 + A), rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# Decomposition identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", list(range(5, 33)) + [64, 100])
def test_restricted_equals_axis_plus_quadrant(n):
    p = piece_sums(n)
    lhs = restricted_sum_f2(n).value
    rhs = (4.0 * n * n / math.pi ** 2) * (p.q_axis + p.r_double)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Cascade
# ---------------------------------------------------------------------------

def test_cascade_construction_identities_are_exact():
    for x in (0.05, 0.3, 0.77, 1.0):
        row = cascade_profile(x)
        assert row.beta[3] == -row.beta[2]
        assert row.beta[4] == row.beta[3] - 1.0
        assert row.gamma[4] == 1.0 - row.beta[3] + row.gamma[3]
        assert row.beta[10] == -row.beta[6]
        assert row.gamma[10] == row.beta[6] ** 2 - row.gamma[6]
        assert row.alpha[4] == (math.pi / (2.0 * math.sqrt(6.0))) * row.alpha[3]
        assert row.alpha[11] == row.alpha[1] * row.alpha[10]


def test_cascade_summand_reconstruction_residue_zero():
    # for n = 0 mod 4 the shift vanishes and the stage 8 profile equals the
    # log summand exactly (up to rounding)
    n, k = 40, 3
    _, A, B, C = (float(field[k - 1]) for field in factor_rows(n))
    sB = math.sqrt(B)
    N = 10
    direct = (1.0 / A) * (N / sB) * math.log((1.0 + N / sB) / (1.0 - N / sB))
    assert abs(direct - cascade_profile(k / N).alpha[8]) <= 1e-12
    arc = math.atan(math.sqrt(C) / N) / (math.sqrt(C) / N)
    assert abs((1.0 / A) * arc - cascade_profile(k / N).alpha[9]) <= 1e-12


def test_cascade_beta6_display():
    # beta6/a^2 == 2(1-2a^2)/(calA(1+calA)) + 1/(1-a^2)
    N = 25  # n = 100
    for k in (1, 7, 20, 25):
        row = cascade_profile(k / N)
        a2 = row.a ** 2
        display = 2.0 * (1.0 - 2.0 * a2) / (row.cal_A * (1.0 + row.cal_A)) \
            + 1.0 / (1.0 - a2)
        assert row.beta[6] / a2 == pytest.approx(display, rel=1e-12, abs=0.0)
        assert abs(row.beta[6] / a2) < 5.0


def test_invsqrt_profile_taylor_head():
    x = 0.1
    head = 1.0 - math.pi ** 2 / 48.0 * x * x \
        + 11.0 * math.pi ** 4 / 4608.0 * x ** 4
    assert cascade_profile(x).alpha[11] == pytest.approx(head, abs=1e-5)
    assert invsqrt_profile_reduced(0.0) == 0.0
    assert invsqrt_profile_reduced(1e-8) == pytest.approx(0.0, abs=1e-8)


def test_cascade_domain():
    with pytest.raises(DomainError):
        cascade_profile(2.5)  # outside the analyticity margin


# ---------------------------------------------------------------------------
# Euler-Maclaurin
# ---------------------------------------------------------------------------

def test_euler_maclaurin_quadratic_exact():
    approx, bound = euler_maclaurin(
        lambda x: x * x, 10, 2,
        derivatives=[lambda x: 2.0 * x, lambda x: 2.0])
    direct = math.fsum((k / 10.0) ** 2 / 10.0 for k in range(1, 11))
    assert direct == pytest.approx(0.385, abs=1e-15)
    assert approx == pytest.approx(direct, abs=1e-14)
    # the periodic quadratic remainder integrates to zero against g'' = const
    assert bound <= 2e-3


@pytest.mark.parametrize("p", [3, 5])
def test_euler_maclaurin_odd_order_bound_covers_the_maximum(p):
    # with g = x^p and N = 1 the bound is max|B_p(.)| itself; the maximum
    # sits at the root of B_p' = p B_(p-1) in (0, 1/2), sqrt(3)/36 for p = 3
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    x = mp.findroot(lambda t: mp.bernpoly(p - 1, t), 0.22)
    derivatives = [lambda t, k=k: math.perm(p, k) * t ** (p - k) for k in range(1, p + 1)]
    _, bound = euler_maclaurin(lambda t: t ** p, 1, p, derivatives=derivatives)
    assert bound >= abs(mp.bernpoly(p, x))


def test_euler_maclaurin_constant_function():
    approx, bound = euler_maclaurin(lambda x: 7.0, 25, 3,
                                    derivatives=[lambda x: 0.0] * 3)
    assert approx == pytest.approx(7.0, abs=1e-13)
    assert bound == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("N", [50, 100])
def test_euler_maclaurin_on_invsqrt_profile(N):
    direct = math.fsum(invsqrt_profile_reduced(k / N) / N for k in range(1, N + 1))
    # the cascade profile takes one row fraction at a time
    approx, bound = euler_maclaurin(np.vectorize(invsqrt_profile_reduced), N, 2)
    assert abs(approx - direct) <= bound + 1e-10


def test_euler_maclaurin_finite_difference_path():
    # fd derivatives must agree with supplied ones for a smooth function
    g = np.exp
    with_analytic, _ = euler_maclaurin(
        g, 20, 2, derivatives=[np.exp, np.exp])
    with_fd, _ = euler_maclaurin(g, 20, 2)
    assert with_fd == pytest.approx(with_analytic, abs=1e-8)
    direct = math.fsum(math.exp(k / 20.0) / 20.0 for k in range(1, 21))
    assert with_analytic == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("h", [2.0 ** -4, None])
def test_fd_derivative_stencils_differentiate_monomials(m, h):
    # the m-th central difference of x^m is m! and of x^k, k < m, is 0,
    # up to the rounding of 2^m values of size at most (2 + m h)^m over h^m
    h = h or np.finfo(float).eps ** (1.0 / (m + 2))
    x = np.array([0.0, 0.3, 1.0])
    tol = 2.0 ** (m + 2) * np.finfo(float).eps * (2.0 + m * h) ** m / h ** m
    for k in range(m + 1):
        d = decomposition._fd_derivative(lambda t, k=k: t ** k, m, h)(x)
        assert d.shape == x.shape
        assert np.abs(d - (math.factorial(m) if k == m else 0.0)).max() <= tol, k


def test_euler_maclaurin_finite_differences_call_g_a_few_times():
    calls = []

    def g(x):
        calls.append(np.shape(x))
        return np.exp(x)

    value, bound = euler_maclaurin(g, 20, 4)
    assert len(calls) <= 20
    assert abs(value - math.fsum(math.exp(k / 20.0) / 20.0 for k in range(1, 21))) <= bound


def test_euler_maclaurin_samples_the_last_derivative_in_one_call():
    shapes = []

    def second(x):
        shapes.append(np.shape(x))
        return 2.0 + 0.0 * x

    _, bound = euler_maclaurin(lambda x: x * x, 10, 2,
                               derivatives=[lambda x: 2.0 * x, second])
    assert shapes == [(513,)]
    assert bound == pytest.approx(2.0 / (6.0 * 2.0 * 100.0), rel=1e-15)


def test_euler_maclaurin_domain():
    with pytest.raises(DomainError):
        euler_maclaurin(lambda x: x, 10, 0)
    with pytest.raises(DomainError):
        euler_maclaurin(lambda x: x, 10, 7)
    with pytest.raises(DomainError):
        euler_maclaurin(lambda x: x, 10, 3, derivatives=[lambda x: 1.0])
    with pytest.raises(DomainError, match="N must be positive"):
        euler_maclaurin(lambda x: x, 0, 2)


# ---------------------------------------------------------------------------
# Profile route
# ---------------------------------------------------------------------------

def test_profiles_exact_at_residue_zero():
    pr = profile_decomposition(40)
    assert abs(pr.r_log - pr.r_log_profile) <= 1e-12
    assert abs(pr.r_atan - pr.r_atan_profile) <= 1e-12


def test_profiles_track_other_residues():
    # with the 1/N0 corrections included the reconstruction error is the
    # cascade's own O(1/N0^3)
    for n in (101, 102, 103, 201):
        g_n0 = n % 4
        N = (n - g_n0) // 4
        pr = profile_decomposition(n)
        envelope = 20.0 * (g_n0 / (4.0 * N)) ** 3
        assert abs(pr.r_log - pr.r_log_profile) <= envelope
        assert abs(pr.r_atan - pr.r_atan_profile) <= envelope


def test_log_sum_settles_with_size():
    p400 = piece_sums(400).r_log
    p800 = piece_sums(800).r_log
    p1600 = piece_sums(1600).r_log
    assert abs(p800 - p1600) < abs(p400 - p800)


def test_row_sum_ordering():
    # arctan(x)/x summands sit in (0, 1], while the log summands are the
    # much smaller x log((1+x)/(1-x)) ~ 2x^2 at x = N/sqrt(B) < 0.46, so
    # direct evaluation gives 0 < r_log < r_atan < 1 throughout
    for n in range(8, 257, 31):
        p = piece_sums(n)
        assert 0.0 < p.r_log < p.r_atan < 1.0


def test_invsqrt_sum_log_growth():
    # r_sqrt - log n converges: consecutive same-residue doublings agree
    d800 = piece_sums(800).r_sqrt - math.log(800)
    d1600 = piece_sums(1600).r_sqrt - math.log(1600)
    assert abs(d800 - d1600) <= 0.01
