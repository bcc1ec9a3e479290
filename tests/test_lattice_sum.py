"""Tests for the exact-sum engine, kernels, and lattice plumbing."""
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapasym.exceptions import DomainError, SingularityError
from lapasym import asymptotics, decomposition, lattice_sum, quadrature
from lapasym.lattice_sum import (BUILTIN_LATTICES, MODIFIED_UNION_JACK,
                                 SQUARE, TRIANGULAR, GridGeometry,
                                 LatticeSpec, _closed_form_rows,
                                 _gathered_rows, _log_rho_n, _row_basis,
                                 _row_kernel, _segment_sums, _tail_rows,
                                 builtin_lattice, exact_sum, exact_sums,
                                 kernel_fm, kernel_psi,
                                 parse_lattice_file, quadrant_sum,
                                 quartic_rows, restricted_sum_f2,
                                 trace_pseudoinverse)

ALL_BUILTINS = [SQUARE, TRIANGULAR, MODIFIED_UNION_JACK]
CUSTOM_LATTICE = Path(__file__).resolve().parents[1] / "perfbench" / "custom.lattice"
# no grid basis gives every vector s . w in {-1, 0, 1}: exact_sum's gather path
NO_ROW_BASIS = LatticeSpec("no_row_basis", ((1, 0), (0, 1), (2, 2), (2, -2)), 4)
# R = 0 where a = 2 pi j / n = 2 pi / 3 (1 + e^{ia} + e^{2ia} = 0); at n = 39
# rounding pushes the closed form's log1p argument below -1 there
R_ZERO_ROWS = LatticeSpec("r_zero_rows", ((1, 0), (0, 1), (-2, -1), (2, 0), (1, 1)), 4)


def brute_force_sum(spec, n):
    """Reference F_n straight from the kernel, no engine shortcuts."""
    total = 0.0
    for j in range(n):
        for k in range(n):
            if (j, k) == (0, 0):
                continue
            total += 1.0 / kernel_psi(spec, (2 * math.pi * j / n, 2 * math.pi * k / n))
    return total


def full_window_sum(spec, n):
    """Reference F_n over the whole n x n grid, no symmetry folding.

    psi comes from sin^2(pi m / n) with m = p j + q k reduced to
    [-n/2, n/2), so the sine is accurate near its zeros, and the n^2 - 1
    reciprocals are added exactly rounded by math.fsum.
    """
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    psi = np.zeros((n, n))
    for p, q in spec.stencil:
        m = (p * j + q * k + n // 2) % n - n // 2
        psi += np.sin(np.pi * m / n) ** 2
    psi *= 2.0 / spec.L
    return math.fsum((1.0 / psi.ravel()[1:]).tolist())


# ---------------------------------------------------------------------------
# Specs and geometry
# ---------------------------------------------------------------------------

def test_builtin_shapes():
    assert SQUARE.L == 2 and SQUARE.trace_divisor == 4
    assert TRIANGULAR.L == 3 and TRIANGULAR.trace_divisor == 6
    assert TRIANGULAR.stencil[2] == (1, 1)
    assert MODIFIED_UNION_JACK.L == 4 and MODIFIED_UNION_JACK.trace_divisor == 8
    assert MODIFIED_UNION_JACK.stencil[2:] == ((1, -1), (1, 1))


def test_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec("bad", ((0, 1), (1, 0)), 4)   # wrong normalization order
    with pytest.raises(DomainError):
        LatticeSpec("bad", ((1, 0), (0, 1), (0, 0)), 4)
    with pytest.raises(DomainError):
        LatticeSpec("bad", ((1, 0), (0, 1)), 0)
    LatticeSpec("edge", ((1, 0), (0, 1), (1024, -1024)), 4)
    for big in ((1025, 0), (0, -1025)):
        with pytest.raises(DomainError, match="stencil entries"):
            LatticeSpec("bad", ((1, 0), (0, 1), big), 4)
    with pytest.raises(DomainError):
        builtin_lattice("hexagonal")


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 11, 20])
def test_grid_geometry(n):
    g = GridGeometry.restricted(n)
    assert g.n == 4 * g.N + g.n0
    assert g.n0 == n % 4
    assert g.beta_n == pytest.approx((math.pi / 2) * (1 + (2 - g.n0) / n))


@pytest.mark.parametrize("n", range(4, 21))
def test_restricted_membership_matches_frequency_cutoff(n):
    # index predicate |j|,|k| <= N equals the |t| <= pi/2 frequency cutoff
    g = GridGeometry.restricted(n)
    for j in range(-g.N - 2, g.N + 3):
        for k in range(-g.N - 2, g.N + 3):
            by_freq = (abs(2 * math.pi * j / n) <= math.pi / 2 + 1e-12
                       and abs(2 * math.pi * k / n) <= math.pi / 2 + 1e-12
                       and (j, k) != (0, 0))
            assert (abs(j) <= g.N and abs(k) <= g.N and (j, k) != (0, 0)) == by_freq


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_kernel_psi_values():
    assert kernel_psi(SQUARE, (0.0, 0.0)) == 0.0
    assert kernel_psi(SQUARE, (math.pi, math.pi)) == pytest.approx(2.0, abs=1e-15)
    assert kernel_psi(SQUARE, (math.pi / 2, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_kernel_psi_matches_cosine_form():
    rng = np.random.default_rng(3)
    for spec in ALL_BUILTINS:
        for _ in range(50):
            x = tuple(rng.uniform(-math.pi, math.pi, size=2))
            cos_form = 1.0 - sum(
                math.cos(p * x[0] + q * x[1]) for p, q in spec.stencil) / spec.L
            assert kernel_psi(spec, x) == pytest.approx(cos_form, abs=1e-14)


def test_kernel_psi_against_40_digit_reference():
    # near x = 2 pi: the float input, not kernel_psi, limits the accuracy
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    for spec in ALL_BUILTINS:
        for n in (517, 2500, 10000):
            x = (2 * math.pi * (n - 1) / n, 0.0)
            want = 2 * mp.fsum(mp.sin((p * mp.mpf(x[0]) + q * mp.mpf(x[1])) / 2) ** 2
                               for p, q in spec.stencil) / spec.L
            assert abs(mp.mpf(kernel_psi(spec, x)) / want - 1) <= 1e-15, (spec.name, n)


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_kernel_psi_range(a, b):
    for spec in ALL_BUILTINS:
        v = kernel_psi(spec, (a, b))
        assert 0.0 <= v <= 2.0 + 1e-15


def test_kernel_fm_values():
    assert kernel_fm(SQUARE, 1, (1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)
    expected = 4.0 / (math.pi ** 2 / 4.0 - math.pi ** 4 / 192.0)
    assert kernel_fm(SQUARE, 2, (math.pi / 2, 0.0)) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert expected == pytest.approx(2.0407517, abs=1e-6)


def test_kernel_fm_taylor_agreement_at_origin():
    t = 1e-4
    ratio = kernel_fm(SQUARE, 2, (t, t)) / kernel_fm(SQUARE, 1, (t, t))
    assert ratio == pytest.approx(1.0, abs=1e-7)


def test_kernel_fm_singularity():
    with pytest.raises(SingularityError) as err:
        kernel_fm(SQUARE, 1, (0.0, 0.0))
    assert err.value.point == (0.0, 0.0)
    with pytest.raises(DomainError):
        kernel_fm(SQUARE, 0, (1.0, 1.0))


# ---------------------------------------------------------------------------
# Exact sums
# ---------------------------------------------------------------------------

def test_exact_sum_trivial_sizes():
    r = exact_sum(SQUARE, 1)
    assert r.value == 0.0 and r.term_count == 0
    r = exact_sum(SQUARE, 2)
    assert r.value == pytest.approx(2.5, abs=1e-15)
    assert r.term_count == 3


def test_trace_values():
    assert trace_pseudoinverse(SQUARE, 2) == pytest.approx(0.625, abs=1e-15)
    assert trace_pseudoinverse(SQUARE, 1) == 0.0
    # triangular n = 2: three summands, each psi = 4/3
    direct = 3 * (3.0 / 4.0)
    assert exact_sum(TRIANGULAR, 2).value == pytest.approx(direct, abs=1e-14)
    assert trace_pseudoinverse(TRIANGULAR, 2) == pytest.approx(direct / 6.0, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.name)
@pytest.mark.parametrize("n", [3, 5, 8, 300])
def test_exact_sum_against_brute_force(spec, n):
    got = exact_sum(spec, n)
    assert got.value == pytest.approx(brute_force_sum(spec, n), rel=1e-13, abs=0.0)
    assert got.term_count == n * n - 1


@settings(max_examples=25)
@given(
    extra=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda v: v != (0, 0)),
        min_size=0, max_size=2),
    n=st.integers(min_value=2, max_value=7),
)
def test_exact_sum_random_stencils(extra, n):
    spec = LatticeSpec("random", ((1, 0), (0, 1)) + tuple(extra), 4)
    assert exact_sum(spec, n).value == pytest.approx(brute_force_sum(spec, n), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", ALL_BUILTINS + [NO_ROW_BASIS, R_ZERO_ROWS],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("n", [*range(2, 41), 514, 515, 516, 517])
def test_exact_sum_against_full_window(spec, n):
    # every small n covers both parities; from n = 514 on, the gather path's
    # n // 2 + 1 >= 258 rows make five blocks
    got = exact_sum(spec, n).value
    want = full_window_sum(spec, n)
    assert abs(got - want) <= 1e-14 * want


_VECTORS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda v: v != (0, 0))


@settings(max_examples=30)
@given(extra=st.lists(_VECTORS, min_size=0, max_size=3))
def test_fold_random_stencils_against_full_window(extra):
    # duplicates allowed; most of these stencils take the closed form
    spec = LatticeSpec("random", ((1, 0), (0, 1)) + tuple(extra), 4)
    for n in range(2, 41):
        want = full_window_sum(spec, n)
        assert abs(exact_sum(spec, n).value - want) <= 1e-14 * want


@settings(max_examples=30)
@given(a=st.integers(-2, 2), extra=st.lists(_VECTORS, min_size=0, max_size=2))
def test_fold_reflective_stencils_against_full_window(a, extra):
    # close the stencil under (p, q) -> (p + q a, -q), a symmetry of psi
    images = [(p + q * a, -q) for p, q in extra]
    shear = ((-a, 1),) if a else ()
    spec = LatticeSpec("reflective", ((1, 0), (0, 1)) + shear + tuple(extra + images), 4)
    for n in range(2, 41):
        want = full_window_sum(spec, n)
        assert abs(exact_sum(spec, n).value - want) <= 1e-14 * want


@settings(max_examples=30)
@given(extra=st.lists(_VECTORS, min_size=1, max_size=3).filter(
    lambda extra: _row_basis(((1, 0), (0, 1)) + tuple(extra)) is None))
def test_gather_stencils_against_full_window(extra):
    spec = LatticeSpec("gather", ((1, 0), (0, 1)) + tuple(extra), 4)
    for n in range(2, 41):
        want = full_window_sum(spec, n)
        assert abs(exact_sum(spec, n).value - want) <= 1e-14 * want


def test_row_basis_of_known_stencils():
    identity = ((1, 0), (0, 1))
    assert [_row_basis(s.stencil) for s in ALL_BUILTINS] == [identity] * 3
    # (1,0), (0,1), (1,2), (2,1) -> (1,1), (0,-1), (1,-1), (2,1)
    custom = parse_lattice_file(str(CUSTOM_LATTICE))
    assert _row_basis(custom.stencil) == ((1, 0), (1, -1))
    assert _row_basis(NO_ROW_BASIS.stencil) is None


@pytest.mark.parametrize("n", [2, 7, 8, 200, 201, 2000])
def test_exact_sum_reciprocal_count(monkeypatch, n):
    formed = []
    reciprocal = np.reciprocal

    def counting(x, *args, **kwargs):
        formed.append(np.size(x))
        return reciprocal(x, *args, **kwargs)

    closed_form = ALL_BUILTINS + [parse_lattice_file(str(CUSTOM_LATTICE))]
    for spec in closed_form:  # warm numpy's lazy setup and small-array cache
        exact_sum(spec, n)
    monkeypatch.setattr(np, "reciprocal", counting)
    # the closed form forms no reciprocal array and allocates O(n) bytes,
    # far below the 8 n^2 of one n x n array once n is in the hundreds
    tracemalloc.start()
    try:
        for spec in closed_form:
            tracemalloc.reset_peak()
            exact_sum(spec, n)
            assert formed == []
            assert tracemalloc.get_traced_memory()[1] < 8192 + 128 * n
    finally:
        tracemalloc.stop()
    exact_sum(NO_ROW_BASIS, n)
    assert 0 < sum(formed) <= (n // 2 + 1) * n


def test_exact_sum_against_50_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    for spec in ALL_BUILTINS:
        for n in (3, 4, 5, 6, 7, 8, 16, 17, 31, 32, 48):
            sin_sq = [mp.sin(mp.pi * m / n) ** 2 for m in range(n)]
            total = mp.mpf(0)
            for j in range(n):
                for k in range(n):
                    if (j, k) != (0, 0):
                        psi = sum(sin_sq[(p * j + q * k) % n] for p, q in spec.stencil)
                        total += spec.L / (2 * psi)
            got = exact_sum(spec, n).value
            assert abs(mp.mpf(got) / total - 1) <= 1e-14, (spec.name, n)


# F_n of small grids as exact fractions, identified from 60-digit dense
# mpmath sums over every (j, k) != (0, 0) of the n x n grid
GOLDEN_FRACTIONS = [
    *((SQUARE, n, f) for n, f in zip(range(2, 13), (
        Fraction(5, 2), Fraction(8), Fraction(103, 6), Fraction(152, 5),
        Fraction(3359, 70), Fraction(912, 13), Fraction(69329, 714),
        Fraction(81136, 629), Fraction(65126173, 392370),
        Fraction(2019768, 9701), Fraction(7680923, 30030)))),
    (TRIANGULAR, 5, Fraction(306, 11)),
    (TRIANGULAR, 12, Fraction(318962951, 1381380)),
    (MODIFIED_UNION_JACK, 5, Fraction(4256, 165)),
]


@pytest.mark.parametrize("spec, n, want", GOLDEN_FRACTIONS,
                         ids=[f"{spec.name}-{n}" for spec, n, _ in GOLDEN_FRACTIONS])
def test_exact_sum_within_an_ulp_of_golden_fraction(spec, n, want):
    want = float(want)
    assert abs(exact_sum(spec, n).value - want) <= math.ulp(want)


def row_formula_reference(stencil, n, mp):
    """F_n from the closed-form row sums in mpmath, for a stencil with |q| <= 1."""
    L = len(stencil)
    total = mp.mpf(n * n - 1) * L / (6 * sum(q != 0 for _, q in stencil))
    for j in range(1, n // 2 + 1):
        a = 2 * mp.pi * j / n
        A = 1 - mp.fsum(mp.cos(p * a) for p, q in stencil if q == 0) / L
        Z = mp.fsum(mp.expj(q * p * a) for p, q in stencil if q) / L
        R, phi = abs(Z), mp.arg(Z)
        s = mp.sqrt(A * A - R * R)
        rho_n = (R / (A + s)) ** n
        row = (n / s) * (1 - rho_n ** 2) / (1 - 2 * rho_n * mp.cos(n * phi) + rho_n ** 2)
        total += row if 2 * j == n else 2 * row
    return total


def test_exact_sum_against_30_digit_row_formula():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    # the custom stencil in the basis u = (1,0), w = (1,-1)
    cases = [(spec, spec.stencil) for spec in ALL_BUILTINS]
    cases.append((parse_lattice_file(str(CUSTOM_LATTICE)), ((1, 1), (0, -1), (1, -1), (2, 1))))
    for spec, row_stencil in cases:
        for n in (517, 2500, 4099):
            want = row_formula_reference(row_stencil, n, mp)
            got = exact_sum(spec, n).value
            assert abs(mp.mpf(got) / want - 1) <= 1e-15, (spec.name, n)


def row_stencils():
    """Each closed-form test stencil in its row basis."""
    for spec in ALL_BUILTINS + [parse_lattice_file(str(CUSTOM_LATTICE)), R_ZERO_ROWS]:
        (u0, u1), (w0, w1) = _row_basis(spec.stencil)
        yield spec.name, [(p * u0 + q * u1, p * w0 + q * w1) for p, q in spec.stencil]


@pytest.mark.parametrize("n", [2, 7, 39, 517, 2500, 10007])
def test_rows_past_the_tail_cutoff_are_n_over_s(n):
    # e = n log rho <= -40 means rho^n < 4.3e-18, so every factor of the
    # full row formula beside n/s rounds to 1; only a handful of rows stay
    j = np.arange(1, n // 2 + 1)
    sizes = np.full(len(j), float(n))
    weight = np.where(2 * j == n, 1.0, 2.0)
    for name, stencil in row_stencils():
        s, X, Y = _row_kernel(stencil, sizes, j)
        e = _log_rho_n(stencil, sizes, s, X, Y)
        far = e <= lattice_sum._TAIL_LOG_RHO_N
        full = _tail_rows(stencil, sizes, j, s, e)
        assert np.array_equal(full[far], (n / s)[far]), name
        assert np.count_nonzero(~far) <= 8, name
        assert np.array_equal(_closed_form_rows(stencil, [n])[1:],
                              weight * np.where(far, n / s, full)), name


def test_log_rho_n_is_minus_inf_where_r_vanishes():
    # row j = 13 of R_ZERO_ROWS at n = 39 has R = 0, where K^2/L^2 - Y
    # rounds to -1.1e-16; clamped at 0 it gives rho = 0 and e = -inf, while
    # the square root of its magnitude would give e = -750.5
    stencil = dict(row_stencils())["r_zero_rows"]
    sizes = np.array([39.0])
    s, X, Y = _row_kernel(stencil, sizes, np.array([13]))
    assert _log_rho_n(stencil, sizes, s, X, Y)[0] == -np.inf


def test_tail_prefilter_keeps_every_tail_row():
    # 1 - rho >= s / 2, so e = n log rho <= -n s / 2, and rows with
    # n s >= 80 lie past the cutoff -40; the prefilter drops only those,
    # so every row above the cutoff still takes the full formula
    for n in [*range(2, 300), 517, 2500, 9999, 10007, 20000]:
        j = np.arange(1, n // 2 + 1)
        sizes = np.full(len(j), float(n))
        weight = np.where(2 * j == n, 1.0, 2.0)
        for name, stencil in row_stencils():
            s, X, Y = _row_kernel(stencil, sizes, j)
            e = _log_rho_n(stencil, sizes, s, X, Y)
            assert np.all(e <= -sizes * s / 2), (name, n)
            tail = e > lattice_sum._TAIL_LOG_RHO_N
            full = weight * _tail_rows(stencil, sizes, j, s, e)
            assert np.array_equal(_closed_form_rows(stencil, [n])[1:][tail],
                                  full[tail]), (name, n)


@pytest.mark.parametrize("n", [7, 64, 1030, 9985, 10000])
def test_rows_the_prefilter_skips_are_past_the_cutoff(n):
    # at the sizes whose bits are pinned, no row with n s >= 80, which
    # the prefilter never forms e on, has e = n log rho above -40
    j = np.arange(1, n // 2 + 1)
    sizes = np.full(len(j), float(n))
    for name, stencil in row_stencils():
        s, X, Y = _row_kernel(stencil, sizes, j)
        e = _log_rho_n(stencil, sizes, s, X, Y)
        skipped = sizes * s >= 80.0
        assert np.all(e[skipped] <= -40.0), (name, n)


def fsum_each(segments):
    """math.fsum of each segment as hex, or the type of the first error."""
    try:
        return [math.fsum(seg).hex() for seg in segments]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def segment_sums_each(segments):
    """:func:`_segment_sums` over the segments laid end to end, as fsum_each."""
    values = np.array([x for seg in segments for x in seg])
    try:
        return [x.hex() for x in _segment_sums(values, np.array([len(seg) for seg in segments]))]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def random_segment(rng):
    """A hard case for exact summation: wide exponents, ties, cancellation."""
    kind = rng.integers(7)
    size = int(rng.integers(1, 40))
    if kind == 0:  # exponents from -1075 to 1000, subnormals included
        return (rng.choice([-1.0, 1.0], size)
                * np.ldexp(rng.random(size) + 0.5, rng.integers(-1075, 1000, size))).tolist()
    if kind == 1:  # x, -x with a tiny remainder
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-5, 300)
        return [*x, *-x, float(rng.standard_normal()) * 1e-300]
    if kind == 2:  # halfway cases: 1 + 2^-52 with powers of two
        return [1.0 + 2.0 ** -52, *np.ldexp(1.0, rng.integers(-110, -50, size)).tolist(),
                -(2.0 ** -53)]
    if kind == 3:  # at and above 2^960, the math.fsum fallback
        return (rng.choice([-1.0, 1.0], size)
                * np.ldexp(rng.random(size) + 0.5, rng.integers(955, 1024, size))).tolist()
    if kind == 4:  # values near a segment's rounding boundary
        base = float(rng.standard_normal()) * 2.0 ** int(rng.integers(-30, 30))
        return [base, *(base * 2.0 ** -53 * rng.choice([-1.0, 0.5, 1.0], size)).tolist()]
    if kind == 6:  # one sign, one binade: partial sums near the extraction bound
        sign = float(rng.choice([-1.0, 1.0]))
        return np.ldexp(sign * rng.uniform(0.5, 1.0, size), int(rng.integers(-20, 20))).tolist()
    return rng.standard_normal(size).tolist()  # ordinary rows


def test_segment_sums_match_fsum_bit_for_bit():
    rng = np.random.default_rng(2008)
    for _ in range(3000):
        segments = [random_segment(rng) for _ in range(int(rng.integers(1, 12)))]
        assert segment_sums_each(segments) == fsum_each(segments), segments


def test_segment_sums_extracted_match_fsum_bit_for_bit():
    # as above, but a segment reaching _EXTRACT_MAX (every kind 3, some of
    # kinds 0 and 1) is redrawn, so every batch takes the extraction passes
    rng = np.random.default_rng(2008)
    for _ in range(3000):
        segments = []
        for _ in range(int(rng.integers(1, 12))):
            segment = random_segment(rng)
            while max(map(abs, segment)) >= lattice_sum._EXTRACT_MAX:
                segment = random_segment(rng)
            segments.append(segment)
        assert segment_sums_each(segments) == fsum_each(segments), segments


@pytest.mark.parametrize("segment", [
    [5.0], [0.0], [-0.0], [2.0 ** -1074], [-(2.0 ** -1074), 2.0 ** -1074],
    [1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106], [1e308, 1e308],
    # a tie that only passes beyond the fourth break: six extraction passes
    [1.0, 2.0 ** -53, 2.0 ** -200, -(2.0 ** -200), 2.0 ** -400, -(2.0 ** -400),
     2.0 ** -600, -(2.0 ** -800)],
    [1e308, 1e308, -1e308], [2.0 ** 960, -(2.0 ** 960), 1.0],
    [math.inf, 1.0], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0],
    [math.inf, math.nan],
])
def test_segment_sums_special_segments(segment):
    # alone, and between ordinary segments it must not disturb
    for segments in ([segment], [[1.5, 0.25], segment, [3.0]]):
        assert segment_sums_each(segments) == fsum_each(segments)


# the Figure-1 ladder as `lapasym errors --plot` builds it: 196 sizes
FIGURE1_LADDER = sorted(set(range(1, 101)) | set(range(25, 2501, 25)))


@pytest.mark.parametrize("spec", ALL_BUILTINS + [parse_lattice_file(str(CUSTOM_LATTICE))],
                         ids=lambda spec: spec.name)
def test_segment_sums_take_two_passes(monkeypatch, spec):
    # the extraction passes run until every remainder is zero; on the
    # Figure-1 ladder and at n near 10^4 each batch needs exactly two, one
    # np.add.reduceat of its exact parts q per pass
    add, calls, passes = np.add, [], []

    class CountingAdd:
        def __getattr__(self, name):
            return getattr(add, name)

        def reduceat(self, *args, **kwargs):
            calls.append(1)
            return add.reduceat(*args, **kwargs)

    segment_sums = lattice_sum._segment_sums

    def counting(values, lengths):
        calls.clear()
        out = segment_sums(values, lengths)
        passes.append(len(calls))
        return out

    monkeypatch.setattr(np, "add", CountingAdd())
    monkeypatch.setattr(lattice_sum, "_segment_sums", counting)
    for ladder in (FIGURE1_LADDER, range(9968, 10033)):
        exact_sums(spec, ladder)
        assert passes == [2] * len(list(lattice_sum._batches(list(ladder))))
        passes.clear()


def test_exact_sums_match_exact_sum():
    # ladders that cross batch boundaries, unsorted and repeated sizes,
    # n in {1, 2, 3}, and one size with more rows than a whole batch
    big = 2 * lattice_sum._BATCH_ROWS + 3
    ladders = [FIGURE1_LADDER, [3, 1, 2, 2, 1, 3],
               [5000, 7, 8191, 7, 1, big, 2, 4096, 3, 9999]]
    batches = list(lattice_sum._batches(FIGURE1_LADDER))
    assert len(batches) > 10
    for batch in batches[:-1]:
        rows = [n // 2 + 1 for n in batch]
        assert sum(rows) - rows[-1] < lattice_sum._BATCH_ROWS <= sum(rows)
    for spec in ALL_BUILTINS + [parse_lattice_file(str(CUSTOM_LATTICE)), R_ZERO_ROWS]:
        for ladder in ladders:
            results = exact_sums(spec, ladder)
            assert [r.n for r in results] == ladder
            for r in results:
                assert r == exact_sum(spec, r.n), (spec.name, r.n)  # bit identical


def test_gathered_rows_memory_is_per_row():
    # a few arrays of n live at once: one row of psi, its int64 indices,
    # the gathered values and the sin^2 table
    n = 2000
    exact_sum(NO_ROW_BASIS, 64)  # warm numpy's lazy setup
    tracemalloc.start()
    try:
        exact_sum(NO_ROW_BASIS, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n


@pytest.mark.parametrize("n, value, compensation", [
    (7, "0x1.9f5ecc401d4f4p+5", "0x0.0p+0"),
    (64, "0x1.63e146faa42b4p+12", "0x1.0000000000000p-40"),
    (1030, "0x1.cde8ae683643cp+20", "0x0.0p+0"),
    (4001, "0x1.e280e15d714d2p+24", "0x0.0p+0"),
])
def test_gather_path_bits_are_pinned(n, value, compensation):
    result = exact_sum(NO_ROW_BASIS, n)
    assert result.value == float.fromhex(value)
    assert result.compensation == float.fromhex(compensation)


@pytest.mark.parametrize("name, n, value, compensation", [
    ("square", 7, "0x1.189d89d89d89ep+6", "0x1.0000000000000p-46"),
    ("square", 64, "0x1.6bdc528c02517p+13", "0x0.0p+0"),
    ("square", 1030, "0x1.2a9ab6cee3f74p+22", "0x0.0p+0"),
    ("square", 9985, "0x1.1ffb8aa86b307p+29", "0x1.0000000000000p-23"),
    ("square", 10000, "0x1.20e4e062097d9p+29", "0x1.0000000000000p-23"),
    ("triangular", 7, "0x1.fec6055a17312p+5", "0x0.0p+0"),
    ("triangular", 64, "0x1.4397a5b7c8698p+13", "0x0.0p+0"),
    ("triangular", 1030, "0x1.06e41b245207dp+22", "0x0.0p+0"),
    ("triangular", 9985, "0x1.f91a5a432ff25p+28", "0x0.0p+0"),
    ("triangular", 10000, "0x1.fab35a04e9b1ep+28", "-0x1.0000000000000p-24"),
    ("modified_union_jack", 7, "0x1.cf30d3e3317dbp+5", "0x1.0000000000000p-47"),
    ("modified_union_jack", 64, "0x1.1067de296b1c2p+13", "0x0.0p+0"),
    ("modified_union_jack", 1030, "0x1.ac54b088e3e6bp+21", "0x1.0000000000000p-31"),
    ("modified_union_jack", 9985, "0x1.9624b608ab573p+28", "-0x1.0000000000000p-24"),
    ("modified_union_jack", 10000, "0x1.976ce2f62bb2dp+28", "0x0.0p+0"),
    ("custom.lattice", 7, "0x1.aab918dd4f485p+5", "0x0.0p+0"),
    ("custom.lattice", 64, "0x1.b9f853f207895p+12", "0x0.0p+0"),
    ("custom.lattice", 1030, "0x1.46094bc465a40p+21", "0x0.0p+0"),
    ("custom.lattice", 9985, "0x1.2cdd73f7f1b11p+28", "-0x1.0000000000000p-24"),
    ("custom.lattice", 10000, "0x1.2dcf78eaea59fp+28", "0x0.0p+0"),
])
def test_closed_form_bits_are_pinned(name, n, value, compensation):
    spec = (parse_lattice_file(str(CUSTOM_LATTICE)) if name == "custom.lattice"
            else BUILTIN_LATTICES[name])
    result = exact_sum(spec, n)
    assert result.value == float.fromhex(value)
    assert result.compensation == float.fromhex(compensation)


def test_exact_sums_gather_path_matches_exact_sum():
    ladder = [1030, 3, 1, 64, 1030, 2]
    want = [exact_sum(NO_ROW_BASIS, n) for n in ladder]
    assert exact_sums(NO_ROW_BASIS, ladder) == want


def test_exact_sums_inputs():
    assert exact_sums(SQUARE, []) == []
    with pytest.raises(DomainError):
        exact_sums(SQUARE, [4, 0, 8])
    # sizes are integers: a float raises, even a whole one, and a numpy
    # integer becomes a Python int with the same bits
    with pytest.raises(TypeError):
        exact_sums(SQUARE, [4, 10.0])
    result = exact_sum(SQUARE, np.int64(10))
    assert result == exact_sum(SQUARE, 10) and type(result.n) is int


def test_exact_sums_memory_is_per_batch():
    # peak memory follows the batch budget plus the largest size, under 128
    # bytes per budget row, and a single size is its own batch; summing the
    # whole ladder in one pass would peak near 130 bytes per ladder row
    budget_rows = lattice_sum._BATCH_ROWS + max(FIGURE1_LADDER) // 2 + 1
    assert sum(n // 2 + 1 for n in FIGURE1_LADDER) > 10 * budget_rows
    exact_sums(TRIANGULAR, FIGURE1_LADDER)  # warm numpy's lazy setup
    tracemalloc.start()
    try:
        for spec in ALL_BUILTINS + [parse_lattice_file(str(CUSTOM_LATTICE))]:
            for ladder, rows in ((FIGURE1_LADDER, budget_rows), ([10000], 10000 // 2 + 1)):
                tracemalloc.reset_peak()
                exact_sums(spec, ladder)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak < 8192 + 128 * rows, (spec.name, len(ladder), peak)
    finally:
        tracemalloc.stop()


def test_row_kernel_memory_is_bounded_in_the_stencil_size():
    # 4002 vectors with 8 distinct q p: the sin^2 counts of Y come from
    # pairs of distinct values, not from the 8 million pairs of vectors
    stencil = ((1, 0), (0, 1)) + tuple((k % 7 + 1, 1) for k in range(4000))
    spec = LatticeSpec("long", stencil, 4)
    exact_sum(SQUARE, 8)  # warm numpy's lazy setup
    tracemalloc.start()
    try:
        value = exact_sum(spec, 8).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the gather path adds each psi's 4002 sin^2 terms one at a time
    assert value == pytest.approx(math.fsum(_gathered_rows(spec, 8)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 517, 2500])
def test_row_combine_is_correctly_rounded(n):
    # both paths return rows already weighted by the inversion symmetry
    cases = [(spec, _closed_form_rows(spec.stencil, [n])) for spec in ALL_BUILTINS]
    cases.append((NO_ROW_BASIS, _gathered_rows(NO_ROW_BASIS, n)))
    for spec, rows in cases:
        if spec is not NO_ROW_BASIS:
            assert _row_basis(spec.stencil) == ((1, 0), (0, 1))
        result = exact_sum(spec, n)
        assert result.value == float(sum(Fraction(r) for r in rows.tolist()))
        assert result.compensation == result.value - float(np.sum(rows))


@pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.name)
@pytest.mark.parametrize("n", [17, 32, 64])
def test_reversed_order_summation(spec, n):
    forward = exact_sum(spec, n).value
    # reversed index order, combined exactly rounded
    terms = []
    for j in reversed(range(n)):
        for k in reversed(range(n)):
            if (j, k) != (0, 0):
                terms.append(1.0 / kernel_psi(
                    spec, (2 * math.pi * j / n, 2 * math.pi * k / n)))
    assert abs(forward - math.fsum(terms)) <= 1e-12 * abs(forward)


@pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.name)
@pytest.mark.parametrize("n", [12, 37, 64, 128])
def test_periodicity_window_shift(spec, n):
    # psi is 2 pi periodic, so summing over the symmetric index window
    # j, k in [-ceil(n/2), n - ceil(n/2)) gives the same value
    half = -((-n) // 2)
    total = 0.0
    for j in range(-half, n - half):
        for k in range(-half, n - half):
            if (j, k) != (0, 0):
                total += 1.0 / kernel_psi(
                    spec, (2 * math.pi * j / n, 2 * math.pi * k / n))
    assert exact_sum(spec, n).value == pytest.approx(total, rel=1e-11, abs=0.0)


# ---------------------------------------------------------------------------
# Restricted quartic-kernel sum
# ---------------------------------------------------------------------------

def test_restricted_n5_enumeration():
    c = math.pi ** 2 / 75.0
    expected = (25.0 / math.pi ** 2) * (
        4.0 / (1.0 - c) + 4.0 / (2.0 - 2.0 * c))
    r = restricted_sum_f2(5)
    assert r.value == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert r.term_count == 8


def brute_restricted(n):
    g = GridGeometry.restricted(n)
    total = 0.0
    c = math.pi ** 2 / (3.0 * n * n)
    for j in range(-g.N, g.N + 1):
        for k in range(-g.N, g.N + 1):
            if (j, k) != (0, 0):
                total += 1.0 / (j * j + k * k - c * (j ** 4 + k ** 4))
    return (n * n / math.pi ** 2) * total


@pytest.mark.parametrize("n", [4, 5, 6, 7, 12, 25, 40])
def test_restricted_against_brute_force(n):
    r = restricted_sum_f2(n)
    assert r.value == pytest.approx(brute_restricted(n), rel=1e-12, abs=0.0)
    assert r.term_count == (2 * GridGeometry.restricted(n).N + 1) ** 2 - 1


def quadrant_oracle(n):
    """Axis sum and open-quadrant double sum, unfolded, added by math.fsum."""
    N = GridGeometry.restricted(n).N
    c = math.pi ** 2 / (3.0 * n * n)
    k2 = np.arange(1, N + 1, dtype=np.float64) ** 2
    u = k2 - c * (k2 * k2)
    quadrant = 1.0 / np.add.outer(u, u)
    return math.fsum((1.0 / u).tolist()), math.fsum(quadrant.ravel().tolist())


# N = 1..10, and N = 321: six row blocks, a ragged last one, every residue class
@pytest.mark.parametrize("n", list(range(4, 41)) + [1284, 1285, 1286, 1287])
def test_quadrant_sums_against_fsum(n):
    want_axis, want_quadrant = quadrant_oracle(n)
    assert abs(decomposition.piece_sums(n).q_axis / want_axis - 1.0) <= 1e-14
    assert abs(quadrant_sum(n) / want_quadrant - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [4, 7, 8, 21, 200, 257, 1287])
def test_quadrant_sums_reciprocal_count(monkeypatch, n):
    # the Laplace quadrature forms no reciprocal of a pair u_j + u_k
    formed = []
    reciprocal = np.reciprocal

    def counting(x, *args, **kwargs):
        formed.append(np.size(x))
        return reciprocal(x, *args, **kwargs)

    monkeypatch.setattr(np, "reciprocal", counting)
    assert quadrant_sum(n) > 0.0
    assert formed == []


@pytest.mark.parametrize("n", [200, 1287, 4001, 16000])
def test_quadrant_sum_cost(monkeypatch, n):
    # fewer than 60 N exponentials, where the pairs took N^2/2 reciprocals,
    # and a peak of one block (at most 16 nodes and _BLOCK_ELEMENTS floats),
    # numpy's iteration buffers (under one more block), a few arrays of N
    # floats and 2^17 bytes of fixed cost
    N = GridGeometry.restricted(n).N
    block = min(16, max(1, lattice_sum._BLOCK_ELEMENTS // N)) * N
    formed = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        formed.append(np.size(x))
        return exp(x, *args, **kwargs)

    quadrant_sum(n)  # warm numpy's lazy setup
    monkeypatch.setattr(np, "exp", counting)
    tracemalloc.start()
    try:
        quadrant_sum(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert N < sum(formed) <= 60 * N
    assert peak <= 8 * (2 * block + 8 * N) + 2 ** 17


@pytest.mark.parametrize("n", [4, 41, 1287, 16000])
def test_laplace_moment_series_within_budget(n):
    # the truncated moment series against the exponential sum it replaces,
    # both in 40 digits, at the last node that takes it, x = t u_N = 0.05;
    # the docstring budget is e^0.05 0.05^13 / 13! = 2.1e-27 relative
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    u = quartic_rows(n)
    x = mp.mpf(lattice_sum._LAPLACE_SERIES_X)
    r = [mp.mpf(v) / mp.mpf(u[-1]) for v in u.tolist()]
    exact = mp.fsum(mp.exp(-x * rj) for rj in r)
    series = mp.fsum((-x) ** k / mp.factorial(k) * mp.fsum(rj ** k for rj in r)
                     for k in range(lattice_sum._LAPLACE_MOMENTS))
    assert abs(series / exact - 1) <= 2.1e-27


@pytest.mark.parametrize("n", [21, 1287, 16000, 140001])
def test_laplace_column_cut_within_budget(monkeypatch, n):
    # every node of every exponential block, with the columns its block
    # kept: the dropped e^(-t u_j) add up to at most N e^-60 of S(t)
    u = quartic_rows(n)
    N = len(u)
    blocks = []
    exp = np.exp

    def recording(x, *args, **kwargs):
        if np.ndim(x) == 2:
            blocks.append((-x[:, 0] / u[0], x.shape[1]))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording)
    quadrant_sum(n)
    monkeypatch.undo()
    assert blocks
    for t, cols in blocks:
        w = np.exp(-np.multiply.outer(t, u - u[0]))  # S(t) e^(t u_1), each node
        assert (w[:, cols:].sum(axis=1) <= N * math.exp(-60.0) * w.sum(axis=1)).all()


def test_quartic_rows_bounded_below():
    # k <= N <= n/4 keeps every u_k at least k^2 (1 - pi^2/48) >= 0.79 k^2,
    # so no denominator of the window vanishes
    for n in list(range(4, 601)) + [10001, 1000003]:
        u = quartic_rows(n)
        k2 = np.arange(1, len(u) + 1, dtype=np.float64) ** 2
        assert (u >= k2 * (1.0 - math.pi ** 2 / 48.0)).all(), n


def test_restricted_matches_pointwise_kernel():
    # same sum built from kernel_fm at the grid frequencies
    n = 9
    g = GridGeometry.restricted(n)
    total = 0.0
    for j in range(-g.N, g.N + 1):
        for k in range(-g.N, g.N + 1):
            if (j, k) != (0, 0):
                total += kernel_fm(SQUARE, 2, (2 * math.pi * j / n, 2 * math.pi * k / n))
    assert restricted_sum_f2(n).value == pytest.approx(total, rel=1e-12, abs=0.0)


def test_restricted_rejects_non_square_and_tiny_n():
    with pytest.raises(DomainError):
        restricted_sum_f2(3)


# every entry point of the restricted window shares the n >= 4 guard
RESTRICTED_ENTRY_POINTS = [
    decomposition.factor_rows, decomposition.piece_sums,
    decomposition.double_sum_via_digamma, decomposition.profile_decomposition,
    asymptotics.integral_f1_restricted, asymptotics.restricted_integral_f2,
    quadrature.integral_f2_restricted,
    asymptotics.restricted_integral_expansion, asymptotics.axis_sum_expansion,
    quartic_rows, quadrant_sum, restricted_sum_f2,
]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("entry", RESTRICTED_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_restricted_entry_points_reject_tiny_n(entry, n):
    with pytest.raises(DomainError, match="restricted window needs n >= 4"):
        entry(n)


@pytest.mark.parametrize("n", [10.5, 40.0])
@pytest.mark.parametrize("entry", RESTRICTED_ENTRY_POINTS, ids=lambda f: f.__name__)
def test_restricted_entry_points_reject_non_integer_n(entry, n):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        entry(n)


def test_kernel_positivity_on_restricted_window():
    # psi and the quartic denominator stay positive on the whole window,
    # every n up to 512
    for n in range(4, 513):
        N = (n - n % 4) // 4
        k = np.arange(0, N + 1, dtype=np.float64)
        c = math.pi ** 2 / (3.0 * n * n)
        k2 = k * k
        den = k2[:, None] + k2[None, :] - c * (k2[:, None] ** 2 + k2[None, :] ** 2)
        den[0, 0] = 1.0  # origin excluded from the window
        assert den.min() > 0.0
        s = np.sin(math.pi * np.arange(0, N + 1) / n)
        psi = s[:, None] ** 2 + s[None, :] ** 2
        psi[0, 0] = 1.0
        assert psi.min() > 0.0


# ---------------------------------------------------------------------------
# Lattice config files
# ---------------------------------------------------------------------------

def test_parse_lattice_file(tmp_path):
    cfg = tmp_path / "custom.lattice"
    cfg.write_text("# triangular stencil\ns = 1 0\ns = 0 1\ns = 1 1\ndivisor = 6\n")
    spec = parse_lattice_file(str(cfg))
    assert spec.stencil == TRIANGULAR.stencil
    assert spec.trace_divisor == 6
    assert exact_sum(spec, 8).value == exact_sum(TRIANGULAR, 8).value


def test_parse_lattice_file_errors(tmp_path):
    missing = tmp_path / "missing_divisor.lattice"
    missing.write_text("s = 1 0\ns = 0 1\n")
    with pytest.raises(DomainError):
        parse_lattice_file(str(missing))
    twice = tmp_path / "two_divisors.lattice"  # the last one used to win
    twice.write_text("s = 1 0\ns = 0 1\ndivisor = 4\ndivisor = 5\n")
    with pytest.raises(DomainError, match=r"two_divisors\.lattice:4: second 'divisor'"):
        parse_lattice_file(str(twice))
    bad = tmp_path / "bad_line.lattice"
    bad.write_text("s = 1 0\ns = 0 1\nwhat = ever\ndivisor = 4\n")
    with pytest.raises(DomainError):
        parse_lattice_file(str(bad))
    for stencil in ("s = 1 0\n", ""):
        few = tmp_path / "few_vectors.lattice"
        few.write_text(stencil + "divisor = 4\n")
        with pytest.raises(DomainError, match="stencil needs at least two vectors"):
            parse_lattice_file(str(few))


def test_builtin_registry():
    assert set(BUILTIN_LATTICES) == {"square", "triangular", "modified_union_jack"}
