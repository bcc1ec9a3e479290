"""Tests for the exact-sum engine, kernels, and lattice plumbing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapasym.exceptions import DomainError, SingularityError
from lapasym.lattice_sum import (BUILTIN_LATTICES, MODIFIED_UNION_JACK,
                                 SQUARE, TRIANGULAR, GridGeometry,
                                 LatticeSpec, builtin_lattice, exact_sum,
                                 kernel_fm, kernel_psi, neumaier_sum,
                                 parse_lattice_file, restricted_sum_f2,
                                 resolve_workers, trace_pseudoinverse)

ALL_BUILTINS = [SQUARE, TRIANGULAR, MODIFIED_UNION_JACK]


def brute_force_sum(spec, n):
    """Reference F_n straight from the kernel, no engine shortcuts."""
    total = 0.0
    for j in range(n):
        for k in range(n):
            if (j, k) == (0, 0):
                continue
            total += 1.0 / kernel_psi(spec, (2 * math.pi * j / n, 2 * math.pi * k / n))
    return total


# ---------------------------------------------------------------------------
# Specs and geometry
# ---------------------------------------------------------------------------

def test_builtin_shapes():
    assert SQUARE.L == 2 and SQUARE.trace_divisor == 4
    assert TRIANGULAR.L == 3 and TRIANGULAR.trace_divisor == 6
    assert TRIANGULAR.stencil[2] == (1, 1)
    assert MODIFIED_UNION_JACK.L == 4 and MODIFIED_UNION_JACK.trace_divisor == 8
    assert MODIFIED_UNION_JACK.stencil[2:] == ((1, -1), (1, 1))
    assert SQUARE.s_bar == 1.0
    assert TRIANGULAR.s_bar == pytest.approx(math.sqrt(2.0))


def test_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec("bad", ((0, 1), (1, 0)), 4)   # wrong normalization order
    with pytest.raises(DomainError):
        LatticeSpec("bad", ((1, 0), (0, 1), (0, 0)), 4)
    with pytest.raises(DomainError):
        LatticeSpec("bad", ((1, 0), (0, 1)), 0)
    with pytest.raises(DomainError):
        builtin_lattice("hexagonal")


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 11, 20])
def test_grid_geometry(n):
    g = GridGeometry.from_n(n)
    assert g.n == 4 * g.N + g.n0
    assert g.n0 == n % 4
    assert g.delta_n == pytest.approx(2 * math.pi / n)
    assert g.beta_n == pytest.approx((math.pi / 2) * (1 + (2 - g.n0) / n))
    assert g.beta == pytest.approx(1 - math.pi ** 2 / 20)


@pytest.mark.parametrize("n", range(4, 21))
def test_restricted_membership_matches_frequency_cutoff(n):
    # index predicate |j|,|k| <= N equals the |t| <= pi/2 frequency cutoff
    g = GridGeometry.from_n(n)
    for j in range(-g.N - 2, g.N + 3):
        for k in range(-g.N - 2, g.N + 3):
            by_freq = (abs(2 * math.pi * j / n) <= math.pi / 2 + 1e-12
                       and abs(2 * math.pi * k / n) <= math.pi / 2 + 1e-12
                       and (j, k) != (0, 0))
            assert g.in_restricted(j, k) == by_freq


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


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_kernel_psi_range(a, b):
    for spec in ALL_BUILTINS:
        v = kernel_psi(spec, (a, b))
        assert 0.0 <= v <= 2.0 + 1e-15


def test_kernel_fm_values():
    assert kernel_fm(SQUARE, 1, (1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)
    expected = 4.0 / (math.pi ** 2 / 4.0 - math.pi ** 4 / 192.0)
    assert kernel_fm(SQUARE, 2, (math.pi / 2, 0.0)) == pytest.approx(expected, rel=1e-14)
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
    assert got.value == pytest.approx(brute_force_sum(spec, n), rel=1e-13)
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
    assert exact_sum(spec, n).value == pytest.approx(brute_force_sum(spec, n), rel=1e-12)


def test_determinism_across_worker_counts():
    for sum_at in (lambda w: exact_sum(TRIANGULAR, 257, workers=w),
                   lambda w: restricted_sum_f2(1101, workers=w)):
        for workers in (1, 2, 3, 8):
            r = sum_at(workers)
            if workers == 1:
                base = r
            assert r.value == base.value          # bit identical
            assert r.compensation == base.compensation


def test_env_var_workers(monkeypatch):
    monkeypatch.setenv("LAPASYM_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(5) == 5
    monkeypatch.delenv("LAPASYM_WORKERS")
    assert resolve_workers(None) >= 1


@pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.name)
@pytest.mark.parametrize("n", [17, 32, 64])
def test_reversed_order_summation(spec, n):
    forward = exact_sum(spec, n).value
    # reversed index order, compensated the same way
    terms = []
    for j in reversed(range(n)):
        for k in reversed(range(n)):
            if (j, k) != (0, 0):
                terms.append(1.0 / kernel_psi(
                    spec, (2 * math.pi * j / n, 2 * math.pi * k / n)))
    s, c = neumaier_sum(terms)
    assert abs(forward - (s + c)) <= 1e-12 * abs(forward)


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
    assert exact_sum(spec, n).value == pytest.approx(total, rel=1e-11)


def test_neumaier_compensation_tracks_residual():
    values = [1e16, 1.0, -1e16]
    s, c = neumaier_sum(values)
    assert s + c == 1.0


# ---------------------------------------------------------------------------
# Restricted quartic-kernel sum
# ---------------------------------------------------------------------------

def test_restricted_n5_enumeration():
    c = math.pi ** 2 / 75.0
    expected = (25.0 / math.pi ** 2) * (
        4.0 / (1.0 - c) + 4.0 / (2.0 - 2.0 * c))
    r = restricted_sum_f2(5)
    assert r.value == pytest.approx(expected, rel=1e-14)
    assert r.term_count == 8


def brute_restricted(n):
    g = GridGeometry.from_n(n)
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
    assert r.value == pytest.approx(brute_restricted(n), rel=1e-12)
    assert r.term_count == (2 * GridGeometry.from_n(n).N + 1) ** 2 - 1


def test_restricted_matches_pointwise_kernel():
    # same sum built from kernel_fm at the grid frequencies
    n = 9
    g = GridGeometry.from_n(n)
    total = 0.0
    for j in range(-g.N, g.N + 1):
        for k in range(-g.N, g.N + 1):
            if (j, k) != (0, 0):
                total += kernel_fm(SQUARE, 2, (2 * math.pi * j / n, 2 * math.pi * k / n))
    assert restricted_sum_f2(n).value == pytest.approx(total, rel=1e-12)


def test_restricted_rejects_non_square_and_tiny_n():
    with pytest.raises(DomainError):
        restricted_sum_f2(10, spec=TRIANGULAR)
    with pytest.raises(DomainError):
        restricted_sum_f2(3)


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
    bad = tmp_path / "bad_line.lattice"
    bad.write_text("s = 1 0\ns = 0 1\nwhat = ever\ndivisor = 4\n")
    with pytest.raises(DomainError):
        parse_lattice_file(str(bad))


def test_builtin_registry():
    assert set(BUILTIN_LATTICES) == {"square", "triangular", "modified_union_jack"}
