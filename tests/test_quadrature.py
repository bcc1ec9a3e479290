"""Tests for the adaptive quadrature oracles."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lapasym import asymptotics, decomposition, specfun, verify
from lapasym.asymptotics import (integral_f1_restricted,
                                 log_cos_closed_forms,
                                 quartic_factor_params,
                                 restricted_integral_expansion)
from lapasym.exceptions import ConvergenceError, DomainError
from lapasym.lattice_sum import GridGeometry
from lapasym.quadrature import (factored_log_integrals, integral_f2_restricted,
                                integrate_1d, integrate_2d)
from lapasym.specfun import CONSTANTS


def test_monomial():
    res = integrate_1d(lambda x: x * x, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert res.abs_error_estimate >= 0.0
    assert res.evaluations >= 15


def test_catalan_log_cos_integral():
    res = integrate_1d(lambda t: np.log(np.cos(t)), 0.0, math.pi / 4.0)
    expected = -(math.pi / 4.0) * math.log(2.0) + 0.5 * CONSTANTS.catalan_G
    assert res.value == pytest.approx(expected, abs=1e-11)


def test_reciprocal_shifted_cos():
    res = integrate_1d(lambda t: 1.0 / (2.0 - np.cos(t)), 0.0, math.pi / 2.0)
    assert res.value == pytest.approx(2.0 * math.pi / (3.0 * math.sqrt(3.0)), abs=1e-12)


def test_interval_validation():
    with pytest.raises(DomainError):
        integrate_1d(math.sin, 1.0, 1.0)


@pytest.mark.parametrize("tol", [-1.0, -math.inf, math.nan])
def test_unreachable_tol_raises_before_evaluating(tol):
    calls = []

    def counted(x):
        calls.append(x)
        return math.cos(x)

    with pytest.raises(DomainError, match="tol"):
        integrate_1d(counted, 0.0, 1.0, tol=tol)
    assert calls == []


def test_zero_tol_is_met_by_an_exact_estimate():
    # every node value is 0, so K15 - G7 is exactly 0 and meets tol = 0
    # on the first segment
    res = integrate_1d(np.zeros_like, 0.0, 1.0, tol=0.0)
    assert (res.value, res.abs_error_estimate, res.evaluations) == (0.0, 0.0, 15)


def test_convergence_error_carries_partial():
    # 1/|x - 1/3| never converges; refinement stops within the budget
    with pytest.raises(ConvergenceError) as err:
        integrate_1d(lambda x: 1.0 / abs(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-10)
    assert err.value.partial is not None
    assert 0 < err.value.partial.evaluations <= 100_000


@pytest.mark.parametrize("fn", [lambda t: math.nan,
                                lambda t: np.where(t > 0.5, math.nan, 1.0)])
def test_nan_integrand_raises(fn):
    # a nan error estimate compares false both ways, so it must not pass as
    # converged
    with pytest.raises(ConvergenceError) as err:
        integrate_1d(fn, 0.0, 1.0)
    assert math.isnan(err.value.partial.abs_error_estimate)


def test_infinite_estimate_raises_even_for_infinite_tol():
    # inf at the centre node makes K15 - G7 infinite, which no share of
    # tol admits, not even of tol = inf
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_1d(lambda t: np.where(t == 0.5, math.inf, 1.0), 0.0, 1.0, tol=math.inf)


def test_nan_integrand_raises_at_the_first_segment():
    # a nan estimate cannot converge, so no evaluation budget is spent on
    # it: level 0 is one call with the first segment's 15 nodes
    nodes = []

    def fn(t):
        nodes.append(t.shape)
        return np.full_like(t, math.nan)

    with pytest.raises(ConvergenceError, match="depth 0") as err:
        integrate_1d(fn, 0.0, 1.0)
    assert nodes == [(1, 15)] and err.value.partial.evaluations == 15


def test_vector_integrand_components_meet_tol_on_shared_segments():
    # one call per level for all components; each component within tol of
    # its own scalar integral, though the segments follow the worst one
    shifts = np.array([40.0, 5.0, 2.0, 1.1])
    vec = integrate_1d(lambda t: np.log(shifts[:, None, None] - np.cos(t)), 0.0, 2.0)
    assert vec.value.shape == vec.abs_error_estimate.shape == (4,)
    assert np.all(vec.abs_error_estimate <= 1e-11)
    for shift, value in zip(shifts, vec.value):
        alone = integrate_1d(lambda t: np.log(shift - np.cos(t)), 0.0, 2.0)
        assert alone.evaluations <= vec.evaluations
        assert abs(value - alone.value) <= 1e-11
    grid = integrate_1d(lambda t: np.arange(6.0).reshape(2, 3, 1, 1) * t, 0.0, 2.0)
    assert grid.value.shape == (2, 3) and np.array_equal(grid.value, 2.0 * np.arange(6.0).reshape(2, 3))


def test_constant_integrand_broadcasts():
    res = integrate_1d(lambda t: 7.0, 0.0, 3.0)
    assert isinstance(res.value, float) and isinstance(res.abs_error_estimate, float)
    assert res.value == pytest.approx(21.0, rel=1e-15)
    assert res.evaluations == 15


def test_evaluation_budget_is_a_strict_cap():
    # sin(1e9 x) splits every segment at every level; the 4096 splits of
    # level 12 would pass 100000 evaluations, so levels 0..11 are all
    with pytest.raises(ConvergenceError) as err:
        integrate_1d(lambda x: np.sin(1e9 * x), 0.0, 1.0, tol=1e-10)
    assert err.value.partial.evaluations == 15 * (2 ** 12 - 1)


def test_two_calls_return_identical_bits():
    def fn(t):
        return np.log(np.array([1.5, 3.0])[:, None, None] - np.cos(t)) * np.exp(t)

    first, second = (integrate_1d(fn, 0.0, 3.0, tol=1e-12) for _ in range(2))
    assert first.value.tobytes() == second.value.tobytes()
    assert first.abs_error_estimate.tobytes() == second.abs_error_estimate.tobytes()
    assert first.evaluations == second.evaluations


@given(st.tuples(*[st.floats(min_value=-3.0, max_value=3.0) for _ in range(4)]))
def test_cubic_polynomials_exact(coeffs):
    a, b, c, d = coeffs

    def poly(x):
        return ((a * x + b) * x + c) * x + d

    def anti(x):
        return ((a / 4.0 * x + b / 3.0) * x + c / 2.0) * x * x + d * x

    res = integrate_1d(poly, -1.0, 2.0)
    assert res.value == pytest.approx(anti(2.0) - anti(-1.0), abs=1e-10)


# ---------------------------------------------------------------------------
# Closed-form cross checks
# ---------------------------------------------------------------------------

def _assert_within_log_cos_limit(closed, quad, carry):
    # the quadrature within its own estimate, the closed form within its
    # error budget (carry 8 for a > 1, 0 for 0 < a < 1; see verify)
    assert abs(closed - quad.value) <= quad.abs_error_estimate + verify._log_cos_limit(closed, carry)


def test_log_integral_closed_forms_outside():
    rng = np.random.default_rng(11)
    for a in rng.uniform(1.1, 10.0, size=50):
        a = float(a)
        j11, j12 = log_cos_closed_forms(a, "gt1")
        q1 = integrate_1d(lambda t: np.log(a - np.cos(t)), 0.0, math.pi / 2)
        q2 = integrate_1d(lambda t: 1.0 / (a - np.cos(t)), 0.0, math.pi / 2)
        _assert_within_log_cos_limit(j11, q1, 8.0)
        _assert_within_log_cos_limit(j12, q2, 8.0)


def test_log_integral_closed_forms_inside():
    rng = np.random.default_rng(12)
    for a in rng.uniform(0.05, 0.95, size=50):
        a = float(a)
        j21, j22 = log_cos_closed_forms(a, "in01")
        q1 = integrate_1d(lambda t: np.log(np.cos(t) + a), 0.0, math.pi / 2)
        q2 = integrate_1d(lambda t: 1.0 / (np.cos(t) + a), 0.0, math.pi / 2)
        _assert_within_log_cos_limit(j21, q1, 0.0)
        _assert_within_log_cos_limit(j22, q2, 0.0)


# ---------------------------------------------------------------------------
# Polar reduction and the restricted-region integrals
# ---------------------------------------------------------------------------

def test_f1_restricted_closed_arithmetic():
    n = 8
    beta_n = (math.pi / 2.0) * (1.0 - 2.0 / 8.0 + 1.0)  # n0 = 0: (pi/2)(1 + 2/8)
    beta_n = (math.pi / 2.0) * (1.0 + (2.0 - 0.0) / 8.0)
    expected = (2.0 * n * n / math.pi) * math.log(n * beta_n / math.pi)
    assert integral_f1_restricted(n) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [100, 1000])
def test_f1_restricted_three_term_expansion(n):
    # Exact value minus the three-term model converges to -(2-n0)^2/pi,
    # the second-order term of n^2 log(1 + (2-n0)/n); about -1.273 for
    # n0 = 0.  The approach is O(1/n).
    n0 = n % 4
    model = ((2.0 / math.pi) * math.log(n) - math.log(4.0) / math.pi) * n * n \
        + (2.0 * (2.0 - n0) / math.pi) * n
    gap = integral_f1_restricted(n) - model
    assert abs(gap) <= 2.0
    assert gap == pytest.approx(-(2.0 - n0) ** 2 / math.pi, abs=10.0 / n)


def test_f1_restricted_against_2d_oracle():
    n = 20
    beta_n = GridGeometry.restricted(n).beta_n
    a = math.pi / n

    def f1(x, y):
        return 4.0 / (x * x + y * y)

    # quadrant region [0, beta]^2 minus [0, a]^2, doubled up by symmetry
    main = integrate_2d(f1, a, beta_n, 0.0, beta_n).value
    corner = integrate_2d(f1, 0.0, a, a, beta_n).value
    ref = 4.0 * (main + corner) / (2.0 * math.pi / n) ** 2
    assert integral_f1_restricted(n) == pytest.approx(ref, rel=1e-6, abs=0.0)


def test_f2_restricted_against_2d_oracle():
    n = 5
    beta_n = GridGeometry.restricted(n).beta_n
    a = math.pi / n

    def f2(x, y):
        return 4.0 / (x * x + y * y - (x ** 4 + y ** 4) / 12.0)

    main = integrate_2d(f2, a, beta_n, 0.0, beta_n).value
    corner = integrate_2d(f2, 0.0, a, a, beta_n).value
    ref = 4.0 * (main + corner) / (2.0 * math.pi / n) ** 2
    assert integral_f2_restricted(n).value == pytest.approx(ref, rel=1e-6, abs=0.0)


def test_f2_integrand_at_zero_angle():
    # eta(0) = 1, so the angular integrand at 0 is log(12 - (pi/n)^2) - log(12 - beta_n^2)
    n = 16
    beta_n = GridGeometry.restricted(n).beta_n
    general = math.log(12.0 - (math.pi / n) ** 2 * 1.0
                       / math.cos(0.0) ** 2) \
        - math.log(12.0 - beta_n ** 2 * 1.0 / math.cos(0.0) ** 2)
    reduced = math.log(12.0 - (math.pi / n) ** 2) - math.log(12.0 - beta_n ** 2)
    assert general == reduced
    assert reduced > 0.0  # the lower radial bound sits closer to the log branch point


def test_f2_restricted_remainder_is_bounded_and_settles():
    # The three-term expansion leaves an O(1) remainder; it must stabilize
    # as n grows within a residue class.  (Measured limit is near -1.08.)
    deltas = [integral_f2_restricted(n).value - restricted_integral_expansion(n)
              for n in (250 * 4, 500 * 4)]
    assert max(abs(d) for d in deltas) <= 2.0
    assert abs(deltas[1] - deltas[0]) <= 0.01


def test_restricted_integrals_reject_tiny_n():
    with pytest.raises(DomainError):
        integral_f1_restricted(3)
    with pytest.raises(DomainError):
        integral_f2_restricted(2)


# ---------------------------------------------------------------------------
# Factored log integrals
# ---------------------------------------------------------------------------

def test_factored_log_integrals_large_u_limit():
    u = 1.0e8
    j1, _ = factored_log_integrals(u)
    assert abs(j1 - (math.pi / 2.0) * math.log(2.0 * u - 1.0)) <= 1e-7


def test_factored_log_integrals_match_closed_forms():
    _, u = quartic_factor_params(1000)
    j1, j2 = factored_log_integrals(u)
    # the same two quadratures, for their error estimates
    s1, s2 = 2.0 * u - 1.0, 1.0 - 1.0 / u
    q1 = integrate_1d(lambda t: np.log(s1 - np.cos(t)), 0.0, 0.5 * math.pi)
    q2 = integrate_1d(lambda t: np.log(np.cos(t) + s2), 0.0, 0.5 * math.pi)
    assert (q1.value, q2.value) == (j1, j2)
    _assert_within_log_cos_limit(log_cos_closed_forms(s1, "gt1")[0], q1, 8.0)
    _assert_within_log_cos_limit(log_cos_closed_forms(s2, "in01")[0], q2, 0.0)


def test_factored_log_integrals_domain():
    with pytest.raises(DomainError):
        factored_log_integrals(1.0)


def _shift_log_cos(monkeypatch):
    closed = asymptotics.log_cos_closed_forms
    monkeypatch.setattr(asymptotics, "log_cos_closed_forms",
                        lambda a, regime: tuple(j + 1e-12 for j in closed(a, regime)))


def _shift_catalan(monkeypatch, by=1e-11):
    moved = CONSTANTS._replace(catalan_G=CONSTANTS.catalan_G + by)
    monkeypatch.setattr(specfun, "CONSTANTS", moved)


def _shift_catalan_literal(monkeypatch):
    _shift_catalan(monkeypatch, by=1e-14)


def _scale_f1(monkeypatch):
    f1 = asymptotics.integral_f1_restricted
    monkeypatch.setattr(asymptotics, "integral_f1_restricted", lambda n: f1(n) * (1.0 + 1e-9))


def _scale_f2(monkeypatch):
    f2 = asymptotics.restricted_integral_f2
    monkeypatch.setattr(asymptotics, "restricted_integral_f2", lambda n: f2(n) * (1.0 + 1e-12))


def _scale_digamma(monkeypatch, by=1e-13):
    psi = specfun.digamma_array
    monkeypatch.setattr(specfun, "digamma_array", lambda z: psi(z) * (1.0 + by))


def _scale_digamma_more(monkeypatch):
    _scale_digamma(monkeypatch, by=3e-14)


def _scale_gamma_quarter(monkeypatch):
    # exp_tail_limit reads the constant table asymptotics imported; its
    # uncached body sees the moved one and leaves the cache alone
    moved = CONSTANTS._replace(gamma_quarter=CONSTANTS.gamma_quarter * (1.0 + 5e-14))
    monkeypatch.setattr(asymptotics, "CONSTANTS", moved)
    monkeypatch.setattr(asymptotics, "exp_tail_limit", asymptotics.exp_tail_limit.__wrapped__)


def _scale_em_integral(monkeypatch):
    integrate = decomposition.integrate_1d

    def scaled(*args, **kwargs):
        res = integrate(*args, **kwargs)
        return res._replace(value=res.value * (1.0 + 1e-14))

    monkeypatch.setattr(decomposition, "integrate_1d", scaled)


def _shift_profile(monkeypatch):
    profile = decomposition.profile_decomposition

    def shifted(n):
        pr = profile(n)
        return pr._replace(r_log_profile=pr.r_log_profile + 1e-13)

    monkeypatch.setattr(decomposition, "profile_decomposition", shifted)


def _scale_factor_rows_b(monkeypatch):
    rows = decomposition.factor_rows
    monkeypatch.setattr(decomposition, "factor_rows",
                        lambda n: rows(n)._replace(B=rows(n).B * (1.0 + 1e-14)))


@pytest.mark.parametrize("suite, check, shift", [
    ("quadrature", "log_cos_closed_forms", _shift_log_cos),
    ("quadrature", "catalan_integral", _shift_catalan),
    ("quadrature", "restricted_f1_vs_2d", _scale_f1),
    ("quadrature", "restricted_f2_closed_form", _scale_f2),
    ("identities", "cascade_profiles_n0_zero", _shift_profile),
    ("identities", "partial_fraction", _scale_factor_rows_b),
    ("specfun", "clausen_catalan", _shift_catalan_literal),
    ("specfun", "digamma_finite_sum", _scale_digamma),
    ("specfun", "q_pochhammer_eta", _scale_gamma_quarter),
    ("specfun", "digamma_recurrence", _scale_digamma_more),
    ("specfun", "euler_maclaurin_quadratic", _scale_em_integral),
])
def test_verify_limits_catch_small_shifts(monkeypatch, suite, check, shift):
    # each shift passes a limit of 1e-9, 1e-11, 1e-6, 1e-9, 1e-12, 1e-14,
    # 1e-12, 1e-11, 1e-12, 1e-12 or 1e-14 respectively (the sixth and the
    # last three are the round limits these checks had), but not the limit
    # derived from the check's error sources
    assert {r.name: r for r in verify.SUITES[suite](max_n=100)}[check].passed
    shift(monkeypatch)
    result = {r.name: r for r in verify.SUITES[suite](max_n=100)}[check]
    assert not result.passed, result.detail
