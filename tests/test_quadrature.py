"""Tests for the adaptive quadrature oracles."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lapasym import asymptotics, decomposition, quadrature, specfun, verify
from lapasym.asymptotics import (log_cos_closed_forms,
                                 quartic_factor_params,
                                 restricted_integral_expansion)
from lapasym.exceptions import ConvergenceError, DomainError
from lapasym.lattice_sum import GridGeometry
from lapasym.quadrature import (eta_sq, factored_log_integrals,
                                integral_f1_restricted,
                                integral_f2_restricted, integrate_1d,
                                integrate_2d)
from lapasym.specfun import CONSTANTS


def test_monomial():
    res = integrate_1d(lambda x: x * x, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert res.abs_error_estimate >= 0.0
    assert res.evaluations >= 15


def test_catalan_log_cos_integral():
    res = integrate_1d(lambda t: math.log(math.cos(t)), 0.0, math.pi / 4.0)
    expected = -(math.pi / 4.0) * math.log(2.0) + 0.5 * CONSTANTS.catalan_G
    assert res.value == pytest.approx(expected, abs=1e-11)


def test_reciprocal_shifted_cos():
    res = integrate_1d(lambda t: 1.0 / (2.0 - math.cos(t)), 0.0, math.pi / 2.0)
    assert res.value == pytest.approx(2.0 * math.pi / (3.0 * math.sqrt(3.0)), abs=1e-12)


def test_interval_validation():
    with pytest.raises(DomainError):
        integrate_1d(math.sin, 1.0, 1.0)


def test_convergence_error_carries_partial():
    with pytest.raises(ConvergenceError) as err:
        integrate_1d(lambda x: 1.0 / abs(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-10)
    assert err.value.partial is not None
    assert err.value.partial.evaluations > 0


@pytest.mark.parametrize("fn", [lambda t: math.nan,
                                lambda t: math.nan if t > 0.5 else 1.0])
def test_nan_integrand_raises(fn):
    # a nan error estimate compares false both ways, so it must not pass as
    # converged
    with pytest.raises(ConvergenceError) as err:
        integrate_1d(fn, 0.0, 1.0)
    assert math.isnan(err.value.partial.abs_error_estimate)


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

def test_log_integral_closed_forms_outside():
    rng = np.random.default_rng(11)
    for a in rng.uniform(1.1, 10.0, size=50):
        a = float(a)
        j11, j12 = log_cos_closed_forms(a, "gt1")
        q1 = integrate_1d(lambda t: math.log(a - math.cos(t)), 0.0, math.pi / 2).value
        q2 = integrate_1d(lambda t: 1.0 / (a - math.cos(t)), 0.0, math.pi / 2).value
        assert j11 == pytest.approx(q1, abs=1e-9)
        assert j12 == pytest.approx(q2, abs=1e-10)


def test_log_integral_closed_forms_inside():
    rng = np.random.default_rng(12)
    for a in rng.uniform(0.05, 0.95, size=50):
        a = float(a)
        j21, j22 = log_cos_closed_forms(a, "in01")
        q1 = integrate_1d(lambda t: math.log(math.cos(t) + a), 0.0, math.pi / 2).value
        q2 = integrate_1d(lambda t: 1.0 / (math.cos(t) + a), 0.0, math.pi / 2).value
        assert j21 == pytest.approx(q1, abs=1e-9)
        assert j22 == pytest.approx(q2, abs=1e-10)


# ---------------------------------------------------------------------------
# Polar reduction and the restricted-region integrals
# ---------------------------------------------------------------------------

def test_eta_sq_identity():
    # cos^4 + sin^4 == 2 cos^4 - 2 cos^2 + 1 pointwise
    for theta in np.linspace(0.0, math.pi / 4.0, 1000):
        c = math.cos(theta)
        alt = 2.0 * c ** 4 - 2.0 * c * c + 1.0
        assert abs(eta_sq(theta) - alt) <= 1e-15


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
    assert eta_sq(0.0) == 1.0
    beta_n = GridGeometry.restricted(n).beta_n
    general = math.log(12.0 - (math.pi / n) ** 2 * eta_sq(0.0)
                       / math.cos(0.0) ** 2) \
        - math.log(12.0 - beta_n ** 2 * eta_sq(0.0) / math.cos(0.0) ** 2)
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
    assert j1 == pytest.approx(log_cos_closed_forms(2.0 * u - 1.0, "gt1")[0], abs=1e-9)
    assert j2 == pytest.approx(
        log_cos_closed_forms(1.0 - 1.0 / u, "in01")[0], abs=1e-9)


def test_factored_log_integrals_domain():
    with pytest.raises(DomainError):
        factored_log_integrals(1.0)


def _shift_log_cos(monkeypatch):
    closed = asymptotics.log_cos_closed_forms
    monkeypatch.setattr(asymptotics, "log_cos_closed_forms",
                        lambda a, regime: tuple(j + 1e-12 for j in closed(a, regime)))


def _shift_catalan(monkeypatch, by=1e-11):
    moved = dataclasses.replace(CONSTANTS, catalan_G=CONSTANTS.catalan_G + by)
    monkeypatch.setattr(specfun, "CONSTANTS", moved)


def _shift_catalan_literal(monkeypatch):
    _shift_catalan(monkeypatch, by=1e-14)


def _scale_f1(monkeypatch):
    f1 = quadrature.integral_f1_restricted
    monkeypatch.setattr(quadrature, "integral_f1_restricted", lambda n: f1(n) * (1.0 + 1e-9))


def _shift_profile(monkeypatch):
    profile = decomposition.profile_decomposition

    def shifted(n):
        pr = profile(n)
        return dataclasses.replace(pr, r_log_profile=pr.r_log_profile + 1e-13)

    monkeypatch.setattr(decomposition, "profile_decomposition", shifted)


@pytest.mark.parametrize("suite, check, shift", [
    ("quadrature", "log_cos_closed_forms", _shift_log_cos),
    ("quadrature", "catalan_integral", _shift_catalan),
    ("quadrature", "restricted_f1_vs_2d", _scale_f1),
    ("identities", "cascade_profiles_n0_zero", _shift_profile),
    ("specfun", "clausen_catalan", _shift_catalan_literal),
])
def test_verify_limits_catch_small_shifts(monkeypatch, suite, check, shift):
    # each shift passes a limit of 1e-9, 1e-11, 1e-6, 1e-12 or 1e-12 respectively,
    # but not the limit derived from the check's error sources
    assert {r.name: r for r in verify.SUITES[suite](max_n=100)}[check].passed
    shift(monkeypatch)
    result = {r.name: r for r in verify.SUITES[suite](max_n=100)}[check]
    assert not result.passed, result.detail
