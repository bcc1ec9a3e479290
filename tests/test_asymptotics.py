"""Tests for the closed-form expansion module."""
import ast
import math

import numpy as np
import pytest

from lapasym import asymptotics, decomposition, verify
from lapasym.asymptotics import (MODEL_FORMS, ExpansionForm, axis_gap_limit,
                                 axis_sum_expansion,
                                 edge_sum_decay_coefficient,
                                 edge_sum_gap_limit, exp_tail_limit,
                                 log_cos_closed_forms,
                                 model_for_lattice, quartic_factor_params,
                                 restricted_integral_expansion,
                                 restricted_integral_f2,
                                 restricted_integral_lambda,
                                 restricted_integral_remainder_limit,
                                 square_integral_form)
from lapasym.exceptions import DomainError
from lapasym.lattice_sum import BUILTIN_LATTICES, GridGeometry
from lapasym.quadrature import integrate_1d
from lapasym.specfun import CONSTANTS, clausen_cl2, log_q_pochhammer_inv


def test_expansion_form_evaluation_is_literal():
    form = ExpansionForm(c0=0.25, c1=-1.5)
    n = 37
    expected = 0.25 * n * n * math.log(n) - 1.5 * n * n
    assert form.evaluate(n) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_leading_coefficients():
    assert model_for_lattice("square").c0 == pytest.approx(2.0 / math.pi, rel=1e-15, abs=0.0)
    assert model_for_lattice("triangular").c0 == pytest.approx(
        math.sqrt(3.0) / math.pi, rel=1e-15)
    assert model_for_lattice("modified_union_jack").c0 == pytest.approx(
        4.0 / (3.0 * math.pi), rel=1e-15)


def test_square_second_coefficient():
    expected = (2.0 / math.pi) * (
        CONSTANTS.euler_gamma
        + math.log(4.0 * math.sqrt(2.0 * math.pi) / CONSTANTS.gamma_quarter ** 2))
    assert model_for_lattice("square").c1 == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_square_integral_coefficients():
    f = square_integral_form()
    assert f.c0 == pytest.approx(2.0 / math.pi, rel=1e-15, abs=0.0)
    expected = (1.0 / math.pi) * (
        math.log(8.0 / math.pi ** 2) + 4.0 * CONSTANTS.catalan_G / math.pi)
    assert f.c1 == pytest.approx(expected, rel=1e-15, abs=0.0)
    # at n = 1 the log term drops out
    assert f.evaluate(1) == pytest.approx(f.c1, rel=1e-15, abs=0.0)


def test_integral_minus_sum_model_is_pure_n2():
    square = model_for_lattice("square")
    c = square_integral_form().c1 - square.c1
    for n in (10, 100, 1000):
        diff = square_integral_form().evaluate(n) - square.evaluate(n)
        assert diff == pytest.approx(c * n * n, rel=1e-12, abs=0.0)


def test_model_registry():
    assert model_for_lattice("square") is MODEL_FORMS["square"]
    assert set(MODEL_FORMS) == set(BUILTIN_LATTICES) == set(verify._PLATEAU_WINDOWS)
    with pytest.raises(DomainError):
        model_for_lattice("kagome")


@pytest.mark.parametrize("name", sorted(MODEL_FORMS))
def test_models_monotone_from_three(name):
    form = model_for_lattice(name)
    values = [form.evaluate(n) for n in range(3, 51)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Restricted-integral expansion
# ---------------------------------------------------------------------------

# the factorization constants of the angular quartic, by their definitions
MU = math.sqrt(24.0 ** 2 + 48.0 * math.pi ** 2 - math.pi ** 4)
NU = (MU + 24.0) / math.pi ** 2
RHO = NU - math.sqrt(NU * NU - 1.0)


def test_factorization_constant_windows():
    assert 30.85 < MU < 30.87
    assert 5.55 < NU < 5.57
    assert 0.08 < RHO < 0.10
    j11, _ = log_cos_closed_forms(NU, "gt1")
    j21, _ = log_cos_closed_forms((NU - 1.0) / (NU + 1.0), "in01")
    # the root u at beta = pi/2 gives the float of the paper's mu/nu route
    assert restricted_integral_lambda() == -j11 - j21 - math.pi * math.log(2.0)
    assert restricted_integral_lambda() == -5.079784026747255


def test_quartic_factor_params_limits():
    # 2u - 1 -> nu and 1 - 1/u -> (nu-1)/(nu+1) as n grows
    _, u = quartic_factor_params(10 ** 6)
    assert abs(2.0 * u - 1.0 - NU) <= 1e-4
    assert abs(1.0 - 1.0 / u - (NU - 1.0) / (NU + 1.0)) <= 1e-4


def test_clausen_term_matches_log_integral_route():
    # lambda = -J11(nu) - J21((nu-1)/(nu+1)) - pi log 2 against the
    # five-term Clausen/log combination written out
    t = math.atan(RHO)
    phi = math.acos((NU - 1.0) / (NU + 1.0))
    five_terms = (
        clausen_cl2(2.0 * t)
        - clausen_cl2(math.pi + 2.0 * t)
        + (0.5 * math.pi + 2.0 * t) * math.log(RHO)
        - clausen_cl2(0.5 * math.pi + phi)
        - clausen_cl2(0.5 * math.pi - phi)
    )
    assert restricted_integral_lambda() == pytest.approx(five_terms, abs=1e-12)


def test_linear_coefficient_matches_log_integral_route():
    # the expansion's c2 = 2/pi + 2 h1 against its mu/nu form and the
    # log-cosine route to that form
    _, j12 = log_cos_closed_forms(NU, "gt1")
    _, j22 = log_cos_closed_forms((NU - 1.0) / (NU + 1.0), "in01")
    via_route = (96.0 / (math.pi ** 2 * MU)) * (
        (NU + 1.0) * j12 + 2.0 / (NU + 1.0) * j22)
    r = math.sqrt((NU + 1.0) / (NU - 1.0))
    direct = (96.0 / (math.pi ** 2 * MU)) * (
        2.0 * r * math.atan(r)
        + math.log((math.sqrt(NU) + 1.0) / (math.sqrt(NU) - 1.0)) / math.sqrt(NU))
    assert direct == pytest.approx(via_route, abs=1e-12)
    c2, _, _ = asymptotics._window_constants()
    assert c2 == pytest.approx(direct, rel=4e-16, abs=0.0)


def test_linear_term_vanishes_mod_two():
    # the linear term carries a 2 - n0 factor, so at n0 = 2 the expansion
    # is purely n^2 log n + c1 n^2: the extracted c1 is size independent
    n1, n2 = 402, 802
    c1_a = (restricted_integral_expansion(n1)
            - (2.0 / math.pi) * n1 * n1 * math.log(n1)) / (n1 * n1)
    c1_b = (restricted_integral_expansion(n2)
            - (2.0 / math.pi) * n2 * n2 * math.log(n2)) / (n2 * n2)
    assert c1_a == pytest.approx(c1_b, abs=1e-13)


def _phi_reference(mp, beta):
    """int_0^{pi/4} log(12 - beta^2 g) in mpmath, g = (cos^4 + sin^4)/cos^2."""
    return mp.quad(lambda t: mp.log(12 - beta ** 2 * (mp.cos(t) ** 4 + mp.sin(t) ** 4)
                                    / mp.cos(t) ** 2), [0, mp.pi / 4])


@pytest.mark.parametrize("beta", [1e-3, 0.3, math.pi / 2, 1.6])
def test_phi_against_mpmath(beta):
    # Phi within half the budgets of its two Clausen forms plus 4 roundings
    # of 2^-53 of the size of its four terms
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    _, u = asymptotics._quartic_root(beta)
    j11, _ = log_cos_closed_forms(2.0 * u - 1.0, "gt1")
    j21, _ = log_cos_closed_forms(1.0 - 1.0 / u, "in01")
    size = (0.25 * math.pi * abs(math.log(2.0 * beta * beta)) + 0.5 * (abs(j11) + abs(j21))
            + CONSTANTS.catalan_G)
    limit = (0.5 * (verify._log_cos_limit(j11, 8.0) + verify._log_cos_limit(j21, 0.0))
             + 4 * 2.0 ** -53 * size)
    assert abs(asymptotics._phi(beta) - _phi_reference(mp, mp.mpf(beta))) <= limit


@pytest.mark.parametrize("n", [7, 8, 517, 4001, 10 ** 5])
def test_restricted_integral_f2_against_mpmath(n):
    # within the stated accuracy, 8e-16 relative; n = 7 is the worst size
    # of the sweep in the docstring
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    big_n = mp.mpf(n)
    beta = mp.pi / 2 * (1 + mp.mpf(2 - GridGeometry.restricted(n).n0) / big_n)
    want = (2 * big_n ** 2 / mp.pi * mp.log(big_n * beta / mp.pi)
            + 4 * big_n ** 2 / mp.pi ** 2
            * (_phi_reference(mp, mp.pi / big_n) - _phi_reference(mp, beta)))
    assert abs(restricted_integral_f2(n) - want) <= verify._F2_ERROR * want


# ---------------------------------------------------------------------------
# Closed forms of the log-cosine integrals
# ---------------------------------------------------------------------------

def test_outside_value_at_two():
    # J12(2) = 2/sqrt(3) atan(sqrt 3) = 2 pi / (3 sqrt 3)
    _, j12 = log_cos_closed_forms(2.0, "gt1")
    assert j12 == pytest.approx(2.0 * math.pi / (3.0 * math.sqrt(3.0)), rel=1e-14, abs=0.0)


def test_inside_derivative_near_one():
    _, j22 = log_cos_closed_forms(1.0 - 1e-6, "in01")
    assert j22 == pytest.approx(1.0, abs=1e-5)


def test_regime_validation():
    with pytest.raises(DomainError):
        log_cos_closed_forms(0.5, "gt1")
    with pytest.raises(DomainError):
        log_cos_closed_forms(1.5, "in01")
    with pytest.raises(DomainError):
        log_cos_closed_forms(2.0, "elsewhere")


def _j11_with_r(a, r):
    """J11 of log_cos_closed_forms assembled from a given r."""
    t = math.atan(r)
    return (clausen_cl2(math.pi + 2.0 * t) - clausen_cl2(2.0 * t)
            - (0.5 * math.pi + 2.0 * t) * math.log(r) - 0.5 * math.pi * math.log(2.0))


def test_outside_log_closed_form_against_mpmath():
    # J11 against its integral in 30 digits, at the budget verify holds it
    # to; r = a - sqrt(a^2 - 1) cancels, and that form misses the budget
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    old_misses = 0
    for a in [1.1 + 8.9 * i / 200 for i in range(201)] + [NU]:
        want = mp.quad(lambda t: mp.log(mp.mpf(a) - mp.cos(t)), [0, mp.pi / 2])
        j11, _ = log_cos_closed_forms(a, "gt1")
        assert abs(j11 - want) <= verify._log_cos_limit(j11, 8.0), a
        old = _j11_with_r(a, a - math.sqrt(a * a - 1.0))
        old_misses += abs(old - want) > verify._log_cos_limit(old, 8.0)
    assert old_misses > 0


def test_inside_closed_form_at_factorization_point():
    a = (NU - 1.0) / (NU + 1.0)
    j21, _ = log_cos_closed_forms(a, "in01")
    quad = integrate_1d(lambda t: np.log(np.cos(t) + a), 0.0, math.pi / 2)
    assert abs(j21 - quad.value) <= quad.abs_error_estimate + verify._log_cos_limit(j21, 0.0)


# ---------------------------------------------------------------------------
# Row-sum limit constants
# ---------------------------------------------------------------------------

def test_edge_decay_components():
    cal = math.sqrt(1.0 + (math.pi ** 2 / 12.0) * (1.0 - math.pi ** 2 / 48.0))
    assert cal == pytest.approx(math.sqrt(1.0 + 0.82247 * 0.794383), abs=1e-5)
    # the inverse-sqrt component equals the cascade profile at the edge
    row = decomposition.cascade_profile(1.0)
    s6 = 2.0 * math.sqrt(6.0)
    root = math.sqrt(48.0 - math.pi ** 2)
    a11 = (s6 / root) * (math.sqrt(1.0 + cal) / cal)
    assert row.alpha[11] == pytest.approx(a11, rel=1e-14, abs=0.0)
    # beta3 = 4 I(a0) is the cascade's log, arctan and 1/(A sqrt C) summands
    cascade = 2.0 * (row.alpha[8] - 2.0 * row.alpha[9] + math.pi * row.alpha[11])
    assert edge_sum_decay_coefficient() == pytest.approx(cascade, rel=1e-15, abs=0.0)


def test_edge_sum_decay_against_direct_sums():
    beta3 = edge_sum_decay_coefficient()
    for n in (200, 400):
        gap = abs(n * decomposition.piece_sums(n).r_edge - beta3)
        assert gap <= 6.0 / n


def test_exp_tail_limit_routes_agree():
    # the q-Pochhammer series route to the same limit
    series = log_q_pochhammer_inv(math.exp(-2.0 * math.pi))
    assert exp_tail_limit() == pytest.approx(series, abs=1e-12)
    assert exp_tail_limit() > 0.0


def test_exp_tail_limit_against_direct_sum():
    assert abs(decomposition.piece_sums(100).r_exp - exp_tail_limit()) <= 1e-3


def test_axis_sum_expansion_values():
    n = 1000
    s3 = math.sqrt(3.0)
    c1 = (math.pi / (2.0 * s3)) * math.log((4.0 * s3 + math.pi) / (4.0 * s3 - math.pi)) - 4.0
    assert axis_sum_expansion(n) == pytest.approx(math.pi ** 2 / 6.0 + c1 / n, rel=1e-15, abs=0.0)
    assert axis_sum_expansion(10 ** 9) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-8)


def test_axis_sum_expansion_against_direct():
    for n in (100, 200, 400):
        gap = abs(decomposition.piece_sums(n).q_axis - axis_sum_expansion(n))
        assert gap <= 12.0 / (n * n)


def test_remainder_limits_per_residue_class():
    # Delta_inf(n0) and L(n0) for n0 = 0..3, to the digits of their derivation
    deltas = [restricted_integral_remainder_limit(n0) for n0 in range(4)]
    assert deltas == pytest.approx([-1.0819615, -0.4491408, -0.2382006, -0.4491408],
                                   abs=1e-7)
    assert deltas[2] == pytest.approx(math.pi / 12.0 - 0.5, abs=1e-15)
    limits = [axis_gap_limit(n0) for n0 in range(4)]
    assert limits == pytest.approx([8.4257718, 3.3904189, -1.6449341, -6.6802870],
                                   abs=1e-7)
    with pytest.raises(DomainError):
        axis_gap_limit(4)
    with pytest.raises(DomainError):
        restricted_integral_remainder_limit(-1)


@pytest.mark.parametrize("n0", [0, 1, 2, 3])
def test_verify_remainder_checks_per_residue_class(n0):
    checks = {r.name: r for r in verify.suite_asymptotics(max_n=100, n0=n0)}
    for name in ("restricted_integral_remainder", "axis_sum_remainder"):
        assert checks[name].passed, checks[name].detail
        assert "limit" in checks[name].detail


def test_edge_sum_gap_limit_per_residue_class():
    # E(n0) for n0 = 0..3 against the same Euler-Maclaurin formula in mpmath
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    a0 = mp.pi ** 2 / 48

    def g(x):
        return 1 / (1 + x * x - a0 * (1 + x ** 4))

    i0 = mp.quad(g, [0, 1])
    i1 = mp.quad(lambda x: (1 + x ** 4) * g(x) ** 2, [0, 1])
    beta3 = edge_sum_decay_coefficient()
    assert abs(mp.mpf(beta3) - 4 * i0) <= math.ulp(beta3)  # 0.38 ulp measured
    limits = [edge_sum_gap_limit(n0) for n0 in range(4)]
    for n0, got in enumerate(limits):
        want = n0 * (4 * i0 - 8 * a0 * i1) - 4 / (1 - a0)
        assert abs(mp.mpf(got) - want) <= 5e-16, n0  # 3.2e-16 measured
    assert limits == pytest.approx([-5.035353, -2.953456, -0.871560, 1.210337], abs=1e-6)
    with pytest.raises(DomainError):
        edge_sum_gap_limit(4)


# the verify check of each remainder that tends to its limit like 1/n
_CONVERGENCE_CHECKS = {"Delta": "restricted_integral_remainder",
                       "axis_gap": "axis_sum_remainder", "edge_gap": "edge_sum_decay"}


@pytest.mark.parametrize("name, n0", [(r.name, n0) for r in verify.REMAINDERS
                                      if r.name in _CONVERGENCE_CHECKS for n0 in range(4)])
def test_remainder_converges_to_limit(name, n0):
    # each doubling of n halves the distance to the limit; Delta's 1/n
    # coefficient (2 - n0)^3 delta vanishes in class 2, where the distance
    # is already below 1.4e-7 at n = 798
    entry = {r.name: r for r in verify.REMAINDERS}[name]
    limit = entry.limit(n0)
    dist = []
    for m in (800, 1600, 3200, 6400):
        n = m - (m - n0) % 4
        dist.append(abs(entry.value(n, decomposition.piece_sums(n)) - limit))
    if name == "Delta" and n0 == 2:
        assert max(dist) <= 1e-6
    else:
        for near, far in zip(dist[1:], dist):
            assert 0.45 <= near / far <= 0.55
        assert dist[-1] <= 2e-3
    check = {r.name: r for r in verify.suite_asymptotics(max_n=100, n0=n0)}[
        _CONVERGENCE_CHECKS[name]]
    assert check.passed and "limit" in check.detail, check.detail


def test_remainder_table_entries():
    # D has no derived limit yet; the exp tail is measured from its own limit
    entries = {r.name: r for r in verify.REMAINDERS}
    assert list(entries) == ["D", "Delta", "exp_tail", "axis_gap", "edge_gap"]
    assert entries["D"].limit is None
    assert entries["exp_tail"].limit(0) == 0.0


def test_window_constants_against_30_digit_reference():
    # c2, Delta_inf(n0), I' and h2 from the partial-fraction closed forms
    # and their complex-step slopes, against mpmath quadrature at 30 digits
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    lam = mp.pi ** 2 / 4

    def ratio(t):
        g = (mp.cos(t) ** 4 + mp.sin(t) ** 4) / mp.cos(t) ** 2
        return g / (12 - lam * g)

    h1 = mp.quad(ratio, [0, mp.pi / 4])
    h2 = mp.quad(lambda t: ratio(t) ** 2, [0, mp.pi / 4])
    a0 = mp.pi ** 2 / 48
    i1 = mp.quad(lambda x: (1 + x ** 4) / (1 + x * x - a0 * (1 + x ** 4)) ** 2, [0, 1])

    def ulps(got, want):
        return float(abs(mp.mpf(got) - want)) / math.ulp(got)

    c2, _, got_h2 = asymptotics._window_constants()
    assert ulps(c2, 2 / mp.pi + 2 * h1) <= 2.0
    for n0 in range(4):
        want = mp.pi / 12 - mp.mpf(1) / 2 + (2 - n0) ** 2 * (h1 + mp.pi ** 2 / 2 * h2 - 1 / mp.pi)
        assert ulps(restricted_integral_remainder_limit(n0), want) <= 2.0, n0
    i_slope = asymptotics._slope(asymptotics._edge_integral, math.pi ** 2 / 48.0)
    assert ulps(i_slope, i1) <= 1.0
    assert abs(mp.mpf(got_h2) - h2) <= 1e-16


def test_asymptotics_takes_no_quadrature():
    # every limit constant comes from a closed form: the module imports
    # nothing from lapasym.quadrature and names no integrate_1d
    tree = ast.parse(open(asymptotics.__file__, encoding="utf-8").read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "quadrature" not in (node.module or ""), ast.dump(node)
            assert all("quadrature" not in a.name for a in node.names), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all("quadrature" not in a.name for a in node.names), ast.dump(node)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            assert name != "integrate_1d", ast.dump(node)
