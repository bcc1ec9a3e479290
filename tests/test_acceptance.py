"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every tolerance is pinned here, not configured elsewhere.  Two checks
measure a remainder against its limit, derived in closed form inside this
file rather than read from the code under test (write n = 4N + n0):

* restricted integral minus its three-term expansion tends to
  Delta_inf(n0) = pi/12 - 1/2 + (2 - n0)^2 (h1 + (pi^2/2) h2 - 1/pi),
  h1 = int_0^{pi/4} g/(12 - (pi^2/4) g), h2 = int_0^{pi/4} g^2/(12 - (pi^2/4) g)^2,
  g = (cos^4 + sin^4)/cos^2; Delta_inf(0) = -1.08196;
* n^2 times the axis row sum minus pi^2/6 + c1/n tends to
  L(n0) = 8 + pi^4/(6 (48 - pi^2)) - 192 n0/(48 - pi^2); L(0) = 8.42577.
"""
import math
import time

import numpy as np

from lapasym.asymptotics import (axis_sum_expansion,
                                 exp_tail_limit, log_cos_closed_forms,
                                 restricted_integral_expansion,
                                 square_sum_form, triangular_sum_form,
                                 union_jack_sum_form)
from lapasym.decomposition import (double_sum_via_digamma, euler_maclaurin,
                                   piece_sums)
from lapasym.extrapolation import fit_expansion
from lapasym.lattice_sum import (MODIFIED_UNION_JACK, SQUARE, TRIANGULAR,
                                 exact_sum, quadrant_sum, restricted_sum_f2)
from lapasym.quadrature import integral_f2_restricted, integrate_1d
from lapasym.specfun import (CONSTANTS, clausen_cl2, digamma_complex,
                             digamma_real)

FULL_LADDER = list(range(25, 2501, 25))


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def errors_square(ns, workers=None):
    form = square_sum_form()
    return {n: exact_sum(SQUARE, n, workers=workers).value - form.evaluate(n)
            for n in ns}


def test_criterion_01_square_plateau_and_runtime():
    started = time.perf_counter()
    errors = errors_square(FULL_LADDER)
    elapsed = time.perf_counter() - started
    tail = [errors[n] for n in (1500, 1750, 2000, 2250, 2500)]
    e_top = errors[2500]
    spread = max(abs(e - e_top) for e in tail)
    ok = (-0.14 <= e_top <= -0.10) and spread <= 0.02 and elapsed <= 10.0
    assert report(
        "criterion-01 square plateau",
        ok,
        f"E_2500 = {e_top:.4f} in [-0.14, -0.10], tail spread {spread:.2e} <= 0.02, "
        f"ladder runtime {elapsed:.2f}s <= 10s")


def test_criterion_02_triangular_and_union_jack_plateaus():
    e_tr = exact_sum(TRIANGULAR, 2500).value - triangular_sum_form().evaluate(2500)
    e_mu = exact_sum(MODIFIED_UNION_JACK, 2500).value - union_jack_sum_form().evaluate(2500)
    ok = -0.28 <= e_tr <= -0.22 and -0.40 <= e_mu <= -0.34
    assert report(
        "criterion-02 triangular/union-jack plateaus",
        ok,
        f"E_2500(tr) = {e_tr:.4f} in [-0.28, -0.22]; "
        f"E_2500(muj) = {e_mu:.4f} in [-0.40, -0.34]")


def test_criterion_03_decomposition_identity():
    started = time.perf_counter()
    worst = 0.0
    for n in list(range(5, 65)) + [100, 500, 1000]:
        f = restricted_sum_f2(n).value
        p = piece_sums(n)
        gap = abs(f - (4.0 * n * n / math.pi ** 2) * (p.q_axis + p.r_double))
        worst = max(worst, gap / abs(f))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed <= 2.0
    assert report(
        "criterion-03 decomposition identity",
        ok,
        f"max relative gap {worst:.2e} <= 1e-10 over n in 5..64 and "
        f"{{100, 500, 1000}}, runtime {elapsed:.2f}s <= 2s")


def test_criterion_04_digamma_route():
    worst = 0.0
    for n in (8, 20, 100, 500):
        direct = quadrant_sum(n)
        worst = max(worst, abs(double_sum_via_digamma(n) - direct) / abs(direct))
    ok = worst <= 1e-10
    assert report("criterion-04 digamma route equivalence", ok,
                  f"max relative gap {worst:.2e} <= 1e-10 at n in {{8, 20, 100, 500}}")


def _assembly_gap(n):
    p = piece_sums(n)
    assembled = (2.0 * n * n / math.pi ** 2) * (
        p.r_log - 2.0 * p.r_atan + p.r_edge + math.pi * p.r_sqrt
        + 2.0 * math.pi * p.r_exp + p.q_axis)
    return assembled - restricted_sum_f2(n).value


def test_criterion_05_assembly_remainder():
    d = {n: _assembly_gap(n) for n in (400, 800, 1600)}
    drift = abs(d[1600] - d[800])
    ok = max(abs(v) for v in d.values()) <= 5.0 and drift <= 0.05
    assert report(
        "criterion-05 six-piece assembly",
        ok,
        f"D = {{{', '.join(f'{n}: {v:.4f}' for n, v in d.items())}}}, "
        f"|D(1600)-D(800)| = {drift:.2e} <= 0.05")


def _restricted_integral_limit(n0):
    """Delta_inf(n0), the constant the three-term expansion leaves.

    In polar form the integral is (2n^2/pi) log(n beta_n/pi) plus
    (4n^2/pi^2) int_0^{pi/4} [log(12 - (pi/n)^2 g) - log(12 - beta_n^2 g)].
    With beta_n = (pi/2)(1 + eps), eps = (2 - n0)/n, expand to second order
    in eps and use int_0^{pi/4} g = 3/2 - pi/4: the linear coefficient is
    2/pi + 2 h1 and the constant is the value returned.  h1 and h2 have
    smooth integrands on [0, pi/4], so 40-point Gauss-Legendre is exact to
    rounding.
    """
    x, w = np.polynomial.legendre.leggauss(40)
    theta = (x + 1.0) * math.pi / 8.0
    w = w * math.pi / 8.0
    g = (np.cos(theta) ** 4 + np.sin(theta) ** 4) / np.cos(theta) ** 2
    ratio = g / (12.0 - (math.pi ** 2 / 4.0) * g)
    h1 = float(w @ ratio)
    h2 = float(w @ ratio ** 2)
    return (math.pi / 12.0 - 0.5
            + (2 - n0) ** 2 * (h1 + (math.pi ** 2 / 2.0) * h2 - 1.0 / math.pi))


def _convergence_detail(values, limit):
    """Distances of a ladder of remainders to their limit, for the verdict line."""
    dist = [abs(v - limit) for v in values.values()]
    ratios = ", ".join(f"{hi / lo:.3f}" for lo, hi in zip(dist, dist[1:]))
    text = (f"limit {limit:.7f}, distance {{"
            f"{', '.join(f'{n}: {d:.2e}' for n, d in zip(values, dist))}}}, "
            f"successive ratios {ratios}")
    return dist, text


def test_criterion_06_restricted_integral_vs_expansion():
    delta = {n: integral_f2_restricted(n).value - restricted_integral_expansion(n)
             for n in (400, 800, 1600)}
    # every n of the ladder is 0 mod 4
    d, detail = _convergence_detail(delta, _restricted_integral_limit(0))
    converging = d[0] >= d[1] >= d[2]
    drift = abs(delta[1600] - delta[800])
    ok = max(d) <= 0.01 and converging and drift <= 0.02
    assert report(
        "criterion-06 restricted integral vs expansion",
        ok,
        f"Delta = {{{', '.join(f'{n}: {v:.6f}' for n, v in delta.items())}}}, "
        f"{detail}; need every distance <= 0.01 and non-increasing "
        f"({converging}), |Delta(1600)-Delta(800)| = {drift:.2e} <= 0.02")


def test_criterion_07_exp_tail_limit():
    lim = exp_tail_limit()
    e100 = abs(piece_sums(100).r_exp - lim)
    e200 = abs(piece_sums(200).r_exp - lim)
    ok = e100 <= 1e-3 and e200 <= 0.35 * e100
    assert report(
        "criterion-07 exponential tail limit",
        ok,
        f"|r_exp(100) - limit| = {e100:.2e} <= 1e-3, "
        f"ratio {e200 / e100:.3f} <= 0.35")


def _axis_sum_limit(n0):
    """L(n0), the limit of n^2 (q_axis - pi^2/6 - c1/n).

    q_axis = sum_{k<=N} 1/k^2 + a sum_{k<=N} 1/(1 - a k^2), a = pi^2/(3n^2).
    The zeta(2) tail gives -1/N + 1/(2N^2) + O(N^-3).  Euler-Maclaurin gives
    sqrt(a) atanh(sqrt(a) N) - a/2 + (a/2)/(1 - a N^2) + O(n^-3) for the
    second term, with sqrt(a) N = x0 (1 - n0/n), x0 = pi/(4 sqrt 3).  The
    n^-1 terms make c1; the n^-2 terms sum to the value returned.
    """
    return (8.0 + math.pi ** 4 / (6.0 * (48.0 - math.pi ** 2))
            - 192.0 * n0 / (48.0 - math.pi ** 2))


def test_criterion_08_axis_sum_expansion():
    scaled = {n: n * n * (piece_sums(n).q_axis - axis_sum_expansion(n))
              for n in (100, 200, 400)}
    # every n of the ladder is 0 mod 4
    d, detail = _convergence_detail(scaled, _axis_sum_limit(0))
    bounded = max(abs(v) for v in scaled.values()) <= 20.0
    converging = d[0] >= d[1] >= d[2]
    ok = bounded and converging and d[2] <= 0.05
    assert report(
        "criterion-08 axis-sum expansion remainder",
        ok,
        f"n^2 gap = {{{', '.join(f'{n}: {v:.5f}' for n, v in scaled.items())}}}, "
        f"bounded by 20: {bounded}; {detail}; need non-increasing distances "
        f"({converging}) and distance at 400 <= 0.05")


def test_criterion_09_specfun_contracts():
    checks = []
    checks.append(abs(clausen_cl2(math.pi)) <= 1e-12)
    checks.append(abs(clausen_cl2(math.pi / 2) - CONSTANTS.catalan_G) <= 1e-12)

    rng = np.random.default_rng(424242)
    worst = 0.0
    for x in rng.uniform(0.1, 100.0, size=1000):
        x = float(x)
        worst = max(worst, abs(digamma_real(1.0 + x) - digamma_real(x) - 1.0 / x))
    for _ in range(1000):
        mag = rng.uniform(1.0, 100.0)
        ang = rng.uniform(-0.49 * math.pi, 0.49 * math.pi)
        z = mag * complex(math.cos(ang), math.sin(ang))
        worst = max(worst, abs(digamma_complex(1.0 + z) - digamma_complex(z) - 1.0 / z))
    checks.append(worst <= 1e-12)

    em, _ = euler_maclaurin(lambda x: x * x, 10, 2,
                            derivatives=[lambda x: 2.0 * x, lambda x: 2.0])
    direct = math.fsum((k / 10.0) ** 2 / 10.0 for k in range(1, 11))
    checks.append(abs(em - direct) <= 1e-14 and abs(em - 0.385) <= 1e-14)

    eta_rel = CONSTANTS.eta_at_i * 2.0 * CONSTANTS.pi_three_quarters / CONSTANTS.gamma_quarter
    checks.append(abs(eta_rel - 1.0) <= 1e-13)

    ok = all(checks)
    assert report(
        "criterion-09 special-function contracts",
        ok,
        f"Cl2 values, digamma recurrence (worst {worst:.2e}), "
        f"quadratic summation identity (residual {abs(em - direct):.2e}), "
        f"eta relation: {checks}")


def test_criterion_10_coefficient_recovery():
    ladder = [(n, exact_sum(SQUARE, n).value) for n in range(100, 2001, 100)]
    fit = fit_expansion(ladder, fixed={"n2logn": 2.0 / math.pi})
    gap_c1 = abs(fit.coefficients["n2"] - square_sum_form().c1)

    beta_ladder = [(n, restricted_sum_f2(n).value) for n in range(100, 2001, 100)]
    beta_fit = fit_expansion(beta_ladder)
    gap_c0 = abs(beta_fit.coefficients["n2logn"] - 2.0 / math.pi)

    ok = gap_c1 <= 1e-3 and gap_c0 <= 1e-3
    assert report(
        "criterion-10 coefficient recovery",
        ok,
        f"square c1 gap {gap_c1:.2e} <= 1e-3; restricted-sum c0 gap {gap_c0:.2e} <= 1e-3")


def test_criterion_11_quadrature_vs_closed_forms():
    rng = np.random.default_rng(77)
    worst = 0.0
    for a in rng.uniform(1.1, 10.0, size=50):
        a = float(a)
        j11, j12 = log_cos_closed_forms(a, "gt1")
        worst = max(
            worst,
            abs(j11 - integrate_1d(lambda t: math.log(a - math.cos(t)),
                                   0.0, math.pi / 2).value),
            abs(j12 - integrate_1d(lambda t: 1.0 / (a - math.cos(t)),
                                   0.0, math.pi / 2).value))
    for a in rng.uniform(0.05, 0.95, size=50):
        a = float(a)
        j21, j22 = log_cos_closed_forms(a, "in01")
        worst = max(
            worst,
            abs(j21 - integrate_1d(lambda t: math.log(math.cos(t) + a),
                                   0.0, math.pi / 2).value),
            abs(j22 - integrate_1d(lambda t: 1.0 / (math.cos(t) + a),
                                   0.0, math.pi / 2).value))
    catalan = integrate_1d(lambda t: math.log(math.cos(t)), 0.0, math.pi / 4).value
    cat_gap = abs(catalan - (-(math.pi / 4) * math.log(2.0) + CONSTANTS.catalan_G / 2.0))
    ok = worst <= 1e-9 and cat_gap <= 1e-11
    assert report(
        "criterion-11 quadrature vs closed forms",
        ok,
        f"worst closed-form gap {worst:.2e} <= 1e-9 over 100 random arguments; "
        f"log-cos integral gap {cat_gap:.2e} <= 1e-11")
