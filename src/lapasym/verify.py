"""Cross-module verification suites behind the ``verify`` CLI command.

Each suite is a list of named checks that exercise exact identities
(decomposition, digamma routes, partial fractions), special-function
contracts, quadrature-versus-closed-form agreement, and the large-n
remainder plateaus.  Checks return their measured numbers in the detail
string so failures are diagnosable from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import asymptotics, decomposition, quadrature, specfun
from .lattice_sum import (BUILTIN_LATTICES, GridGeometry, exact_sum,
                          quadrant_sum, restricted_sum_f2)

__all__ = ["CheckResult", "SUITES", "run_suite", "available_suites"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# specfun suite
# ---------------------------------------------------------------------------

# Cl2's stated absolute accuracy against 40-digit mpmath (lapasym.specfun)
_CL2_ERROR = 4e-16


def suite_specfun(max_n: int = 0, n0: int = 0, workers=None) -> list[CheckResult]:
    """Special-function contracts.  ``workers`` is ignored; kept for existing callers."""
    del max_n, n0, workers
    out = []
    c = specfun.CONSTANTS

    v = specfun.clausen_cl2(math.pi)
    out.append(_check("clausen_at_pi", abs(v) <= _CL2_ERROR,
                      f"Cl2(pi) = {v:.3e}; limit {_CL2_ERROR:.0e}, Cl2's stated accuracy"))
    v = specfun.clausen_cl2(math.pi / 2.0) - c.catalan_G
    limit = _CL2_ERROR + 2.0 ** -54
    out.append(_check("clausen_catalan", abs(v) <= limit, f"Cl2(pi/2) - G = {v:.3e}; limit "
                      f"{limit:.2e} = Cl2's stated accuracy + half an ulp of G"))

    rng = np.random.default_rng(20260808)
    psi = specfun.digamma_array
    x = rng.uniform(0.1, 100.0, size=1000)
    worst = np.max(np.abs(psi(1.0 + x) - psi(x) - 1.0 / x))
    mag, ang = rng.uniform([1.0, -0.49 * math.pi], [100.0, 0.49 * math.pi], size=(1000, 2)).T
    z = mag * np.exp(1j * ang)
    worst = max(worst, np.max(np.abs(psi(1.0 + z) - psi(z) - 1.0 / z)))
    out.append(_check("digamma_recurrence", worst <= 1e-12, f"max residual {worst:.3e}"))

    draws = [(int(rng.integers(1, 51)), rng.uniform(0.1, 5.0)) for _ in range(100)]
    N, a = (np.array(col) for col in zip(*draws))
    direct = [math.fsum(1.0 / (j + t) for j in range(1, n + 1)) for n, t in draws]
    worst = np.max(np.abs(direct - (psi(N + 1 + a) - psi(1 + a))))
    out.append(_check("digamma_finite_sum", worst <= 1e-11, f"max residual {worst:.3e}"))

    b = specfun.BERNOULLI.exact
    ok = (b[1] == Fraction(-1, 2) and b[2] == Fraction(1, 6)
          and b[3] == 0 and b[4] == Fraction(-1, 30)
          and all(b[i] == 0 for i in range(3, specfun.BERNOULLI.max_index, 2)))
    out.append(_check("bernoulli_exact", ok, "B1=-1/2, B2=1/6, B3=0, B4=-1/30"))

    # eta(i) = q^(1/24) prod_k (1 - q^k) at q = e^(-2 pi), against Gamma(1/4)/(2 pi^(3/4))
    eta = math.exp(-math.pi / 12.0) * math.prod(
        1.0 - math.exp(-2.0 * math.pi * k) for k in range(1, 9))
    relation = eta * 2.0 * math.pi ** 0.75 / c.gamma_quarter - 1.0
    out.append(_check("eta_gamma_relation", abs(relation) <= 1e-13,
                      f"eta(i) 2 pi^(3/4) / Gamma(1/4) - 1 = {relation:.3e}"))

    approx, _bound = decomposition.euler_maclaurin(
        lambda x: x * x, 10, 2, derivatives=[lambda x: 2.0 * x, lambda x: 2.0])
    direct = math.fsum((k / 10.0) ** 2 / 10.0 for k in range(1, 11))
    out.append(_check("euler_maclaurin_quadratic", abs(approx - direct) <= 1e-14,
                      f"both sides 0.385, residual {abs(approx - direct):.3e}"))

    q = math.exp(-2.0 * math.pi)
    diff = specfun.log_q_pochhammer_inv(q) - asymptotics.exp_tail_limit()
    out.append(_check("q_pochhammer_eta", abs(diff) <= 1e-12,
                      f"series - closed form = {diff:.3e}"))
    return out


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

# Relative agreement with the direct double sum that the tests hold each
# quadrant route to (tests/test_decomposition.py): the Laplace quadrature
# of quadrant_sum and the digamma route.  Their gap to each other is at
# most the sum of the two.
_QUADRANT_GAP = 4e-16
_ROUTE_GAP = 1e-15
_ROUTE_LIMIT = _QUADRANT_GAP + _ROUTE_GAP
# restricted_sum_f2 and the piece sums share the axis sum bit for bit
# (same u, same np.sum); beyond the quadrant gap each side rounds the axis
# plus quadrant sum once and its n^2/pi^2 scaling once, 2^-53 apiece
_DECOMPOSITION_LIMIT = _ROUTE_LIMIT + 4 * 2.0 ** -53


def suite_identities(max_n: int = 200, n0: int = 0, workers=None) -> list[CheckResult]:
    """Exact identities.  ``workers`` is ignored; kept for existing callers."""
    del n0, workers
    out = []

    worst = 0.0
    sizes = list(range(5, 33)) + [64, 100, min(max_n, 500)]
    for n in sizes:
        f = restricted_sum_f2(n).value
        p = decomposition.piece_sums(n)
        lhs = (4.0 * n * n / math.pi ** 2) * (p.q_axis + p.r_double)
        worst = max(worst, abs(f - lhs) / abs(f))
    out.append(_check("restricted_decomposition", worst <= _DECOMPOSITION_LIMIT,
                      f"max relative gap {worst:.3e} over n up to {sizes[-1]}; "
                      f"limit {_DECOMPOSITION_LIMIT:.2e} = quadrant routes "
                      f"{_ROUTE_LIMIT:.1e} + four roundings of 2^-53"))

    worst = 0.0
    route_sizes = sorted({8, 20, 100, min(max_n, 500), max_n})
    for n in route_sizes:
        laplace = quadrant_sum(n)
        via = decomposition.double_sum_via_digamma(n)
        worst = max(worst, abs(laplace - via) / abs(laplace))
    out.append(_check("digamma_route", worst <= _ROUTE_LIMIT,
                      f"max relative gap to the Laplace-quadrature sum {worst:.3e} "
                      f"at n = {route_sizes}; limit {_ROUTE_LIMIT:.1e} = "
                      f"{_QUADRANT_GAP:.0e} (quadrature) + {_ROUTE_GAP:.0e} (route), "
                      f"each against the direct sum"))

    x, a, b = 3.0, 0.01, 5.0
    A = math.sqrt(1.0 + 4.0 * a * b)
    B = (1.0 + A) / (2.0 * a)
    C = (A - 1.0) / (2.0 * a)
    sB, sC = math.sqrt(B), math.sqrt(C)
    rebuilt = (1.0 / (2.0 * A * sB)) * (1.0 / (x + sB) - 1.0 / (x - sB)) \
        + (1j / (2.0 * A * sC)) * (1.0 / (x + 1j * sC) - 1.0 / (x - 1j * sC))
    gap = abs(rebuilt - 1.0 / (x * x - a * x ** 4 + b))
    out.append(_check("partial_fraction", gap <= 1e-14, f"reconstruction gap {gap:.3e}"))

    # at n0 = 0 both routes give each of the N summands to within 16
    # roundings (at most 9.5 seen); the direct np.sum adds at most N more
    n = 40
    pr = decomposition.profile_decomposition(n)
    worst = max(abs(pr.r_log - pr.r_log_profile), abs(pr.r_atan - pr.r_atan_profile))
    limit = (16 + GridGeometry.restricted(n).N) * 2.0 ** -53 * max(pr.r_log, pr.r_atan)
    out.append(_check("cascade_profiles_n0_zero", worst <= limit,
                      f"profile route gap {worst:.3e} at n = {n}; limit {limit:.2e} = (16 + N) "
                      f"2^-53 max(r_log, r_atan): 16 roundings per summand, N in np.sum"))

    try:
        for n in (5, 11, 26, 103, max_n):
            decomposition.factor_rows(n)
        out.append(_check("factor_row_bounds", True, f"bounds hold up to n = {max_n}"))
    except Exception as exc:  # ConsistencyError carries the offending n
        out.append(_check("factor_row_bounds", False, str(exc)))
    return out


# ---------------------------------------------------------------------------
# quadrature suite
# ---------------------------------------------------------------------------

# Error budget of a closed form J of asymptotics.log_cos_closed_forms: two
# Cl2 errors and 8 |J| roundings of 2^-53, plus `carry` roundings, 8 for
# a > 1: there J11 is exact in r = 1/(a + sqrt(a^2 - 1)), which is good to
# about 2.5 ulps, and a relative error d in r moves J11 by
# sqrt(a^2 - 1) J12 d <= pi d.  0 for 0 < a < 1.
def _log_cos_limit(closed: float, carry: float) -> float:
    return 2.0 * _CL2_ERROR + (8.0 * abs(closed) + carry) * 2.0 ** -53


def suite_quadrature(max_n: int = 200, n0: int = 0, workers=None) -> list[CheckResult]:
    """Quadrature against closed forms.  ``workers`` is ignored; kept for existing callers."""
    del max_n, n0, workers
    out = []
    c = specfun.CONSTANTS

    res = quadrature.integrate_1d(lambda t: math.log(math.cos(t)), 0.0, math.pi / 4.0)
    gap = abs(res.value - (-(math.pi / 4.0) * math.log(2.0) + 0.5 * c.catalan_G))
    limit = res.abs_error_estimate + 2.0 ** -50  # the target's terms are below 1
    out.append(_check("catalan_integral", gap <= limit, f"gap {gap:.3e}; limit "
                      f"{limit:.2e} = abs_error_estimate + 8 roundings of 2^-53"))

    # each closed form within _log_cos_limit, each quadrature within its
    # own abs_error_estimate
    rng = np.random.default_rng(1234)
    worst, margin = 0.0, math.inf
    for regime, lo, hi, sign, carry in (("gt1", 1.1, 10.0, -1.0, 8.0),
                                        ("in01", 0.05, 0.95, 1.0, 0.0)):
        for a in rng.uniform(lo, hi, size=50).tolist():
            closed_forms = asymptotics.log_cos_closed_forms(a, regime)
            for closed, op in zip(closed_forms, (math.log, lambda x: 1.0 / x)):
                q = quadrature.integrate_1d(lambda t: op(a + sign * math.cos(t)), 0.0, math.pi / 2)
                gap = abs(closed - q.value)
                limit = q.abs_error_estimate + _log_cos_limit(closed, carry)
                worst, margin = max(worst, gap), min(margin, limit - gap)
    out.append(_check("log_cos_closed_forms", margin >= 0.0, f"max gap {worst:.3e} over 100 "
                      f"arguments, least margin {margin:.2e} to its limit: quadrature's "
                      f"abs_error_estimate + 2 Cl2 errors + (8 |J| + 8 for r if a > 1) 2^-53"))

    n = 20
    beta_n = GridGeometry.restricted(n).beta_n
    oracle = quadrature.integrate_2d(
        lambda x, y: 4.0 / (x * x + y * y), math.pi / n,
        beta_n, 0.0, beta_n)
    corner = quadrature.integrate_2d(
        lambda x, y: 4.0 / (x * x + y * y), 0.0, math.pi / n,
        math.pi / n, beta_n)
    dn2 = (2.0 * math.pi / n) ** 2
    ref = 4.0 * (oracle.value + corner.value) / dn2
    got = quadrature.integral_f1_restricted(n)
    rel = abs(got - ref) / abs(ref)
    limit = 4.0 * (oracle.abs_error_estimate + corner.abs_error_estimate) / dn2 / ref + 2.0 ** -50
    out.append(_check("restricted_f1_vs_2d", rel <= limit, f"relative gap {rel:.3e}; limit "
                      f"{limit:.2e} = the 2-D abs_error_estimate + 8 roundings of 2^-53"))
    return out


# ---------------------------------------------------------------------------
# asymptotics suite
# ---------------------------------------------------------------------------

_PLATEAU_WINDOWS = {
    "square": (-0.14, -0.10),
    "triangular": (-0.28, -0.22),
    "modified_union_jack": (-0.40, -0.34),
}


def _distances(values, limit):
    """Distances of a remainder ladder to its limit, with a detail string."""
    dist = [abs(v - limit) for v in values]
    return dist, f"limit {limit:.6f}, distances {['%.2e' % d for d in dist]}"


def _non_increasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def suite_asymptotics(max_n: int = 2500, n0: int = 0, workers=None) -> list[CheckResult]:
    """Large-n remainder checks.  ``workers`` is ignored; kept for existing callers."""
    del workers
    out = []
    top = max(100, max_n)

    for name, (lo, hi) in _PLATEAU_WINDOWS.items():
        e = (exact_sum(BUILTIN_LATTICES[name], top).value
             - asymptotics.model_for_lattice(name).evaluate(top))
        out.append(_check(f"plateau_{name}", lo <= e <= hi,
                          f"E_{top} = {e:.4f}, window [{lo}, {hi}]"))

    sizes = [n - (n - n0) % 4 for n in (200, 400, 800)]  # keep the requested residue class
    axis_sizes = [n - (n - n0) % 4 for n in (100, 200, 400)]
    pieces = {n: decomposition.piece_sums(n)
              for n in sorted({*sizes, *axis_sizes, 100, 200})}
    dvals = [pieces[n].assembled() - restricted_sum_f2(n).value for n in sizes]
    spread = max(dvals) - min(dvals)
    out.append(_check("assembly_remainder",
                      max(abs(d) for d in dvals) <= 5.0 and spread <= 0.05,
                      f"D = {['%.4f' % d for d in dvals]} at n = {sizes}"))

    deltas = []
    for n in sizes:
        q = quadrature.integral_f2_restricted(n).value
        deltas.append(q - asymptotics.restricted_integral_expansion(n))
    conv = abs(deltas[-1] - deltas[-2])
    dist, detail = _distances(deltas, asymptotics.restricted_integral_remainder_limit(n0))
    out.append(_check("restricted_integral_remainder",
                      max(dist) <= 0.02 and _non_increasing(dist) and conv <= 0.05,
                      f"Delta = {['%.4f' % d for d in deltas]} at n = {sizes}, {detail}"))

    lim = asymptotics.exp_tail_limit()
    e100 = abs(pieces[100].r_exp - lim)
    e200 = abs(pieces[200].r_exp - lim)
    out.append(_check("exp_tail_limit", e100 <= 1e-3 and e200 <= 0.35 * e100,
                      f"errors {e100:.3e} (n=100), {e200:.3e} (n=200)"))

    qgaps = [n * n * (pieces[n].q_axis - asymptotics.axis_sum_expansion(n))
             for n in axis_sizes]
    dist, detail = _distances(qgaps, asymptotics.axis_gap_limit(n0))
    out.append(_check("axis_sum_remainder", _non_increasing(dist) and dist[-1] <= 0.05,
                      f"n^2 gaps {['%.3f' % g for g in qgaps]} at n = {axis_sizes}, "
                      f"{detail}"))

    beta3 = asymptotics.edge_sum_decay_coefficient()
    egaps = [n * (n * pieces[n].r_edge - beta3) for n in sizes]
    dist, detail = _distances(egaps, asymptotics.edge_sum_gap_limit(n0))
    out.append(_check("edge_sum_decay", _non_increasing(dist) and dist[-1] <= 0.02,
                      f"n (n r_edge - coeff) = {['%.4f' % g for g in egaps]} "
                      f"at n = {sizes}, {detail}"))
    return out


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "specfun": suite_specfun,
    "quadrature": suite_quadrature,
    "identities": suite_identities,
    "asymptotics": suite_asymptotics,
}


def available_suites() -> list[str]:
    return sorted(SUITES) + ["all"]


def run_suite(name: str, max_n: int = 200, n0: int = 0,
              workers=None) -> list[CheckResult]:
    """One suite by name, or all of them.  ``workers`` is ignored; kept for existing callers."""
    del workers
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite(max_n=max_n, n0=n0))
        return results
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](max_n=max_n, n0=n0)
