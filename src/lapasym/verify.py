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

def suite_specfun(max_n: int = 0, n0: int = 0, workers=None) -> list[CheckResult]:
    """Special-function contracts.  ``workers`` is ignored; kept for existing callers."""
    del max_n, n0, workers
    out = []
    c = specfun.CONSTANTS

    v = specfun.clausen_cl2(math.pi)
    out.append(_check("clausen_at_pi", abs(v) <= 1e-12, f"Cl2(pi) = {v:.3e}"))
    v = specfun.clausen_cl2(math.pi / 2.0) - c.catalan_G
    out.append(_check("clausen_catalan", abs(v) <= 1e-12, f"Cl2(pi/2) - G = {v:.3e}"))

    rng = np.random.default_rng(20260808)
    worst = 0.0
    for x in rng.uniform(0.1, 100.0, size=1000):
        r = specfun.digamma_real(1.0 + x) - specfun.digamma_real(x) - 1.0 / x
        worst = max(worst, abs(r))
    for _ in range(1000):
        mag = rng.uniform(1.0, 100.0)
        ang = rng.uniform(-0.49 * math.pi, 0.49 * math.pi)
        z = mag * complex(math.cos(ang), math.sin(ang))
        r = specfun.digamma_complex(1.0 + z) - specfun.digamma_complex(z) - 1.0 / z
        worst = max(worst, abs(r))
    out.append(_check("digamma_recurrence", worst <= 1e-12, f"max residual {worst:.3e}"))

    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 51))
        a = rng.uniform(0.1, 5.0)
        direct = math.fsum(1.0 / (j + a) for j in range(1, N + 1))
        via = specfun.digamma_real(N + 1 + a) - specfun.digamma_real(1 + a)
        worst = max(worst, abs(direct - via))
    out.append(_check("digamma_finite_sum", worst <= 1e-11, f"max residual {worst:.3e}"))

    b = specfun.BERNOULLI.exact
    ok = (b[1] == Fraction(-1, 2) and b[2] == Fraction(1, 6)
          and b[3] == 0 and b[4] == Fraction(-1, 30)
          and all(b[i] == 0 for i in range(3, specfun.BERNOULLI.max_index, 2)))
    out.append(_check("bernoulli_exact", ok, "B1=-1/2, B2=1/6, B3=0, B4=-1/30"))

    relation = c.eta_at_i * 2.0 * c.pi_three_quarters / c.gamma_quarter - 1.0
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
    out.append(_check("restricted_decomposition", worst <= 1e-10,
                      f"max relative gap {worst:.3e} over n up to {sizes[-1]}"))

    worst = 0.0
    route_sizes = sorted({8, 20, 100, min(max_n, 500), max_n})
    for n in route_sizes:
        laplace = quadrant_sum(n)
        via = decomposition.double_sum_via_digamma(n)
        worst = max(worst, abs(laplace - via) / abs(laplace))
    out.append(_check("digamma_route", worst <= 1e-10,
                      f"max relative gap to the Laplace-quadrature sum {worst:.3e} "
                      f"at n = {route_sizes}"))

    x, a, b = 3.0, 0.01, 5.0
    A = math.sqrt(1.0 + 4.0 * a * b)
    B = (1.0 + A) / (2.0 * a)
    C = (A - 1.0) / (2.0 * a)
    sB, sC = math.sqrt(B), math.sqrt(C)
    rebuilt = (1.0 / (2.0 * A * sB)) * (1.0 / (x + sB) - 1.0 / (x - sB)) \
        + (1j / (2.0 * A * sC)) * (1.0 / (x + 1j * sC) - 1.0 / (x - 1j * sC))
    gap = abs(rebuilt - 1.0 / (x * x - a * x ** 4 + b))
    out.append(_check("partial_fraction", gap <= 1e-14, f"reconstruction gap {gap:.3e}"))

    n = 40
    pr = decomposition.profile_decomposition(n)
    worst = max(abs(pr.r_log - pr.r_log_profile), abs(pr.r_atan - pr.r_atan_profile))
    out.append(_check("cascade_profiles_n0_zero", worst <= 1e-12,
                      f"profile route gap {worst:.3e} at n = {n}"))

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

def suite_quadrature(max_n: int = 200, n0: int = 0, workers=None) -> list[CheckResult]:
    """Quadrature against closed forms.  ``workers`` is ignored; kept for existing callers."""
    del max_n, n0, workers
    out = []
    c = specfun.CONSTANTS

    res = quadrature.integrate_1d(lambda t: math.log(math.cos(t)), 0.0, math.pi / 4.0)
    target = -(math.pi / 4.0) * math.log(2.0) + 0.5 * c.catalan_G
    out.append(_check("catalan_integral", abs(res.value - target) <= 1e-11,
                      f"gap {abs(res.value - target):.3e}"))

    rng = np.random.default_rng(1234)
    worst = 0.0
    for a in rng.uniform(1.1, 10.0, size=50):
        j11, j12 = asymptotics.log_cos_closed_forms(float(a), "gt1")
        q1 = quadrature.integrate_1d(lambda t: math.log(a - math.cos(t)), 0.0, math.pi / 2).value
        q2 = quadrature.integrate_1d(lambda t: 1.0 / (a - math.cos(t)), 0.0, math.pi / 2).value
        worst = max(worst, abs(j11 - q1), abs(j12 - q2))
    for a in rng.uniform(0.05, 0.95, size=50):
        j21, j22 = asymptotics.log_cos_closed_forms(float(a), "in01")
        q1 = quadrature.integrate_1d(lambda t: math.log(math.cos(t) + a), 0.0, math.pi / 2).value
        q2 = quadrature.integrate_1d(lambda t: 1.0 / (math.cos(t) + a), 0.0, math.pi / 2).value
        worst = max(worst, abs(j21 - q1), abs(j22 - q2))
    out.append(_check("log_cos_closed_forms", worst <= 1e-9,
                      f"max closed-form gap {worst:.3e} over 100 random arguments"))

    n = 20
    beta_n = GridGeometry.from_n(n).beta_n
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
    out.append(_check("restricted_f1_vs_2d", rel <= 1e-6, f"relative gap {rel:.3e}"))
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
