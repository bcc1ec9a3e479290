"""Cross-module verification suites behind the ``verify`` CLI command.

Each suite is a list of named checks that exercise exact identities
(decomposition, digamma routes, partial fractions), special-function
contracts, quadrature-versus-closed-form agreement, and the large-n
remainders, each written once in :data:`REMAINDERS` (which
``scripts/remainder_tables.py`` prints).  Checks return their measured
numbers in the detail string so failures are diagnosable from the report
alone.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

import numpy as np

from . import asymptotics, decomposition, quadrature, specfun
from .lattice_sum import (BUILTIN_LATTICES, GridGeometry, _segment_sums, exact_sum,
                          quadrant_sum, restricted_sum_f2)

__all__ = ["CheckResult", "Remainder", "REMAINDERS", "SUITES", "run_suite", "available_suites"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# specfun suite
# ---------------------------------------------------------------------------

# Cl2's stated absolute accuracy against 40-digit mpmath, and digamma's
# on its domain Re z >= 10 (relative; lapasym.specfun)
_CL2_ERROR = 4e-16
_PSI_ERROR = 3.2e-16


def _segments(lengths):
    """Each element's position in its segment, and where each segment starts,
    for consecutive segments of the given lengths laid out flat."""
    starts = np.cumsum(lengths) - lengths
    return np.arange(starts[-1] + lengths[-1]) - np.repeat(starts, lengths), starts


def _digamma_references(m, N, y):
    """The terms of the three references of ``digamma_recurrence``, each
    as one flat array with every point's head terms followed by its tail,
    and each point's count of terms: psi(m) = -gamma + sum_{j<m} 1/j,
    psi(m + 1/2) = -gamma - 2 log 2 + sum_{j<=m} 2/(2j - 1) and
    Im psi(N + iy) = -1/(2y) + (pi/2) coth(pi y) - sum_{j<N} y/(j^2 + y^2).
    Each term is the IEEE expression a float loop over j forms, so
    _segment_sums of a point's terms is math.fsum of that loop's list."""
    gamma = specfun.CONSTANTS.euler_gamma
    pos, starts = _segments(m)  # 1/j at position j, after 1 head
    pos[starts] = 1
    integer = 1.0 / pos
    integer[starts] = -gamma
    pos, starts = _segments(m + 2)  # 2/(2j - 1) at position j + 1, after 2 heads
    half = 2.0 / (2 * pos - 3.0)
    half[starts] = -gamma
    half[starts + 1] = -2.0 * math.log(2.0)
    pos, starts = _segments(N + 1)  # -y/(j^2 + y^2) at position j + 1, after 2 heads
    j = pos - 1.0
    ys = np.repeat(y, N + 1)
    imag = -ys / (j * j + ys * ys)
    imag[starts] = -0.5 / y
    imag[starts + 1] = [(math.pi / 2.0) / math.tanh(math.pi * t) for t in y.tolist()]
    return (integer, m), (half, m + 2), (imag, N + 1)


def _psi_anchor_ratio(psi, terms, lengths, count):
    """Worst gap of psi (its imaginary part if complex) to the sum of each
    point's reference terms, one segment of ``terms`` per point, over
    digamma's stated accuracy max(1, |psi|) + 2^-53 (count sum |terms| +
    |reference|): count roundings per term, 1 in the sum.  Each sum is the
    float math.fsum returns."""
    want = np.array(_segment_sums(terms, lengths))
    size = np.array(_segment_sums(np.abs(terms), lengths))
    got = psi.imag if np.iscomplexobj(psi) else psi
    limit = (_PSI_ERROR * np.maximum(1.0, np.abs(psi))
             + (count * size + np.abs(want)) * 2.0 ** -53)
    return float(np.max(np.abs(got - want) / limit))


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

    # psi against three closed forms on its domain Re z >= 10, each
    # reference summed to the float math.fsum returns (_digamma_references):
    # psi(m) = -gamma + sum_{j<m} 1/j and
    # psi(m + 1/2) = -gamma - 2 log 2 + sum_{j<=m} 2/(2j - 1) at m = 10..110,
    # and the imaginary part the route's bracket uses,
    # Im psi(N + iy) = -1/(2y) + (pi/2) coth(pi y) - sum_{j<N} y/(j^2 + y^2).
    # Each term of a reference is charged its largest count of roundings:
    # 1 for gamma and 1/j; 2 for 2 log 2 (log within 1 ulp) and 2/(2j - 1);
    # 4 for (pi/2) coth(pi y) (pi y, tanh, the reciprocal and pi/2: coth's
    # slope is below 0.01 at y >= 1), 3 for y/(j^2 + y^2) and 1 for 1/(2y)
    psi = specfun.digamma_array
    m = np.arange(10, 111)
    # the stdlib's seeded draws, which spare each run numpy.random's import
    rng = random.Random(20260808)
    draws = [(rng.randint(10, 50), rng.uniform(1.0, 100.0)) for _ in range(200)]
    N, y = (np.array(col) for col in zip(*draws))
    ratios = [_psi_anchor_ratio(psi(z), terms, lengths, count)
              for z, (terms, lengths), count in zip(
                  (m + 0.0, m + 0.5, N + 1j * y), _digamma_references(m, N, y), (1, 2, 4))]
    out.append(_check("digamma_recurrence", max(ratios) <= 1.0,
                      f"worst residual/limit {ratios[0]:.2f} at psi(m), {ratios[1]:.2f} at "
                      f"psi(m + 1/2) (m = 10..110), {ratios[2]:.2f} at Im psi(N + iy) (200 "
                      f"draws, N in [10, 50], y in [1, 100]); limit per point = digamma's "
                      f"stated accuracy {_PSI_ERROR:.1e} max(1, |psi|) + the reference's "
                      f"roundings of 2^-53: 1, 2 or 4 per term, 1 of the sum"))

    draws = [(rng.randint(1, 50), rng.uniform(0.1, 5.0)) for _ in range(100)]
    N, a = (np.array(col) for col in zip(*draws))
    pos, _ = _segments(N)
    direct = np.array(_segment_sums(1.0 / ((pos + 10.0) + np.repeat(a, N)), N))
    top, bottom = psi(N + 10 + a), psi(10 + a)
    gap = np.abs(direct - (top - bottom))
    # each term 1/(j + a) rounds twice, the fsum and the difference once
    # each; rounding 10 + a and N + 10 + a moves psi by at most
    # x psi'(x) <= 1.06 times 2^-53 each
    limit = (_PSI_ERROR * (np.abs(top) + np.abs(bottom))
             + (4 * direct + 2.12) * 2.0 ** -53)
    ratio = np.max(gap / limit)
    out.append(_check("digamma_finite_sum", ratio <= 1.0,
                      f"max residual {np.max(gap):.3e}, worst residual/limit {ratio:.2f}; "
                      f"limit per draw = digamma's stated accuracy {_PSI_ERROR:.1e} at "
                      f"both ends + 4 roundings of 2^-53 of the sum + 2.12 2^-53 for "
                      f"the arguments"))

    from fractions import Fraction  # here, so `sum` and `errors` never load it
    b = specfun.BERNOULLI.exact
    ok = (b[1] == Fraction(-1, 2) and b[2] == Fraction(1, 6)
          and b[3] == 0 and b[4] == Fraction(-1, 30)
          and all(b[i] == 0 for i in range(3, specfun.BERNOULLI.max_index, 2)))
    out.append(_check("bernoulli_exact", ok, "B1=-1/2, B2=1/6, B3=0, B4=-1/30"))

    # at p = 2 the Euler-Maclaurin remainder of a quadratic integrates the
    # periodic B_2 over whole periods against a constant g'', so it is 0
    approx, _bound = decomposition.euler_maclaurin(
        lambda x: x * x, 10, 2, derivatives=[lambda x: 2.0 * x, lambda x: 2.0])
    direct = math.fsum((k / 10.0) ** 2 / 10.0 for k in range(1, 11))
    gap = abs(approx - direct)
    # 13 roundings, each of 2^-53 relative to a number below 1/2: 8 on the
    # Euler-Maclaurin side (1/3, 1/10, 1 for the B_1 term, 2 for the B_2
    # term, three additions) and 5 on the direct side (4 per term relative
    # to it, 1 in fsum)
    limit = quadrature.integrate_1d(lambda x: x * x, 0.0, 1.0, tol=1e-12).abs_error_estimate \
        + 13 * 2.0 ** -54
    out.append(_check("euler_maclaurin_quadratic", gap <= limit,
                      f"both sides 0.385, residual {gap:.3e}; limit {limit:.2e} = the "
                      f"integral's abs_error_estimate + 13 roundings of 2^-54 (the "
                      f"remainder is 0 for a quadratic at p = 2)"))

    # -log (q;q)_inf at q = e^(-2 pi) against log(2 pi^(3/4)) - pi/12 - log
    # Gamma(1/4), eta(i) = Gamma(1/4)/(2 pi^(3/4)).  With pow and log within
    # 1 ulp the closed form, about 0.0019, is off by at most 8 2^-53: 4 from
    # log(2 pi^(3/4)), 0.4 from pi/12, 2.6 from the Gamma(1/4) literal and
    # its log, 1 from the first subtraction (the second is exact).  The
    # series' terms are below q: its rounding is below 10 q 2^-53 (4.2 from
    # q itself, 2 in the first term, 1 in fsum, the later terms q times
    # smaller) and its truncation below 1e-17.
    q = math.exp(-2.0 * math.pi)
    diff = specfun.log_q_pochhammer_inv(q) - asymptotics.exp_tail_limit()
    limit = (8.0 + 10.0 * q) * 2.0 ** -53 + 1e-17
    out.append(_check("q_pochhammer_eta", abs(diff) <= limit,
                      f"series - closed form = {diff:.3e}; limit {limit:.2e} = 8 roundings "
                      f"of 2^-53 (the closed form) + 10 of 2^-53 q (the series) + 1e-17 "
                      f"of truncation"))
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


def suite_identities(max_n: int = 200, n0: int = 0, workers=None) -> list[CheckResult]:
    """Exact identities.  ``workers`` is ignored; kept for existing callers."""
    del n0, workers
    out = []

    # restricted_sum_f2 adds the axis sum to the Laplace quadrant sum and
    # piece_sums adds the same axis sum, bit for bit, to the digamma route,
    # so this gap is the one between those two.  n = 5..8 (N = 1 and 2)
    # take the route's direct branch, N < 10; n = 36..55 straddle its cut
    worst = 0.0
    tail = sorted({64, 100, min(max_n, 500), max_n})
    for n in sorted({5, 6, 7, 8, *range(36, 56), *tail}):
        laplace = quadrant_sum(n)
        via = decomposition.double_sum_via_digamma(n)
        worst = max(worst, abs(laplace - via) / abs(laplace))
    out.append(_check("digamma_route", worst <= _ROUTE_LIMIT,
                      f"max relative gap to the Laplace-quadrature sum {worst:.3e} "
                      f"at n = 5..8, 36..55 and {tail}; limit {_ROUTE_LIMIT:.1e} = "
                      f"{_QUADRANT_GAP:.0e} (quadrature) + {_ROUTE_GAP:.0e} (route), "
                      f"each against the direct sum"))

    # every pair 1/(u_j + u_k) of the quadrant at n = 40, rebuilt from
    # factor_rows' partial fraction with x = j and b = u_k.  First-order
    # count, in units of 2^-53 of the pair: 3.3 for the target (u_j's
    # rounding, at most 1.26, the sum and the reciprocal) and 1.7 for A's
    # three operations.  The real term's share of the target is
    # w = (j^2 + C)/(B + C) <= 0.41; sqrt B carries 2.5 units, which
    # B - j^2 amplifies at most 2.5-fold, and its eight operations 6 more.
    # The imaginary term's share is 1 - w; sqrt C's 2.5 units double, and
    # its complex divisions and products add 8.  The sum and the gap add
    # 1 each: 20 in all.  C = 2u/(1 + A) does not cancel, as (A - 1)/(2c) would.
    u, A, B, C = decomposition.factor_rows(40)
    x = np.arange(1.0, len(u) + 1.0)[:, None]
    sB, sC = np.sqrt(B), np.sqrt(C)
    rebuilt = (1.0 / (2.0 * A * sB)) * (1.0 / (x + sB) - 1.0 / (x - sB)) \
        + (1j / (2.0 * A * sC)) * (1.0 / (x + 1j * sC) - 1.0 / (x - 1j * sC))
    target = 1.0 / (u[:, None] + u)
    units = np.max(np.abs(rebuilt - target) / target) / 2.0 ** -53
    out.append(_check("partial_fraction", units <= 20,
                      f"max gap {units:.2f} 2^-53 of 1/(u_j + u_k) over the {target.size} "
                      f"pairs at n = 40, rebuilt from factor_rows' A, B and C; limit per "
                      f"pair 20 roundings of 2^-53 of its value, a first-order count"))

    # at n0 = 0 both routes give each of the N summands to within 16
    # roundings (at most 9.5 seen); the direct np.sum adds at most N more
    n = 40
    pr = decomposition.profile_decomposition(n)
    worst = max(abs(pr.r_log - pr.r_log_profile), abs(pr.r_atan - pr.r_atan_profile))
    limit = (16 + GridGeometry.restricted(n).N) * 2.0 ** -53 * max(pr.r_log, pr.r_atan)
    out.append(_check("cascade_profiles_n0_zero", worst <= limit,
                      f"profile route gap {worst:.3e} at n = {n}; limit {limit:.2e} = (16 + N) "
                      f"2^-53 max(r_log, r_atan): 16 roundings per summand, N in np.sum"))

    sizes = sorted({5, 11, 26, 103, max_n})
    try:
        for n in sizes:
            decomposition.factor_rows(n)
        out.append(_check("factor_row_bounds", True,
                          f"bounds hold at n = {', '.join(map(str, sizes))}"))
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


# restricted_integral_f2's stated relative accuracy against 30-digit mpmath
# (lapasym.asymptotics; tests/test_asymptotics.py)
_F2_ERROR = 8e-16


def suite_quadrature(max_n: int = 200, n0: int = 0, workers=None) -> list[CheckResult]:
    """Quadrature against closed forms.  ``workers`` is ignored; kept for existing callers."""
    del max_n, n0, workers
    out = []
    c = specfun.CONSTANTS

    res = quadrature.integrate_1d(lambda t: np.log(np.cos(t)), 0.0, math.pi / 4.0)
    gap = abs(res.value - (-(math.pi / 4.0) * math.log(2.0) + 0.5 * c.catalan_G))
    limit = res.abs_error_estimate + 2.0 ** -50  # the target's terms are below 1
    out.append(_check("catalan_integral", gap <= limit, f"gap {gap:.3e}; limit "
                      f"{limit:.2e} = abs_error_estimate + 8 roundings of 2^-53"))

    # each closed form within _log_cos_limit, each quadrature within its
    # own abs_error_estimate; the 50 arguments of a regime share one
    # vector-valued quadrature per integrand
    rng = random.Random(1234)
    worst, margin = 0.0, math.inf
    for regime, lo, hi, sign, carry in (("gt1", 1.1, 10.0, -1.0, 8.0),
                                        ("in01", 0.05, 0.95, 1.0, 0.0)):
        args = [rng.uniform(lo, hi) for _ in range(50)]
        closed_forms = np.array([asymptotics.log_cos_closed_forms(a, regime) for a in args]).T
        shift = np.array(args)[:, None, None]
        for closed, op in zip(closed_forms, (np.log, np.reciprocal)):
            q = quadrature.integrate_1d(lambda t: op(shift + sign * np.cos(t)), 0.0, math.pi / 2)
            gap = np.abs(closed - q.value)
            limit = q.abs_error_estimate + _log_cos_limit(closed, carry)
            worst, margin = max(worst, gap.max()), min(margin, (limit - gap).min())
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
    got = asymptotics.integral_f1_restricted(n)
    rel = abs(got - ref) / abs(ref)
    limit = 4.0 * (oracle.abs_error_estimate + corner.abs_error_estimate) / dn2 / ref + 2.0 ** -50
    out.append(_check("restricted_f1_vs_2d", rel <= limit, f"relative gap {rel:.3e}; limit "
                      f"{limit:.2e} = the 2-D abs_error_estimate + 8 roundings of 2^-53"))

    sizes = (8, 20, 517, 2500)
    worst, margin = 0.0, math.inf
    for n in sizes:
        q = quadrature.integral_f2_restricted(n)
        rel = abs(asymptotics.restricted_integral_f2(n) - q.value) / q.value
        limit = q.abs_error_estimate / q.value + _F2_ERROR
        worst, margin = max(worst, rel), min(margin, limit - rel)
    out.append(_check("restricted_f2_closed_form", margin >= 0.0,
                      f"max relative gap {worst:.3e} at n = {list(sizes)}, least margin "
                      f"{margin:.2e} to its limit: quadrature's abs_error_estimate + the "
                      f"closed form's stated accuracy {_F2_ERROR:.0e}"))
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


class Remainder(NamedTuple):
    """A large-n remainder of the fourth-degree Taylor window.

    ``value(n, pieces)`` takes the caller's ``piece_sums(n)``; ``limit(n0)``
    is its limit over n = 4 N + n0, or None where none is derived yet.
    """

    name: str
    value: Callable[[int, decomposition.PieceSums], float]
    limit: Callable[[int], float] | None


REMAINDERS = (
    # six-piece assembly of the restricted quartic-kernel sum minus its
    # direct value (stays near 0.621 in every class)
    Remainder("D", lambda n, p: p.assembled() - restricted_sum_f2(n).value, None),
    # restricted quartic integral minus its three-term expansion
    Remainder("Delta", lambda n, p: (asymptotics.restricted_integral_f2(n)
                                     - asymptotics.restricted_integral_expansion(n)),
              asymptotics.restricted_integral_remainder_limit),
    # exponential-tail row sum minus its Dedekind-eta limit, O(1/n^2)
    Remainder("exp_tail", lambda n, p: p.r_exp - asymptotics.exp_tail_limit(),
              lambda n0: 0.0),
    # n^2 (axis row sum - pi^2/6 - c1/n), c1 from axis_sum_expansion
    Remainder("axis_gap", lambda n, p: n * n * (p.q_axis - asymptotics.axis_sum_expansion(n)),
              asymptotics.axis_gap_limit),
    # n (n r_edge - beta3), the edge row sum against its decay coefficient
    Remainder("edge_gap",
              lambda n, p: n * (n * p.r_edge - asymptotics.edge_sum_decay_coefficient()),
              asymptotics.edge_sum_gap_limit),
)


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
    pieces = {n: decomposition.piece_sums(n) for n in sorted({*sizes, *axis_sizes, 100, 200})}
    d, delta, tail, axis, edge = REMAINDERS
    dvals = [d.value(n, pieces[n]) for n in sizes]
    spread = max(dvals) - min(dvals)
    out.append(_check("assembly_remainder",
                      max(abs(v) for v in dvals) <= 5.0 and spread <= 0.05,
                      f"D = {['%.4f' % v for v in dvals]} at n = {sizes}"))

    deltas = [delta.value(n, pieces[n]) for n in sizes]
    conv = abs(deltas[-1] - deltas[-2])
    dist, detail = _distances(deltas, delta.limit(n0))
    out.append(_check("restricted_integral_remainder",
                      max(dist) <= 0.02 and _non_increasing(dist) and conv <= 0.05,
                      f"Delta = {['%.4f' % v for v in deltas]} at n = {sizes}, {detail}"))

    e100, e200 = _distances([tail.value(n, pieces[n]) for n in (100, 200)], tail.limit(n0))[0]
    out.append(_check("exp_tail_limit", e100 <= 1e-3 and e200 <= 0.35 * e100,
                      f"errors {e100:.3e} (n=100), {e200:.3e} (n=200)"))

    qgaps = [axis.value(n, pieces[n]) for n in axis_sizes]
    dist, detail = _distances(qgaps, axis.limit(n0))
    out.append(_check("axis_sum_remainder", _non_increasing(dist) and dist[-1] <= 0.05,
                      f"n^2 gaps {['%.3f' % g for g in qgaps]} at n = {axis_sizes}, "
                      f"{detail}"))

    egaps = [edge.value(n, pieces[n]) for n in sizes]
    dist, detail = _distances(egaps, edge.limit(n0))
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
    names = SUITES if name == "all" else [name]
    return [r for suite in names for r in SUITES[suite](max_n=max_n, n0=n0)]
