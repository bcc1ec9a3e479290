"""Exact lattice sums: closed-form row sums and a deterministic row engine.

The central object is

    F_n = sum over grid frequencies t_{j,k} = (2 pi j / n, 2 pi k / n),
          (j,k) != (0,0), 0 <= j,k < n, of 1 / psi(t_{j,k}),

where psi(x) = 1 - (1/L) sum_l cos(s_l . x) for a stencil of integer
vectors s_l.  The trace of the lattice Laplacian pseudoinverse is F_n
divided by a lattice-specific divisor (4, 6 or 8 for the built-ins).

Numerics: F_n sums rows 0..n//2 of the grid, weighted by the inversion
symmetry.  Where a unimodular change of grid basis puts the second entry
of every stencil vector in {-1, 0, 1} (every built-in), each row sum has
a closed form (:func:`_closed_form_rows`), so F_n costs O(n), and the
rows of consecutive sizes are evaluated together in one elementwise pass
(:func:`exact_sums`).  A row costs one sine, or two if it needs cos x;
s^2 = A^2 - R^2 is a sum of sin^2 terms, so it needs no difference, and
rho^n is formed only on the few rows per size where it is representable
beside 1.  Since 1 - rho >= s/2, n log rho <= -n s/2, so n log rho itself
is formed only on the rows with n s < 80, which alone can reach -40.
Other stencils gather their rows from a sin^2 table (:func:`_gathered_rows`):
one row of n floats at a time, with psi as (2/L) sum_l sin^2(s_l . x / 2),
which loses no relative precision near the zeros of psi, and each row is
summed by numpy's pairwise reduction.
The weighted rows of each size are summed exactly by error-free
extraction over the whole batch (:func:`_segment_sums`) and rounded
once: the float math.fsum returns, so a result does not depend on the
batch of sizes it was computed in.

The restricted quartic sum lives on the window |j|, |k| <= N of
:meth:`GridGeometry.restricted`, with the row formula
u_k = k^2 - (pi^2 / 3 n^2) k^4 of :func:`quartic_rows`.  Its open
quadrant sum_{j,k=1}^N 1/(u_j + u_k) (:func:`quadrant_sum`) is the
trapezoidal rule on its Laplace integral, h sum_m t_m S(t_m)^2 with
S(t) = sum_j e^(-t u_j): fewer than 60 N exponentials, in blocks of at
most max(_BLOCK_ELEMENTS, N) floats.  The decomposition module gets the
same double sum in O(N) through digamma rows; each route checks the
other, and the tests check both against direct summation.
"""

from __future__ import annotations

import math
import operator
import os
from itertools import accumulate, combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exceptions import DomainError, SingularityError

__all__ = [
    "LatticeSpec",
    "GridGeometry",
    "SumResult",
    "SQUARE",
    "TRIANGULAR",
    "MODIFIED_UNION_JACK",
    "BUILTIN_LATTICES",
    "builtin_lattice",
    "parse_lattice_file",
    "kernel_psi",
    "kernel_fm",
    "exact_sum",
    "exact_sums",
    "trace_pseudoinverse",
    "restricted_sum_f2",
    "quartic_rows",
    "quadrant_sum",
]

_BLOCK_ELEMENTS = 2 ** 15  # float64s (256 KiB) per quadrature block; bounds memory
_BATCH_ROWS = 4096        # closed-form rows per elementwise pass; bounds memory
_SINGULAR_FLOOR = 1e-300  # kernel_fm denominators below this raise
_TAIL_LOG_RHO_N = -40.0   # closed-form rows with n log rho <= this are n/s
_EXTRACT_MAX = 2.0 ** 960  # batches reaching this go to math.fsum
# |stencil entry| bound: a row forms sin(m x) for every m up to twice the
# largest entry, and the gather path forms p j + q k in int64
_MAX_ENTRY = 2 ** 10


# ---------------------------------------------------------------------------
# Lattice and grid descriptions
# ---------------------------------------------------------------------------

class _LatticeFields(NamedTuple):
    name: str
    stencil: tuple[tuple[int, int], ...]
    trace_divisor: int


class LatticeSpec(_LatticeFields):
    """Cosine stencil of a periodic lattice plus its trace divisor.

    Construction (and unpickling) checks the stencil and the divisor;
    ``_replace`` and ``_make`` skip those checks.
    """

    __slots__ = ()

    def __new__(cls, name: str, stencil: tuple[tuple[int, int], ...], trace_divisor: int):
        if len(stencil) < 2:
            raise DomainError("stencil needs at least two vectors")
        if stencil[0] != (1, 0) or stencil[1] != (0, 1):
            raise DomainError("stencil must start with (1,0), (0,1)")
        if any(v == (0, 0) for v in stencil):
            raise DomainError("stencil vectors must be nonzero")
        if any(abs(c) > _MAX_ENTRY for v in stencil for c in v):
            raise DomainError(f"stencil entries must lie in [-{_MAX_ENTRY}, {_MAX_ENTRY}]")
        if trace_divisor <= 0:
            raise DomainError("trace divisor must be positive")
        return super().__new__(cls, name, stencil, trace_divisor)

    @property
    def L(self) -> int:
        return len(self.stencil)


SQUARE = LatticeSpec("square", ((1, 0), (0, 1)), 4)
TRIANGULAR = LatticeSpec("triangular", ((1, 0), (0, 1), (1, 1)), 6)
MODIFIED_UNION_JACK = LatticeSpec(
    "modified_union_jack", ((1, 0), (0, 1), (1, -1), (1, 1)), 8)

BUILTIN_LATTICES = {
    s.name: s for s in (SQUARE, TRIANGULAR, MODIFIED_UNION_JACK)
}


def builtin_lattice(name: str) -> LatticeSpec:
    try:
        return BUILTIN_LATTICES[name]
    except KeyError:
        raise DomainError(
            f"unknown lattice {name!r}; choose from {sorted(BUILTIN_LATTICES)}"
        ) from None


def parse_lattice_file(path: str) -> LatticeSpec:
    """Read a UTF-8 lattice config file with lines ``s = j k`` and ``divisor = d``."""
    stencil: list[tuple[int, int]] = []
    divisor = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rhs = line.partition("=")
        key = key.strip()
        try:
            values = tuple(int(tok) for tok in rhs.split())
        except ValueError:
            values = ()
        if key == "s" and len(values) == 2:
            stencil.append(values)
        elif key == "divisor" and len(values) == 1:
            if divisor is not None:
                raise DomainError(f"{path}:{lineno}: second 'divisor' line")
            divisor = values[0]
        else:
            raise DomainError(f"{path}:{lineno}: cannot parse {raw.rstrip()!r}")
    if divisor is None:
        raise DomainError(f"{path}: missing 'divisor = d' line")
    return LatticeSpec(os.path.basename(path), tuple(stencil), divisor)


class GridGeometry(NamedTuple):
    """Residue-class bookkeeping for the restricted summation window.

    n = 4 N + n0 with n0 = n mod 4.  The restricted window keeps the grid
    frequencies with both coordinates at most pi/2 in absolute value,
    which is exactly the index square |j|, |k| <= N minus the origin.
    """

    n: int
    n0: int
    N: int
    beta_n: float

    @classmethod
    def restricted(cls, n: int) -> "GridGeometry":
        """The geometry of a nonempty restricted window, N >= 1."""
        n = operator.index(n)  # TypeError unless an integer; a numpy one becomes an int
        if n < 4:
            raise DomainError(f"restricted window needs n >= 4, got {n}")
        n0 = n % 4
        return cls(n=n, n0=n0, N=(n - n0) // 4,
                   beta_n=0.5 * math.pi * (1.0 + (2.0 - n0) / n))


class SumResult(NamedTuple):
    """A lattice sum and how it was combined.

    ``value`` is the correctly rounded sum of the weighted row sums, the
    float math.fsum returns (:func:`_segment_sums`); ``compensation`` is
    ``value`` minus their plain numpy sum, i.e. what the exact combine
    changed.  :func:`restricted_sum_f2` adds two parts, which one IEEE
    addition rounds correctly, so its compensation is always 0.0.
    """

    value: float
    compensation: float
    term_count: int
    n: int


# ---------------------------------------------------------------------------
# Kernels (pointwise API)
# ---------------------------------------------------------------------------

def kernel_psi(spec: LatticeSpec, x: Sequence[float]) -> float:
    """psi(x) = 1 - (1/L) sum_l cos(s_l . x), evaluated as a sin^2 mean."""
    a, b = x
    acc = 0.0
    for p, q in spec.stencil:
        s = math.sin(0.5 * (p * a + q * b))
        acc += s * s
    return (2.0 / spec.L) * acc


def kernel_fm(spec: LatticeSpec, m: int, x: Sequence[float]) -> float:
    """f_m(x) = 1 / p_m(x), the reciprocal truncated-Taylor kernel.

    p_m is the order-2m Taylor polynomial of psi at the origin,
    p_m(x) = (1/L) sum_l sum_{i=1}^m (-1)^(i+1) (s_l . x)^(2i) / (2i)!.
    Raises SingularityError when p_m vanishes at x.
    """
    if m < 1:
        raise DomainError(f"Taylor order m must be >= 1, got {m}")
    a, b = x
    acc = 0.0
    for p, q in spec.stencil:
        u2 = (p * a + q * b) ** 2
        term = 0.0
        power = 1.0
        for i in range(1, m + 1):
            power *= u2 / ((2 * i - 1) * (2 * i))
            term += power if i % 2 == 1 else -power
        acc += term
    denom = acc / spec.L
    if abs(denom) < _SINGULAR_FLOOR:
        raise SingularityError(f"p_{m} vanishes at x = {tuple(x)!r}", point=tuple(x))
    return 1.0 / denom


# ---------------------------------------------------------------------------
# The full-window sum: closed-form rows or the gathered rows
# ---------------------------------------------------------------------------

# Unimodular grid bases (u, w) in which a stencil can have every s . w in
# {-1, 0, 1}; (1,0) and (0,1) are in every stencil, so |w1|, |w2| <= 1
_ROW_BASES = (((1, 0), (0, 1)), ((0, 1), (1, 0)),
              ((1, 0), (1, 1)), ((1, 0), (1, -1)))


def _row_basis(stencil) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Grid basis (u, w) giving every stencil vector s . w in {-1, 0, 1}; else None.

    F_n does not change under a unimodular change of grid basis, which
    maps each stencil vector s to (s . u, s . w).  In the new basis every
    row of psi then has the closed-form sum of :func:`_closed_form_rows`.
    """
    for u, w in _ROW_BASES:
        if all(abs(p * w[0] + q * w[1]) <= 1 for p, q in stencil):
            return u, w
    return None


def _row_kernel(stencil, n: np.ndarray, j: np.ndarray):
    """s = sqrt(A^2 - R^2) and the sin^2 sums X, Y for rows j of sizes n.

    With x = pi j / n, K = #{q != 0} and t_l = q_l p_l over the vectors
    with q != 0, A = K/L + X and R^2 = K^2/L^2 - Y, where
        X = (2/L) sum_{q=0} sin^2(p x),  Y = (4/L^2) sum_{l<m} sin^2((t_l - t_m) x),
    so s^2 = 2 (K/L) X + X^2 + Y is a sum of nonnegative terms; a sum with
    no term (Y of the square stencil) is the scalar 0.0.  sin(m x) comes by
    angle addition from S = sin x and, if some m >= 2, C = cos x, a second
    sine: one per row for the square and triangular stencils, two for others.
    """
    L = len(stencil)
    # counts of t = q p over q != 0, of |p| over q = 0, and of |t_l - t_m|
    # over the pairs l < m, taken from the counts of distinct t: the cost
    # grows with the distinct values, not with K^2
    t, xs, ys = {}, {}, {}
    for p, q in stencil:
        key, counts = (q * p, t) if q else (abs(p), xs)
        counts[key] = counts.get(key, 0) + 1
    for (a, ca), (b, cb) in combinations(t.items(), 2):
        ys[abs(a - b)] = ys.get(abs(a - b), 0) + ca * cb
    K = L - sum(xs.values())
    top = max([*xs, *ys])
    S = np.multiply(j, np.pi)
    np.sin(np.divide(S, n, out=S), out=S)
    C = None
    if top > 1:  # cos x = sin(pi (n - 2j) / 2n)
        C = np.subtract(n, j)
        C -= j
        C *= 0.5 * np.pi  # rounds to exactly half of the float (n - 2j) pi
        np.sin(np.divide(C, n, out=C), out=C)
    X = Y = 0.0  # each sum starts from its first term: 0.0 + x is x
    sin_m, cos_m = S, C
    for m in range(1, top + 1):
        if m > 1:
            sin_m, cos_m = sin_m * C + cos_m * S, cos_m * C - sin_m * S
        sq = sin_m * sin_m
        if m in xs:
            X = xs[m] * sq if isinstance(X, float) else operator.iadd(X, xs[m] * sq)
        if m in ys:
            Y = ys[m] * sq if isinstance(Y, float) else operator.iadd(Y, ys[m] * sq)
    X *= 2.0 / L
    Y *= 4.0 / (L * L)
    return np.sqrt(X * (2.0 * K / L + X) + Y), X, Y


def _log_rho_n(stencil, n, s, X, Y) -> np.ndarray:
    """e = n log rho from the terms of :func:`_row_kernel` on the same rows.

    1 - rho = s (s + A + R) / ((A + R) (A + s)) needs R only through
    A + R; R^2 is clamped at 0 where R = 0, where rho = 0 and the log1p
    argument is clamped at -1, whose log is -inf.  Since R <= K/L and
    A <= 2 - K/L, A + R <= 2, so (s + A + R)/(A + R) >= (s + 2)/2, and
    with A <= 2, 1 - rho >= (s/2)(s + 2)/(A + s) >= s/2: e <= -n s/2.
    """
    L = len(stencil)
    K = sum(q != 0 for _, q in stencil)
    big_a = K / L + X
    a_plus_r = big_a + np.sqrt(np.maximum(K * K / (L * L) - Y, 0.0))
    one_minus_rho = s * (s + a_plus_r) / (a_plus_r * (big_a + s))
    with np.errstate(divide="ignore"):
        return n * np.log1p(np.maximum(-one_minus_rho, -1.0))


def _tail_rows(stencil, n, j, s, e) -> np.ndarray:
    """The full row formula, with phi = arg z, for rows j >= 1 of sizes n."""
    L = len(stencil)
    a = 2.0 * np.pi * j / n
    z = sum(np.exp(1j * (q * p) * a) for p, q in stencil if q) / L
    phi = np.angle(z)
    return (n / s) * -np.expm1(2.0 * e) / (
        np.expm1(e) ** 2 + 4.0 * np.exp(e) * np.sin(0.5 * n * phi) ** 2)


def _closed_form_rows(stencil, sizes: Sequence[int]) -> np.ndarray:
    """Weighted rows 0..n//2 of F_n for each n in sizes, concatenated in order.

    For a stencil with every q in {-1, 0, 1}.  With a = 2 pi j / n, row j
    of psi is A - R cos(b + phi), where A = 1 - (1/L) sum_{q=0} cos(p a)
    and R e^{i phi} = z = (1/L) sum_{q!=0} e^{i q p a}.  Expanding 1/psi
    in powers of rho = R / (A + s), s = sqrt(A^2 - R^2), only the terms
    aliased to multiples of n survive the sum over k, so
        sum_k 1/psi = (n/s) (1 - rho^2n) / ((1 - rho^n)^2 + 2 rho^n (1 - cos n phi)).
    Row 0 without the origin is (n^2 - 1) / (6 R0), R0 = #{q != 0} / L.
    s^2 = A^2 - R^2 is written as a sum of sin^2 terms (:func:`_row_kernel`)
    and e = n log rho comes from log1p without a difference
    (:func:`_log_rho_n`).  Where e <= -40, rho^n < 4.3e-18: 1 - rho^2n and
    (1 - rho^n)^2 round to 1 and 4 rho^n sin^2(n phi / 2) vanishes beside
    1, so the row rounds to exactly n/s.  Only the first few rows of each
    size have e > -40; they alone need phi and the full formula
    (:func:`_tail_rows`), and since e <= -n s / 2, e is formed only on
    rows with n s < 80, the only ones that can pass the cutoff.

    Rows 0 < j < n/2 stand for rows j and n - j, so they are doubled: all
    rows are multiplied by 2 and the row j = n/2 of an even n by 1/2, both
    exact.  Every element, row 0 (s = 0, set to inf) included, carries its
    own n and j, so all sizes share one elementwise pass and a row's value
    does not depend on the other sizes.
    """
    counts = [m // 2 + 1 for m in sizes]  # rows j = 0..m//2 of each size
    first = list(accumulate(counts[:-1], initial=0))  # where each row 0 goes
    n = np.array(sizes, dtype=np.float64).repeat(counts)
    j = np.arange(sum(counts), dtype=np.float64)
    j -= np.array(first, dtype=np.float64).repeat(counts)
    s, X, Y = _row_kernel(stencil, n, j)
    s[first] = np.inf  # row 0 (s = 0): out of the prefilter, and n/s = 0
    near = (n * s < -2.0 * _TAIL_LOG_RHO_N).nonzero()[0]
    e = _log_rho_n(stencil, n[near], s[near],
                   *(v if isinstance(v, float) else v[near] for v in (X, Y)))
    keep = e > _TAIL_LOG_RHO_N
    tail, e = near[keep], e[keep]
    full = _tail_rows(stencil, n[tail], j[tail], s[tail], e)
    rows = np.divide(n, s, out=n)
    rows[tail] = full
    rows *= 2.0
    rows[[i + c - 1 for m, i, c in zip(sizes, first, counts) if m % 2 == 0]] *= 0.5  # j = n/2
    r0 = 6.0 * sum(q != 0 for _, q in stencil) / len(stencil)  # 6 R0
    rows[first] = [(m * m - 1) / r0 for m in sizes]
    return rows


def _gathered_rows(spec: LatticeSpec, n: int) -> np.ndarray:
    """Weighted rows 0..n//2 of F_n gathered from the sin^2 table, any stencil.

    One row of n floats is formed and reduced at a time, so memory is
    O(n).  Rows 0 < j < n/2 are doubled, as in :func:`_closed_form_rows`.
    """
    k = np.arange(n, dtype=np.int64)
    table = np.sin(np.pi * np.minimum(k, n - k) / n) ** 2  # sin^2(pi m / n)
    scale = 2.0 / spec.L
    out = np.empty(n // 2 + 1)
    for j in range(n // 2 + 1):
        psi = scale * sum(table[(p * j + q * k) % n] for p, q in spec.stencil)
        if j == 0:
            psi[0] = np.inf  # the origin: its reciprocal, 0, drops it
        out[j] = np.reciprocal(psi, out=psi).sum()
    out[1:(n + 1) // 2] *= 2.0
    return out


def _batches(sizes: list[int]):
    """Consecutive runs of sizes, each cut once it holds _BATCH_ROWS rows."""
    batch, rows = [], 0
    for n in sizes:
        batch.append(n)
        rows += n // 2 + 1
        if rows >= _BATCH_ROWS:
            yield batch
            batch, rows = [], 0
    if batch:
        yield batch


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> list[float]:
    """math.fsum of each contiguous segment of values, bit for bit.

    Segments are consecutive, of the given lengths >= 1.  Error-free
    extraction (Rump, Ogita and Oishi, "Accurate floating-point summation
    part I", SIAM J. Sci. Comput. 31 (2008)) with one sigma per pass: if
    max |r| < 2^e over the batch and len + 2 < 2^l for every segment,
    sigma = 2^(e + l) splits each r exactly into q = (sigma + r) - sigma
    and r - q.  Each q is a multiple of 2^-53 sigma and every partial sum
    of a segment's q is below sigma, so np.add.reduceat adds them exactly.
    A pass leaves each |r - q| at most 2^(e + l - 53), cutting max |r| by
    at least 2^(52 - l), until every remainder is zero: two passes on the
    Figure-1 ladder and at n near 10^4, more where magnitudes spread
    widely across the batch, even if not within any one segment.
    math.fsum of a segment's exact parts is then its correctly rounded
    sum.  A batch that is not finite or reaches _EXTRACT_MAX = 2^960,
    where sigma could overflow, goes to math.fsum segment by segment.
    """
    starts = np.cumsum(lengths) - lengths
    top = max(values.max(), -values.min())
    if not top < _EXTRACT_MAX:  # also nan
        return [math.fsum(values[i:i + m].tolist()) for i, m in zip(starts, lengths)]
    ell = math.frexp(float(lengths.max()) + 2.0)[1]
    r, parts = values, []
    while not parts or top:  # one pass at least, then until r is all zero
        sigma = math.ldexp(1.0, math.frexp(top)[1] + ell)
        q = (sigma + r) - sigma
        parts.append(np.add.reduceat(q, starts).tolist())
        r = np.subtract(r, q, out=q)  # into q's buffer: values stay as they are
        top = max(r.max(), -r.min())
    return [math.fsum(t) for t in zip(*parts)]


def _results(sizes: Sequence[int], rows: np.ndarray) -> list[SumResult]:
    """F_n for each n in sizes from its weighted rows 0..n//2, concatenated."""
    lengths = [n // 2 + 1 for n in sizes]
    values = _segment_sums(rows, np.array(lengths))
    return [SumResult(value=value,
                      compensation=value - float(rows[stop - m:stop].sum()),
                      term_count=n * n - 1, n=n)
            for n, value, m, stop in zip(sizes, values, lengths, accumulate(lengths))]


def exact_sums(spec: LatticeSpec, ns: Iterable[int]) -> list[SumResult]:
    """F_n over the full window j, k in [0, n) minus the origin, for each n in ns.

    Inversion, psi(-j, -k) = psi(j, k), makes row n - j equal row j, so
    only rows 0..n//2 are summed and rows strictly between 0 and n/2
    count twice.  The rows come from one of two paths, chosen by the
    stencil.  When a unimodular change of grid basis gives every stencil
    vector a second entry of -1, 0 or 1 (:func:`_row_basis`; every
    built-in and most small stencils), each row is one closed form
    (:func:`_closed_form_rows`), O(n) work per size; consecutive sizes
    share one elementwise pass until it holds at least _BATCH_ROWS rows,
    so a ladder of sizes pays numpy's per-call cost once per batch and
    memory stays O(_BATCH_ROWS + max n).  Otherwise the rows are gathered
    from the sin^2 table one row of n floats at a time, one size at a
    time, about n^2/2 reciprocals each.
    ``term_count`` counts the n^2 - 1 terms represented.

    Deterministic: each size's weighted rows are summed exactly by the
    segmented extraction of :func:`_segment_sums` and rounded once, the
    same float as math.fsum of those rows, so each value is bit-identical
    across runs and does not depend on the other sizes in ns.  Results
    come in the order of ns; sizes may repeat and need not be sorted.
    """
    sizes = [operator.index(n) for n in ns]
    for n in sizes:
        if n < 1:
            raise DomainError(f"grid size must be positive, got {n}")
    basis = _row_basis(spec.stencil)
    if basis is None:
        return [_results([n], _gathered_rows(spec, n))[0] for n in sizes]
    (u0, u1), (w0, w1) = basis
    stencil = [(p * u0 + q * u1, p * w0 + q * w1) for p, q in spec.stencil]
    results = []
    for batch in _batches(sizes):
        results += _results(batch, _closed_form_rows(stencil, batch))
    return results


def exact_sum(spec: LatticeSpec, n: int, workers: int | None = None) -> SumResult:
    """F_n over the full window j, k in [0, n) minus the origin.

    ``exact_sums(spec, (n,))[0]``: one code path for one size or a
    ladder, with the same bits either way.  ``workers`` is ignored; kept
    for existing callers.
    """
    return exact_sums(spec, (n,))[0]


def trace_pseudoinverse(spec: LatticeSpec, n: int) -> float:
    """tr of the Laplacian pseudoinverse: F_n / trace_divisor."""
    return exact_sum(spec, n).value / spec.trace_divisor


# ---------------------------------------------------------------------------
# Restricted-window quartic-kernel sum (square lattice)
# ---------------------------------------------------------------------------

# Laplace-quadrature constants of quadrant_sum; each bound is relative
_LAPLACE_STEP = 0.2           # trapezoid step h in log t: aliasing 1.04e-20
_LAPLACE_TAIL = 2.0 ** -64    # each of the two truncated node tails
_LAPLACE_COLUMN_CUT = 60.0    # drop e^(-t u_j) once t (u_j - u_1) > this
_LAPLACE_SERIES_X = 0.05      # nodes with t u_N <= this use the moment series
_LAPLACE_MOMENTS = 13         # moments P_0..P_12 of that series


def quartic_rows(n: int) -> np.ndarray:
    """The row formula u_k = k^2 - c k^4, c = pi^2 / (3 n^2), for k = 1..N.

    u_j + u_k is the quartic denominator of the restricted window.  As
    k <= N <= n/4, u_k >= k^2 (1 - pi^2/48) >= 0.79 k^2, so none vanishes.
    Raises DomainError for n < 4.
    """
    N = GridGeometry.restricted(n).N
    c = math.pi ** 2 / (3.0 * n * n)
    k2 = np.arange(1, N + 1, dtype=np.float64) ** 2
    return k2 - c * (k2 * k2)


def _laplace_quadrant(u: np.ndarray) -> float:
    """sum_{j,k} 1/(u_j + u_k) for increasing u > 0, by quadrature in log t.

    With 1/s = integral over tau of t e^(-s t), t = e^tau, the double sum
    is the integral of t S(t)^2, S(t) = sum_j e^(-t u_j), and the
    trapezoidal rule with step h = _LAPLACE_STEP gives
        Q = h sum_m t_m S(t_m)^2,  t_m = e^(m h),
    combined by math.fsum.  Every pair (j, k) enters with a positive
    weight, so each bound below is relative to Q as it is to each term:
    * trapezoid (aliasing): 2 sum_{k>=1} |Gamma(1 + 2 pi i k / h)|, from
      |Gamma(1 + i y)|^2 = pi y / sinh(pi y); 1.04e-20 at h = 0.2
      (Trefethen and Weideman, SIAM Review 56 (2014) 385);
    * node tails: m runs from floor(log(T / (2 u_N)) / h) to
      ceil(log(-log T / (2 u_1)) / h), T = _LAPLACE_TAIL = 2^-64, so the
      nodes below lose at most t_lo (u_j + u_k) <= T and those above
      at most e^(-t_hi (u_j + u_k)) <= T;
    * column cut: a node forms e^(-t u_j) only while
      t (u_j - u_1) <= _LAPLACE_COLUMN_CUT = 60, so S loses at most
      N e^-60 and S^2 twice that;
    * series: nodes with x = t u_N <= _LAPLACE_SERIES_X = 0.05 take
      S = sum_{k<13} (-x)^k P_k / k!, P_k = sum_j (u_j / u_N)^k, whose
      remainder is at most e^0.05 0.05^13 / 13! = 2.1e-27.
    The other nodes form their exponentials min(16, _BLOCK_ELEMENTS // N)
    nodes at a time (at least one), so a block holds at most
    max(_BLOCK_ELEMENTS, N) floats; np.exp forms 47.6-57.5 N values for
    every N from 50 to 4000.  Rounding is left to the tests (<= 4e-16
    against the direct sum).
    """
    h = _LAPLACE_STEP
    lo = math.floor(math.log(_LAPLACE_TAIL / (2.0 * u[-1])) / h)
    hi = math.ceil(math.log(-math.log(_LAPLACE_TAIL) / (2.0 * u[0])) / h)
    t = np.exp(h * np.arange(lo, hi + 1))
    x = t * u[-1]
    near = int(np.searchsorted(x, _LAPLACE_SERIES_X, side="right"))
    ratio = u / u[-1]
    power = np.ones(len(u))
    coeffs = [float(len(u))]
    for k in range(1, _LAPLACE_MOMENTS):
        power *= ratio
        coeffs.append(float(power.sum()) / math.factorial(k))
    S = np.empty(len(t))
    minus_x, series = -x[:near], 0.0
    for c in reversed(coeffs):
        series = series * minus_x + c
    S[:near] = series
    # A block forms the columns its first (smallest) node keeps for all of
    # its nodes.  That count, about sqrt(60 / t) as u_j grows like j^2,
    # falls by e^(-h/2) = e^-0.1 per node, so 16 nodes form at most about
    # twice the exponentials their own cuts need.  A later node keeps more
    # columns than its cut asks, so its loss stays within N e^-60.
    block = min(16, max(1, _BLOCK_ELEMENTS // len(u)))
    for i0 in range(near, len(t), block):
        tb = t[i0:i0 + block]
        cols = int(np.searchsorted(u, u[0] + _LAPLACE_COLUMN_CUT / tb[0], side="right"))
        e = np.multiply.outer(-tb, u[:cols])
        S[i0:i0 + len(tb)] = np.exp(e, out=e).sum(axis=1)
        del e  # one block alive at a time: free it before the next forms
    return math.fsum((h * t * S * S).tolist())


def quadrant_sum(n: int) -> float:
    """The open-quadrant double sum sum_{j,k=1}^N 1/(u_j + u_k).

    u is :func:`quartic_rows`, increasing on the window.  The sum is the
    trapezoidal rule on its Laplace integral (:func:`_laplace_quadrant`):
    about 300 nodes and fewer than 60 N exponentials, in blocks of at most
    max(_BLOCK_ELEMENTS, N) floats, where the pairs themselves would take
    N^2/2 reciprocals.  Independent of the digamma route of
    :mod:`lapasym.decomposition`; the tests check both against direct
    summation.
    """
    return _laplace_quadrant(quartic_rows(n))


def restricted_sum_f2(n: int) -> SumResult:
    """Sum of the square lattice's quartic kernel f2 over the restricted window.

    That is (n^2/pi^2) * sum over |j|,|k| <= N, (j,k) != 0 of
    1 / (u_j + u_k), u_0 = 0, computed through the four-fold sign symmetry
    as (4 n^2/pi^2) (sum_k 1/u_k + :func:`quadrant_sum`).  Denominators
    are positive throughout the window (:func:`quartic_rows`).
    """
    u = quartic_rows(n)
    axis, quadrant = float(np.sum(1.0 / u)), _laplace_quadrant(u)
    return SumResult(value=4.0 * n * n / math.pi ** 2 * (axis + quadrant), compensation=0.0,
                     term_count=(2 * len(u) + 1) ** 2 - 1, n=n)
