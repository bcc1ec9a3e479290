"""Exact lattice sums: closed-form row sums and a deterministic blocked engine.

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
(:func:`exact_sums`).  Every other double sum runs on one blocked engine:
rows are formed in fixed blocks of 64, with psi as
(2/L) sum_l sin^2(s_l . x / 2), which loses no relative precision near
the zeros of psi, and each row is summed by numpy's pairwise reduction.
Worker threads only decide who computes a block, never the arithmetic.
Row sums are combined by math.fsum, which is correctly rounded, so results
are bit-identical for any worker count and any batch of sizes.

The restricted quartic sum lives on the window |j|, |k| <= N of
:meth:`GridGeometry.restricted`, with the row formula
u_k = k^2 - (pi^2 / 3 n^2) k^4 of :func:`quartic_rows`.  Its open
quadrant sum_{j,k=1}^N 1/(u_j + u_k) is folded by the swap j <-> k
(:func:`quadrant_sum`): about N^2/2 reciprocals in O(64 N) memory.  The
decomposition module gets the same double sum in O(N) through digamma
rows; this direct sum is the oracle that checks that route.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    "resolve_workers",
]

_BLOCK_ROWS = 64          # fixed row-block size; independent of worker count
_BATCH_ROWS = 4096        # closed-form rows per elementwise pass; bounds memory
_SINGULAR_FLOOR = 1e-300  # denominators below this abort the sum


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else LAPASYM_WORKERS, else the CPU count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("LAPASYM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(
                f"LAPASYM_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Lattice and grid descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """Cosine stencil of a periodic lattice plus its trace divisor."""

    name: str
    stencil: tuple[tuple[int, int], ...]
    trace_divisor: int

    def __post_init__(self):
        if len(self.stencil) < 2:
            raise DomainError("stencil needs at least two vectors")
        if self.stencil[0] != (1, 0) or self.stencil[1] != (0, 1):
            raise DomainError("stencil must start with (1,0), (0,1)")
        if any(v == (0, 0) for v in self.stencil):
            raise DomainError("stencil vectors must be nonzero")
        if self.trace_divisor <= 0:
            raise DomainError("trace divisor must be positive")

    @property
    def L(self) -> int:
        return len(self.stencil)

    @property
    def s_bar(self) -> float:
        """Largest Euclidean norm over the stencil."""
        return max(math.hypot(p, q) for p, q in self.stencil)


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
    """Read a lattice config file with lines ``s = j k`` and ``divisor = d``."""
    stencil: list[tuple[int, int]] = []
    divisor = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
                divisor = values[0]
            else:
                raise DomainError(f"{path}:{lineno}: cannot parse {raw.rstrip()!r}")
    if divisor is None:
        raise DomainError(f"{path}: missing 'divisor = d' line")
    return LatticeSpec(os.path.basename(path), tuple(stencil), divisor)


@dataclass(frozen=True)
class GridGeometry:
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
    def from_n(cls, n: int) -> "GridGeometry":
        if n < 1:
            raise DomainError(f"grid size must be positive, got {n}")
        n0 = n % 4
        return cls(
            n=n,
            n0=n0,
            N=(n - n0) // 4,
            beta_n=0.5 * math.pi * (1.0 + (2.0 - n0) / n),
        )

    @classmethod
    def restricted(cls, n: int) -> "GridGeometry":
        """:meth:`from_n` for a nonempty restricted window, N >= 1."""
        if n < 4:
            raise DomainError(f"restricted window needs n >= 4, got {n}")
        return cls.from_n(n)

    def in_restricted(self, j: int, k: int) -> bool:
        return abs(j) <= self.N and abs(k) <= self.N and (j, k) != (0, 0)


@dataclass(frozen=True)
class SumResult:
    """A lattice sum and how it was combined.

    ``value`` is the correctly rounded sum (math.fsum) of the weighted
    row sums; ``compensation`` is ``value`` minus their plain numpy sum,
    i.e. what the exact combine changed.
    """

    value: float
    compensation: float
    term_count: int
    n: int
    lattice: LatticeSpec


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
# Blocked row-sum engine and the full-window sum
# ---------------------------------------------------------------------------

def _row_sums(block_sums, nrows: int, workers: int | None) -> np.ndarray:
    """Row sums of a double sum, computed in fixed blocks of _BLOCK_ROWS rows.

    ``block_sums(j0, j1)`` returns the sums of rows j0..j1-1.  The blocks
    depend on nrows alone and each row is reduced on its own, so workers
    only decide who computes a block and the result is bit-identical for
    any worker count.  Callers combine the rows in ascending order.
    """
    out = np.empty(nrows)

    def run(j0):
        j1 = min(j0 + _BLOCK_ROWS, nrows)
        out[j0:j1] = block_sums(j0, j1)

    starts = range(0, nrows, _BLOCK_ROWS)
    nworkers = resolve_workers(workers)
    if nworkers > 1 and len(starts) > 4:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run, starts))
    else:
        for j0 in starts:
            run(j0)
    return out


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


def _closed_form_rows(stencil, sizes: Sequence[int]) -> np.ndarray:
    """Sums of rows 0..n//2 of F_n for each n in sizes, concatenated in order.

    For a stencil with every q in {-1, 0, 1}.  With a = 2 pi j / n, row j
    of psi is A - R cos(b + phi), where A = 1 - (1/L) sum_{q=0} cos(p a)
    and R e^{i phi} = (1/L) sum_{q!=0} e^{i q p a}.  Expanding 1/psi in
    powers of rho = R / (A + s), s = sqrt(A^2 - R^2), only the terms
    aliased to multiples of n survive the sum over k, so
        sum_k 1/psi = (n/s) (1 - rho^2n) / ((1 - rho^n)^2 + 2 rho^n (1 - cos n phi)).
    Row 0 without the origin is (n^2 - 1) / (6 R0), R0 = #{q != 0} / L.
    A - R = min_b psi comes from the sin^2 form, never as a difference,
    and rho^n from log1p/expm1.  Rows with R = 0 have rho = 0: the log1p
    argument is clamped at -1, whose log is -inf.

    Every element carries its own n and j, so all sizes share one
    elementwise pass and a row's value does not depend on the other sizes.
    """
    L = len(stencil)
    sizes = np.asarray(sizes, dtype=np.int64)
    count = sizes // 2 + 1
    n = np.repeat(sizes, count)
    j = np.arange(len(n)) - np.repeat(np.cumsum(count) - count, count)
    rows = np.empty(len(n))
    rows[j == 0] = (sizes * sizes - 1) / (6.0 * sum(q != 0 for _, q in stencil) / L)
    rest = j > 0
    n, j = n[rest], j[rest]
    a = 2.0 * np.pi * j / n
    z = sum(np.exp(1j * (q * p) * a) for p, q in stencil if q) / L
    phi = np.angle(z)
    big_a = sum(1.0 if q else 2.0 * np.sin(0.5 * p * a) ** 2 for p, q in stencil) / L
    a_minus_r = sum(np.sin(0.5 * (p * a - q * phi)) ** 2 for p, q in stencil) * (2.0 / L)
    s = np.sqrt(a_minus_r * (big_a + np.abs(z)))
    with np.errstate(divide="ignore"):
        e = n * np.log1p(np.maximum(-(a_minus_r + s) / (big_a + s), -1.0))
    rows[rest] = (n / s) * -np.expm1(2.0 * e) / (
        np.expm1(e) ** 2 + 4.0 * np.exp(e) * np.sin(0.5 * n * phi) ** 2)
    return rows


def _gathered_rows(spec: LatticeSpec, n: int, workers: int) -> np.ndarray:
    """Sums of rows 0..n//2 of F_n gathered from the sin^2 table, any stencil."""
    k = np.arange(n, dtype=np.int64)
    table = np.sin(np.pi * np.minimum(k, n - k) / n) ** 2  # sin^2(pi m / n)
    scale = 2.0 / spec.L

    def block_sums(j0, j1):
        j = np.arange(j0, j1, dtype=np.int64)[:, None]
        psi = np.zeros((j1 - j0, n))
        for p, q in spec.stencil:
            psi += table[(p * j + q * k) % n]
        psi *= scale
        if j0 == 0:
            psi[0, 0] = 1.0  # the origin; its reciprocal is dropped below
        v = np.reciprocal(psi, out=psi)
        if j0 == 0:
            v[0, 0] = 0.0
        return v.sum(axis=1)

    return _row_sums(block_sums, n // 2 + 1, workers)


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


def _combined(spec: LatticeSpec, n: int, rows: np.ndarray) -> SumResult:
    """F_n from its rows 0..n//2, weighted in place by the inversion symmetry."""
    rows[1:(n + 1) // 2] *= 2.0  # rows j and n - j coincide for 0 < j < n/2
    value = math.fsum(rows.tolist())
    return SumResult(
        value=value,
        compensation=value - float(rows.sum()),
        term_count=n * n - 1,
        n=n,
        lattice=spec,
    )


def exact_sums(spec: LatticeSpec, ns: Iterable[int],
               workers: int | None = None) -> list[SumResult]:
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
    from the sin^2 table in fixed 64-row blocks, one size at a time,
    serially or on ``workers`` threads, about n^2/2 reciprocals each.
    ``term_count`` counts the n^2 - 1 terms represented.

    Deterministic: the weighted row sums are combined by math.fsum, which
    is correctly rounded, so each value is bit-identical across runs,
    worker counts and the other sizes in ns.  Results come in the order
    of ns; sizes may repeat and need not be sorted.
    """
    sizes = list(ns)
    for n in sizes:
        if n < 1:
            raise DomainError(f"grid size must be positive, got {n}")
    workers = resolve_workers(workers)  # a bad LAPASYM_WORKERS fails on either path
    basis = _row_basis(spec.stencil)
    if basis is None:
        return [_combined(spec, n, _gathered_rows(spec, n, workers)) for n in sizes]
    (u0, u1), (w0, w1) = basis
    stencil = [(p * u0 + q * u1, p * w0 + q * w1) for p, q in spec.stencil]
    results = []
    for batch in _batches(sizes):
        rows = _closed_form_rows(stencil, batch)
        parts = np.split(rows, np.cumsum([n // 2 + 1 for n in batch])[:-1])
        results += [_combined(spec, n, part) for n, part in zip(batch, parts)]
    return results


def exact_sum(spec: LatticeSpec, n: int, workers: int | None = None) -> SumResult:
    """F_n over the full window j, k in [0, n) minus the origin.

    ``exact_sums(spec, (n,), workers)[0]``: one code path for one size or
    a ladder, with the same bits either way.
    """
    return exact_sums(spec, (n,), workers)[0]


def trace_pseudoinverse(spec: LatticeSpec, n: int, workers: int | None = None) -> float:
    """tr of the Laplacian pseudoinverse: F_n / trace_divisor."""
    return exact_sum(spec, n, workers=workers).value / spec.trace_divisor


# ---------------------------------------------------------------------------
# Restricted-window quartic-kernel sum (square lattice)
# ---------------------------------------------------------------------------

_LOWER = np.tri(_BLOCK_ROWS, dtype=bool)  # a block's k <= j corner


def quartic_rows(n: int) -> np.ndarray:
    """The row formula u_k = k^2 - c k^4, c = pi^2 / (3 n^2), for k = 1..N.

    u_j + u_k is the quartic denominator of the restricted window.  Raises
    DomainError for n < 4 and SingularityError where a u_k vanishes, the
    axis point (0, k) of the window.
    """
    N = GridGeometry.restricted(n).N
    c = math.pi ** 2 / (3.0 * n * n)
    k2 = np.arange(1, N + 1, dtype=np.float64) ** 2
    u = k2 - c * (k2 * k2)
    # min over j, k of fl(u_j + u_k) is fl(2 min u) >= min u when u > 0
    if u.min() < _SINGULAR_FLOOR:
        point = (0, int(np.argmin(u)) + 1)
        raise SingularityError(
            f"restricted denominator vanishes at (j, k) = {point}", point=point)
    return u


def quadrant_sum(n: int, workers: int | None = None) -> float:
    """The open-quadrant double sum sum_{j,k=1}^N 1/(u_j + u_k).

    u is :func:`quartic_rows`.  The denominators are symmetric in j <-> k,
    so row j contributes 1/(2 u_j) + 2 sum_{k>j} 1/(u_j + u_k).  Rows are
    formed _BLOCK_ROWS at a time over the columns k >= j0 of their block,
    with the block's leading corner k <= j masked, so about N^2/2
    reciprocals are formed and memory is O(_BLOCK_ROWS N).  The folded
    rows are combined by math.fsum.
    """
    u = quartic_rows(n)

    def block_sums(i0, i1):
        size = i1 - i0
        v = np.add(u[i0:i1, None], u[i0:])  # rows j = i0+1..i1, columns k = i0+1..N
        np.reciprocal(v, out=v)
        diag = v.diagonal().copy()
        v[:, :size][_LOWER[:size, :size]] = 0.0
        return 2.0 * v.sum(axis=1) + diag

    return math.fsum(_row_sums(block_sums, len(u), workers).tolist())


def restricted_sum_f2(n: int, workers: int | None = None) -> SumResult:
    """Sum of the square lattice's quartic kernel f2 over the restricted window.

    That is (n^2/pi^2) * sum over |j|,|k| <= N, (j,k) != 0 of
    1 / (u_j + u_k), u_0 = 0, computed through the four-fold sign symmetry
    as (4 n^2/pi^2) (sum_k 1/u_k + :func:`quadrant_sum`).  Denominators
    are positive throughout the window.
    """
    u = quartic_rows(n)
    axis, quadrant = float(np.sum(1.0 / u)), quadrant_sum(n, workers)
    total = math.fsum((axis, quadrant))
    scale = 4.0 * n * n / math.pi ** 2
    return SumResult(
        value=scale * total,
        compensation=scale * (total - (axis + quadrant)),
        term_count=(2 * len(u) + 1) ** 2 - 1,
        n=n,
        lattice=SQUARE,
    )
