"""Exact lattice sums with a deterministic parallel compensated engine.

The central object is

    F_n = sum over grid frequencies t_{j,k} = (2 pi j / n, 2 pi k / n),
          (j,k) != (0,0), 0 <= j,k < n, of 1 / psi(t_{j,k}),

where psi(x) = 1 - (1/L) sum_l cos(s_l . x) for a stencil of integer
vectors s_l.  The trace of the lattice Laplacian pseudoinverse is F_n
divided by a lattice-specific divisor (4, 6 or 8 for the built-ins).

Numerics: psi is evaluated as (2/L) sum_l sin^2(s_l . x / 2), which is
algebraically identical but loses no relative precision near the zeros of
psi.  Because s_l . t_{j,k} is a multiple of 2 pi / n, every summand comes
from one precomputed sin^2(pi m / n) table, so argument reduction is
exact.  The table is symmetric, S[m] = S[n - m], so for a stencil vector
with |q| <= 1 a row (fixed j) is a contiguous slice of the doubled table;
only |q| > 1 needs a gather.  The full-window sum is folded by two
symmetries that keep rows intact: inversion psi(-j, -k) = psi(j, k) makes
row n - j equal row j, so rows 0..n//2 are summed with weights 1 or 2,
and when the stencil admits an in-row reflection k -> a j - k (a = 0 for
square and modified union jack, a = -1 for triangular) each row is summed
over half its columns, doubled, plus the reflection's fixed columns.
That forms about n^2/4 reciprocals for the built-ins and n^2/2 for other
stencils.  One blocked engine serves every double sum: rows are formed in
fixed blocks of 64, each row is summed by numpy's pairwise reduction,
and the row sums are combined with Kahan-Neumaier compensation in
ascending row order.  Worker threads only decide who computes a block,
never the arithmetic, so results are bit-identical for any worker count.
The restricted quartic sum goes through the same engine, so its memory
is O(64 N) rather than O(N^2).  Its quadrant is folded by the swap
j <-> k (:func:`quadrant_sums`): a block of rows spans only the columns
k >= j0, its leading corner k <= j is masked, and each row adds its
diagonal term plus twice the rest, about N^2/2 reciprocals in all.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
    "neumaier_sum",
    "kernel_psi",
    "kernel_fm",
    "exact_sum",
    "trace_pseudoinverse",
    "restricted_sum_f2",
    "quadrant_sums",
    "resolve_workers",
]

_BLOCK_ROWS = 64          # fixed row-block size; independent of worker count
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
    which for the cutoff beta = 1 - pi^2/20 is exactly the index square
    |j|, |k| <= N minus the origin.
    """

    n: int
    n0: int
    N: int
    delta_n: float
    beta_n: float
    beta: float = field(default=1.0 - math.pi ** 2 / 20.0)

    @classmethod
    def from_n(cls, n: int) -> "GridGeometry":
        if n < 1:
            raise DomainError(f"grid size must be positive, got {n}")
        n0 = n % 4
        return cls(
            n=n,
            n0=n0,
            N=(n - n0) // 4,
            delta_n=2.0 * math.pi / n,
            beta_n=0.5 * math.pi * (1.0 + (2.0 - n0) / n),
        )

    def in_restricted(self, j: int, k: int) -> bool:
        return abs(j) <= self.N and abs(k) <= self.N and (j, k) != (0, 0)


@dataclass(frozen=True)
class SumResult:
    value: float
    compensation: float
    term_count: int
    n: int
    lattice: LatticeSpec
    kernel: str
    region: str


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
# Compensated accumulation
# ---------------------------------------------------------------------------

def neumaier_sum(values: Iterable[float]) -> tuple[float, float]:
    """Kahan-Neumaier accumulation -> (running sum, compensation).

    The compensated total is ``sum + compensation``.  Strictly sequential
    in the order given, which is what the determinism contract relies on.
    """
    s = 0.0
    c = 0.0
    for x in values:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s, c


# ---------------------------------------------------------------------------
# Blocked row-sum engine and the full-window sum
# ---------------------------------------------------------------------------

def _sin_sq_table(n: int) -> np.ndarray:
    """sin^2(pi m / n) for m in [0, n), built symmetric: S[m] == S[n - m]."""
    half = n // 2
    s = np.sin(np.pi * np.arange(half + 1) / n)
    table = np.empty(n)
    table[: half + 1] = s * s
    if half + 1 < n:
        table[half + 1:] = table[1: n - half][::-1]
    return table


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


def _row_reflection(stencil) -> int | None:
    """Shear a with psi(j, a j - k) == psi(j, k) for every j, k; else None.

    The map (j, k) -> (j, a j - k) sends stencil vector (p, q) to
    (p + q a, -q), and psi is unchanged when that maps the stencil onto
    itself as a multiset up to sign.  The image of (0, 1) is (a, -1), so
    only a = -p q over vectors with |q| = 1 can work; (0, 1) comes second
    in every stencil, so a = 0 is tried first.
    """
    def canon(vectors):
        return sorted(max(v, (-v[0], -v[1])) for v in vectors)

    target = canon(stencil)
    for p, q in stencil:
        if abs(q) == 1:
            a = -p * q
            if canon([(x + y * a, -y) for x, y in stencil]) == target:
                return a
    return None


def exact_sum(spec: LatticeSpec, n: int, workers: int | None = None) -> SumResult:
    """F_n over the full window j, k in [0, n) minus the origin.

    Folded by symmetries that keep rows intact.  Inversion,
    psi(-j, -k) = psi(j, k), makes row n - j equal row j, so only rows
    0..n//2 are summed and rows strictly between 0 and n/2 count twice.
    When the stencil has an in-row reflection k -> a j - k (see
    :func:`_row_reflection`; a = 0 for square and modified union jack,
    a = -1 for triangular), each row is summed over half its columns
    k = s + m, m = 1..n//2, doubled, plus the reflection's fixed columns.
    So about n^2/4 reciprocals are formed for such stencils and n^2/2 for
    the rest; ``term_count`` still counts the n^2 - 1 terms represented.

    Deterministic: the value is bit-identical across runs and worker
    counts.  Parallelism is over fixed 64-row blocks; the weighted row
    sums are reduced with Neumaier compensation in ascending row order.
    """
    if n < 1:
        raise DomainError(f"grid size must be positive, got {n}")
    half = n // 2
    a = _row_reflection(spec.stencil)
    # columns m = 0..half (+ half + 1 for odd n) around the reflection axis
    ncols = n if a is None else min(half + 1 + n % 2, n)
    table = _sin_sq_table(n)
    # row o of `shifted` is table[(o + m) mod n] for m in [0, ncols), a view
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((table, table)), ncols)
    m = np.arange(ncols, dtype=np.int64)
    scale = 2.0 / spec.L

    def block_sums(j0, j1):
        j = np.arange(j0, j1, dtype=np.int64)
        # row j covers k = s + m with s = floor(c / 2), c = a j mod n
        c = np.zeros_like(j) if a is None else a * j % n
        s = c // 2
        psi = np.zeros((j1 - j0, ncols))
        for p, q in spec.stencil:
            if q == 0:
                psi += table[p * j % n][:, None]
            elif abs(q) == 1:
                # table[(p j + q k) mod n] == table[(q p j + s + m) mod n]
                # since the table is symmetric: a slice of `shifted`
                psi += shifted[(q * p * j + s) % n]
            else:
                psi += table[(p * j[:, None] + q * (s[:, None] + m)) % n]
        psi *= scale
        if j0 == 0:
            psi[0, 0] = 1.0  # the origin; its reciprocal is dropped below
        v = np.reciprocal(psi, out=psi)
        if j0 == 0:
            v[0, 0] = 0.0
        if a is None:
            return v.sum(axis=1)
        # k -> c - k pairs column m with r - m, r = c - 2 s; the columns
        # left unpaired by m = 1..half are the reflection's fixed points
        r = c - 2 * s
        if n % 2 == 0:
            fixed = np.where(r == 0, v[:, 0] - v[:, half], 0.0)
        else:
            # v[:, -1] is column half + 1; for n = 1, r is always 0
            fixed = np.where(r == 0, v[:, 0], v[:, -1])
        return 2.0 * v[:, 1:half + 1].sum(axis=1) + fixed

    rows = _row_sums(block_sums, half + 1, workers)
    rows[1:(n + 1) // 2] *= 2.0  # rows j and n - j coincide for 0 < j < n/2
    total, comp = neumaier_sum(rows.tolist())
    return SumResult(
        value=total + comp,
        compensation=comp,
        term_count=n * n - 1,
        n=n,
        lattice=spec,
        kernel="f",
        region="full",
    )


def trace_pseudoinverse(spec: LatticeSpec, n: int, workers: int | None = None) -> float:
    """tr of the Laplacian pseudoinverse: F_n / trace_divisor."""
    return exact_sum(spec, n, workers=workers).value / spec.trace_divisor


# ---------------------------------------------------------------------------
# Restricted-window quartic-kernel sum (square lattice)
# ---------------------------------------------------------------------------

_LOWER = np.tri(_BLOCK_ROWS, dtype=bool)  # a block's k <= j corner


def quadrant_sums(n: int, workers: int | None = None) -> tuple[float, np.ndarray]:
    """Axis sum and folded open-quadrant contributions of the square quartic sum.

    With c = pi^2 / (3 n^2), u_j = j^2 - c j^4 and N from
    :class:`GridGeometry`, the quadrant sum is sum_{j,k=1}^N 1/(u_j + u_k).
    The denominators are symmetric in j <-> k, so the returned array holds
    1/(2 u_j) + 2 sum_{k>j} 1/(u_j + u_k) for j = 1..N: its entries add up
    to the quadrant sum but are not its row sums.  The axis sum
    sum_{k=1}^N 1/u_k, row j = 0 of the engine, comes first as a float.
    Rows are formed _BLOCK_ROWS at a time over the columns k >= j0 of
    their block, with the block's leading corner k <= j masked, so about
    N^2/2 reciprocals are formed and memory is O(_BLOCK_ROWS N).  Raises
    DomainError when N < 1 and SingularityError where a denominator
    vanishes.
    """
    N = GridGeometry.from_n(n).N
    if N < 1:
        raise DomainError(f"no quadrant rows for n = {n}; need n >= 4")
    c = math.pi ** 2 / (3.0 * n * n)
    j2 = np.arange(N + 1, dtype=np.float64) ** 2
    u = j2 - c * (j2 * j2)
    # min over j, k of fl(u_j + u_k) is fl(2 min u) >= min u when u > 0
    if u[1:].min() < _SINGULAR_FLOOR:
        point = (0, int(np.argmin(u[1:])) + 1)
        raise SingularityError(
            f"restricted denominator vanishes at (j, k) = {point}", point=point)

    def block_sums(j0, j1):
        size = j1 - j0
        v = np.add(u[j0:j1, None], u[j0:])  # column i is k = j0 + i
        if j0 == 0:
            v[0, 0] = 1.0  # the origin; masked out below
        np.reciprocal(v, out=v)
        diag = v.diagonal().copy()
        v[:, :size][_LOWER[:size, :size]] = 0.0
        out = 2.0 * v.sum(axis=1) + diag
        if j0 == 0:
            out[0] = v[0, 1:].sum()  # the axis row: every k once
        return out

    rows = _row_sums(block_sums, N + 1, workers)
    return float(rows[0]), rows[1:]


def restricted_sum_f2(n: int, spec: LatticeSpec = SQUARE,
                      workers: int | None = None) -> SumResult:
    """Sum of the quartic kernel f2 over the restricted window.

    For the square stencil this is
    (n^2/pi^2) * sum over |j|,|k| <= N, (j,k) != 0 of
    1 / (j^2 + k^2 - (pi^2 / 3 n^2)(j^4 + k^4)),
    computed through the four-fold sign symmetry as 4*(axis part +
    open-quadrant part).  Denominators are positive throughout the window.
    """
    if spec.stencil != SQUARE.stencil:
        raise DomainError("the restricted quartic sum is defined for the square stencil")
    axis, rows = quadrant_sums(n, workers)
    N = len(rows)
    total, comp = neumaier_sum([axis] + rows.tolist())
    scale = 4.0 * n * n / math.pi ** 2
    return SumResult(
        value=scale * (total + comp),
        compensation=scale * comp,
        term_count=(2 * N + 1) ** 2 - 1,
        n=n,
        lattice=spec,
        kernel="f2",
        region="restricted",
    )
