"""Exact rational vectors, matrices, and Gaussian elimination.

The API takes Fractions (or ints) and returns Fractions; floating point
never enters. Vectors are tuples of Fractions and matrices are tuples of
row tuples, so values are immutable and hashable and can be used as set
members directly. The one exception is `canonicalize_direction`: a line
through the origin is named by its primitive integer representative, a
tuple of Python ints (`Fraction(k) == k`, with the same hash and `str`).
Inside, elimination and `dot` run on Python ints: rows are scaled to
integers (`_int_rows`) and reduced by one fraction-free insertion step
(`_insert`, Bareiss 1968), folded over a whole matrix by `_fold` and
run depth first over row subsets by `_subset_echelons`, which eliminates
each shared prefix once. `dot` sums integer products over one common
denominator, so the costly Fraction normalizations happen once per output
entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
Direction = tuple[int, ...]  # a canonical line representative

ZERO = Fraction(0)
ONE = Fraction(1)

# (rows, pivots, det): integer rows whose quotient by det is a reduced row
# echelon form; row i has the entry det in column pivots[i].
_Echelon = tuple[list[list[int]], list[int], int]


def frac(x) -> Fraction:
    """Coerce an int, float-free string like '3/4', or Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vector(r) for r in rows)
    if out and len({len(r) for r in out}) != 1:
        raise ValueError("ragged matrix")
    return out


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n: int) -> Matrix:
    return tuple(unit_vector(n, i) for i in range(n))


def is_zero(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact inner product, summed as integers over a common denominator."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} != {len(v)}")
    num, den = 0, 1
    for x, y in zip(u, v):
        p = x.numerator * y.numerator
        if p:
            q = x.denominator * y.denominator
            if q != den:
                common = lcm(den, q)
                num *= common // den
                p *= common // q
                den = common
            num += p
    return Fraction(num, den)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * x for x in v)


def vec_neg(v: Sequence[Fraction]) -> Vector:
    return tuple(-x for x in v)


def mat_vec(M: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, v) for row in M)


def transpose(M: Sequence[Sequence[Fraction]]) -> Matrix:
    if not M:
        return ()
    return tuple(zip(*M))


def matmul(M: Sequence[Sequence[Fraction]], N: Sequence[Sequence[Fraction]]) -> Matrix:
    NT = transpose(N)
    return tuple(tuple(dot(row, col) for col in NT) for row in M)


def _int_rows(M: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators, as Python ints.

    Positive row scaling leaves rank, kernel, RREF and the solution set of
    an augmented system unchanged, so elimination may run on these rows.
    """
    out = []
    for row in M:
        dens = [x.denominator for x in row]
        den = lcm(*dens)
        if den == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([x.numerator * (den // d) for x, d in zip(row, dens)])
    return out


def _insert(
    rows: list[list[int]], pivots: list[int], det: int, x: Sequence[int], ncols: int
) -> Optional[_Echelon]:
    """One fraction-free insertion step into an echelon form (Bareiss 1968).

    `rows` hold the RREF of the rows inserted so far, times `det`: row i
    has the entry `det` in column `pivots[i]` and 0 in every other pivot
    column. The new row becomes y = det*x - sum x[p_i]*R_i, which is zero
    in every pivot column; its first nonzero entry a among the first
    `ncols` columns is the new pivot, every old row becomes
    (a*R_i - R_i[c]*y) // det, and a is the new `det`. Every entry stays
    a minor of the input, so the division is exact, and the result is the
    RREF of all rows times a. Returns None when x depends on the rows in
    its first `ncols` columns. The inputs are not modified; unchanged rows
    are shared with the result.
    """
    y = x if det == 1 else [det * v for v in x]
    for R, p in zip(rows, pivots):
        f = x[p]
        if f:
            y = [u - f * v for u, v in zip(y, R)]
    for c in range(ncols):
        if y[c]:
            break
    else:
        return None
    a = y[c]
    out = []
    for R in rows:
        f = R[c]
        if f:
            out.append([(a * u - f * v) // det for u, v in zip(R, y)])
        elif a != det:
            out.append([a * u // det for u in R])
        else:
            out.append(R)
    out.append(y)
    return out, pivots + [c], a


def _fold(
    echelon: _Echelon, rows: Iterable[Sequence[int]], ncols: int
) -> _Echelon:
    """Insert `rows` one by one into `echelon`, skipping dependent rows."""
    for x in rows:
        step = _insert(*echelon, x, ncols)
        if step is not None:
            echelon = step
    return echelon


def _rank_upto(echelon: _Echelon, rows: Iterable[Sequence[int]], r: int, ncols: int) -> int:
    """The rank of `echelon` plus `rows` in their first `ncols` columns, or r once it reaches r.

    Folds with `_insert` and stops at rank r. A pivot beyond `ncols`, as
    in an inconsistent equality block that pivots in its right-hand-side
    column, does not count.
    """
    rank = sum(p < ncols for p in echelon[1])
    for x in rows:
        if rank >= r:
            break
        step = _insert(*echelon, x, ncols)
        if step is not None:
            echelon = step
            rank += 1
    return min(rank, r)


_EMPTY: _Echelon = ([], [], 1)


def _subset_echelons(
    base: _Echelon, rows: Sequence[Sequence[int]], k: int, ncols: int
) -> Iterator[_Echelon]:
    """Echelon forms of `base` plus every independent k-subset of `rows`.

    Depth first in lexicographic order: a subset's form is its prefix's
    form plus one `_insert` step, so each visited prefix is eliminated
    once. A row that depends on its prefix (in the first `ncols` columns)
    makes every superset of that prefix dependent too, so that whole
    subtree is skipped. Yields the (rows, pivots, det) forms; they share
    rows with each other and must not be modified.
    """
    q = len(rows)
    if k > q:
        return
    insert = _insert
    forms = [base] + [None] * k
    chosen = [0] * k
    depth, i = 0, 0
    while True:
        if depth == k:
            yield forms[k]
        elif i <= q - k + depth:
            step = insert(*forms[depth], rows[i], ncols)
            if step is None:
                i += 1
            else:
                chosen[depth] = i
                depth += 1
                forms[depth] = step
                i += 1
            continue
        depth -= 1
        if depth < 0:
            return
        i = chosen[depth] + 1


def _kernel_vector(
    rows: Sequence[Sequence[int]], pivots: Sequence[int], det: int, free: int, ncols: int
) -> list[int]:
    """Primitive integer kernel vector of an echelon form for one free column.

    The RREF gives x[p] = -R[r][free] / det for x[free] = 1; scaled by det
    and divided by the gcd, with x[free] > 0.
    """
    v = [0] * ncols
    v[free] = det
    for R, p in zip(rows, pivots):
        v[p] = -R[free]
    g = gcd(*v)
    if det < 0:
        g = -g
    return [k // g for k in v]


def _kernel_line(rows: Sequence[Sequence[int]], pivots: Sequence[int], det: int, ncols: int) -> list[int]:
    """`_kernel_vector` of an echelon form that pivots in all but one of its first `ncols` columns."""
    return _kernel_vector(rows, pivots, det, ncols * (ncols - 1) // 2 - sum(pivots), ncols)


def _kernel(echelon: _Echelon, ncols: int) -> list[list[int]]:
    """The `_kernel_vector` of each free column among the first `ncols`, in order.

    A pivot past them, as of an inconsistent right-hand side, is left out.
    """
    rows, pivots, det = echelon
    kept = [i for i, p in enumerate(pivots) if p < ncols]
    rows, pivots = [rows[i] for i in kept], [pivots[i] for i in kept]
    return [_kernel_vector(rows, pivots, det, free, ncols) for free in range(ncols) if free not in pivots]


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    return len(_fold(_EMPTY, _int_rows(M), len(M[0]))[1]) if M else 0


def kernel_basis(M: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[Vector]:
    """Primitive integer basis of the null space, one vector per free column."""
    if ncols is None:
        if not M:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(M[0])
    return [tuple(map(Fraction, v)) for v in _kernel(_fold(_EMPTY, _int_rows(M), ncols), ncols)]


def solve(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of M x = rhs, or None if inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if not M:
        return zero_vector(0) if is_zero(rhs) else None
    ncols = len(M[0])
    rows, pivots, det = _fold(_EMPTY, _int_rows([tuple(row) + (r,) for row, r in zip(M, rhs)]), ncols + 1)
    if ncols in pivots:  # pivot in the rhs column
        return None
    x = [ZERO] * ncols
    for R, p in zip(rows, pivots):
        x[p] = Fraction(R[ncols], det)
    return tuple(x)


def row_space_basis_indices(M: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal independent row subset, keeping lowest indices.

    These are the pivot columns of the transpose: a column of an echelon
    form is a pivot exactly when it is independent of the columns before it.
    """
    cols = [list(col) for col in zip(*_int_rows(M))]
    return sorted(_fold(_EMPTY, cols, len(M))[1]) if cols else []


def primitive(v: Sequence[Fraction]) -> Vector:
    """Scale by a positive rational so entries are coprime integers.

    The sign pattern is preserved; the zero vector maps to itself.
    """
    ints = _int_rows([v])[0]
    g = gcd(*ints)
    if g == 0:
        return vector(v)
    return tuple(Fraction(k // g) for k in ints)


def _canonical(v: Sequence[int]) -> Direction:
    """The primitive multiple of an integer vector whose first nonzero entry is positive.

    The zero vector maps to itself.
    """
    g = gcd(*v)
    if g and next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v) if g else tuple(v)


def canonicalize_direction(v: Sequence[Fraction]) -> Direction:
    """Canonical line representative, as ints: primitive with first nonzero entry > 0."""
    return _canonical(_int_rows([v])[0])
