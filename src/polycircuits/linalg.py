"""Exact rational vectors, matrices, and Gaussian elimination.

The API takes and returns `fractions.Fraction` values; floating
point never enters. Vectors are tuples of Fractions and matrices are
tuples of row tuples, so values are immutable and hashable and can be
used as set members directly. Inside, elimination and `dot` run on
Python ints: rows are scaled to integers (`_int_rows`) and reduced by
fraction-free Gauss-Jordan elimination (`_echelon`, Bareiss 1968), and
`dot` sums integer products over one common denominator, so the costly
Fraction normalizations happen once per output entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) in place.

    The pivot in each column is the first nonzero entry at or below the
    current row. Every other row becomes (a*x - f*y) // prev, with a the
    new pivot, f the row's entry in the pivot column and prev the previous
    pivot; each entry is then a minor of the input, so the division is
    exact. On return the pivot rows come first, in pivot-column order,
    every pivot entry equals `det`, the rows below are zero, and
    rows / det is the reduced row echelon form. Returns (pivots, det).
    """
    pivots: list[int] = []
    prev = 1
    r = 0
    m = len(rows)
    for c in range(ncols):
        for pivot in range(r, m):
            if rows[pivot][c]:
                break
        else:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        a = prow[c]
        for i in range(m):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [(a * x - f * y) // prev for x, y in zip(rows[i], prow)]
            elif a != prev:
                rows[i] = [a * x // prev for x in rows[i]]
        pivots.append(c)
        prev = a
        r += 1
        if r == m:
            break
    return pivots, prev


def rref(M: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Row order of the input does not survive; the result has pivot rows
    first (in pivot-column order) followed by zero rows.
    """
    if not M:
        return (), ()
    rows = _int_rows(M)
    pivots, det = _echelon(rows, len(rows[0]))
    return tuple(tuple(Fraction(x, det) for x in row) for row in rows), tuple(pivots)


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    if not M:
        return 0
    rows = _int_rows(M)
    return len(_echelon(rows, len(rows[0]))[0])


def kernel_basis(M: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[Vector]:
    """Primitive integer basis of the null space, one vector per free column."""
    if ncols is None:
        if not M:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(M[0])
    if not M:
        return [unit_vector(ncols, i) for i in range(ncols)]
    R = _int_rows(M)
    pivots, det = _echelon(R, len(R[0]))
    sign = -1 if det < 0 else 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        # RREF gives x[p] = -R[r][free] / det for x[free] = 1; scaled by det.
        v = [0] * ncols
        v[free] = det
        for r, p in enumerate(pivots):
            v[p] = -R[r][free]
        g = gcd(*v) * sign
        basis.append(tuple(Fraction(k // g) for k in v))
    return basis


def solve(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of M x = rhs, or None if inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if not M:
        return zero_vector(0) if is_zero(rhs) else None
    ncols = len(M[0])
    R = _int_rows([tuple(row) + (r,) for row, r in zip(M, rhs)])
    pivots, det = _echelon(R, ncols + 1)
    if pivots and pivots[-1] == ncols:  # pivot in the rhs column
        return None
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = Fraction(R[r][ncols], det)
    return tuple(x)


def row_space_basis_indices(M: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal independent row subset, keeping lowest indices.

    These are the pivot columns of the transpose: a column of an echelon
    form is a pivot exactly when it is independent of the columns before it.
    """
    cols = [list(col) for col in zip(*_int_rows(M))]
    return _echelon(cols, len(M))[0] if cols else []


def primitive(v: Sequence[Fraction]) -> Vector:
    """Scale by a positive rational so entries are coprime integers.

    The sign pattern is preserved; the zero vector maps to itself.
    """
    ints = _int_rows([v])[0]
    g = gcd(*ints)
    if g == 0:
        return vector(v)
    return tuple(Fraction(k // g) for k in ints)


def canonicalize_direction(v: Sequence[Fraction]) -> Vector:
    """Canonical line representative: primitive with first nonzero entry > 0."""
    p = primitive(v)
    lead = next((x for x in p if x != 0), None)
    if lead is not None and lead < 0:
        p = vec_neg(p)
    return p
