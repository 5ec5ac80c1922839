"""Exact rational vectors, matrices, and Gaussian elimination.

Everything in this package computes over `fractions.Fraction`; floating
point never enters. Vectors are tuples of Fractions and matrices are
tuples of row tuples, so values are immutable and hashable and can be
used as set members directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
    assert len(u) == len(v), "dimension mismatch"
    return sum((x * y for x, y in zip(u, v)), ZERO)


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


def rref(M: Sequence[Sequence[Fraction]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Row order of the input does not survive; the result has pivot rows
    first (in pivot-column order) followed by zero rows.
    """
    rows = [list(r) for r in M]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(M)[1])


def kernel_basis(M: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[Vector]:
    """Primitive integer basis of the null space, one vector per free column."""
    if ncols is None:
        if not M:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(M[0])
    if not M:
        return [unit_vector(ncols, i) for i in range(ncols)]
    R, pivots = rref(M)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, p in enumerate(pivots):
            v[p] = -R[r][free]
        basis.append(primitive(v))
    return basis


def solve(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of M x = rhs, or None if inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if not M:
        return zero_vector(0) if is_zero(rhs) else None
    ncols = len(M[0])
    aug = [list(row) + [r] for row, r in zip(M, rhs)]
    R, pivots = rref(aug)
    if ncols in pivots:  # pivot in the rhs column
        return None
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = R[r][ncols]
    return tuple(x)


def row_space_basis_indices(M: Sequence[Sequence[Fraction]]) -> list[int]:
    """Indices of a maximal independent row subset, keeping lowest indices."""
    kept: list[list[Fraction]] = []
    idx: list[int] = []
    rk = 0
    for i, row in enumerate(M):
        cand = kept + [list(row)]
        if len(rref(cand)[1]) > rk:
            kept = cand
            idx.append(i)
            rk += 1
    return idx


def primitive(v: Sequence[Fraction]) -> Vector:
    """Scale by a positive rational so entries are coprime integers.

    The sign pattern is preserved; the zero vector maps to itself.
    """
    if is_zero(v):
        return vector(v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for k in ints:
        g = gcd(g, k)
    return tuple(Fraction(k // g) for k in ints)


def canonicalize_direction(v: Sequence[Fraction]) -> Vector:
    """Canonical line representative: primitive with first nonzero entry > 0."""
    p = primitive(v)
    lead = next((x for x in p if x != 0), None)
    if lead is not None and lead < 0:
        p = vec_neg(p)
    return p
