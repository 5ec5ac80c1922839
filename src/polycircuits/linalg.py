"""Exact rational vectors, matrices, and Gaussian elimination.

The API takes Fractions (or ints) and returns Fractions; floating point
never enters. Vectors are tuples of Fractions and matrices are tuples of
row tuples, so values are immutable and hashable and can be used as set
members directly. The one exception is `canonicalize_direction`: a line
through the origin is named by its primitive integer representative, a
tuple of Python ints (`Fraction(k) == k`, with the same hash and `str`).
Inside, elimination and `dot` run on Python ints, and this module alone
decides how rationals become integers and how integers are reduced:
`_int_vector` (row by row, `_int_rows`) writes a vector as integers over
the lcm of its denominators, `_primitive` divides an integer vector by
its gcd and keeps its sign, `_scaled_row` gives an integer row [a | rhs]
as its primitive normal and rhs (and `_scaled_ints` that row's
`_int_vector`, without the Fractions), and `_canonical` names a line. Rows are
reduced by one fraction-free insertion step (`_insert`, Bareiss 1968);
its first half, the residual of a row on an echelon form, is `_residual`.
`_independent` inserts the rows of a whole matrix in order until their rank
fills the columns, and its echelon form serves `rank`, `kernel_basis` and
`solve`. `_ranks_reach` checks the rank of many row subsets in one pass: it
visits them in sorted order, resumes each from the echelon form of the
prefix it shares with the subset before it, and only reduces the row that
would reach the target rank. The subset
walk `_subset_lines` finds the kernel line of every independent k-subset
of rows. It takes no `_insert` step: down its depth-first walk of the
(k-2)-prefixes it carries one fraction-free tableau per depth, the
echelon form of the prefix and the residuals of the rows after it, and a
step updates each of those rows once, as lrs updates its dictionary at a
pivot (Avis 2000). It stops two rows early: the last two rows of a subset
meet in one cross product of their three coordinates on the prefix's
kernel. It skips each prefix in whose span a row it passed before falls,
as no line below it has that prefix as the start of its greedy basis. It
names each line with its certificate, the k rows of the subset that gave
it, so that a caller can check the line on those rows alone,
with `_ranks_reach`, which shares no elimination code with the walk.
`dot` sums integer products over one common denominator, so the costly
Fraction normalizations happen once per output entry.
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


def _int_vector(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """v as num / den: Python ints num and den > 0, the lcm of the denominators of v (ints or Fractions)."""
    dens = [x.denominator for x in v]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (den // d) for x, d in zip(v, dens)], den


def _int_rows(M: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators (`_int_vector`).

    Positive row scaling leaves rank, kernel, RREF and the solution set of
    an augmented system unchanged, so elimination may run on these rows.
    """
    return [_int_vector(row)[0] for row in M]


def _primitive(v: Sequence[int]) -> tuple[list[int], int]:
    """An integer vector over the gcd g > 0 of its entries, and g; the sign
    is kept, and a zero vector comes back as it is, with g = 1."""
    g = gcd(*v) or 1
    return [x // g for x in v], g


def _scaled_row(row: Sequence[int]) -> tuple[Vector, Fraction]:
    """A nonzero integer row [a | rhs] as its primitive integer normal and rhs, keeping orientation."""
    normal, g = _primitive(row[:-1])
    return tuple(map(Fraction, normal)), Fraction(row[-1], g)


def _scaled_ints(row: Sequence[int]) -> tuple[list[int], int]:
    """`_int_vector` of the row that `_scaled_row` writes, read off the integer row:
    with g the gcd of its normal (1 if zero) and c = gcd(g, rhs), the row over c and g / c."""
    g = gcd(*row[:-1]) or 1
    c = gcd(g, row[-1])
    return [x // c for x in row], g // c


def _residual(rows: list[list[int]], pivots: list[int], det: int, x: Sequence[int]) -> Sequence[int]:
    """The Bareiss residual y = det*x - sum x[p_i]*R_i of x on an echelon form
    (`_insert`): zero in every pivot column, and zero in any leading columns
    that hold every pivot iff x depends on the rows in those columns."""
    y = x if det == 1 else [det * v for v in x]
    for R, p in zip(rows, pivots):
        f = x[p]
        if f:
            y = [u - f * v for u, v in zip(y, R)]
    return y


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
    y = _residual(rows, pivots, det, x)
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


_EMPTY: _Echelon = ([], [], 1)


def _independent(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[int], _Echelon]:
    """The indices of the integer rows independent, in their first `ncols` columns, of
    the rows before them (the pivot columns of the transpose), up to rank `ncols`, and
    the echelon form of the rows picked: the echelon form of all the rows, since
    no row after rank `ncols` can pivot, whose `_kernel` and rank it gives."""
    picked, echelon = [], _EMPTY
    for i, row in enumerate(rows):
        if len(picked) < ncols and (grown := _insert(*echelon, row, ncols)):
            echelon = grown
            picked.append(i)
    return picked, echelon


def _ranks_reach(sets: Sequence[Sequence[int]], rows: Sequence[Sequence[int]], r: int, ncols: int) -> Optional[int]:
    """The position in `sets` of a set whose rows stay below rank r in their
    first `ncols` columns, or None when every set reaches rank r.

    Each set holds ascending indices into `rows` and is folded in that order
    with `_insert`, skipping dependent rows, until its rank reaches r. The
    sets are visited in sorted order, so a set shares its longest prefix with
    the one before it, and it resumes from the echelon form that set left
    after that prefix. A row met at rank r - 1 is only reduced
    (`_residual`): a nonzero residual in the first `ncols` columns decides
    the set, and a zero one leaves the next row to try. Of several failing
    sets, the first in sorted order is returned.
    """
    if r <= 0:
        return None
    forms, last = [_EMPTY], ()  # forms[j]: the echelon form of the first j rows of `last`
    for pos in sorted(range(len(sets)), key=sets.__getitem__):
        s = sets[pos]
        common = 0
        for i, j in zip(s, last):
            if i != j:
                break
            common += 1
        del forms[common + 1 :]
        last = s
        for i in s[len(forms) - 1 :]:
            echelon = forms[-1]
            if len(echelon[1]) < r - 1:
                echelon = _insert(*echelon, rows[i], ncols) or echelon
            elif any(_residual(*echelon, rows[i])[:ncols]):
                break
            forms.append(echelon)
        else:
            return pos
    return None


def _subset_lines(
    rows: Sequence[Sequence[int]], k: int, ncols: int, width: int
) -> Iterator[tuple[Direction, tuple[int, ...]]]:
    """The kernel line of each independent k-subset of `rows`, as a `_canonical`
    vector, with its certificate: the ascending indices of k rows that cut it out.

    Rows have `width` columns; independence and pivots count only the first
    `ncols`, and k independent rows must leave one free column, so
    width = k + 1 and ncols is width or width - 1. The walk visits the
    independent (k-2)-prefixes depth first in lexicographic order, and
    carries one fraction-free tableau per depth, as lrs carries its
    dictionary (Bareiss 1968; Avis 2000): the echelon form of the prefix
    (RREF times det) and the Bareiss residuals y_j of the rows j after it,
    zero in its pivot columns. A row whose residual is zero in the first
    `ncols` columns depends on the prefix and is no child; one zero in every
    column stays zero below, so it leaves the subtree. A child at depth d
    needs k - d - 1 tableau rows after it. Descending by row i, with pivot c
    the first nonzero column of y_i and a = y_i[c], costs one update per
    later row and per echelon row, y' = (a y - y[c] y_i) // det, exact since
    every entry is a minor; a becomes det, and a row with y[c] = 0 is shared
    when a = det. A (k-2)-prefix leaves three free columns f < g < h with the
    kernel vectors K_f, K_g and K_h (K[free] = det, K[p] = -R[free]); when
    ncols < width, h is the last column, which never pivots. The step to
    such a leaf computes only those three columns: the echelon rows'
    entries give the K vectors, and a later row's entries r = (y_f, y_g,
    y_h) are its coordinates on the prefix's kernel, read up to a nonzero
    factor that `_canonical` removes. Rows with parallel r meet the
    kernel alike, so each later row counts once, as the `_canonical` point
    of r, named by its first row; a row with r = 0 depends on the prefix.
    The lines come from pairs of points (`_pair_lines`), each yielded once
    per prefix with the certificate (*prefix, i, j) of the first pair that
    gave it: k rows that read 0 on the line and have rank k in the first
    `ncols` columns.

    The walk skips every prefix that cannot start a line's greedy basis: the
    rows that read 0 on the line taken in ascending order, each kept when it
    is independent, in the first `ncols` columns, of the rows kept before it
    (the lexicographic rule of reverse search; Avis & Fukuda 1996). Each
    frame carries the residuals of its passed rows: the children that the
    walk stepped into, or read at a leaf, before the current one, in this
    frame and in the frames above. A passed row z is not in the prefix and is
    independent of the prefix rows below it. Each step updates the passed
    rows as it updates the later rows, and the step to a leaf reads their
    points as it reads the later rows'. When z's residual is zero in every
    column, or its point is 0, z lies in the span of the new prefix and
    reads 0 on every line below it; each of those lines then has a greedy
    basis that holds z, which this prefix does not start, so the subtree or
    leaf is skipped. Zero in the first `ncols` columns alone is not enough:
    with ncols < width, such a z need not read 0 on the point. A skipped
    child i is not passed: z = p + t y_i with p in the span of the prefix
    and t != 0, so z falls into every span that i falls into. A greedy
    prefix is never skipped, so the first certificate of each line is its
    greedy basis, the lines first come in ascending order of it, and those
    firsts are the ones a walk that skips nothing would give. Different
    prefixes may still yield the same line, with another certificate, when
    the rows they passed that read 0 on it lie outside their span.

    With k = 2 the empty prefix is the leaf, and each row is its own r. With
    k = 1 the empty prefix leaves the columns 0 and 1 free, and a row
    (a, b, ...) gives the line (b, -a), with the first such row as its
    certificate.
    """
    if k == 0:
        yield (1,), ()  # no row to choose: the one column is free
        return
    if k == 1:
        lines = {}
        for i, x in enumerate(rows):
            if x[0] or x[1] and 1 < ncols:
                lines.setdefault(_canonical((x[1], -x[0])), (i,))
        yield from lines.items()
        return
    if k == 2:  # K is the identity, so each line is its own `_canonical` vector
        points = {}
        for j, x in enumerate(rows):
            if any(x):
                points.setdefault(_canonical(x), j)
        yield from _pair_lines(points, 2, ncols).items()
        return
    later = [(j, x) for j, x in enumerate(rows) if any(x)]
    # frames[d]: the tableau of the prefix chosen[:d], as (later, passed, echelon rows,
    # pivots, det), and an iterator over the positions in `later` of the children still
    # to visit, each with k - d - 1 rows after it; `passed` holds the residuals of the
    # rows passed above and of the children of this frame not skipped so far
    frames = [(later, [], [], [], 1, iter(range(len(later) - k + 1)))]
    chosen = []
    while frames:
        later, passed, echelon, pivots, det, positions = frames[-1]
        depth = len(chosen)
        for pos in positions:
            i, y = later[pos]
            a = next(filter(None, y[:ncols]), 0)
            if not a:
                continue  # y depends on the prefix
            c = y.index(a)  # the first nonzero column: the ones before it hold 0
            if depth < k - 3:  # not yet the step to a leaf
                carried = []
                for z in passed:
                    e = z[c]
                    if e:
                        z = [(a * u - e * v) // det for u, v in zip(z, y)]
                        if not any(z):  # z is in the span of the new prefix
                            carried = None
                            break
                    elif a != det:
                        z = [a * u // det for u in z]
                    carried.append(z)
                if carried is None:
                    continue
                passed.append(y)
                tableau = []
                for j, z in later[pos + 1 :]:
                    e = z[c]
                    if e:
                        z = [(a * u - e * v) // det for u, v in zip(z, y)]
                        if not any(z):
                            continue
                    elif a != det:
                        z = [a * u // det for u in z]
                    tableau.append((j, z))
                steps = []
                for R in echelon:
                    e = R[c]
                    if e:
                        R = [(a * u - e * v) // det for u, v in zip(R, y)]
                    elif a != det:
                        R = [a * u // det for u in R]
                    steps.append(R)
                steps.append(y)
                frames.append((tableau, carried, steps, pivots + [c], a, iter(range(len(tableau) - k + depth + 2))))
                chosen.append(i)
                break
            f, g, h = (col for col in range(width) if col != c and col not in pivots)
            yf, yg, yh = y[f], y[g], y[h]
            if any(not (a * z[f] - z[c] * yf or a * z[g] - z[c] * yg or a * z[h] - z[c] * yh) for z in passed):
                continue  # a passed row's point is 0: it lies in the span of the leaf's prefix
            passed.append(y)
            Kf, Kg, Kh = [0] * width, [0] * width, [0] * width
            Kf[f] = Kg[g] = Kh[h] = a
            Kf[c], Kg[c], Kh[c] = -yf, -yg, -yh
            for R, p in zip(echelon, pivots):
                e = R[c]
                Kf[p], Kg[p], Kh[p] = (e * yf - a * R[f]) // det, (e * yg - a * R[g]) // det, (e * yh - a * R[h]) // det
            points = {}  # each point's first row, so in row order
            for j, z in later[pos + 1 :]:
                e = z[c]
                if e:  # r times det
                    u, v, w = a * z[f] - e * yf, a * z[g] - e * yg, a * z[h] - e * yh
                else:  # r times det / a
                    u, v, w = z[f], z[g], z[h]
                if u or v or w:  # `_canonical`, inline: (u or v or w) is the first nonzero entry
                    d = gcd(u, v, w) if (u or v or w) > 0 else -gcd(u, v, w)
                    points.setdefault((u // d, v // d, w // d), j)
            prefix = (*chosen, i)
            for (u, v, w), pair in _pair_lines(points, h, ncols).items():
                yield _canonical([u * kf + v * kg + w * kh for kf, kg, kh in zip(Kf, Kg, Kh)]), prefix + pair
        else:
            frames.pop()
            if chosen:
                chosen.pop()


def _pair_lines(
    points: dict[tuple[int, int, int], int], h: int, ncols: int
) -> dict[tuple[int, int, int], tuple[int, int]]:
    """The lines through pairs of `points`, in the coordinates (f, g, h) of a
    prefix's kernel, each with the first pair (i, j) of rows that gave it.

    `points` maps each `_canonical` point to its first row, in row order. Two
    distinct points r and s extend the prefix to a k-subset with the kernel
    line c = r x s, independent in the first `ncols` columns iff c_h != 0 or
    h < ncols; each c comes back `_canonical`, once, with the rows of the
    first pair that gave it, i < j.
    """
    items = list(points.items())
    lines = {}
    for j, ((a, b, c), ri) in enumerate(items):
        for (u, v, w), si in items[j + 1 :]:
            x, y, z = b * w - c * v, c * u - a * w, a * v - b * u
            if z or h < ncols:  # distinct points are not parallel, so x, y, z are not all 0
                d = gcd(x, y, z) if (x or y or z) > 0 else -gcd(x, y, z)
                lines.setdefault((x // d, y // d, z // d), (ri, si))
    return lines


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
    v, _ = _primitive(v)
    return v if det > 0 else [-k for k in v]


def _kernel(echelon: _Echelon, ncols: int) -> list[list[int]]:
    """The `_kernel_vector` of each free column among the first `ncols`, in order."""
    rows, pivots, det = echelon
    return [_kernel_vector(rows, pivots, det, free, ncols) for free in range(ncols) if free not in pivots]


def rank(M: Sequence[Sequence[Fraction]]) -> int:
    return len(_independent(_int_rows(M), len(M[0]))[0]) if M else 0


def kernel_basis(M: Sequence[Sequence[Fraction]], ncols: Optional[int] = None) -> list[Vector]:
    """Primitive integer basis of the null space, one vector per free column."""
    if ncols is None:
        if not M:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(M[0])
    return [tuple(map(Fraction, v)) for v in _kernel(_independent(_int_rows(M), ncols)[1], ncols)]


def solve(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Vector]:
    """One exact solution of M x = rhs, or None if inconsistent.

    Free coordinates are set to zero, so the result is deterministic.
    """
    if not M:
        return zero_vector(0) if is_zero(rhs) else None
    ncols = len(M[0])
    rows, pivots, det = _independent(_int_rows([tuple(row) + (r,) for row, r in zip(M, rhs)]), ncols + 1)[1]
    if ncols in pivots:  # pivot in the rhs column
        return None
    x = [ZERO] * ncols
    for R, p in zip(rows, pivots):
        x[p] = Fraction(R[ncols], det)
    return tuple(x)


def primitive(v: Sequence[Fraction]) -> Vector:
    """Scale by a positive rational so entries are coprime integers.

    The sign pattern is preserved; the zero vector maps to itself.
    """
    return tuple(map(Fraction, _primitive(_int_vector(v)[0])[0]))


def _canonical(v: Sequence[int]) -> Direction:
    """The primitive multiple of an integer vector whose first nonzero entry is positive.

    The zero vector maps to itself.
    """
    g = gcd(*v)
    if g and next(filter(None, v)) < 0:
        g = -g
    return tuple([x // g for x in v]) if g else tuple(v)


def canonicalize_direction(v: Sequence[Fraction]) -> Direction:
    """Canonical line representative, as ints: primitive with first nonzero entry > 0."""
    return _canonical(_int_vector(v)[0])
