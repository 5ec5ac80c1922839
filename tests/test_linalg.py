import random
from fractions import Fraction
from math import gcd

import pytest

from polycircuits import linalg
from polycircuits.linalg import (
    canonicalize_direction,
    dot,
    identity,
    is_zero,
    kernel_basis,
    mat_vec,
    matmul,
    matrix,
    primitive,
    rank,
    solve,
    transpose,
    unit_vector,
    vector,
)

# 3x4 test matrix; expected values below were obtained by hand elimination:
# divide row 1 by 2, swap rows 2/3 to pivot on column 2, clear, then scale
# the remaining row.
M34 = matrix([[2, 1, 0, 0], [0, 0, 2, 1], [0, 1, 0, 1]])
M34_RREF = matrix([["1", "0", "0", "-1/2"], [0, 1, 0, 1], [0, 0, 1, "1/2"]])


def test_rref_hand_eliminated():
    # the fraction-free echelon form over its det, rows in pivot order
    rows, pivots, det = linalg._independent(linalg._int_rows(M34), 4)[1]
    assert sorted(pivots) == [0, 1, 2]
    R = sorted(zip(pivots, rows))
    assert tuple(tuple(Fraction(x, det) for x in row) for _, row in R) == M34_RREF
    # M34 read as [M | rhs]: its last RREF column is the solution
    assert solve([row[:3] for row in M34], [row[3] for row in M34]) == tuple(row[3] for row in M34_RREF)


def test_kernel_of_m34_is_one_dimensional():
    # Solving 2a+b=0, 2c+d=0, b+d=0 by hand gives (a, -2a, -a, 2a).
    assert kernel_basis(M34) == [vector([1, -2, -1, 2])]


def test_kernel_dimension_and_membership():
    M = matrix([[1, 1, -1]])
    basis = kernel_basis(M)
    assert len(basis) == 2
    for v in basis:
        assert is_zero(mat_vec(M, v))
        assert v == primitive(v)


def test_rank_of_padded_block_matrix():
    M46 = matrix(
        [
            [2, 1, 0, 0, 0, 0],
            [0, 0, 2, 1, 0, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 0, 0, 2, 0],
        ]
    )
    assert rank([row[:5] for row in M46]) == 4
    assert rank(M46) == 4
    assert kernel_basis(M46) == [vector([1, -2, -1, 2, 0, 0]), vector([0, 0, 0, 0, 0, 1])]


@pytest.mark.parametrize("seed", range(20))
def test_rank_nullity_on_random_matrices(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    M = matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
    basis = kernel_basis(M)
    assert rank(M) + len(basis) == n
    for v in basis:
        assert is_zero(mat_vec(M, v))
    # basis vectors are independent
    assert rank(basis) == len(basis) if basis else True


@pytest.mark.parametrize("seed", range(20))
def test_solve_returns_exact_solution(seed):
    rng = random.Random(100 + seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    M = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
    x0 = vector([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)])
    rhs = mat_vec(M, x0)
    x = solve(M, rhs)
    assert x is not None
    assert mat_vec(M, x) == rhs


def test_solve_detects_inconsistency():
    M = matrix([[1, 1], [2, 2]])
    assert solve(M, vector([1, 3])) is None
    assert solve(M, vector([1, 2])) == vector(["1", "0"])


def test_primitive_and_canonical_forms():
    assert primitive(vector(["1/2", "-1/3"])) == vector([3, -2])
    assert canonicalize_direction(vector([0, -4, 2])) == vector([0, 2, -1])
    assert canonicalize_direction(vector(["-2/3", 0, 2])) == vector([1, 0, -3])
    assert canonicalize_direction(vector([0, 0])) == vector([0, 0])


def test_matmul_against_identity_and_transpose():
    assert matmul(M34, identity(4)) == M34
    assert transpose(transpose(M34)) == M34
    assert dot(unit_vector(4, 1), M34[0]) == 1


def test_row_space_basis_keeps_lowest_indices():
    M = matrix([[1, 0], [2, 0], [0, 1], [1, 1]])
    assert linalg._independent(linalg._int_rows(M), 2)[0] == [0, 2]


# ---------------------------------------------------------------------------
# The integer kernel against a Fraction reference.
#
# `_ref_rref` is a plain Gauss-Jordan elimination over Fractions: scale the
# pivot row to 1, then clear the column in every other row. The other
# references are built on it, so every public result of the fraction-free
# kernel is checked against an elimination that never leaves Fraction.


def _ref_rref(M):
    rows = [list(r) for r in M]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
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


def _ref_rank(M):
    return len(_ref_rref(M)[1])


def _ref_kernel_directions(M, ncols):
    """(free column, null-space vector with 1 there) for each free column."""
    R, pivots = _ref_rref(M)
    out = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][free]
        out.append((free, v))
    return out


def _ref_solve(M, rhs):
    ncols = len(M[0])
    R, pivots = _ref_rref([list(row) + [b] for row, b in zip(M, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = R[r][ncols]
    return tuple(x)


def _ref_row_space_basis_indices(M):
    idx = []
    for i in range(len(M)):
        if _ref_rank([M[j] for j in idx] + [M[i]]) > len(idx):
            idx.append(i)
    return idx


def _ref_dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def _entry(rng):
    k = rng.random()
    if k < 0.3:
        return Fraction(0)
    if k < 0.65:
        return Fraction(rng.randint(-6, 6))
    return Fraction(rng.randint(-12, 12), rng.randint(1, 9))


def _random_matrix(rng):
    """Fractional entries, wide or tall, with zero, repeated and scaled rows."""
    if rng.random() < 0.5:
        m, n = rng.randint(1, 4), rng.randint(4, 8)
    else:
        m, n = rng.randint(4, 8), rng.randint(1, 4)
    rows = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        src, dst = rng.sample(range(m), 2)
        scale = rng.choice([Fraction(1), Fraction(-2, 3), Fraction(0)])
        rows[dst] = [scale * x for x in rows[src]]
    if rng.random() < 0.25:
        zero = rng.randrange(n)
        for row in rows:
            row[zero] = Fraction(0)
    return matrix(rows)


def _assert_fractions(values):
    assert all(type(x) is Fraction for x in values)


def _check_against_reference(M):
    n = len(M[0])
    rows, pivots, det = linalg._independent(linalg._int_rows(M), n)[1]
    R, ref_pivots = _ref_rref(M)
    assert sorted(pivots) == list(ref_pivots)
    assert [tuple(Fraction(x, det) for x in row) for _, row in sorted(zip(pivots, rows))] == list(R[: len(pivots)])
    assert rank(M) == _ref_rank(M)

    basis = kernel_basis(M)
    expected = _ref_kernel_directions(M, n)
    assert len(basis) == len(expected)
    for v, (free, u) in zip(basis, expected):
        _assert_fractions(v)
        # v is the primitive integer multiple of u with the same sign.
        assert v[free] > 0 and vector(v[free] * x for x in u) == v
        assert all(x.denominator == 1 for x in v) and gcd(*(int(x) for x in v)) == 1
        assert is_zero(mat_vec(M, v))

    # the rows picked, and their echelon form, which is that of every row
    # inserted in order and of the picked rows alone
    ints = linalg._int_rows(M)
    picked, echelon = linalg._independent(ints, n)
    assert picked == _ref_row_space_basis_indices(M)
    assert echelon == _insert_all(ints, n) == _insert_all([ints[i] for i in picked], n)


def _insert_all(rows, ncols):
    """Every row inserted in order with `_insert`, dependent rows skipped,
    with no stop at full rank."""
    echelon = linalg._EMPTY
    for x in rows:
        echelon = linalg._insert(*echelon, x, ncols) or echelon
    return echelon


@pytest.mark.parametrize("seed", range(25))
def test_integer_kernel_matches_fraction_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(40):
        M = _random_matrix(rng)
        _check_against_reference(M)
        n = len(M[0])
        x0 = vector(_entry(rng) for _ in range(n))
        for rhs in (mat_vec(M, x0), vector(_entry(rng) for _ in M)):
            x = solve(M, rhs)
            assert x == _ref_solve(M, rhs)
            if x is not None:
                _assert_fractions(x)
                assert mat_vec(M, x) == rhs
        assert solve(M, mat_vec(M, x0)) is not None
        for row in M:
            value = dot(row, x0)
            assert type(value) is Fraction and value == _ref_dot(row, x0)


def test_kernel_sign_with_negative_determinant():
    # One pivot, -2, so the scaled kernel vectors come out negated and must
    # be flipped back: x0 = x1 / 2 gives (1, 2, 0); x2 is free.
    M = matrix([[-2, 1, 0]])
    assert linalg._independent(linalg._int_rows(M), 3)[1][2] == -2
    assert kernel_basis(M) == [vector([1, 2, 0]), vector([0, 0, 1])]
    M = matrix([[0, -3, 1], ["1/2", 0, 2]])
    assert linalg._independent(linalg._int_rows(M), 3)[1][2] < 0
    _check_against_reference(M)


def test_dot_is_a_fraction_and_checks_lengths():
    assert type(dot((), ())) is Fraction and dot((), ()) == 0
    assert dot(vector(["1/2", "1/3", 0]), vector(["2/5", 3, 7])) == Fraction(6, 5)
    with pytest.raises(ValueError):
        dot(vector([1, 2]), vector([1]))
