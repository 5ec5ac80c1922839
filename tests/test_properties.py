"""Property tests of the canonical direction sets, their JSON form, the
simplex against vertex enumeration, and the integer row view of a
description against Fraction arithmetic.

A `CircuitSet` names each line through the origin by one primitive
integer vector whose first nonzero entry is positive, so it must not
depend on how its input vectors are scaled, signed, repeated or ordered.
On a polytope, the LP optimum is the best vertex, and `vrep` finds the
vertices by subset enumeration, with no LP. A description's integer
rows are positive multiples of its rows, so its slack tests must agree
with Fraction dot products. The subset walks behind circuits, basic
solutions, vertices and edges must agree with the per-subset references
of `test_subsets.py` on degenerate descriptions. The integer normalizers
of `linalg`, the syntactic redundancy pass and the integer images of a
`LinearMap` must agree with the Fraction formulas they replace, which
live here. The examples are derandomized, so every run checks the same
ones.
"""

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from polycircuits import jsonio
from polycircuits.circuits import basic_solutions, enumerate_circuits
from polycircuits.directions import CircuitSet
from polycircuits.errors import EmptyPolyhedron
from polycircuits.linalg import _int_vector, _primitive, _scaled_row, canonicalize_direction, dot
from polycircuits.lp import INFEASIBLE, OPTIMAL, lp_solve
from polycircuits.polyhedron import HPolyhedron, LinearMap, _distinct_rows, edge_directions, vrep
from test_subsets import (
    _check_basic_solution_set,
    _outcome,
    _ref_basic_solutions,
    _ref_edge_directions,
    _ref_enumerate_circuits,
    _ref_vrep,
    _vertices_and_rays,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100, database=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
scales = rationals.filter(lambda c: c != 0)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


# Several vectors of one dimension, zero vectors included.
families = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(vectors(n), min_size=0, max_size=6)
)


@PROPERTY
@given(families, st.data())
def test_of_ignores_scaling_sign_duplicates_and_order(vs, data):
    C = CircuitSet.of(vs)
    factors = data.draw(st.lists(scales, min_size=len(vs), max_size=len(vs)))
    rescaled = [tuple(c * x for x in v) for c, v in zip(factors, vs)]
    assert CircuitSet.of(rescaled) == C
    assert CircuitSet.of([tuple(-x for x in v) for v in vs]) == C
    assert CircuitSet.of(vs + vs[::-1]) == C
    assert CircuitSet.of(data.draw(st.permutations(vs))) == C
    assert CircuitSet.of(C) == C


@PROPERTY
@given(families)
def test_entries_are_primitive_ints_with_positive_lead(vs):
    C = CircuitSet.of(vs)
    assert list(C.directions) == sorted(set(C.directions))
    for g in C:
        assert type(g) is tuple and all(type(x) is int for x in g)
        assert gcd(*g) == 1
        assert next(x for x in g if x) > 0
    assert len(C) == len({canonicalize_direction(v) for v in vs if any(v)})


@PROPERTY
@given(families, st.data())
def test_membership_agrees_with_canonical_membership(vs, data):
    C = CircuitSet.of(vs[1:])
    probes = vs[:1] + [tuple(c * x for x in v) for c, v in zip([Fraction(-1, 3), 2], vs)]
    L = CircuitSet.subspace(vs[1:])
    for v in probes:
        assert (v in C) == (canonicalize_direction(v) in C)
        assert (v in L) == (canonicalize_direction(v) in L)
    for g in C:
        assert g in C


@PROPERTY
@given(families)
def test_json_writer_lists_the_canonical_int_tuples(vs):
    C, L = CircuitSet.of(vs), CircuitSet.subspace(vs)
    assert jsonio.circuits_to_dict(C) == {"directions": [list(g) for g in C.directions]}
    branch = "lineality" if L.is_subspace else "directions"
    assert jsonio.circuits_to_dict(L) == {branch: [list(g) for g in L.lineality]}


@st.composite
def cut_boxes(draw):
    """(objective, P): the box lo <= x <= lo + width, cut by up to three
    inequality rows and at most one equality row with rational entries.

    The bounds and right-hand sides take both signs, a zero width makes a
    flat box, and the cuts may empty it, so every row kind of the simplex
    start (slack, negated row, equality row) occurs.
    """
    n = draw(st.integers(1, 3))
    lo = draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n))
    width = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    B = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    B += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    d = [-x for x in lo] + [x + w for x, w in zip(lo, width)]
    cuts = draw(st.lists(st.tuples(vectors(n), rationals), max_size=3))
    equalities = draw(st.lists(st.tuples(vectors(n), rationals), max_size=1))
    P = HPolyhedron.make(
        n,
        A=[row for row, _ in equalities],
        b=[r for _, r in equalities],
        B=B + [row for row, _ in cuts],
        d=d + [r for _, r in cuts],
    )
    return draw(vectors(n)), P


@PROPERTY
@given(cut_boxes())
def test_lp_optimum_is_the_best_vertex(case):
    c, P = case
    res = lp_solve(c, P)
    try:
        V = vrep(P)
    except EmptyPolyhedron:
        assert res.status == INFEASIBLE
        return
    assert V.rays == ()
    assert res.status == OPTIMAL
    assert res.value == max(dot(c, v) for v in V.vertices)


@st.composite
def described_points(draw):
    """(P, x): rational rows whose right-hand sides put x on, inside or
    outside each row, so the slack tests see every case."""
    n = draw(st.integers(0, 3))
    x = draw(vectors(n))

    def rows(kinds):
        normals = draw(st.lists(vectors(n), max_size=4))
        offsets = draw(st.lists(st.sampled_from(kinds), min_size=len(normals), max_size=len(normals)))
        return normals, [dot(row, x) + off for row, off in zip(normals, offsets)]

    A, b = rows([Fraction(0), Fraction(0), Fraction(0), Fraction(1, 3)])
    B, d = rows([Fraction(0), Fraction(2, 3), Fraction(-1, 2)])
    return HPolyhedron.make(n, A=A, b=b, B=B, d=d), x


@PROPERTY
@given(described_points())
def test_integer_view_scales_each_row_and_keeps_every_slack(case):
    # Each view row is s * (row, rhs) for an integer s > 0, and the slack
    # tests that read the view agree with Fraction dot products.
    P, x = case
    ints = P._ints
    for (row, rhs), view_row, s in zip(zip(P.A + P.B, P.b + P.d), ints.A + ints.B, ints.scale):
        assert type(s) is int and s > 0
        assert all(type(v) is int for v in view_row)
        assert view_row == [s * v for v in (*row, rhs)]
    inside = all(dot(row, x) == rhs for row, rhs in zip(P.A, P.b))
    inside = inside and all(dot(row, x) <= rhs for row, rhs in zip(P.B, P.d))
    assert P.contains(x) == inside
    tight = tuple(i for i, (row, rhs) in enumerate(zip(P.B, P.d)) if dot(row, x) == rhs)
    assert P.tight_inequality_rows(x) == tight


@st.composite
def degenerate_descriptions(draw):
    """{A x = b, B x <= d} whose inequality rows crowd through one point.

    At least n inequality rows pass through the integer point x0, so x0 is
    often a degenerate vertex; a few more rows pass at some distance.
    Copies of drawn rows scaled by a positive or negative factor add
    duplicate, parallel and opposite rows, zero rows may be feasible or
    not, the equality rows pass through x0 or miss it, and the rows come
    in any order.
    """
    n = draw(st.integers(1, 4))
    x0 = [Fraction(v) for v in draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))]
    normals = st.lists(st.integers(-2, 2).map(Fraction), min_size=n, max_size=n).filter(any)

    def rows(count, offsets):
        rs = draw(st.lists(normals, min_size=count[0], max_size=count[1]))
        return [(r, dot(r, x0) + draw(st.sampled_from(offsets))) for r in rs]

    A = rows((0, 2), [0, 0, 0, 1])
    B = rows((n, n + 3), [0]) + rows((0, 3), [-1, 1, 1, 2])
    factors = st.sampled_from([Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(-3)])
    copies = st.lists(st.tuples(st.integers(0, 99), factors, st.sampled_from([0, 0, 1])), max_size=3)
    for i, c, off in draw(copies):
        r, rhs = B[i % len(B)]
        B.append(([c * v for v in r], c * rhs + off))
    zero_rhs = draw(st.lists(st.sampled_from([0, 1, -1]), max_size=1))
    B += [([Fraction(0)] * n, Fraction(rhs)) for rhs in zero_rhs]
    B = draw(st.permutations(B))
    return HPolyhedron.make(n, [r for r, _ in A], [v for _, v in A], [r for r, _ in B], [v for _, v in B])


@PROPERTY
@given(degenerate_descriptions())
def test_subset_walks_match_per_subset_references(P):
    assert enumerate_circuits(P) == _ref_enumerate_circuits(P)
    sols = _outcome(basic_solutions, P)
    assert sols == _outcome(_ref_basic_solutions, P)
    _check_basic_solution_set(sols)
    assert _outcome(_vertices_and_rays, P) == _outcome(_ref_vrep, P)
    assert _outcome(edge_directions, P) == _outcome(_ref_edge_directions, P)


# Vectors of length 0 to 4 with Fraction or int entries; zero and negative
# entries, and so zero vectors, occur.
mixed_vectors = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.one_of(rationals, st.integers(-6, 6)), min_size=n, max_size=n)
)
int_vectors = st.integers(0, 4).flatmap(lambda n: st.lists(st.integers(-12, 12), min_size=n, max_size=n))


def _ref_scaled_row(row):
    """The Fraction formula: the normal a and the rhs of [a | rhs], each over the gcd of a."""
    g = reduce(gcd, row[:-1], 0)
    return tuple(Fraction(x) / g for x in row[:-1]), Fraction(row[-1]) / g


def _ref_distinct_rows(B):
    """Group the nonzero rows by their `_ref_scaled_row` normal and keep, in
    order of each group's first row, the first row with the least scaled rhs."""
    seen = {}
    for i, row in enumerate(B):
        if any(row[:-1]):
            key, val = _ref_scaled_row(row)
            if key not in seen or val < seen[key][0]:
                seen[key] = (val, i)
    return [i for _, i in seen.values()]


@PROPERTY
@given(mixed_vectors)
def test_int_vector_writes_a_vector_over_the_lcm_of_its_denominators(v):
    num, den = _int_vector(v)
    assert type(den) is int and den == reduce(lcm, (Fraction(x).denominator for x in v), 1)
    assert all(type(x) is int for x in num)
    assert [Fraction(x, den) for x in num] == [Fraction(x) for x in v]


@PROPERTY
@given(int_vectors)
def test_primitive_is_a_coprime_positive_submultiple(v):
    w, g = _primitive(v)
    assert type(g) is int and g > 0
    assert [Fraction(x, g) for x in v] == w
    assert reduce(gcd, w, 0) == (1 if any(v) else 0)


@PROPERTY
@given(int_vectors.filter(lambda v: any(v[:-1])))
def test_scaled_row_equals_the_fraction_formula(row):
    normal, rhs = _scaled_row(row)
    assert (normal, rhs) == _ref_scaled_row(row)
    assert all(type(x) is Fraction for x in (*normal, rhs))


@st.composite
def parallel_rows(draw):
    """Integer rows [a | rhs], many of them positive or negative multiples
    of a few normals with assorted right-hand sides, zero rows included."""
    n = draw(st.integers(1, 3))
    normals = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=3))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(normals), st.sampled_from([-2, -1, 1, 2, 3]), st.integers(-6, 6)).map(
                lambda t: [t[1] * x for x in t[0]] + [t[2]]
            ),
            max_size=8,
        )
    )
    return rows + draw(st.lists(st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1), max_size=2))


@PROPERTY
@given(parallel_rows())
def test_distinct_rows_keeps_what_fraction_keys_keep(B):
    assert _distinct_rows(B) == _ref_distinct_rows(B)


def _ref_image_lines(M, dirs):
    """The Fraction formula: each nonzero image M g divided by its first nonzero entry."""
    lines = set()
    for g in dirs:
        image = [sum((Fraction(a) * x for a, x in zip(row, g)), Fraction(0)) for row in M]
        lead = next((x for x in image if x), None)
        if lead is not None:
            lines.add(tuple(x / lead for x in image))
    return lines


@st.composite
def maps_and_directions(draw):
    """A map with fractional and negative entries, zero rows and zero columns
    (0 x n included), and integer directions, the zero vector among them."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    M = [list(draw(vectors(n))) for _ in range(k)]
    for i in draw(st.sets(st.integers(0, k - 1), max_size=1)) if k else ():
        M[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=1)):
        for row in M:
            row[j] = Fraction(0)
    dirs = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple), max_size=6))
    return tuple(map(tuple, M)), dirs


@PROPERTY
@given(maps_and_directions())
def test_image_directions_are_the_fraction_image_lines(case):
    M, dirs = case
    C = LinearMap(M).image_directions(CircuitSet(directions=tuple(dirs)))
    assert list(C.directions) == sorted(set(C.directions))
    for c in C.directions:
        assert all(type(x) is int for x in c) and reduce(gcd, c, 0) == 1
        assert next(x for x in c if x) > 0
    assert {tuple(Fraction(x) / next(y for y in c if y) for x in c) for c in C.directions} == _ref_image_lines(M, dirs)
