import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polycircuits
from polycircuits import polyhedron
from polycircuits.circuits import basic_solutions, enumerate_circuits
from polycircuits.constructions import hypercube, simplex, transportation
from polycircuits.errors import (
    BudgetExceeded,
    CorrespondenceViolation,
    EmptyPolyhedron,
    NotPointed,
    PreconditionViolation,
)
from polycircuits.linalg import dot, matrix, primitive, vector
from polycircuits.polyhedron import (
    HPolyhedron,
    LinearMap,
    cartesian_product,
    dim,
    edge_directions,
    homogenize,
    implicit_equality_rows,
    is_pointed,
    lineality_basis,
    minimize_description,
    preimage_description,
    project,
    slack_standard_form,
    vrep,
    work_budget,
)


def normalized_rows(P):
    """Facet system as a set of (primitive normal, scaled rhs) pairs."""
    out = set()
    for row, rhs in zip(P.B, P.d):
        key = primitive(row)
        scale = next(x for x in row if x != 0) / next(x for x in key if x != 0)
        out.add((key, rhs / scale))
    return out


@pytest.mark.parametrize(
    "rows",
    [
        dict(A=((1, 0),), b=()),
        dict(B=((1, 0),), d=(1, 2)),
        dict(A=((1, 0, 0),), b=(0,)),
        dict(B=((-1, 0), (1,)), d=(0, 1)),
    ],
    ids=["A-vs-b", "B-vs-d", "A-row-length", "B-row-length"],
)
def test_mismatched_rows_raise_precondition_violation(rows):
    with pytest.raises(PreconditionViolation):
        HPolyhedron(2, **rows)


_MISMATCHED_DIMENSIONS = """
from polycircuits.constructions import hypercube
from polycircuits.errors import PreconditionViolation
from polycircuits.polyhedron import LinearMap, project

try:
    print("returned", project(hypercube(3), LinearMap(((1, 0, 0, 0), (0, 1, 0, 0)))))
except PreconditionViolation as exc:
    print("PreconditionViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_dimension_mismatch_is_precondition_violation(flags):
    # Not an assert: under -O, project would return the unit square.
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _MISMATCHED_DIMENSIONS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "PreconditionViolation: map has domain dimension 4, polyhedron has dimension 3",
    ]


_TYPED_ERRORS = """
from polycircuits.errors import CorrespondenceViolation, PreconditionViolation
from polycircuits.polyhedron import HPolyhedron, _Eliminator, slack_standard_form

dependent = HPolyhedron.make(2, A=[[1, 0], [2, 0]], b=[0, 0], B=[[0, -1]], d=[0])
for call in (lambda: _Eliminator(2, [], []).result(3), lambda: slack_standard_form(dependent)):
    try:
        print("returned", call())
    except (CorrespondenceViolation, PreconditionViolation) as exc:
        print(type(exc).__name__ + ":", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_eliminator_and_slack_form_checks_are_typed_errors(flags):
    # Not asserts: under -O the eliminator would return a polyhedron of the
    # wrong dimension and slack_standard_form a system with dependent rows.
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _TYPED_ERRORS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "CorrespondenceViolation: 2 variables left after elimination, expected 3",
        "PreconditionViolation: slack_standard_form needs independent equality rows",
    ]


_EMPTY_INPUTS = """
from polycircuits.errors import EmptyPolyhedron
from polycircuits.polyhedron import HPolyhedron, dim, implicit_equality_rows, minimize_description

inputs = (
    ("0 <= -1 in R^0", HPolyhedron.make(0, B=[[]], d=[-1])),
    ("0 <= -1 in R^2", HPolyhedron.make(2, B=[[1, 0], [0, 0]], d=[1, -1])),
    ("x1 = 0 and x1 = 1", HPolyhedron.make(2, A=[[1, 0], [1, 0]], b=[0, 1], B=[[0, 1]], d=[1])),
    ("R^0", HPolyhedron.make(0)),
)
for name, P in inputs:
    for f in (implicit_equality_rows, dim, minimize_description):
        try:
            print(name, f.__name__, "returned", f(P))
        except EmptyPolyhedron as exc:
            print(name, f.__name__, "EmptyPolyhedron:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_empty_inputs_raise_empty_polyhedron(flags):
    # The implicit-row rounds start from a feasible point, so an empty
    # polyhedron must raise its typed error before any round, also under
    # -O: a contradictory zero row in R^0 or R^2, and inconsistent equality
    # rows. R^0 with no rows is a point and returns normally.
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _EMPTY_INPUTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    empty = [
        f"{name} {f} EmptyPolyhedron: polyhedron is empty"
        for name in ("0 <= -1 in R^0", "0 <= -1 in R^2", "x1 = 0 and x1 = 1")
        for f in ("implicit_equality_rows", "dim", "minimize_description")
    ]
    assert proc.stdout.splitlines() == empty + [
        "R^0 implicit_equality_rows returned ()",
        "R^0 dim returned 0",
        "R^0 minimize_description returned HPolyhedron(n=0, A=(), b=(), B=(), d=(), name='')",
    ]


def unit_square():
    return HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 0], [0, 1]], d=[0, 0, 1, 1])


def orthant(n):
    return HPolyhedron.make(n, B=[[-1 if j == i else 0 for j in range(n)] for i in range(n)], d=[0] * n)


PI34 = LinearMap(matrix=matrix([[2, 1, 0, 0], [0, 0, 2, 1], [0, 1, 0, 1]]))

# Eliminating y from {x = PI34 y, y >= 0} by hand: substitute
# y1=(x1-y2)/2, y3=(x2-y4)/2, y2=x3-y4, then Fourier-Motzkin on y4 gives
# max(0, x3-x1) <= y4 <= min(x2, x3), i.e. exactly these four facets.
R3_ROWS = {
    (vector([-1, 0, 0]), Fraction(0)),
    (vector([0, -1, 0]), Fraction(0)),
    (vector([0, 0, -1]), Fraction(0)),
    (vector([-1, -1, 1]), Fraction(0)),
}


def test_dim_and_implicit_equalities():
    assert dim(unit_square()) == 2
    # x <= 0 and -x <= 0 pin the first coordinate
    P = HPolyhedron.make(2, B=[[1, 0], [-1, 0], [0, 1], [0, -1]], d=[0, 0, 1, 0])
    assert implicit_equality_rows(P) == (0, 1)
    assert dim(P) == 1
    point = HPolyhedron.make(2, A=[[1, 0], [0, 1]], b=[3, 4])
    assert dim(point) == 0


def test_dim_raises_on_empty():
    empty = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0])
    with pytest.raises(EmptyPolyhedron):
        dim(empty)


def test_minimize_drops_redundant_and_promotes_implicit():
    P = HPolyhedron.make(
        2,
        B=[[1, 0], [-1, 0], [0, 1], [0, -1], [2, 2], [1, 1]],
        d=[0, 0, 1, 0, 10, 7],
    )
    M = minimize_description(P)
    assert len(M.A) == 1 and primitive(M.A[0]) == vector([1, 0])
    assert normalized_rows(M) == {
        (vector([0, 1]), Fraction(1)),
        (vector([0, -1]), Fraction(0)),
    }


def test_minimize_keeps_duplicate_row_once():
    P = HPolyhedron.make(1, B=[[-1], [-2], [1]], d=[0, 0, 5])
    M = minimize_description(P)
    assert normalized_rows(M) == {(vector([-1]), Fraction(0)), (vector([1]), Fraction(5))}


def test_pointedness_and_lineality():
    assert is_pointed(unit_square())
    slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])
    assert not is_pointed(slab)
    assert lineality_basis(slab) == [vector([0, 1])]


def test_vrep_square_and_orthant():
    V = vrep(unit_square())
    assert V.vertices == tuple(sorted(vector(v) for v in [(0, 0), (0, 1), (1, 0), (1, 1)]))
    assert V.rays == ()
    V3 = vrep(orthant(3))
    assert V3.vertices == (vector([0, 0, 0]),)
    assert set(V3.rays) == {vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])}


# The homogenization cone of a polyhedron with no equality rows holds a
# vertex x as the ray (-x, 1) (`polyhedron._vrep`).
CUT_SQUARE = HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 0], [0, 1], [2, 2]], d=[0, 0, 1, 1, 3])


@pytest.mark.parametrize(
    "P, bad, message",
    [
        # (0, 0, 1) + (-1, 0, 1), the rays of the adjacent vertices (0, 0)
        # and (1, 0): the midpoint (1/2, 0) of their edge, one tight row
        (unit_square(), [-1, 0, 2], "vertex line (2, 1, 0) is not a vertex"),
        # (1, 1), tight on x <= 1 and y <= 1 (rank 2), violates 2x + 2y <= 3
        (CUT_SQUARE, [-1, -1, 1], "vertex line (1, 1, 1) is off the polyhedron or off its carried tight set"),
    ],
    ids=["not-extreme", "negative-slack"],
)
def test_a_wrong_vertex_is_a_correspondence_violation(monkeypatch, P, bad, message):
    # Every ray of the cone's double description with t > 0 must be a point
    # of P whose tight rows reach rank n'; one bad ray among the correct ones,
    # with the mask of the rows that read 0 on it, is reported by the check
    # it fails: the rank pass, or the slacks, which `_image_vrep`'s vertices
    # meet in the same words.
    extreme_rays = polyhedron._extreme_rays

    def with_bad_ray(rows, width):
        rays, masks = extreme_rays(rows, width)
        assert [0, 0, 1] in rays and [-1, 0, 1] in rays and bad not in rays
        return rays + [bad], masks + [sum(1 << i for i, row in enumerate(rows) if dot(row, bad) == 0)]

    monkeypatch.setattr(polyhedron, "_extreme_rays", with_bad_ray)
    with pytest.raises(CorrespondenceViolation, match=re.escape(message)):
        vrep(P)


_WRONG_DD_MASKS = """
from polycircuits import polyhedron
from polycircuits.constructions import hypercube
from polycircuits.errors import CorrespondenceViolation

extreme_rays = polyhedron._extreme_rays

# the cone's rows are the t-row and the square's rows -x <= 0, -y <= 0,
# x <= 1, y <= 1, so the vertex (0, 0), the ray (0, 0, 1), is tight on
# bits 1 and 2: bit 3 is set on it, or bit 1 cleared
for name, change in (("set", lambda m: m | 1 << 3), ("cleared", lambda m: m & ~(1 << 1))):
    def wrong(rows, width, change=change):
        rays, masks = extreme_rays(rows, width)
        k = rays.index([0, 0, 1])
        masks[k] = change(masks[k])
        return rays, masks

    polyhedron._extreme_rays = wrong
    try:
        print(name, "returned", polyhedron.vrep(hypercube(2)))
    except CorrespondenceViolation as exc:
        print(name, "CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_wrong_double_description_mask_is_a_correspondence_violation(flags):
    # Every mask the double description returns is read again on the slacks
    # of its line (`_certified_vrep`), also under -O: a bit set on a row the
    # vertex is slack on, or cleared on a row it is tight on, raises.
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _WRONG_DD_MASKS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{name} CorrespondenceViolation: vertex line (1, 0, 0) is off the polyhedron or off its carried tight set"
        for name in ("set", "cleared")
    ]


_WRONG_KERNEL = """
from functools import cached_property

from polycircuits import polyhedron
from polycircuits.circuits import basic_solutions, enumerate_circuits
from polycircuits.constructions import transportation
from polycircuits.errors import CorrespondenceViolation

reduced = polyhedron._IntRows.reduced.func


def doubled(self):
    K, R, np_ = reduced(self)
    return [[2 * v[0], *v[1:]] for v in K], R, np_


wrong = cached_property(doubled)
wrong.__set_name__(polyhedron._IntRows, "reduced")
polyhedron._IntRows.reduced = wrong
for f in (polyhedron.vrep, basic_solutions, enumerate_circuits):
    try:
        f(transportation(5, 2, (1, 4)))
        print(f.__name__, "returned")
    except CorrespondenceViolation as exc:
        print(f.__name__, "CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_wrong_kernel_is_a_correspondence_violation(flags):
    # Every vector a walk maps back from kernel coordinates is checked on
    # the equality rows (`_IntRows.lift`), also under -O: with the first
    # entry of every kernel vector doubled, some vertex, basic solution and
    # circuit of the transportation polytope leaves A x = b, and each walk
    # raises instead of returning it.
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _WRONG_KERNEL],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["vrep", "basic_solutions", "enumerate_circuits"]
    for line in lines:
        assert re.fullmatch(r"\w+ CorrespondenceViolation: lifted vector \(.*\) leaves the equality rows", line), line


@pytest.mark.parametrize(
    "P",
    [
        transportation(5, 2, (1, 4)),
        homogenize(simplex(3)),
        HPolyhedron.make(2, B=[[-1, 0], [0, -1], [-1, -1]], d=[0, 0, -1]),
    ],
    ids=["transportation", "cone", "no-equality-rows"],
)
def test_int_rows_line_names_points_and_rays(P):
    # `_IntRows.line` is the one map back from kernel coordinates: v and -v
    # name the same point, whose line has den > 0, and a v with t = 0 names
    # a ray r with B r <= 0; every vertex, ray and basic solution of P comes
    # out of it. With no equality rows `lift` is the identity.
    ints = P._ints
    _, R, np_ = ints.reduced
    V, lines = vrep(P), basic_solutions(P).lines
    cone, _ = polyhedron._extreme_rays([[0] * np_ + [1], *R], np_ + 1)
    basic = {v for v, _ in polyhedron._subset_lines(R, np_, np_, np_ + 1)}
    points = [(v, V.lines) for v in cone if v[np_]] + [(v, lines) for v in basic if v[np_]]
    rays = [v for v in cone if not v[np_]]
    assert len(points) == len(V.lines) + len(lines) and len(rays) == len(V.rays)
    for v, named in points:
        line = ints.line(v)
        assert line[0] > 0 and line == ints.line([-x for x in v]) and line in named
    for v in rays:
        line = ints.line(v)
        assert line[0] == 0 and line[1:] in V.rays
        assert all(dot(row, line[1:]) <= 0 for row in P.B)
    if not ints.A:
        assert all(ints.lift(v) == v for v in cone)


def test_vrep_requires_pointed():
    slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])
    with pytest.raises(NotPointed):
        vrep(slab)


def test_adjacency_on_square():
    # (0, 0) and (1, 0) span an edge; the diagonal to (1, 1) does not
    sq = unit_square()
    assert vector([1, 0]) in edge_directions(sq)
    assert vector([1, 1]) not in edge_directions(sq)


def test_edge_directions_square_and_cone():
    assert set(edge_directions(unit_square())) == {vector([1, 0]), vector([0, 1])}
    R3 = HPolyhedron.make(3, B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, 1]], d=[0] * 4)
    assert set(edge_directions(R3)) == {
        vector([1, 0, 0]),
        vector([0, 1, 0]),
        vector([1, 0, 1]),
        vector([0, 1, 1]),
    }


def test_each_description_is_walked_once(monkeypatch):
    # the circuit walk and the vertices are cached on the description, one
    # `_subset_lines` call and one double description, however often the
    # public API asks
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for fn in (polyhedron._subset_lines, polyhedron._extreme_rays):
        monkeypatch.setattr(polyhedron, fn.__name__, counting(fn))
    P = cartesian_product(unit_square(), HPolyhedron.make(1, B=[[-1], [1]], d=[0, 1]))
    assert len(enumerate_circuits(P)) == 3
    assert len(vrep(P).vertices) == 8
    assert len(edge_directions(P)) == 3
    assert len(vrep(P).vertices) == 8
    assert sorted(calls) == ["_extreme_rays", "_subset_lines"]


def test_a_walk_that_raises_is_not_cached():
    P = cartesian_product(unit_square(), unit_square())
    with work_budget(0), pytest.raises(BudgetExceeded):
        enumerate_circuits(P)
    assert enumerate_circuits(P) == enumerate_circuits(P.renamed("copy"))
    # a cache hit charges no budget
    with work_budget(0):
        assert len(enumerate_circuits(P)) == 4


def test_edge_walk_is_cached_and_a_raising_one_is_not():
    P = cartesian_product(unit_square(), unit_square())
    with work_budget(0), pytest.raises(BudgetExceeded):
        edge_directions(P)
    first = edge_directions(P)
    assert len(first) == 4
    # a cache hit runs no walk and charges no budget
    with work_budget(0):
        assert edge_directions(P) is first
    assert edge_directions(P.renamed("copy")) == first


def test_vertex_pairs_are_charged_to_the_budget():
    # hypercube(8): the double description tests 255 ray pairs and passes
    # the cap; its 256 vertices make comb(256, 2) = 32,640 pairs, which do not
    P = hypercube(8)
    with work_budget(20000), pytest.raises(BudgetExceeded) as exc:
        edge_directions(P)
    assert str(exc.value) == "vertex pairs: 32640 candidates exceed budget 20000"
    # the vertex walk that ran before the pairs were charged stays cached
    with work_budget(0):
        assert len(vrep(P).lines) == 256


def test_double_description_pairs_are_charged_to_the_budget():
    # hypercube(10): adding x_k <= 1 pairs each of the 2^(k-1) vertices found
    # so far with the ray e_k, 1 + 2 + ... + 512 = 1,023 pairs in all, where a
    # walk of the basic points would visit comb(20, 10) = 184,756 subsets
    P = hypercube(10)
    with work_budget(1022), pytest.raises(BudgetExceeded) as exc:
        vrep(P)
    assert str(exc.value) == "double description pairs: 1023 candidates exceed budget 1022"
    assert len(vrep(P).lines) == 1024
    assert len(edge_directions(P)) == 10


def test_project_orthant_through_pi34():
    R3 = project(orthant(4), PI34)
    assert R3.A == ()
    assert normalized_rows(R3) == R3_ROWS
    assert minimize_description(R3) == R3


def test_project_simplex_through_pi34():
    S4 = HPolyhedron.make(
        4,
        B=[[-1 if j == i else 0 for j in range(4)] for i in range(4)] + [[1, 1, 1, 1]],
        d=[0, 0, 0, 0, 1],
    )
    P3 = project(S4, PI34)
    assert normalized_rows(P3) == R3_ROWS | {(vector([1, 1, 1]), Fraction(2))}
    assert minimize_description(P3) == P3
    V = vrep(P3)
    assert V.rays == ()
    assert set(V.vertices) == {
        vector(v) for v in [(0, 0, 0), (2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)]
    }


def test_project_composes():
    drop_last = LinearMap(matrix=matrix([[1, 0, 0], [0, 1, 0]]))
    first = project(orthant(4), PI34)
    second = project(first, drop_last)
    assert normalized_rows(second) == {
        (vector([-1, 0]), Fraction(0)),
        (vector([0, -1]), Fraction(0)),
    }
    assert minimize_description(second) == second


def test_project_lower_dimensional_image_is_minimal():
    # y1 = y2 only as two opposite inequalities: the image promotes them to
    # the one equality row (1, -1) and keeps the two bounds on y1
    Q = HPolyhedron.make(2, B=[[1, -1], [-1, 1], [-1, 0], [1, 0]], d=[0, 0, 0, 1])
    P = project(Q, LinearMap(matrix=matrix([[1, 0], [0, 1]])))
    assert P.A == (vector([1, -1]),) and P.b == vector([0])
    assert normalized_rows(P) == {(vector([-1, 0]), Fraction(0)), (vector([1, 0]), Fraction(1))}
    assert minimize_description(P) == P


def test_project_empty_raises():
    empty = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0])
    with pytest.raises(EmptyPolyhedron):
        project(empty, LinearMap(matrix=matrix([[1]])))


def test_cartesian_product_blocks():
    P = cartesian_product(unit_square(), orthant(1))
    assert P.n == 3
    assert len(P.B) == 5
    assert P.B[4] == vector([0, 0, -1])


def test_homogenize_layout():
    S2 = HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 1]], d=[0, 0, 1])
    H = homogenize(S2)
    assert H.n == 3 and H.A == ()
    assert H.B[0] == vector([-1, 0, 0])  # t >= 0 first
    assert H.B[3] == vector([-1, 1, 1])  # x1 + x2 <= t
    assert all(x == 0 for x in H.d)


def test_homogenize_with_equalities():
    P = HPolyhedron.make(2, A=[[1, 1]], b=[1], B=[[-1, 0]], d=[0])
    H = homogenize(P)
    assert H.A == (vector([-1, 1, 1]),)
    assert H.b == vector([0])


def test_slack_standard_form_triangle():
    S2 = HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 1]], d=[0, 0, 1])
    S = slack_standard_form(S2)
    assert S.n == 3
    assert S.A == (vector([1, 1, 1]),) and S.b == vector([1])
    assert normalized_rows(S) == {
        (vector([-1, 0, 0]), Fraction(0)),
        (vector([0, -1, 0]), Fraction(0)),
        (vector([0, 0, -1]), Fraction(0)),
    }
    # the slack map x -> d - B x sends the vertices (1, 0) and (0, 0) to
    # (1, 0, 0) and (0, 0, 1)
    assert S.contains(vector([1, 0, 0]))
    assert S.contains(vector([0, 0, 1]))


def test_affine_image_and_preimage_roundtrip():
    sq = unit_square()
    tau = LinearMap(matrix=matrix([[1, 1], [0, 1]]))
    img = project(sq, tau)
    for v in vrep(sq).vertices:
        assert img.contains(tau(v))
    assert not img.contains(tau(vector([2, 2])))
    assert set(vrep(preimage_description(img, tau)).vertices) == set(vrep(sq).vertices)

    pre = preimage_description(sq, tau)
    assert pre.contains(vector([1, 0]))  # tau -> (1, 0), inside
    assert not pre.contains(vector([2, 0]))


def test_int_rows_counts_are_pinned(monkeypatch):
    # Every rational vector becomes integers through `linalg._int_vector`
    # (`_int_rows` maps it over rows). A description's rows become integers
    # once, one call per row, in its `_ints` view: 4 here, the domain's. The
    # image gets its view from the eliminator's integer rows, and keeps it
    # through the promotion of its implicit equalities, with no call. The
    # map is converted once, in `LinearMap._ints`, and its graph rows,
    # generators and direction images are read off that view; the
    # generators' vertices come as integer lines from the vertex walk, and
    # the image's vertices from the generators. The other call converts the
    # map. So rescaling the rows of a description that already has its view
    # adds calls, and a change that does so must update this count on purpose.
    from polycircuits import constructions, linalg, lp, polyhedron
    from polycircuits.constructions import orthant, pi_matrix
    from polycircuits.inheritance import check_inheritance

    calls = []
    scale = linalg._int_vector

    def counting(v):
        calls.append(v)
        return scale(v)

    for module in (linalg, polyhedron, lp, constructions):
        monkeypatch.setattr(module, "_int_vector", counting)
    check_inheritance(orthant(4), pi_matrix(3, 4))
    assert len(calls) == 5
