import random
from fractions import Fraction

import pytest

from polycircuits import lp
from polycircuits.errors import CorrespondenceViolation
from polycircuits.linalg import dot, vector
from polycircuits.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, is_feasible, is_implied, lp_solve
from polycircuits.polyhedron import HPolyhedron


def triangle():
    # x >= 0, y >= 0, x + y <= 1
    return HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 1]], d=[0, 0, 1])


def test_optimal_on_triangle():
    res = lp_solve([1, 1], triangle(), sense="max")
    assert res.status == OPTIMAL
    assert res.value == 1
    assert triangle().contains(res.point)
    assert dot(vector([1, 1]), res.point) == 1


def test_min_sense():
    res = lp_solve([1, 1], triangle(), sense="min")
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.point == vector([0, 0])


def test_unbounded_with_certified_ray():
    orthant = HPolyhedron.make(2, B=[[-1, 0], [0, -1]], d=[0, 0])
    res = lp_solve([1, 2], orthant, sense="max")
    assert res.status == UNBOUNDED
    assert all(x >= 0 for x in res.ray)
    assert dot(vector([1, 2]), res.ray) > 0


def test_infeasible():
    P = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0])  # x <= -1 and x >= 0
    assert lp_solve([1], P).status == INFEASIBLE
    assert not is_feasible(P)


def test_equality_rows():
    P = HPolyhedron.make(2, A=[[1, 1]], b=[1], B=[[-1, 0], [0, -1]], d=[0, 0])
    res = lp_solve([1, 0], P, sense="max")
    assert res.status == OPTIMAL
    assert res.value == 1 and res.point == vector([1, 0])


def test_redundant_equality_rows_are_tolerated():
    P = HPolyhedron.make(2, A=[[1, 1], [2, 2]], b=[1, 2], B=[[-1, 0], [0, -1]], d=[0, 0])
    assert lp_solve([0, 1], P, sense="max").value == 1


def test_inconsistent_equality_rows():
    P = HPolyhedron.make(2, A=[[1, 1], [2, 2]], b=[1, 3])
    assert lp_solve([0, 1], P).status == INFEASIBLE


def test_is_implied():
    assert is_implied(vector([1, 1]), Fraction(2), triangle())
    assert is_implied(vector([1, 1]), Fraction(1), triangle())
    assert not is_implied(vector([1, 0]), Fraction(1, 2), triangle())
    # vacuous on an empty region
    empty = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0])
    assert is_implied(vector([1]), Fraction(-100), empty)


def test_degenerate_vertex_terminates():
    # four facets through one point force degenerate pivots
    P = HPolyhedron.make(
        2, B=[[-1, 0], [0, -1], [-1, -1], [1, 1], [1, 0], [0, 1]], d=[0, 0, 0, 2, 1, 1]
    )
    res = lp_solve([1, 1], P, sense="max")
    assert res.status == OPTIMAL and res.value == 2


def test_free_variable_lp():
    # single inequality in R^2: max along the normal hits the facet
    P = HPolyhedron.make(2, B=[[1, 1]], d=[3])
    res = lp_solve([1, 1], P, sense="max")
    assert res.status == OPTIMAL and res.value == 3
    assert lp_solve([1, -1], P, sense="max").status == UNBOUNDED


def test_no_constraints():
    P = HPolyhedron.make(2)
    assert lp_solve([0, 0], P).status == OPTIMAL
    assert lp_solve([1, 0], P).status == UNBOUNDED


@pytest.mark.parametrize("seed", range(30))
def test_random_boxes_with_cuts(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    B = [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    B += [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    d = [0] * n + [rng.randint(1, 5) for _ in range(n)]
    for _ in range(rng.randint(0, 3)):
        B.append([rng.randint(-3, 3) for _ in range(n)])
        d.append(rng.randint(0, 6))  # keeps the origin feasible
    P = HPolyhedron.make(n, B=B, d=d)
    c = [rng.randint(-4, 4) for _ in range(n)]
    res = lp_solve(c, P, sense="max")
    # bounded feasible region: always optimal, never raises a certificate error
    assert res.status == OPTIMAL
    assert P.contains(res.point)


def test_malformed_call_raises_value_error():
    with pytest.raises(ValueError):
        lp_solve([1, 1, 1], triangle())
    with pytest.raises(ValueError):
        lp_solve([1, 1], triangle(), sense="maximize")


@pytest.mark.parametrize(
    "poly",
    [triangle(), HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0])],
    ids=["optimal", "infeasible"],
)
def test_singular_certificate_basis_is_a_correspondence_violation(monkeypatch, poly):
    # The dual and Farkas multipliers come from `solve` on the final basis;
    # a basis it reports singular must fail the check, also under -O.
    monkeypatch.setattr(lp, "solve", lambda M, rhs: None)
    with pytest.raises(CorrespondenceViolation):
        lp_solve([1] * poly.n, poly)
