"""Projection and implicit equalities against the routes they replaced.

`project` prunes once per Fourier-Motzkin step and LP-tests only rows no
earlier prune kept, then promotes the implicit equalities without a second
pruning pass; `implicit_equality_rows` runs an LP only for rows that no
witness point has shown slack. The references are the routes without
those reuses: one LP per row for implicit equalities, a full re-prune at
every step, and `minimize_description` on the eliminated rows. Both must
return exactly the same rows in the same order.
"""

import random
from fractions import Fraction

import pytest

from polycircuits import lp, polyhedron
from polycircuits.errors import EmptyPolyhedron
from polycircuits.linalg import dot, vector
from polycircuits.polyhedron import (
    HPolyhedron,
    LinearMap,
    implicit_equality_rows,
    minimize_description,
    project,
)


def _ref_implicit_rows(P):
    if not lp.is_feasible(P):
        raise EmptyPolyhedron(P.name or "polyhedron")
    return tuple(
        i for i, (row, rhs) in enumerate(zip(P.B, P.d)) if lp.is_implied(tuple(-x for x in row), -rhs, P)
    )


def _entry(rng):
    k = rng.random()
    if k < 0.35:
        return Fraction(0)
    if k < 0.8:
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _random_description(rng, n):
    """Rows around a point x0: tight, slack or violated there, pairs that
    pin a row to an implicit equality, scaled parallel copies, zero rows and
    equality rows through x0. Without a box around x0 many are unbounded.
    """
    x0 = [Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(n)]
    B, d = [], []
    if rng.random() < 0.5:
        for i in range(n):
            lo, hi = rng.randint(0, 2), rng.randint(0, 2)
            B += [[-(j == i) for j in range(n)], [int(j == i) for j in range(n)]]
            d += [-x0[i] + lo, x0[i] + hi]
    for _ in range(rng.randint(1, 5)):
        row = [_entry(rng) for _ in range(n)]
        at = dot(vector(row), vector(x0))
        kind = rng.random()
        if kind < 0.2:  # an implicit equality through x0
            B += [row, [-x for x in row]]
            d += [at, -at]
        elif kind < 0.3 and B:  # a scaled parallel copy, maybe looser
            i = rng.randrange(len(B))
            s = rng.choice([1, 2, Fraction(1, 3)])
            B.append([s * x for x in B[i]])
            d.append(s * d[i] + rng.choice([0, 0, 1]))
        elif kind < 0.35:  # 0 <= 0 or 0 <= 1
            B.append([0] * n)
            d.append(rng.randint(0, 1))
        else:
            B.append(row)
            d.append(at + rng.choice([0, 0, 1, Fraction(1, 2), 3, -1]))
    A = [[_entry(rng) for _ in range(n)] for _ in range(rng.choice([0, 0, 0, 1]))]
    b = [dot(vector(row), vector(x0)) for row in A]
    return HPolyhedron.make(n, A=A, b=b, B=B, d=d)


def _random_pair(rng):
    m = rng.randint(2, 4)
    Q = _random_description(rng, m)
    k = rng.randint(1, min(m, 3))
    pi = LinearMap(matrix=tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(m)) for _ in range(k)))
    return Q, pi


def _implicit_run(P):
    """implicit_equality_rows(P), or EmptyPolyhedron; also the LP statuses it saw."""
    statuses = []
    solve = lp.lp_solve

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        statuses.append(res.status)
        return res

    lp.lp_solve = recording
    try:
        return implicit_equality_rows(P), statuses
    except EmptyPolyhedron:
        return EmptyPolyhedron, statuses
    finally:
        lp.lp_solve = solve


@pytest.mark.parametrize("seed", range(10))
def test_implicit_equality_rows_match_per_row_reference(seed):
    rng = random.Random(6000 + seed)
    for _ in range(20):
        P = _random_description(rng, rng.randint(1, 4))
        got, _ = _implicit_run(P)
        try:
            ref = _ref_implicit_rows(P)
        except EmptyPolyhedron:
            ref = EmptyPolyhedron
        assert got == ref, P


def _project_run(monkeypatch, Q, pi, reprune=True):
    """project(Q, pi), with every prune checked against a full re-prune.

    Returns the projection, or EmptyPolyhedron, the rows it eliminated
    down to, and the number of rows each prune took as certified.
    """
    irredundant = polyhedron._irredundant_rows
    implicit = polyhedron._implicit_rows
    certified, eliminated = [], []

    def checked(n, A, B, flags=None):
        got = irredundant(n, A, B, flags)
        assert not reprune or got == irredundant(n, A, B)
        certified.append(sum(flags or ()))
        return got

    def capture(R, x):
        eliminated.append(R)
        return implicit(R, x)

    with monkeypatch.context() as patch:
        patch.setattr(polyhedron, "_irredundant_rows", checked)
        patch.setattr(polyhedron, "_implicit_rows", capture)
        try:
            return project(Q, pi), eliminated, certified
        except EmptyPolyhedron:
            return EmptyPolyhedron, eliminated, certified


@pytest.mark.parametrize("seed", range(10))
def test_project_matches_full_prune_and_minimize_reference(monkeypatch, seed):
    rng = random.Random(7000 + seed)
    for _ in range(20):
        Q, pi = _random_pair(rng)
        P, eliminated, _ = _project_run(monkeypatch, Q, pi)
        if P is EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                minimize_description(Q)
            continue
        # The route before: minimize_description on the eliminated rows.
        assert minimize_description(eliminated[0]) == P
        assert minimize_description(P) == P


def test_project_with_nothing_to_eliminate_prunes_once(monkeypatch):
    # A point in R^0 mapped to R^2: no variable to eliminate, yet the rows
    # (0 <= 1 twice, 0 <= 0) still go through the one redundancy pass.
    Q = HPolyhedron(n=0, B=((), (), ()), d=(Fraction(1), Fraction(1), Fraction(0)))
    pi = LinearMap(matrix=((), ()))
    P, eliminated, certified = _project_run(monkeypatch, Q, pi)
    assert certified == [0]
    assert P == minimize_description(eliminated[0])
    assert (P.A, P.b, P.B, P.d) == (((1, 0), (0, 1)), (0, 0), (), ())


def test_reference_descriptions_cover_every_case(monkeypatch):
    # The seeded inputs above have implicit equalities, rows a witness
    # point shows slack before their LP, unbounded LPs whose ray is the
    # witness, empty polyhedra, zero rows, and projections whose prunes
    # take rows as certified.
    seen = set()
    for seed in range(10):
        rng = random.Random(6000 + seed)
        for _ in range(20):
            P = _random_description(rng, rng.randint(1, 4))
            got, statuses = _implicit_run(P)
            if got is EmptyPolyhedron:
                seen.add("empty")
                continue
            if got:
                seen.add("implicit rows")
            if len(statuses) - 1 < len(P.B):
                seen.add("row settled by a witness")
            if lp.UNBOUNDED in statuses:
                seen.add("ray witness")
    for seed in range(10):
        rng = random.Random(7000 + seed)
        for _ in range(20):
            Q, pi = _random_pair(rng)
            P, _, certified = _project_run(monkeypatch, Q, pi, reprune=False)
            if P is EmptyPolyhedron:
                seen.add("empty projection")
                continue
            if any(certified):
                seen.add("certified rows")
            if P.A and any(len(row) for row in P.A):
                seen.add("projection with equality rows")
            if any(not any(row) for row in Q.B):
                seen.add("zero row")
    assert seen == {
        "empty", "implicit rows", "row settled by a witness", "ray witness",
        "empty projection", "certified rows", "projection with equality rows", "zero row",
    }, seen
