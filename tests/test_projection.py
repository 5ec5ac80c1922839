"""Projection and implicit equalities against the routes they replaced.

`implicit_equality_rows` runs one LP per round, on the summed slack of
the rows that no witness has shown slack; its references are the loop it
replaced, one LP per such row, and one LP per row. `project` prunes every
domain, pointed or not, by incidence with its generators: the vertices
and rays of its double description, and ± each lineality line. Only the
rows tight on every generator, the implicit equalities, meet an LP, and
those LPs see only those rows and the equality rows; the tight sets it
reads are carried through the steps, and their reference is the tight
sets read afresh. Its reference is the LP route, `_project` with no
generators, whose prunes test every row, and that route's reference is
`minimize_description` on the eliminated rows. Both routes skip the
prune after a substitution that follows a prune; their reference is an
eliminator that prunes after every step. The image `project` returns
reads its vertices off the generators and the carried tight sets; its
reference is `_vrep`, a double description of the image run afresh, and
it takes its integer rows from the eliminator; their reference is the
view a fresh copy converts.
`minimize_description` proves facets by ray shooting from the witnesses'
summed point; its reference is the same prune with LPs alone. All of
them must return exactly the same rows in the same order.
"""

import inspect
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from polycircuits import lp, polyhedron
from polycircuits.constructions import (
    cropped_cross_polytope,
    cross_polytope,
    find_alpha_projection,
    hypercube,
    orthant,
    pi_matrix,
    simplex,
    transportation,
)
from polycircuits.errors import (
    BudgetExceeded,
    CorrespondenceViolation,
    EmptyPolyhedron,
    NotPointed,
    ProjectionMismatch,
)
from polycircuits.inheritance import check_inheritance
from polycircuits.linalg import _int_vector, dot, primitive, vector
from polycircuits.polyhedron import (
    HPolyhedron,
    LinearMap,
    _Eliminator,
    _distinct_rows,
    _feasible_point,
    _implicit_rows,
    _irredundant_rows,
    _project,
    _promoted,
    _shot_facets,
    _slacks,
    cartesian_product,
    edge_directions,
    homogenize,
    implicit_equality_rows,
    is_pointed,
    minimize_description,
    project,
    vrep,
    work_budget,
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


def _per_row_implicit_rows(P, x):
    """The implicit-row loop that the rounds of `_implicit_rows` replaced: one LP,
    max -row.x over P, per row that no witness so far leaves slack."""
    B = P._ints.B
    num, den = _int_vector(x)
    line = [den, *num]
    for i, row in enumerate(P.B):
        if _slacks([B[i]], line[1:], line[0])[0]:
            continue
        res = lp.lp_solve(tuple(-v for v in row), P)
        num, den = _int_vector(res.point) if res.point is not None else (_int_vector(res.ray)[0], 0)
        line = [a + b for a, b in zip(line, (den, *num))]
    return tuple(i for i, s in enumerate(_slacks(B, line[1:], line[0])) if not s), tuple(line)


def _implicit_system(rng):
    """`_random_description`, or one of its cones (every rhs 0), its equality
    rows alone, or rows 0 <= 0 and 0 <= 1 in R^0."""
    kind = rng.choice(("rows", "rows", "cone", "no B rows", "n = 0"))
    if kind == "n = 0":
        d = [rng.randint(0, 1) for _ in range(rng.randint(0, 3))]
        return kind, HPolyhedron.make(0, B=[[]] * len(d), d=d)
    P = _random_description(rng, rng.randint(1, 4))
    if kind == "cone":
        return kind, HPolyhedron.make(P.n, A=P.A, b=[0] * len(P.A), B=P.B, d=[0] * len(P.B))
    if kind == "no B rows":
        return kind, HPolyhedron(P.n, P.A, P.b)
    return kind, P


def _rounds_run(P):
    """`_implicit_rows` of P from its feasible point, the per-row loop's rows
    and the statuses of the rounds' LPs; None when P is empty."""
    try:
        x = _feasible_point(P)
    except EmptyPolyhedron:
        return None
    statuses = []
    solve = lp.lp_solve

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        statuses.append(res.status)
        return res

    lp.lp_solve = recording
    try:
        rows, line = _implicit_rows(P, x)
    finally:
        lp.lp_solve = solve
    return rows, line, _per_row_implicit_rows(P, x)[0], statuses


@pytest.mark.parametrize("seed", range(10))
def test_implicit_rounds_match_the_per_row_loop(seed):
    # One LP per round on the summed slack of the rows still tight must
    # find the rows the per-row loop finds, and its summed line must be a
    # point on A x = b strictly inside every other row.
    rng = random.Random(6500 + seed)
    for _ in range(30):
        _, P = _implicit_system(rng)
        run = _rounds_run(P)
        if run is None:
            continue
        rows, (den, *num), reference, _ = run
        assert rows == reference, P
        assert den > 0 and not any(_slacks(P._ints.A, num, den)), P
        assert [i for i, s in enumerate(_slacks(P._ints.B, num, den)) if s <= 0] == list(rows), P


def test_implicit_rounds_cover_every_case():
    # The seeded systems above have equality rows, implicit pairs
    # a.x <= b, -a.x <= -b, parallel and duplicate rows, cones whose rounds
    # are unbounded, several rounds, no B rows, n = 0 and empty polyhedra.
    seen = set()
    for seed in range(10):
        rng = random.Random(6500 + seed)
        for _ in range(30):
            kind, P = _implicit_system(rng)
            run = _rounds_run(P)
            if run is None:
                seen.add("empty")
                continue
            rows, _, _, statuses = run
            seen.add(kind)
            if P.A:
                seen.add("equality rows")
            normals = [tuple(primitive(row)) for row in P.B]
            if any(any(normals[i]) and normals[i] == tuple(-x for x in normals[j]) for i in rows for j in rows):
                seen.add("implicit pair")
            pairs = list(itertools.combinations(zip(P.B, P.d), 2))
            if any(r == t and a == c for (r, a), (t, c) in pairs):
                seen.add("duplicate rows")
            if any(r != t and any(r) and primitive(r) == primitive(t) for (r, _), (t, _) in pairs):
                seen.add("parallel rows")
            if lp.UNBOUNDED in statuses:
                seen.add("unbounded round")
            if len(statuses) > 1:
                seen.add("several rounds")
    assert seen == {
        "rows", "cone", "no B rows", "n = 0", "empty", "equality rows", "implicit pair",
        "duplicate rows", "parallel rows", "unbounded round", "several rounds",
    }, seen


def _scaled(P, rng):
    """P with every row and its right-hand side times a factor in 1..3."""
    f = [rng.randint(1, 3) for _ in range(len(P.A) + len(P.B))]
    return HPolyhedron(
        P.n,
        tuple(tuple(c * x for x in row) for c, row in zip(f, P.A)),
        tuple(c * x for c, x in zip(f, P.b)),
        tuple(tuple(c * x for x in row) for c, row in zip(f[len(P.A) :], P.B)),
        tuple(c * x for c, x in zip(f[len(P.A) :], P.d)),
    )


def _augmented(P):
    """The equality rows [a | b] of P."""
    return [(*row, rhs) for row, rhs in zip(P.A, P.b)]


def _lp_objectives(monkeypatch, P):
    """minimize_description(P), or EmptyPolyhedron, and the objective of each
    LP it solved, as a primitive vector."""
    objectives = []
    solve = lp.lp_solve

    def recording(c, Q):
        objectives.append(primitive(vector(c)))
        return solve(c, Q)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "lp_solve", recording)
        try:
            return minimize_description(P), objectives
        except EmptyPolyhedron:
            return EmptyPolyhedron, objectives


@pytest.mark.parametrize("seed", range(5))
def test_minimize_solves_the_same_lps_after_row_scaling(monkeypatch, seed):
    # Positive row scaling changes no implicit round's objective, since the
    # rounds sum primitive normals, and no output. A redundancy LP reads its
    # row as it is scaled, and a positive multiple of an objective is the
    # same LP, so objectives are compared as primitive vectors; the outputs
    # agree up to the scale of the promoted A rows.
    rng = random.Random(6800 + seed)
    fixed = [hypercube(4), cropped_cross_polytope(3), transportation(5, 2, (1, 4)), homogenize(cross_polytope(3))]
    for P in fixed + [_random_description(rng, rng.randint(1, 4)) for _ in range(30)]:
        Ps = _scaled(P, rng)
        (out, objectives), (outs, scaled) = _lp_objectives(monkeypatch, P), _lp_objectives(monkeypatch, Ps)
        assert scaled == objectives, P
        if out is EmptyPolyhedron:
            assert outs is EmptyPolyhedron
            continue
        assert (outs.B, outs.d) == (out.B, out.d), P
        assert list(map(primitive, _augmented(outs))) == list(map(primitive, _augmented(out))), P


def _project_run(monkeypatch, Q, pi):
    """_project(Q, pi, None), the LP route, or EmptyPolyhedron; also the rows it
    eliminated down to, and the number of rows each of its prunes tested."""
    irredundant = polyhedron._irredundant_rows
    implicit = polyhedron._implicit_rows
    prunes, eliminated = [], []

    def counted(n, A, B):
        prunes.append(len(B))
        return irredundant(n, A, B)

    def capture(R, x):
        eliminated.append(R)
        return implicit(R, x)

    with monkeypatch.context() as patch:
        patch.setattr(polyhedron, "_irredundant_rows", counted)
        patch.setattr(polyhedron, "_implicit_rows", capture)
        try:
            return _project(Q, pi, None), eliminated, prunes
        except EmptyPolyhedron:
            return EmptyPolyhedron, eliminated, prunes


@pytest.mark.parametrize("seed", range(10))
def test_project_matches_full_prune_and_minimize_reference(monkeypatch, seed):
    # The LP route re-tests every row at every prune; `project` prunes by
    # incidence. Both must give the description `minimize_description`
    # gives on the eliminated rows, and raise on the same empty domains.
    rng = random.Random(7000 + seed)
    for _ in range(20):
        Q, pi = _random_pair(rng)
        P, eliminated, _ = _project_run(monkeypatch, Q, pi)
        if P is EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                minimize_description(Q)
            with pytest.raises(EmptyPolyhedron):
                project(Q, pi)
            continue
        # The route before: minimize_description on the eliminated rows.
        assert minimize_description(eliminated[0]) == P
        assert minimize_description(P) == P
        assert project(Q, pi) == P, (Q, pi)


def test_project_with_nothing_to_eliminate_prunes_once(monkeypatch):
    # A point in R^0 mapped to R^2: no variable to eliminate, yet the rows
    # (0 <= 1 twice, 0 <= 0) still go through one prune on either route.
    Q = HPolyhedron(n=0, B=((), (), ()), d=(Fraction(1), Fraction(1), Fraction(0)))
    pi = LinearMap(matrix=((), ()))
    P, eliminated, prunes = _project_run(monkeypatch, Q, pi)
    assert prunes == [3]
    assert P == minimize_description(eliminated[0])
    assert (P.A, P.b, P.B, P.d) == (((1, 0), (0, 1)), (0, 0), (), ())
    counts = _counting(monkeypatch)
    assert project(Q, pi) == P
    assert counts["incidence prune"] == 1 and counts["LP"] == 0


def test_reference_descriptions_cover_every_case(monkeypatch):
    # The seeded inputs above have implicit equalities, rows a witness
    # point shows slack before their LP, unbounded LPs whose ray is the
    # witness, empty polyhedra, zero rows, and projections whose LP route
    # prunes more than once, so that it re-tests rows an earlier prune kept.
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
            P, _, prunes = _project_run(monkeypatch, Q, pi)
            if P is EmptyPolyhedron:
                seen.add("empty projection")
                continue
            if len(prunes) > 1:
                seen.add("several prunes")
            if P.A and any(len(row) for row in P.A):
                seen.add("projection with equality rows")
            if any(not any(row) for row in Q.B):
                seen.add("zero row")
    assert seen == {
        "empty", "implicit rows", "row settled by a witness", "ray witness",
        "empty projection", "several prunes", "projection with equality rows", "zero row",
    }, seen


# ---------------------------------------------------------------------------
# Projection by incidence against projection by LP


def _counting(monkeypatch):
    """Count LPs, incidence prunes, and the implicit rows (tight on every
    generator) that the prunes keep or drop. "narrowed LPs" counts the
    prunes with implicit rows whose LPs see only those rows and the
    equality rows; "LP beyond I" any LP of a prune that sees another row."""
    seen, lps = Counter(), []
    incident, solve = _Eliminator._incident_rows, lp.lp_solve

    def routed(self):
        lps.clear()
        keep = incident(self)
        seen["incidence prune"] += 1
        seen["ray generators"] += any(g[-1] == 0 for g in self.gens)
        full = (1 << len(self.gens)) - 1
        points = sum(1 << k for k, g in enumerate(self.gens) if g[-1])
        masks = [self._tight(row) for row in self.ineqs]
        implicit = [i for i in _distinct_rows(self.ineqs) if masks[i] == full]
        seen["implicit rows kept"] += sum(i in keep for i in implicit)
        seen["implicit rows dropped"] += sum(i not in keep for i in implicit)
        rows = {tuple(self.ineqs[i][:-1]) for i in implicit}
        eqs = tuple(tuple(row[:-1]) for row in self.eqs)
        narrowed = all(set(map(tuple, P.B)) <= rows and tuple(map(tuple, P.A)) == eqs for P in lps)
        seen["narrowed LPs"] += bool(implicit) and bool(lps) and narrowed
        seen["LP beyond I"] += not narrowed or (bool(lps) and not implicit)
        # a dropped row whose face holds a point and is not a kept facet
        kept = {masks[i] for i in keep}
        seen["face, not facet"] += any(m & points and m != full and m not in kept for m in masks)
        return keep

    def counting(c, P, *args, **kwargs):
        seen["LP"] += 1
        lps.append(P)
        return solve(c, P, *args, **kwargs)

    monkeypatch.setattr(_Eliminator, "_incident_rows", routed)
    monkeypatch.setattr(lp, "lp_solve", counting)
    return seen


def _random_rational_pair(rng):
    """`_random_description` under a map with entries like -2..2 over 1, 2 or 3."""
    m = rng.randint(2, 4)
    Q = _random_description(rng, m)
    k = rng.randint(1, min(m, 3))
    pi = LinearMap(matrix=tuple(
        tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(m)) for _ in range(k)
    ))
    return Q, pi


@pytest.mark.parametrize("seed", range(10))
def test_incidence_prune_matches_lp_prune(monkeypatch, seed):
    # Each prune by incidence keeps the rows that the sequential LPs keep on
    # the same system, and the projections are equal. The tight sets it
    # reads are carried through the steps; at every prune they equal the
    # tight sets read off the generators afresh.
    incident = _Eliminator._incident_rows

    def checked(self):
        assert self.masks == [self._tight(row) for row in self.ineqs]
        keep = incident(self)
        assert keep == _irredundant_rows(len(self.live), self.eqs, self.ineqs)
        return keep

    monkeypatch.setattr(_Eliminator, "_incident_rows", checked)
    rng = random.Random(8000 + seed)
    for _ in range(20):
        Q, pi = _random_rational_pair(rng)
        try:
            reference = _project(Q, pi, None)
        except EmptyPolyhedron:
            with pytest.raises(EmptyPolyhedron):
                project(Q, pi)
            continue
        assert project(Q, pi) == reference, (Q, pi)


def test_incidence_references_cover_every_case(monkeypatch):
    # The seeded pairs above have domains with a lineality space, empty
    # domains, projections with no LP, prunes whose implicit rows go to LPs
    # that see only them and the equality rows, implicit rows those LPs
    # keep and rows they drop, prunes that drop a row whose face holds a
    # point but is not a facet, domains with rays, and images with
    # implicit equalities.
    seen = set()
    for seed in range(10):
        rng = random.Random(8000 + seed)
        for _ in range(20):
            Q, pi = _random_rational_pair(rng)
            if not is_pointed(Q):
                seen.add("lineality")
            with monkeypatch.context() as patch:
                counts = _counting(patch)
                try:
                    P = project(Q, pi)
                except EmptyPolyhedron:
                    seen.add("empty")
                    continue
            cases = ("narrowed LPs", "LP beyond I", "implicit rows kept", "implicit rows dropped", "face, not facet")
            seen.update(k for k in cases if counts[k])
            if not counts["LP"]:
                seen.add("no LP")
            if counts["ray generators"]:
                seen.add("rays")
            if P.A:
                seen.add("equality rows")
    assert seen == {
        "lineality", "empty", "no LP", "narrowed LPs", "implicit rows kept", "implicit rows dropped",
        "face, not facet", "rays", "equality rows",
    }, seen


class _PruneEveryStep(_Eliminator):
    """A prune after every step, and one when there is no step: the reference
    for the prunes that `_Eliminator.eliminate` skips."""

    def eliminate(self, target_vars):
        if not any(v in target_vars for v in self.live):
            self._prune()
        while pending := [j for j, v in enumerate(self.live) if v in target_vars]:
            self._eliminate_one(self._pick(pending))
            self._prune()


def _elimination_run(monkeypatch, cls, Q, pi, V):
    """_project(Q, pi, V) with the eliminator class `cls`, or EmptyPolyhedron;
    also the eliminator's `result`, its `implicit_rows` (None on the LP route)
    and its number of prunes."""
    made, prunes = [], []

    class Recording(cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def _prune(self):
            prunes.append(len(self.ineqs))
            super()._prune()

    with monkeypatch.context() as patch:
        patch.setattr(polyhedron, "_Eliminator", Recording)
        try:
            P = _project(Q, pi, V)
        except EmptyPolyhedron:
            return EmptyPolyhedron, None, None, len(prunes)
    (elim,) = made
    return P, elim.result(pi.out_dim), None if V is None else elim.implicit_rows(), len(prunes)


@pytest.mark.parametrize("seed", range(10))
def test_skipped_prunes_change_nothing(monkeypatch, seed):
    # A substitution maps the affine hull of the equality rows isomorphically
    # onto that of the substituted ones, so a pruned set stays irredundant
    # and the prune that would follow keeps every row: both routes, the
    # incidence prune and the LP prune, give the same eliminated rows,
    # implicit rows and projection as a prune after every step.
    rng = random.Random(8000 + seed)
    for _ in range(20):
        Q, pi = _random_rational_pair(rng)
        try:
            V = Q._generators
        except EmptyPolyhedron:
            V = None
        runs = [
            _elimination_run(monkeypatch, cls, Q, pi, gens)
            for cls in (_Eliminator, _PruneEveryStep)
            for gens in ((None, V) if V is not None else (None,))
        ]
        outs = {run[:2] for run in runs}
        assert len(outs) == 1, (Q, pi)
        if V is not None:
            assert runs[1][2] == runs[3][2], (Q, pi)
            assert runs[1][0] == project(Q, pi)
        assert all(new[3] <= every[3] for new, every in zip(runs, runs[len(runs) // 2 :]))


def test_skipped_prunes_cover_every_case(monkeypatch):
    # The seeded pairs above have domains with equality rows, with a
    # lineality space and with rays, empty domains, implicit rows, and
    # eliminations that skip a prune and that skip none.
    seen = set()
    for seed in range(10):
        rng = random.Random(8000 + seed)
        for _ in range(20):
            Q, pi = _random_rational_pair(rng)
            try:
                V = Q._generators
            except EmptyPolyhedron:
                seen.add("empty")
                continue
            P, _, implicit, prunes = _elimination_run(monkeypatch, _Eliminator, Q, pi, V)
            every = _elimination_run(monkeypatch, _PruneEveryStep, Q, pi, V)[3]
            seen.add("prunes skipped" if prunes < every else "no prune skipped")
            if Q.A:
                seen.add("equality rows")
            if not is_pointed(Q):
                seen.add("lineality")
            if V.rays:
                seen.add("rays")
            if implicit:
                seen.add("implicit rows")
    assert seen == {
        "empty", "prunes skipped", "no prune skipped", "equality rows", "lineality", "rays", "implicit rows",
    }, seen


def test_substitutions_after_a_prune_are_not_pruned(monkeypatch):
    # The 4-cube under pi_3_4: three variables go by substitution through
    # the graph rows x = pi(y), the last by one combination step. The first
    # substitution is pruned, the next two are not, and the combination is.
    prunes = _elimination_run(monkeypatch, _Eliminator, hypercube(4), pi_matrix(3, 4), hypercube(4)._generators)[3]
    every = _elimination_run(monkeypatch, _PruneEveryStep, hypercube(4), pi_matrix(3, 4), None)[3]
    assert (prunes, every) == (2, 4)


_WRONG_MASK = """
from polycircuits import polyhedron
from polycircuits.constructions import hypercube
from polycircuits.errors import CorrespondenceViolation

implicit = polyhedron._Eliminator.implicit_rows


def flipped(self):
    self.masks[0] ^= 1
    return implicit(self)


polyhedron._Eliminator.implicit_rows = flipped
try:
    print("returned", polyhedron.project(hypercube(3), polyhedron.LinearMap(((1, 0, 0), (0, 1, 1)))))
except CorrespondenceViolation as exc:
    print("CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_wrong_carried_mask_is_a_correspondence_violation(flags):
    # Every row left after elimination is read on the generators again, and
    # its tight set must equal the one carried through the steps; also
    # under -O.
    src = str(Path(polyhedron.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _WRONG_MASK],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["CorrespondenceViolation: a carried tight set differs from its row's"]


def test_rows_that_differ_by_an_equality_row_keep_the_last():
    # On the segment from (0, 0) to (1, 1), x1 <= 1 and x2 <= 1 differ by
    # the equality row x1 - x2 = 0 and define the same facet, the vertex
    # (1, 1). The sequential LP prune drops the first, since the second
    # still implies it; the incidence prune keeps the last of equal tight
    # sets, the same row.
    rows = [[1, 0, 1], [0, 1, 1], [-1, 0, 0]]
    elim = _Eliminator(2, [[1, -1, 0]], rows, gens=[[0, 0, -1], [1, 1, -1]])
    assert elim._incident_rows() == [1, 2]
    assert _irredundant_rows(2, [[1, -1, 0]], rows) == [1, 2]
    Q = HPolyhedron.make(2, A=[[1, -1]], b=[0], B=[[1, 0], [0, 1], [-1, 0]], d=[1, 1, 0])
    ident = LinearMap(matrix=((1, 0), (0, 1)))
    assert project(Q, ident) == _project(Q, ident, None)


def test_a_row_tight_on_every_generator_sends_that_prune_to_the_lps(monkeypatch):
    # x1 = x2 only as two opposite inequalities: both are tight on every
    # generator, so the prune solves LPs, which see only those two rows;
    # the other rows are decided by incidence and the result is unchanged.
    Q = HPolyhedron.make(2, B=[[1, -1], [-1, 1], [-1, 0], [1, 0]], d=[0, 0, 0, 1])
    ident = LinearMap(matrix=((1, 0), (0, 1)))
    reference = _project(Q, ident, None)
    counts = _counting(monkeypatch)
    P = project(Q, ident)
    assert P == reference and P.A == (vector([1, -1]),)
    assert counts["narrowed LPs"] > 0 and counts["LP"] > 0 and counts["LP beyond I"] == 0


def test_rays_are_generators_at_infinity(monkeypatch):
    # The orthant of R^4 is its vertex 0 and four rays: generators with h = 0.
    Q = HPolyhedron.make(4, B=[[-int(i == j) for j in range(4)] for i in range(4)], d=[0] * 4)
    pi = LinearMap(matrix=((2, 1, 0, 0), (0, 0, 2, 1), (0, 1, 0, 1)))
    reference = _project(Q, pi, None)
    counts = _counting(monkeypatch)
    assert project(Q, pi) == reference
    assert counts["ray generators"] > 0 and counts["LP"] == 0


def test_a_row_tight_only_on_rays_defines_no_facet():
    # The ray from 0 along (1, 1), given by y1 - y2 = 0 and y1 >= 0, with the
    # slack row y1 - y2 <= 1. That row differs from the equality row by its
    # rhs alone, so only the ray is tight on it, and no other row's tight
    # set contains the ray. It defines no facet, since no vertex is tight on
    # it: both routes drop it.
    Q = HPolyhedron.make(2, A=[[1, -1]], b=[0], B=[[-1, 0], [1, -1]], d=[0, 1])
    ident = LinearMap(matrix=((1, 0), (0, 1)))
    P = project(Q, ident)
    assert P == _project(Q, ident, None)
    assert (P.B, P.d) == (((-1, 0),), (0,))


def test_pointed_projection_solves_no_lp(monkeypatch):
    # A pointed domain is pruned by the generators of its double
    # description: the image of the 4-simplex and the alpha search on the
    # 4-cube ran 13 and 23 LPs when they took the LP route.
    assert list(inspect.signature(project).parameters) == ["P", "pi"]
    counts = _counting(monkeypatch)
    project(simplex(4), pi_matrix(3, 4))
    assert find_alpha_projection(hypercube(4)).alpha == 2
    assert counts["LP"] == 0 and counts["incidence prune"] > 0


@pytest.mark.parametrize(
    "Q, pi",
    [
        (cropped_cross_polytope(3), LinearMap(matrix=((2, 1, 0), (0, 1, 2)))),
        (cropped_cross_polytope(3), LinearMap(matrix=((1, 1, 1),))),
        (hypercube(4), pi_matrix(3, 4)),
    ],
    ids=["ccp3-plane", "ccp3-line", "cube4"],
)
def test_faces_are_decided_by_tight_sets_alone(monkeypatch, Q, pi):
    # With vrep(Q) cached, the incidence prunes of `project` and the edge
    # walk compare tight-row masks: they eliminate no rows and run no rank
    # test. The one elimination is `_promoted`'s pick of the image's
    # equality rows (`_independent`).
    reference = _project(Q, pi, None)
    vrep(Q)
    counts, calls = _counting(monkeypatch), Counter()
    for name in ("_ranks_reach", "_independent"):
        fn = getattr(polyhedron, name)
        monkeypatch.setattr(polyhedron, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
    assert project(Q, pi) == reference
    assert edge_directions(Q)
    assert calls == {"_independent": 1} and counts["incidence prune"] > 0 and counts["LP"] == 0


def test_the_work_budget_caps_the_projection():
    # `project` runs the double description of a pointed domain, which
    # charges its vertex pairs to the work budget.
    with work_budget(20), pytest.raises(BudgetExceeded) as err:
        project(hypercube(6), pi_matrix(3, 6))
    assert str(err.value) == "double description pairs: 31 candidates exceed budget 20"


def test_wrong_generators_are_a_correspondence_violation():
    square = HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 0], [0, 1]], d=[0, 0, 1, 1])
    bigger = HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 0], [0, 1]], d=[0, 0, 2, 2])
    with pytest.raises(CorrespondenceViolation):
        _project(square, LinearMap(matrix=((1, 1),)), vrep(bigger))


def test_a_generator_off_an_equality_row_is_a_correspondence_violation():
    # The tight sets are carried through substitutions only because every
    # generator reads 0 on every equality row; the square's vertex (1, 0)
    # leaves the diagonal x1 = x2.
    diagonal = HPolyhedron.make(2, A=[[1, -1]], b=[0], B=[[-1, 0], [1, 0]], d=[0, 1])
    square = HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 0], [0, 1]], d=[0, 0, 1, 1])
    with pytest.raises(CorrespondenceViolation, match="^a generator of the domain leaves an equality row$"):
        _project(diagonal, LinearMap(matrix=((1, 1),)), vrep(square))


@pytest.mark.parametrize(
    "Q, pi, P_desc, error, match",
    [
        # the image is a halfplane: the image is tested for a lineality
        # space before the domain
        (HPolyhedron.make(2, B=[[1, 0]], d=[1], name="halfplane"), ((1, 0), (0, 1)), None,
         NotPointed, "projection image"),
        (HPolyhedron.make(2, B=[[-1, 0], [1, 0]], d=[0, 1], name="strip"), ((1, 0),), None,
         NotPointed, "strip"),
        # a wrong image description is found before either lineality space
        (HPolyhedron.make(2, B=[[-1, 0], [1, 0]], d=[0, 1], name="strip"), ((1, 0),),
         HPolyhedron.make(1, B=[[-1], [1]], d=[0, 2]), ProjectionMismatch, "not the image"),
        (HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[-1, 0], name="emptystrip"), ((1, 0),), None,
         EmptyPolyhedron, "emptystrip"),
    ],
    ids=["image-halfplane", "strip", "strip-wrong-image", "empty-strip"],
)
def test_nonpointed_domain_keeps_its_errors(monkeypatch, Q, pi, P_desc, error, match):
    # A domain with a lineality space is projected by incidence too; only
    # the check of a supplied image description solves LPs.
    counts = _counting(monkeypatch)
    with pytest.raises(error, match=match):
        check_inheritance(Q, LinearMap(matrix=pi), P_desc)
    assert bool(counts["LP"]) == (P_desc is not None)
    assert bool(counts["incidence prune"]) == (error is not EmptyPolyhedron)


def test_an_image_with_a_lineality_space_is_not_pointed():
    # The orthant is pointed, but its image under x1 - x2 is the whole line.
    with pytest.raises(NotPointed, match="^projection image is not pointed$"):
        check_inheritance(orthant(2), LinearMap(matrix=((1, -1),)))


def _cross_times_line(k):
    """The cross-polytope of R^k times R: its rows padded with a zero column."""
    return cartesian_product(cross_polytope(k), HPolyhedron(n=1))


@pytest.mark.parametrize(
    "row2, match",
    [((0,) * 6 + (0,), "^domain is not pointed$"), ((0,) * 6 + (1,), "^projection image is not pointed$")],
    ids=["two-coordinates", "free-coordinate"],
)
def test_lineality_domain_check_solves_no_lp(monkeypatch, row2, match):
    # The 64 rows of cross6 x R took 421 LPs on the LP route before the same
    # NotPointed; the incidence route takes none.
    counts = _counting(monkeypatch)
    pi = LinearMap(matrix=((1,) + (0,) * 6, tuple(a + b for a, b in zip((0, 1) + (0,) * 5, row2))))
    with pytest.raises(NotPointed, match=match):
        check_inheritance(_cross_times_line(6), pi)
    assert counts["LP"] == 0 and counts["incidence prune"] > 0


def test_the_work_budget_caps_a_lineality_domain():
    # The double description of P ∩ L^⊥ charges its pairs as a pointed domain's does.
    Q = _cross_times_line(4)
    with work_budget(20), pytest.raises(BudgetExceeded) as err:
        project(Q, LinearMap(matrix=((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))))
    assert str(err.value) == "double description pairs: 21 candidates exceed budget 20"


def test_projections_of_one_lineality_domain_share_one_double_description(monkeypatch):
    # The generators of P ∩ L^⊥ and ± each line of L are cached on the
    # domain, so three projections of cross4 x R run one double description.
    calls = []
    walk = polyhedron._vrep
    monkeypatch.setattr(polyhedron, "_vrep", lambda P: calls.append(P) or walk(P))
    Q = _cross_times_line(4)
    maps = [
        LinearMap(matrix=((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
        LinearMap(matrix=((1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))),
        LinearMap(matrix=((1, 0, 0, 0, 1),)),
    ]
    images = [project(Q, pi) for pi in maps]
    assert len(calls) == 1
    assert images == [_project(Q, pi, None) for pi in maps]


def test_empty_pointed_domain_raises_empty_polyhedron():
    empty = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0], name="empty")
    with pytest.raises(EmptyPolyhedron, match="empty"):
        check_inheritance(empty, LinearMap(matrix=((1,),)))


@pytest.mark.parametrize("route", ["lp", "incidence"])
def test_projected_equality_rows_are_primitive_integer_normals(route):
    # The segment x1 = x2, 0 <= x1 <= 1 maps onto the segment from (0, 0)
    # to (3, 7/2), on the line 7 x1 - 6 x2 = 0. Fourier-Motzkin keeps
    # integer rows, and the equality rows come back as primitive integer
    # normals with their right-hand sides, as the inequality rows do.
    Q = HPolyhedron.make(2, A=[[1, -1]], b=[0], B=[[-1, 0], [1, 0]], d=[0, 1])
    pi = LinearMap(matrix=((Fraction(2), Fraction(1)), (Fraction(1, 2), Fraction(3))))
    P = project(Q, pi) if route == "incidence" else _project(Q, pi, None)
    assert (P.A, P.b) == (((7, -6),), (0,))
    assert all(type(x) is Fraction for row in (*P.A, *P.B) for x in row)
    assert P.contains((3, Fraction(7, 2))) and not P.contains((3, 3))


def test_check_calls_the_map_once(monkeypatch):
    # Every internal use of the map reads its integer view, and no Fraction
    # image is made: every generator, not one point, is checked in integers
    # on the projection's rows, and the image's vertices are the generators'
    # integer images.
    from polycircuits.constructions import orthant, pi_matrix

    calls = []
    call = LinearMap.__call__

    def counting(self, x):
        calls.append(x)
        return call(self, x)

    monkeypatch.setattr(LinearMap, "__call__", counting)
    check_inheritance(orthant(4), pi_matrix(3, 4))
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# The image's vertices from the elimination against a double description


def _walk_or_error(walk, P):
    try:
        return walk(P)
    except (CorrespondenceViolation, EmptyPolyhedron, NotPointed) as exc:
        return type(exc)


def _image_pair(rng, i):
    """A seeded pair: every fifth a cube, simplex, cross-polytope or orthant
    under a map with entries -2..2, the rest `_random_rational_pair`."""
    if i % 5:
        return _random_rational_pair(rng)
    m = rng.randint(2, 4)
    Q = rng.choice((hypercube, simplex, cross_polytope, orthant))(m)
    return Q, LinearMap(matrix=tuple(tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(1, 3))))


def test_image_vertices_match_a_fresh_double_description():
    # The image that `project` returns reads its vertices, rays and tight
    # masks off the elimination's generators and carried masks; `_vrep` run
    # afresh on the same image is the reference. Both give the same result
    # or raise the same error. The pairs have images with rays, images that
    # are not full-dimensional and images that are not pointed, and domains
    # with equality rows and with a lineality space.
    seen, compared = set(), 0
    rng = random.Random(8500)
    for i in range(600):
        Q, pi = _image_pair(rng, i)
        try:
            P = project(Q, pi)
        except EmptyPolyhedron:
            continue
        assert "_incidences" in vars(P)
        got = _walk_or_error(lambda P: P._vertex_walk, P)
        assert "_incidences" not in vars(P)
        assert got == _walk_or_error(polyhedron._vrep, P), (Q, pi)
        compared += 1
        if got is NotPointed:
            seen.add("not pointed")
        elif got[0].rays:
            seen.add("rays")
        if P.A:
            seen.add("not full-dimensional")
        if Q.A:
            seen.add("domain with equality rows")
        if not is_pointed(Q):
            seen.add("domain with a lineality space")
    assert compared >= 500
    assert seen == {
        "not pointed", "rays", "not full-dimensional", "domain with equality rows", "domain with a lineality space",
    }, seen


def test_an_image_runs_no_double_description(monkeypatch):
    # The domain's double description gives the generators of `project`,
    # and the image's vertices come from them: one `_extreme_rays` call.
    calls = []
    walk = polyhedron._extreme_rays
    monkeypatch.setattr(polyhedron, "_extreme_rays", lambda *args: calls.append(args) or walk(*args))
    check_inheritance(orthant(4), pi_matrix(3, 4))
    assert len(calls) == 1


def _same_view(P):
    got, fresh = P._ints, replace(P)._ints
    return (got.A, got.B, got.scale) == (fresh.A, fresh.B, fresh.scale)


def test_an_image_gets_its_integer_rows_from_the_eliminator(monkeypatch):
    # `_Eliminator.result` hands the description it makes the eliminator's
    # rows as its `_ints` view, on both routes of `_project`, and `_promoted`
    # and `minimize_description` hand theirs the rows they keep; each must
    # equal the view a fresh copy converts from its rows.
    seen = Counter()
    result = _Eliminator.result

    def viewed(self, n):
        R = result(self, n)
        assert "_ints" in vars(R) and _same_view(R)
        seen["eliminator results"] += 1
        return R

    monkeypatch.setattr(_Eliminator, "result", viewed)
    rng = random.Random(8501)
    for i in range(400):
        Q, pi = _image_pair(rng, i)
        try:
            P = project(Q, pi)
        except EmptyPolyhedron:
            continue
        assert "_ints" in vars(P) and _same_view(P), (Q, pi)
        seen["images"] += 1
        seen["with equality rows"] += bool(P.A)
        if i % 4 == 0:
            M = minimize_description(Q)
            assert "_ints" in vars(M) and _same_view(M), Q
            seen["minimized"] += 1
        if i % 4 == 1:
            L = _project(Q, pi, None)
            assert "_ints" in vars(L) and _same_view(L), (Q, pi)
            seen["LP route"] += 1
    assert seen["images"] >= 300 and seen["with equality rows"] >= 100, seen
    assert seen["minimized"] >= 50 and seen["LP route"] >= 50, seen
    assert seen["eliminator results"] == seen["images"] + seen["LP route"], seen


def test_double_description_masks_are_the_zero_sets_of_their_rays():
    # `_extreme_rays` returns each ray with the mask it carried through the
    # additions; `_certified_vrep` compares the masks of P.B's rows with the
    # slacks, and this reference recomputes every bit, the t-row's included,
    # from the rows' reads on the ray, on the domains and images of the
    # seeded pairs.
    seen = Counter()
    rng = random.Random(8502)
    for i in range(300):
        Q, pi = _image_pair(rng, i)
        try:
            described = [Q, project(Q, pi)]
        except EmptyPolyhedron:
            described = [Q]
        for P in described:
            ints = P._ints
            if ints.lineality or not ints.consistent:
                continue
            _, R, np_ = ints.reduced
            rows = [[0] * np_ + [1], *R]
            rays, masks = polyhedron._extreme_rays(rows, np_ + 1)
            assert masks == [sum(1 << k for k, row in enumerate(rows) if not dot(row, v)) for v in rays], P
            seen["descriptions"] += 1
            seen["rays at infinity"] += any(not v[np_] for v in rays)
            seen["with equality rows"] += bool(P.A)
    assert seen["descriptions"] >= 400 and seen["rays at infinity"] >= 50 and seen["with equality rows"] >= 50, seen


def _ref_maximal(masks):
    sets = {m: frozenset(k for k in range(m.bit_length()) if m >> k & 1) for m in masks}
    return {m for m, s in sets.items() if not any(s < t for t in sets.values())}


def test_maximal_masks_match_a_subset_reference():
    # `_maximal` is the one maximal tight set filter of the image walk and
    # the incidence prune; its reference compares the masks as sets of bits.
    seen = Counter()
    rng = random.Random(8503)
    assert polyhedron._maximal([]) == set()
    for _ in range(500):
        width = rng.randint(1, 8)
        masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 2)):  # a nested chain, each mask inside the next
            m = rng.getrandbits(width)
            for _ in range(rng.randint(1, 3)):
                masks.append(m)
                m |= rng.getrandbits(width)
        masks += rng.sample(masks, min(len(masks), rng.randint(0, 2)))  # duplicates
        if rng.random() < 0.3:
            masks.append(0)
        rng.shuffle(masks)
        got = polyhedron._maximal(iter(masks))
        assert got == _ref_maximal(masks), masks
        seen["duplicates"] += len(set(masks)) < len(masks)
        seen["empty mask"] += 0 in masks
        seen["strictly contained"] += len(got) < len(set(masks))
    assert min(seen.values()) >= 100, seen


def _run_script(flags, script):
    src = str(Path(polyhedron.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_WRONG_INCIDENCES = """
from polycircuits import polyhedron
from polycircuits.constructions import hypercube
from polycircuits.errors import CorrespondenceViolation

cube, pi = hypercube(3), polyhedron.LinearMap(((1, 0, 0), (0, 1, 1)))
for name, row, images, tight in (("set", (1, 0), [[0, 1]], True), ("cleared", (-1, 0), [[0, 0], [0, 2]], False)):
    P = polyhedron.project(cube, pi)
    gens, masks = vars(P)["_incidences"]
    i = P.B.index(row)
    for k, g in enumerate(gens):
        if g[-1] and g[:2] in images:
            masks[i] = masks[i] | 1 << k if tight else masks[i] & ~(1 << k)
    try:
        print(name, "returned", polyhedron.vrep(P))
    except CorrespondenceViolation as exc:
        print(name, "CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_wrong_image_incidence_is_a_correspondence_violation(flags):
    # The cube under (x, y + z) is the rectangle [0, 1] x [0, 2]. The cube's
    # vertices (0, 1, 0) and (0, 0, 1) map to (0, 1), tight only on x >= 0,
    # and (0, 0) and (0, 2) are the vertices whose masks contain its mask.
    # Marked tight on x <= 1 as well, (0, 1) has a mask no other contains,
    # so it passes as a vertex, and its slacks show the wrong tight set.
    # With x >= 0 cleared on (0, 0) and (0, 2) instead, it passes as a
    # vertex with its own tight set, and the rank pass finds its rows of
    # rank 1. Both raise, also under -O.
    assert _run_script(flags, _WRONG_INCIDENCES) == [
        "set CorrespondenceViolation: vertex line (1, 0, 1) is off the polyhedron or off its carried tight set",
        "cleared CorrespondenceViolation: vertex line (1, 0, 1) is not a vertex",
    ]


_OFF_AN_EQUALITY_ROW = """
from polycircuits import polyhedron
from polycircuits.constructions import hypercube
from polycircuits.errors import CorrespondenceViolation

implicit = polyhedron._Eliminator.implicit_rows


def shifted(self):
    self.eqs[0][-1] += 1
    return implicit(self)


polyhedron._Eliminator.implicit_rows = shifted
try:
    print("returned", polyhedron.project(hypercube(3), polyhedron.LinearMap(((1, 0, 0), (0, 1, 0), (1, 1, 0)))))
except CorrespondenceViolation as exc:
    print("CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_generator_off_a_final_equality_row_is_a_correspondence_violation(flags):
    # The cube under (x, y, x + y) lies in the plane x3 = x1 + x2, an
    # equality row left after the elimination. Every generator must read 0
    # on it; with its rhs shifted none does; also under -O.
    assert _run_script(flags, _OFF_AN_EQUALITY_ROW) == [
        "CorrespondenceViolation: a generator of the domain leaves an equality row"
    ]


# ---------------------------------------------------------------------------
# minimize_description's ray shooting against the LP-only prune


def _shooting_system(rng):
    """A nonempty description around a point x0 (the origin, with every rhs
    0, for a cone): equality rows through x0, rows tight or slack there, and
    rows made from those: a row in the span of the equality rows, a row
    that differs from another by an equality row, the sum of two rows, and
    a scaled copy of a row, maybe looser. Without a box many are unbounded,
    and with few rows many have a lineality space.
    """
    n = rng.randint(1, 4)
    cone = rng.random() < 0.25
    x0 = [Fraction(0) if cone else Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2])) for _ in range(n)]
    slacks = [0] if cone else [0, 0, 1, Fraction(1, 2), 3]
    A = [[_entry(rng) for _ in range(n)] for _ in range(rng.choice([0, 1, 1, 2]))]
    b = [dot(vector(row), vector(x0)) for row in A]
    B, d = [], []
    if not cone and rng.random() < 0.4:
        for i in range(n):
            B += [[-(j == i) for j in range(n)], [int(j == i) for j in range(n)]]
            d += [-x0[i] + rng.randint(0, 2), x0[i] + rng.randint(0, 2)]
    for _ in range(rng.randint(1, 5)):
        B.append([_entry(rng) for _ in range(n)])
        d.append(dot(vector(B[-1]), vector(x0)) + rng.choice(slacks))
    for _ in range(rng.randint(0, 3)):
        kind, s = rng.choice(("span", "modulo", "sum", "copy")), rng.choice(slacks)
        if kind == "span" and A:
            lam = [rng.randint(-2, 2) for _ in A]
            B.append([sum(x * row[j] for x, row in zip(lam, A)) for j in range(n)])
            d.append(dot(vector(lam), vector(b)) + s)
        elif kind == "modulo" and A:
            i, k, lam = rng.randrange(len(B)), rng.randrange(len(A)), rng.choice([-1, 1, 2])
            B.append([x + lam * y for x, y in zip(B[i], A[k])])
            d.append(d[i] + lam * b[k])
        elif kind == "sum" and len(B) > 1:
            i, k = rng.sample(range(len(B)), 2)
            B.append([x + y for x, y in zip(B[i], B[k])])
            d.append(d[i] + d[k] + s)
        elif kind == "copy":
            i, c = rng.randrange(len(B)), rng.choice([1, 2, Fraction(1, 3)])
            B.append([c * x for x in B[i]])
            d.append(c * d[i] + s)
    order = list(range(len(B)))
    rng.shuffle(order)
    return HPolyhedron.make(n, A=A, b=b, B=[B[i] for i in order], d=[d[i] for i in order])


def _shooting_run(P):
    """The promoted description Q of `minimize_description`, its interior
    point, and the rows its prune keeps with that point and without it."""
    implicit, inside = _implicit_rows(P, _feasible_point(P))
    Q = _promoted(P, implicit)
    rows, distinct = (Q.n, Q._ints.A, Q._ints.B), _distinct_rows(Q._ints.B)
    shot = _irredundant_rows(*rows, distinct, _shot_facets(Q._ints, distinct, inside))
    return Q, inside, shot, _irredundant_rows(*rows)


@pytest.mark.parametrize("seed", range(10))
def test_ray_shooting_keeps_the_rows_of_the_lp_prune(seed):
    # The LP-only prune is the reference: with the interior point, the same
    # rows stay in the same order, whichever of them the rays prove.
    rng = random.Random(9000 + seed)
    for _ in range(30):
        P = _shooting_system(rng)
        _, _, shot, reference = _shooting_run(P)
        assert shot == reference, P


def test_ray_shooting_references_cover_every_case():
    # The seeded systems above have parallel rows, rows in the span of the
    # equality rows (G_kk = 0), rows that define the same halfspace modulo
    # the equality rows, redundant rows, cones, unbounded and non-pointed
    # polyhedra, rows the rays prove and kept rows they leave to an LP.
    seen = set()
    for seed in range(10):
        rng = random.Random(9000 + seed)
        for _ in range(30):
            Q, inside, keep, _ = _shooting_run(_shooting_system(rng))
            B = Q._ints.B
            _, R, np_ = Q._ints.reduced
            distinct = _distinct_rows(B)
            proved = _shot_facets(Q._ints, distinct, inside)
            if len(distinct) < sum(any(row[:-1]) for row in B):
                seen.add("parallel rows")
            if any(not any(R[i][:np_]) for i in distinct):
                seen.add("row in the span of the equality rows")
            halfspaces = [tuple(primitive(R[i])) for i in distinct if any(R[i][:np_])]
            if len(set(halfspaces)) < len(halfspaces):
                seen.add("same halfspace modulo the equality rows")
            if any(any(R[i][:np_]) and i not in keep for i in distinct):
                seen.add("redundant row")
            if B and not any(Q.d) and not any(Q.b):
                seen.add("cone")
            if Q._ints.lineality:
                seen.add("lineality")
            elif vrep(Q).rays:
                seen.add("unbounded")
            if proved:
                seen.add("proved row")
            if set(keep) - proved:
                seen.add("kept row left to an LP")
    assert seen == {
        "parallel rows", "row in the span of the equality rows", "same halfspace modulo the equality rows",
        "redundant row", "cone", "lineality", "unbounded", "proved row", "kept row left to an LP",
    }, seen


_WRONG_SHOTS = """
from polycircuits import polyhedron
from polycircuits.constructions import hypercube
from polycircuits.errors import CorrespondenceViolation

lift, implicit = polyhedron._IntRows.lift, polyhedron._implicit_rows


def scaled_directions(c):
    def wrong(self, v):
        return [c * x for x in lift(self, v)]

    return wrong


for name, owner, attr, wrong in (
    ("negated", polyhedron._IntRows, "lift", scaled_directions(-1)),
    ("doubled", polyhedron._IntRows, "lift", scaled_directions(2)),
    ("vertex", polyhedron, "_implicit_rows", lambda P, x: (implicit(P, x)[0], (1, 0, 0, 0))),
):
    setattr(owner, attr, wrong)
    try:
        print(name, "returned", polyhedron.minimize_description(hypercube(3)))
    except CorrespondenceViolation as exc:
        print(name, "CorrespondenceViolation:", exc)
    setattr(owner, attr, {"lift": lift, "_implicit_rows": implicit}[attr])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_wrong_ray_shot_is_a_correspondence_violation(flags):
    # Each proved row's witness is checked on the rows themselves, and the
    # interior point before any shot, so wrong directions d_k or a point on
    # a row raise instead of keeping a row unproved; also under -O.
    src = str(Path(polyhedron.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _WRONG_SHOTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "negated CorrespondenceViolation: the ray shot at row 0 misses its facet",
        "doubled CorrespondenceViolation: the ray shot at row 0 misses its facet",
        "vertex CorrespondenceViolation: the interior point is not strictly inside every row",
    ]
