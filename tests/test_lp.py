import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polycircuits import lp
from polycircuits.constructions import cross_polytope, hypercube, orthant, pi_matrix, transportation
from polycircuits.errors import CorrespondenceViolation
from polycircuits.inheritance import check_inheritance
from polycircuits.linalg import ONE, ZERO, dot, rank, solve, vec_sub, vector
from polycircuits.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, is_feasible, is_implied, lp_solve
from polycircuits.polyhedron import HPolyhedron, dim, minimize_description


def triangle():
    # x >= 0, y >= 0, x + y <= 1
    return HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 1]], d=[0, 0, 1])


def test_optimal_on_triangle():
    res = lp_solve([1, 1], triangle())
    assert res.status == OPTIMAL
    assert res.value == 1
    assert triangle().contains(res.point)
    assert dot(vector([1, 1]), res.point) == 1


def test_min_sense():
    # min x + y is the maximum of -x - y
    res = lp_solve([-1, -1], triangle())
    assert res.status == OPTIMAL
    assert res.value == 0
    assert res.point == vector([0, 0])


def test_unbounded_with_certified_ray():
    orthant = HPolyhedron.make(2, B=[[-1, 0], [0, -1]], d=[0, 0])
    res = lp_solve([1, 2], orthant)
    assert res.status == UNBOUNDED
    assert all(x >= 0 for x in res.ray)
    assert dot(vector([1, 2]), res.ray) > 0


def test_infeasible():
    P = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0])  # x <= -1 and x >= 0
    assert lp_solve([1], P).status == INFEASIBLE
    assert not is_feasible(P)


def test_equality_rows():
    P = HPolyhedron.make(2, A=[[1, 1]], b=[1], B=[[-1, 0], [0, -1]], d=[0, 0])
    res = lp_solve([1, 0], P)
    assert res.status == OPTIMAL
    assert res.value == 1 and res.point == vector([1, 0])


def test_redundant_equality_rows_are_tolerated():
    P = HPolyhedron.make(2, A=[[1, 1], [2, 2]], b=[1, 2], B=[[-1, 0], [0, -1]], d=[0, 0])
    assert lp_solve([0, 1], P).value == 1


def test_inconsistent_equality_rows():
    P = HPolyhedron.make(2, A=[[1, 1], [2, 2]], b=[1, 3])
    assert lp_solve([0, 1], P).status == INFEASIBLE


@pytest.mark.parametrize("objective", [[0, 1], [1, -1], [1, 1], [0, 0]])
@pytest.mark.parametrize("B, d", [([], []), ([[-1, 0], [0, -1]], [0, 0])], ids=["free", "orthant"])
def test_dependent_equality_row_changes_no_answer(objective, B, d):
    # x + y = 1 and 2x + 2y = 2: every equality row enters phase 1, and the
    # artificial of the dependent one stays basic at zero.
    alone = lp_solve(objective, HPolyhedron.make(2, A=[[1, 1]], b=[1], B=B, d=d))
    doubled = lp_solve(objective, HPolyhedron.make(2, A=[[1, 1], [2, 2]], b=[1, 2], B=B, d=d))
    assert (doubled.status, doubled.value) == (alone.status, alone.value)


def test_inconsistent_equality_rows_carry_a_checked_farkas_certificate(monkeypatch):
    # x + y = 1 and 2x + 2y = 3 end phase 1 above 0, so the infeasible
    # answer comes with Farkas multipliers that `_check_farkas` accepted.
    checked = []
    check = lp._StandardLP._check_farkas

    def recording(self, y):
        check(self, y)
        checked.append(y)

    monkeypatch.setattr(lp._StandardLP, "_check_farkas", recording)
    P = HPolyhedron.make(2, A=[[1, 1], [2, 2]], b=[1, 3])
    assert lp_solve([0, 1], P).status == INFEASIBLE
    (y,) = checked
    assert y[0] + 2 * y[1] == 0 and dot(y, P.b) > 0


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
    res = lp_solve([1, 1], P)
    assert res.status == OPTIMAL and res.value == 2


def test_free_variable_lp():
    # single inequality in R^2: max along the normal hits the facet
    P = HPolyhedron.make(2, B=[[1, 1]], d=[3])
    res = lp_solve([1, 1], P)
    assert res.status == OPTIMAL and res.value == 3
    assert lp_solve([1, -1], P).status == UNBOUNDED


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
    res = lp_solve(c, P)
    # bounded feasible region: always optimal, never raises a certificate error
    assert res.status == OPTIMAL
    assert P.contains(res.point)


def test_malformed_call_raises_value_error():
    with pytest.raises(ValueError):
        lp_solve([1, 1, 1], triangle())


_CORRUPT_MULTIPLIERS = """
import sys
from polycircuits import lp
from polycircuits.errors import CorrespondenceViolation
from polycircuits.polyhedron import HPolyhedron

poly = {
    "optimal": HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 1]], d=[0, 0, 1]),
    "infeasible": HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0]),
}[sys.argv[1]]
read = lp._StandardLP._row_duals
for name, corrupt in (
    ("zeroed", lambda y: tuple(0 * v for v in y)),
    ("shifted", lambda y: tuple(v + 1 for v in y)),
    ("negated", lambda y: tuple(-v for v in y)),
):
    lp._StandardLP._row_duals = staticmethod(lambda *args: corrupt(read(*args)))
    try:
        print(name, "returned", lp.lp_solve([1] * poly.n, poly).status)
    except CorrespondenceViolation as exc:
        print(name, "CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
@pytest.mark.parametrize(
    "case, check",
    [("optimal", "dual infeasible"), ("infeasible", "Farkas rhs")],
    ids=["optimal", "infeasible"],
)
def test_corrupt_certificate_multipliers_are_a_correspondence_violation(case, check, flags):
    # The dual and Farkas multipliers are read off the final tableau; a
    # wrong reading must fail the certificate check, also under -O.
    src = str(Path(lp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CORRUPT_MULTIPLIERS, case],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["zeroed", "shifted", "negated"]
    assert all("CorrespondenceViolation: simplex certificate check failed" in line for line in lines), lines
    assert any(line.endswith(check) for line in lines), lines


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: minimize_description(hypercube(3)), 2),
        (lambda: minimize_description(cross_polytope(3)), 1),
        (lambda: minimize_description(transportation(5, 2, (1, 4))), 10),
        (lambda: dim(hypercube(6)), 2),
        (lambda: check_inheritance(orthant(4), pi_matrix(3, 4)), 0),
    ],
    ids=["minimize-hypercube3", "minimize-cross-polytope3", "minimize-transport", "dim-hypercube6", "check-orthant4"],
)
def test_lp_counts_are_pinned(monkeypatch, run, expected):
    # Every LP goes through lp.lp_solve.
    # A change that adds or saves LPs must update these counts on purpose.
    # minimize_description's LPs are the implicit-row LPs (the feasible
    # point, then one per round: the summed slack of every row no witness
    # has left slack) and one redundancy LP per row the rays do not prove.
    # cube3 takes 1 + 1 (the round's point frees the 3 rows tight at the
    # start point 0) and cross3 1 (0 is slack on every row), both with
    # every row proved; dim(cube6) takes 1 + 1 the same way. transport,
    # with equality rows, takes 1 + 4 (each round's vertex frees one row)
    # and then 5 redundancy LPs, each dropping one of its 5 redundant rows.
    calls = []
    solve_lp = lp.lp_solve

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(lp, "lp_solve", counting)
    run()
    assert len(calls) == expected


def test_rows_with_nonnegative_rhs_start_on_their_slacks(monkeypatch):
    # With no equality rows and every rhs >= 0, each row starts in the
    # basis on its slack: no artificial column exists, so phase 1 makes no
    # pivot, and phase 2 does all the work.
    phase, pivots = [0], []
    reduced_costs, pivot = lp._StandardLP._reduced_costs, lp._StandardLP._pivot

    def pricing(*args):
        phase[0] += 1  # the phase-1 row is priced first, the phase-2 row second
        return reduced_costs(*args)

    def counting(*args):
        pivots.append(phase[0])
        pivot(*args)

    monkeypatch.setattr(lp._StandardLP, "_reduced_costs", staticmethod(pricing))
    monkeypatch.setattr(lp._StandardLP, "_pivot", staticmethod(counting))
    cube = hypercube(3)
    assert not cube.A and all(r >= 0 for r in cube.d)
    assert is_implied(vector([1, 1, 1]), Fraction(3), cube)
    assert pivots.count(1) == 0 and pivots.count(2) > 0, pivots


# ---------------------------------------------------------------------------
# The integer tableau against a Fraction reference.
#
# `_FractionStandardLP` is the simplex tableau over Fractions that the
# integer rows replaced: it builds its own Fraction standard form from the
# caller's rows, z = (u, w, s) with x = u - w and a unit slack column per
# inequality row, and runs the same two phases and the same Bland rule on
# it, with each row scaled by its pivot and every other row cleared entry
# by entry. Phase 1 starts on the same slack crash basis: the slack of each
# inequality row with rhs >= 0, and an artificial column for every other
# row. An artificial whose row has no nonzero real entry after phase 1
# belongs to a dependent equality row and stays basic; the artificial
# columns stay too, never eligible to enter and at cost 0 in phase 2.
# With no rows it takes its own route. It finds the dual and
# Farkas multipliers by solving on the final basis columns, a second route
# to the ones the integer tableau reads off its reduced costs, and shares
# the certificate checks. Both hold the same rationals after every pivot,
# so they must take the same pivots, pass the checks the same multipliers
# and return the same answer.


class _FractionStandardLP(lp._StandardLP):
    def solve(self):
        n, m, p = self.n, self.m, self.p
        q = m - p
        self.M = [
            list(row) + [-x for x in row] + [ONE if k == i - p else ZERO for k in range(q)]
            for i, row in enumerate(self.rows)
        ]
        self.cz = list(self.c) + [-x for x in self.c] + [ZERO] * q
        nz = len(self.cz)
        if m == 0:
            negative = [j for j in range(nz) if self.cz[j] < 0]
            if not negative:
                x = vector([ZERO] * n)
                self._check_optimal(x, ())
                return (OPTIMAL, x)
            z = [ZERO] * nz
            z[negative[0]] = ONE
            ray = self._x(z)
            self._check_ray(ray)
            return (UNBOUNDED, ray)
        arts = [i for i in range(m) if i < p or self.rhs[i] < 0]
        basis = [2 * n + i - p for i in range(m)]
        for k, i in enumerate(arts):
            basis[i] = nz + k
        tab = []
        for i in range(m):
            sign = ONE if self.rhs[i] >= 0 else -ONE
            art = [ONE if nz + k == basis[i] else ZERO for k in range(len(arts))]
            tab.append([sign * x for x in self.M[i]] + art + [sign * self.rhs[i]])
        obj = self._reduced_obj([ZERO] * nz + [ONE] * len(arts), tab, basis)
        status = self._iterate(tab, obj, basis, eligible=nz + len(arts))
        assert status is None
        if -obj[-1] != 0:
            self._check_farkas(self._farkas_from_basis(basis, arts))
            return (INFEASIBLE, None)
        for i in range(m):
            if basis[i] >= nz:
                col = next((j for j in range(nz) if tab[i][j] != 0), None)
                if col is not None:
                    self._pivot(tab, obj, basis, i, col)
        obj = self._reduced_obj(self.cz, tab, basis)
        status = self._iterate(tab, obj, basis, eligible=nz)
        z = [ZERO] * (len(tab[0]) - 1)
        if status is not None:
            z[status] = ONE
            for i in range(m):
                z[basis[i]] = -tab[i][status]
            ray = self._x(z)
            self._check_ray(ray)
            return (UNBOUNDED, ray)
        for i in range(m):
            z[basis[i]] = tab[i][-1]
        x = self._x(z)
        self._check_optimal(x, self._dual_from_basis(basis, arts))
        return (OPTIMAL, x)

    def _x(self, z):
        return vec_sub(z[: self.n], z[self.n : 2 * self.n])

    def _dual_from_basis(self, basis, arts):
        # Artificial column nz + k, at cost 0, is a unit column of row arts[k].
        nz = len(self.cz)
        cols = tuple(
            tuple(self.M[i][j] if j < nz else (ONE if arts[j - nz] == i else ZERO) for i in range(self.m))
            for j in basis
        )
        y = solve(cols, tuple(self.cz[j] if j < nz else ZERO for j in basis))
        assert y is not None, "basis matrix singular"
        return y

    def _farkas_from_basis(self, basis, arts):
        # Phase-1 dual of the rows negated to rhs >= 0, turned back.
        # Artificial column nz + k is the unit column of row arts[k].
        nz = len(self.cz)
        sgn = [ONE if r >= 0 else -ONE for r in self.rhs]
        cols = tuple(
            tuple(sgn[i] * self.M[i][j] if j < nz else (ONE if arts[j - nz] == i else ZERO) for i in range(self.m))
            for j in basis
        )
        y = solve(cols, tuple(ZERO if j < nz else ONE for j in basis))
        assert y is not None, "phase-1 basis matrix singular"
        return tuple(s * v for s, v in zip(sgn, y))

    @staticmethod
    def _reduced_obj(c, tab, basis):
        obj = list(c) + [ZERO] * (len(tab[0]) - len(c))
        for i, j in enumerate(basis):
            if obj[j] != 0:
                f = obj[j]
                obj[:] = [x - f * y for x, y in zip(obj, tab[i])]
        return obj

    def _iterate(self, tab, obj, basis, eligible):
        while True:
            enter = next((j for j in range(eligible) if obj[j] < 0), None)
            if enter is None:
                return None
            leave, best = None, None
            for i in range(len(tab)):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            if leave is None:
                return enter
            self._pivot(tab, obj, basis, leave, enter)

    @staticmethod
    def _pivot(tab, obj, basis, r, c):
        inv = ONE / tab[r][c]
        tab[r] = [x * inv for x in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
        if obj[c] != 0:
            f = obj[c]
            obj[:] = [x - f * y for x, y in zip(obj, tab[r])]
        basis[r] = c


def _entry(rng):
    k = rng.random()
    if k < 0.3:
        return Fraction(0)
    if k < 0.65:
        return Fraction(rng.randint(-5, 5))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _random_lp(rng):
    """(objective, poly) around a point x0 of fractional coordinates.

    Inequality rows are tight at x0 (degenerate vertices), slack there, or
    violated by it (possibly infeasible); their right-hand sides take both
    signs. Equality rows hold at x0, may repeat a scaled earlier row
    (redundant) or shift its right-hand side (inconsistent). Few rows and
    free variables make unbounded LPs common, and some LPs have no rows.
    Half the objectives are negated, which makes the maximum a minimum.
    """
    n = rng.randint(1, 4)
    x0 = [_entry(rng) for _ in range(n)]
    A = [[_entry(rng) for _ in range(n)] for _ in range(rng.choice([0, 0, 1, 2]))]
    b = [dot(vector(row), vector(x0)) for row in A]
    if A and rng.random() < 0.4:
        scale = rng.choice([Fraction(1), Fraction(-3, 2), Fraction(2)])
        A.append([scale * x for x in A[0]])
        b.append(scale * b[0] + rng.choice([0, 0, 1]))
    B, d = [], []
    for _ in range(rng.randint(0, 6)):
        row = [_entry(rng) for _ in range(n)]
        B.append(row)
        d.append(dot(vector(row), vector(x0)) + rng.choice([0, 0, Fraction(1, 2), 3, -1]))
    objective = [_entry(rng) for _ in range(n)]
    if rng.choice([False, True]):
        objective = [-x for x in objective]
    return objective, HPolyhedron.make(n, A=A, b=b, B=B, d=d)


def _solve_recording_pivots(monkeypatch, cls, objective, poly):
    """lp_solve through `cls`; also the pivots taken and the multipliers checked."""
    pivots, multipliers = [], []
    pivot = cls._pivot
    check_optimal, check_farkas = cls._check_optimal, cls._check_farkas

    def recording(tab, obj, basis, r, c):
        pivots.append((r, c, tab[r][-1] == 0, tab[r][c] < 0))
        pivot(tab, obj, basis, r, c)

    def optimal(self, x, y):
        multipliers.append(("dual", tuple(y)))
        check_optimal(self, x, y)

    def farkas(self, y):
        multipliers.append(("farkas", tuple(y)))
        check_farkas(self, y)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_StandardLP", cls)
        patch.setattr(cls, "_pivot", staticmethod(recording))
        patch.setattr(cls, "_check_optimal", optimal)
        patch.setattr(cls, "_check_farkas", farkas)
        return lp_solve(objective, poly), pivots, multipliers


@pytest.mark.parametrize("seed", range(25))
def test_integer_tableau_matches_fraction_reference(monkeypatch, seed):
    rng = random.Random(2000 + seed)
    for _ in range(20):
        objective, poly = _random_lp(rng)
        got, path, certs = _solve_recording_pivots(monkeypatch, lp._StandardLP, objective, poly)
        ref, ref_path, ref_certs = _solve_recording_pivots(monkeypatch, _FractionStandardLP, objective, poly)
        assert path == ref_path
        assert certs == ref_certs
        # every infeasible answer carries a checked Farkas certificate
        assert (got.status == INFEASIBLE) == ([kind for kind, _ in certs] == ["farkas"])
        assert (got.status, got.value, got.point, got.ray) == (ref.status, ref.value, ref.point, ref.ray)
        for x in (got.value, *(got.point or ()), *(got.ray or ())):
            assert x is None or type(x) is Fraction


def test_reference_lps_cover_every_case(monkeypatch):
    # The seeded LPs above reach every status, include LPs with no rows,
    # pivot on degenerate vertices and on negative entries (an artificial
    # pivoted out after phase 1), and carry redundant and inconsistent
    # equality rows. Their dual and Farkas multipliers are nonzero on
    # equality rows (read from kept artificial columns) and on rows negated
    # for phase 1, and their Farkas multipliers on inequality rows that
    # start on their slack (read from the slack column at cost 0).
    seen = set()
    for seed in range(25):
        rng = random.Random(2000 + seed)
        for _ in range(20):
            objective, poly = _random_lp(rng)
            res, path, certs = _solve_recording_pivots(monkeypatch, lp._StandardLP, objective, poly)
            seen.add(res.status)
            p, rhs = len(poly.A), poly.b + poly.d
            for kind, y in certs:
                if any(y[:p]):
                    seen.add(f"{kind} on equality row")
                if any(v and r < 0 for v, r in zip(y, rhs)):
                    seen.add(f"{kind} on negated row")
                if any(v and r >= 0 for v, r in zip(y[p:], rhs[p:])):
                    seen.add(f"{kind} on slack-start row")
            if any(degenerate for _, _, degenerate, _ in path):
                seen.add("degenerate pivot")
            if any(negative for _, _, _, negative in path):
                seen.add("negative pivot")
            if not poly.A and not poly.B:
                seen.add("no rows")
            if len(poly.A) > rank(poly.A):
                consistent = rank([row + (r,) for row, r in zip(poly.A, poly.b)]) == rank(poly.A)
                seen.add("redundant equalities" if consistent else "inconsistent equalities")
            if any(r < 0 for r in poly.d):
                seen.add("negative rhs")
            if any(x.denominator > 1 for row in poly.B for x in row):
                seen.add("fractional")
    cases = {OPTIMAL, UNBOUNDED, INFEASIBLE, "no rows"}
    cases |= {"redundant equalities", "inconsistent equalities", "negative rhs", "fractional"}
    cases |= {"degenerate pivot", "negative pivot"}
    cases |= {f"{kind} on {row} row" for kind in ("dual", "farkas") for row in ("equality", "negated")}
    cases.add("farkas on slack-start row")
    assert cases <= seen, cases - seen
