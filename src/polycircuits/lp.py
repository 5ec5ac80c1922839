"""Exact two-phase primal simplex over rational data.

Bland's rule everywhere, so runs terminate and are deterministic for a
fixed row and column order. Every answer ships with an exact
certificate that is re-checked against the original data before it is
returned: a feasible point plus equal-value dual multipliers for
optimal, a recession direction with positive growth for unbounded, and
Farkas multipliers for infeasible. A certificate failure raises
CorrespondenceViolation since it can only come from a bug here.

The tableau runs on Python ints. Input rows are scaled to integers
(`linalg._int_rows`), and each tableau row, the objective row included,
is a list of integer numerators over one positive denominator, kept in
lowest terms. A pivot divides the pivot row by its entry and turns every
other row into (p*N_i - f*N_r) / (d_i*p); the ratio test compares
cross-multiplied numerators. These rows stand for exactly the rationals
of a Fraction tableau after every pivot, so Bland's rule makes the same
choices and every answer is the same; Fractions are built only for the
returned point or ray.

The multipliers come from the final tableau. Each row has a unit column:
its slack column, or, for an equality row, its artificial column, kept
through phase 2 and never allowed to enter. The reduced cost of that
column is its cost minus the row's multiplier. So the phase-2 objective
row gives the duals and the phase-1 row the Farkas multipliers. The
certificate checks then run on the original Fraction data, so a wrong
reading fails a check rather than giving a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import CorrespondenceViolation
from .linalg import (
    ONE,
    ZERO,
    Vector,
    _int_rows,
    dot,
    is_zero,
    mat_vec,
    rank,
    row_space_basis_indices,
    vec_sub,
    vector,
)

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction] = None
    point: Optional[Vector] = None
    ray: Optional[Vector] = None


def lp_solve(objective: Sequence[Fraction], poly, sense: str = "max") -> LPResult:
    """Optimize objective over {A x = b, B x <= d} with free variables x."""
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', not {sense!r}")
    c = vector(objective)
    n = poly.n
    if len(c) != n:
        raise ValueError(f"objective has length {len(c)}, polyhedron dimension is {n}")
    # Internal solver minimizes; for max we minimize -c.
    cmin = tuple(-x for x in c) if sense == "max" else c

    res = _solve_min(cmin, poly)

    if res.status == OPTIMAL:
        value = dot(c, res.point)
        _assert(poly.contains(res.point), "optimal point infeasible")
        return LPResult(OPTIMAL, value=value, point=res.point)
    if res.status == UNBOUNDED:
        r = res.ray
        _assert(is_zero(mat_vec(poly.A, r)) if poly.A else True, "ray leaves equalities")
        _assert(all(x <= 0 for x in mat_vec(poly.B, r)) if poly.B else True, "ray not recessive")
        growth = dot(c, r)
        _assert(growth > 0 if sense == "max" else growth < 0, "ray does not improve")
        return LPResult(UNBOUNDED, ray=r)
    return LPResult(INFEASIBLE)


def is_feasible(poly) -> bool:
    return lp_solve([ZERO] * poly.n, poly).status != INFEASIBLE


def is_implied(normal: Sequence[Fraction], rhs, poly) -> bool:
    """True iff a^T x <= rhs holds on all of poly (vacuously on empty)."""
    res = lp_solve(normal, poly, sense="max")
    if res.status == UNBOUNDED:
        return False
    if res.status == INFEASIBLE:
        return True
    return res.value <= rhs


def _assert(cond: bool, msg: str) -> None:
    if not cond:
        raise CorrespondenceViolation(f"simplex certificate check failed: {msg}")


def _solve_min(c: Vector, poly) -> LPResult:
    """Minimize c^T x over poly; point/ray are in original x coordinates."""
    n, A, b, B, d = poly.n, poly.A, poly.b, poly.B, poly.d
    p, q = len(A), len(B)

    # Independent equality rows; inequality rows are always independent in
    # standard form thanks to their slack columns.
    if p:
        keep = row_space_basis_indices(A)
        if len(keep) < p and rank([row + (rhs,) for row, rhs in zip(A, b)]) > len(keep):
            return LPResult(INFEASIBLE)
        A = tuple(A[i] for i in keep)
        b = tuple(b[i] for i in keep)
        p = len(A)

    # Standard form: z = (u, w, s) >= 0 with x = u - w, slack s on B rows.
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(p):
        rows.append(list(A[i]) + [-x for x in A[i]] + [ZERO] * q)
        rhs.append(b[i])
    for i in range(q):
        slack = [ZERO] * q
        slack[i] = ONE
        rows.append(list(B[i]) + [-x for x in B[i]] + slack)
        rhs.append(d[i])
    cz = list(c) + [-x for x in c] + [ZERO] * q

    std = _StandardLP(rows, rhs, cz, [None] * p + [2 * n + i for i in range(q)])
    out = std.solve()

    if out[0] == INFEASIBLE:
        return LPResult(INFEASIBLE)
    if out[0] == UNBOUNDED:
        zray = out[1]
        xray = vec_sub(zray[:n], zray[n : 2 * n])
        return LPResult(UNBOUNDED, ray=xray)
    zpt = out[1]
    x = vec_sub(zpt[:n], zpt[n : 2 * n])
    return LPResult(OPTIMAL, value=dot(c, x), point=x)


class _StandardLP:
    """min c^T z, M z = rhs, z >= 0, with M of full row rank.

    slack[i] is a zero-cost column of M equal to the i-th unit column, or
    None when row i has none.

    The tableau holds m constraint rows and, as row m, the objective row.
    Row i stands for the rationals tab[i][j] / den[i]; den[i] > 0 and the
    row is in lowest terms.
    """

    def __init__(
        self, M: list[list[Fraction]], rhs: list[Fraction], c: list[Fraction], slack: list[Optional[int]]
    ):
        self.M = M
        self.rhs = rhs
        self.c = c
        self.slack = slack
        self.m = len(M)
        self.nz = len(c)

    def solve(self):
        m, nz = self.m, self.nz
        if m == 0:
            j = next((j for j in range(nz) if self.c[j] < 0), None)
            if j is None:
                return (OPTIMAL, vector([ZERO] * nz))
            ray = [ZERO] * nz
            ray[j] = ONE
            return (UNBOUNDED, vector(ray))

        # Phase 1: artificial columns form the initial basis. The appended
        # ONE scales to the row's denominator, which is also its artificial
        # entry; rows with rhs < 0 are negated, the artificial entry is not.
        tab, den, sign = [], [], []
        for i, row in enumerate(_int_rows([[*row, r, ONE] for row, r in zip(self.M, self.rhs)])):
            *coeffs, r, scale = row
            sign.append(-1 if r < 0 else 1)
            if r < 0:
                coeffs, r = [-x for x in coeffs], -r
            art = [0] * m
            art[i] = scale
            tab.append(coeffs + art + [r])
            den.append(scale)
        basis = [nz + i for i in range(m)]
        obj, scale = self._reduced_costs(tab, den, basis, [0] * nz + [1] * m + [0], 1)
        tab.append(obj)
        den.append(scale)
        status = self._iterate(tab, den, basis, eligible=nz + m)
        _assert(status is None, "phase 1 unbounded")
        if tab[m][-1] != 0:
            self._check_farkas(self._row_duals(tab[m], den[m], range(nz, nz + m), sign, [1] * m))
            return (INFEASIBLE,)

        # Full row rank guarantees every artificial can be pivoted out.
        for i in range(m):
            if basis[i] >= nz:
                col = next(j for j in range(nz) if tab[i][j] != 0)
                self._pivot(tab, den, basis, i, col)
        # A row without a slack column keeps its artificial column, which
        # never enters again; its reduced cost carries the row's dual.
        kept = [i for i, s in enumerate(self.slack) if s is None]
        for i in range(m):
            tab[i], den[i] = _lowest_terms(tab[i][:nz] + [tab[i][nz + k] for k in kept] + tab[i][-1:], den[i])
        art = iter(range(nz, nz + len(kept)))
        dual_cols = [next(art) if s is None else s for s in self.slack]
        dual_sign = [sign[i] if s is None else 1 for i, s in enumerate(self.slack)]

        # Phase 2 on the real columns.
        *cost, scale = _int_rows([[*self.c, ONE]])[0]
        tab[m], den[m] = self._reduced_costs(tab, den, basis, cost + [0] * len(kept) + [0], scale)
        status = self._iterate(tab, den, basis, eligible=nz)
        if status is not None:
            enter = status
            ray = [ZERO] * nz
            ray[enter] = ONE
            for i in range(m):
                ray[basis[i]] = Fraction(-tab[i][enter], den[i])
            self._check_ray(vector(ray))
            return (UNBOUNDED, vector(ray))
        z = [ZERO] * nz
        for i in range(m):
            z[basis[i]] = Fraction(tab[i][-1], den[i])
        self._check_optimal(vector(z), self._row_duals(tab[m], den[m], dual_cols, dual_sign, [0] * m))
        return (OPTIMAL, vector(z))

    @staticmethod
    def _reduced_costs(tab, den, basis, cost: list[int], scale: int) -> tuple[list[int], int]:
        """The objective row of cost / scale, priced out on the basis."""
        for i, j in enumerate(basis):
            if cost[j]:
                cost, scale = _eliminate(cost, scale, tab[i], den[i], j)
        return cost, scale

    @staticmethod
    def _row_duals(obj: list[int], scale: int, cols, sign, cost) -> Vector:
        """Row multipliers y of M read off a final objective row obj / scale.

        Column cols[i] is the unit column of row i, times sign[i] in M's row
        orientation, at cost cost[i]; its reduced cost is cost[i] - sign[i]*y[i].
        """
        return tuple(s * (c - Fraction(obj[j], scale)) for j, s, c in zip(cols, sign, cost))

    def _iterate(self, tab, den, basis, eligible: int):
        """Run Bland pivots to optimality; returns entering column if unbounded.

        Entry signs are numerator signs. Ratios rhs_i / a_i share the row
        denominator, so they compare by cross-multiplied numerators.
        """
        while True:
            obj = tab[-1]
            enter = next((j for j in range(eligible) if obj[j] < 0), None)
            if enter is None:
                return None
            leave = None
            for i in range(len(basis)):
                a = tab[i][enter]
                if a > 0:
                    if leave is None:
                        leave, num, div = i, tab[i][-1], a
                        continue
                    new, best = tab[i][-1] * div, num * a
                    if new < best or (new == best and basis[i] < basis[leave]):
                        leave, num, div = i, tab[i][-1], a
            if leave is None:
                return enter
            self._pivot(tab, den, basis, leave, enter)

    @staticmethod
    def _pivot(tab, den, basis, r: int, c: int) -> None:
        """Divide row r by its entry in column c and clear c from every other row."""
        prow = tab[r]
        p = prow[c]
        if p < 0:
            prow, p = [-x for x in prow], -p
        prow, p = _lowest_terms(prow, p)
        tab[r], den[r] = prow, p
        for i, row in enumerate(tab):
            if i != r and row[c]:
                tab[i], den[i] = _eliminate(row, den[i], prow, p, c)
        basis[r] = c

    def _combination(self, y: Vector) -> list[Fraction]:
        """y^T M, summed over the rows where y is nonzero."""
        rows = [i for i, v in enumerate(y) if v]
        ys = tuple(y[i] for i in rows)
        return [dot(ys, tuple(self.M[i][j] for i in rows)) for j in range(self.nz)]

    def _check_optimal(self, z: Vector, y: Vector) -> None:
        _assert(all(x >= 0 for x in z), "negative basic value")
        _assert(all(dot(row, z) == r for row, r in zip(self.M, self.rhs)), "point violates rows")
        _assert(all(v <= c for v, c in zip(self._combination(y), self.c)), "dual infeasible")
        _assert(dot(y, self.rhs) == dot(vector(self.c), z), "duality gap")

    def _check_ray(self, ray: Vector) -> None:
        _assert(all(x >= 0 for x in ray), "ray leaves the cone")
        _assert(all(dot(row, ray) == 0 for row in self.M), "ray not in row kernel")
        _assert(dot(vector(self.c), ray) < 0, "ray does not decrease objective")

    def _check_farkas(self, y: Vector) -> None:
        # Phase-1 dual: y^T M <= 0 on real columns yet y^T rhs > 0.
        _assert(all(v <= 0 for v in self._combination(y)), "Farkas columns")
        _assert(dot(y, self.rhs) > 0, "Farkas rhs")


def _eliminate(row: list[int], d: int, prow: list[int], p: int, c: int) -> tuple[list[int], int]:
    """row/d minus (row[c]/d) times prow/p, whose entry in column c is 1.

    That is (p*row - row[c]*prow) / (d*p), in lowest terms.
    """
    f = row[c]
    return _lowest_terms([p * x - f * y for x, y in zip(row, prow)], d * p)


def _lowest_terms(row: list[int], d: int) -> tuple[list[int], int]:
    g = gcd(d, *row)
    if g == 1:
        return row, d
    return [x // g for x in row], d // g
