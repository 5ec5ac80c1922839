"""Exact two-phase primal simplex over rational data.

`lp_solve` maximizes c^T x over {A x = b, B x <= d} with free x, as
min -c^T x over the standard form z = (u, w, s) >= 0, x = u - w, with a
slack s per B row. Every row enters, dependent equality rows included.
Bland's rule everywhere, so runs terminate and are deterministic for a
fixed row and column order.

Phase 1 starts on a slack crash basis (Chvatal 1983, ch. 8; Bixby 1992):
a B row with rhs >= 0 starts in the basis on its slack, and only an
equality row or a B row with rhs < 0 gets an artificial column, whose
sum phase 1 minimizes. When it reaches 0, each artificial still basic is
pivoted out on a nonzero real entry of its row. A row with none is a
combination of equality rows, one of which depends on the others; its
artificial stays basic at zero through phase 2, where no pivot touches
the row. Dependent rows that contradict the others leave phase 1 above
0: the LP is infeasible, with Farkas multipliers like any other.

The standard form exists only as one integer tableau, built from the
polyhedron's integer rows (`HPolyhedron._ints`): a row [a, rhs] times s,
the lcm of its denominators, gives the u entries s*a, the w entries -s*a
and, on a B row, a slack entry s. Each tableau row, the objective row
included, is a list of integer numerators over one positive denominator,
in lowest terms. A pivot divides the pivot row by its entry and turns
every other row into (p*N_i - f*N_r) / (d_i*p); the ratio test compares
cross-multiplied numerators. These rows stand for exactly the rationals
of a Fraction tableau after every pivot, so Bland's rule makes the same
choices; Fractions are built only for the returned point or ray.

The multipliers come from the final tableau. Each row has a unit column:
for the duals its slack column or, for an equality row, its artificial
column, kept through phase 2 and never allowed to enter; for the Farkas
multipliers its start column, an artificial at phase-1 cost 1 or a slack
at cost 0. Its reduced cost is its cost minus the row's multiplier: the
phase-2 objective row gives the duals, the phase-1 row the Farkas ones.

Every answer's certificate is checked once, on all of the caller's rows,
before it is returned, so a wrong reading fails a check rather than
giving a wrong answer. Optimal: the point satisfies every row, and
multipliers y with y_B <= 0 and y^T [A; B] = -c have y^T (b, d) = -c^T x.
Unbounded: a ray r with A r = 0, B r <= 0 and c^T r > 0. Infeasible:
Farkas multipliers with y_B <= 0, y^T [A; B] = 0 and y^T (b, d) > 0. A
failed check raises CorrespondenceViolation since it can only come from
a bug here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import CorrespondenceViolation
from .linalg import ONE, ZERO, Vector, _int_vector, dot, vector

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction] = None
    point: Optional[Vector] = None
    ray: Optional[Vector] = None


def lp_solve(objective: Sequence[Fraction], poly) -> LPResult:
    """Maximize objective over {A x = b, B x <= d} with free variables x."""
    c = vector(objective)
    if len(c) != poly.n:
        raise ValueError(f"objective has length {len(c)}, polyhedron dimension is {poly.n}")
    status, x = _StandardLP(poly, tuple(-v for v in c)).solve()
    if status == OPTIMAL:
        _assert(poly.contains(x), "point violates rows")
        return LPResult(OPTIMAL, value=dot(c, x), point=x)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, ray=x)
    return LPResult(INFEASIBLE)


def is_feasible(poly) -> bool:
    return lp_solve([ZERO] * poly.n, poly).status != INFEASIBLE


def is_implied(normal: Sequence[Fraction], rhs, poly) -> bool:
    """True iff a^T x <= rhs holds on all of poly (vacuously on empty)."""
    res = lp_solve(normal, poly)
    return res.status == INFEASIBLE or (res.status == OPTIMAL and res.value <= rhs)


def _assert(cond: bool, msg: str) -> None:
    if not cond:
        raise CorrespondenceViolation(f"simplex certificate check failed: {msg}")


class _StandardLP:
    """min c^T x subject to rows[i] x = rhs[i] for i < p, rows[i] x <= rhs[i] after.

    The rows are the A rows, then the B rows, of a polyhedron. `solve`
    returns (status, x) with x the optimal point, the ray, or None when
    infeasible, and checks the certificate of each answer on these rows.

    Its tableau has the 2n + q columns of z = (u, w, s), then one
    artificial column per row that does not start on its slack, then the
    right-hand side. The tableau holds m constraint rows and, as row m, the
    objective row. Row i stands for the rationals tab[i][j] / den[i];
    den[i] > 0 and the row is in lowest terms. With no rows the same steps
    apply: phase 2 has no basis, and the first column of negative cost, u
    before w, is the ray.
    """

    def __init__(self, poly, c: Vector):
        self.poly, self.n, self.c = poly, poly.n, c
        self.rows, self.rhs, self.p = (*poly.A, *poly.B), (*poly.b, *poly.d), len(poly.A)
        self.m = len(self.rows)
        self.nz = 2 * self.n + self.m - self.p

    def solve(self):
        n, m, nz, p = self.n, self.m, self.nz, self.p
        # Phase 1 starts on the slack crash basis; equality rows take the
        # first artificials. A row's scale is its denominator, which is also
        # its slack and artificial entry; rows with rhs < 0 are negated, the
        # artificial entry is not.
        start = [2 * n + i - p if i >= p and r >= 0 else None for i, r in enumerate(self.rhs)]
        arts = [i for i in range(m) if start[i] is None]
        for k, i in enumerate(arts):
            start[i] = nz + k
        ints = self.poly._ints
        tab, den, sign = [], list(ints.scale), []
        for i, (row, scale) in enumerate(zip(ints.A + ints.B, ints.scale)):
            *a, r = row
            slack = [scale if k == i - p else 0 for k in range(m - p)]
            coeffs = a + [-x for x in a] + slack
            sign.append(-1 if r < 0 else 1)
            if r < 0:
                coeffs, r = [-x for x in coeffs], -r
            art = [scale if start[i] == nz + k else 0 for k in range(len(arts))]
            tab.append(coeffs + art + [r])
        basis = list(start)
        obj, scale = self._reduced_costs(tab, den, basis, [0] * nz + [1] * len(arts) + [0], 1)
        tab.append(obj)
        den.append(scale)
        status = self._iterate(tab, den, basis, eligible=nz + len(arts))
        _assert(status is None, "phase 1 unbounded")
        if tab[m][-1] != 0:
            self._check_farkas(self._row_duals(tab[m], den[m], start, sign, [int(j >= nz) for j in start]))
            return (INFEASIBLE, None)

        # An artificial whose row has no nonzero real entry stays basic at
        # zero: that row is a combination of equality rows, so the
        # artificial is an equality row's, whose column is kept below.
        for i in range(m):
            if basis[i] >= nz:
                col = next((j for j in range(nz) if tab[i][j] != 0), None)
                if col is not None:
                    self._pivot(tab, den, basis, i, col)
        # An equality row keeps its artificial column, which never enters
        # again; its reduced cost carries the row's dual, 0 while basic.
        for i in range(m):
            tab[i], den[i] = _lowest_terms(tab[i][: nz + p] + tab[i][-1:], den[i])
        dual_cols = [*range(nz, nz + p), *range(2 * n, nz)]
        dual_sign = sign[:p] + [1] * (m - p)

        # Phase 2 on the real columns.
        cost, scale = _int_vector(self.c)
        tab[m], den[m] = self._reduced_costs(tab, den, basis, cost + [-x for x in cost] + [0] * (m + 1), scale)
        enter = self._iterate(tab, den, basis, eligible=nz)
        if enter is not None:
            ray = self._x_of([(enter, ONE)] + [(basis[i], Fraction(-tab[i][enter], den[i])) for i in range(m)])
            self._check_ray(ray)
            return (UNBOUNDED, ray)
        x = self._x_of([(basis[i], Fraction(tab[i][-1], den[i])) for i in range(m)])
        self._check_optimal(x, self._row_duals(tab[m], den[m], dual_cols, dual_sign, [0] * m))
        return (OPTIMAL, x)

    def _x_of(self, z) -> Vector:
        """x = u - w of a point or ray z of the standard form, given as (column, value) pairs."""
        n = self.n
        x = [ZERO] * n
        for j, v in z:
            if j < n:
                x[j] += v
            elif j < 2 * n:
                x[j - n] -= v
        return tuple(x)

    @staticmethod
    def _reduced_costs(tab, den, basis, cost: list[int], scale: int) -> tuple[list[int], int]:
        """The objective row of cost / scale, priced out on the basis."""
        for i, j in enumerate(basis):
            if cost[j]:
                cost, scale = _eliminate(cost, scale, tab[i], den[i], j)
        return cost, scale

    @staticmethod
    def _row_duals(obj: list[int], scale: int, cols, sign, cost) -> Vector:
        """Row multipliers y read off a final objective row obj / scale.

        Column cols[i] is the unit column of row i, times sign[i] in the
        row's orientation, at cost cost[i]; its reduced cost is
        cost[i] - sign[i]*y[i].
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

    def _combination(self, y: Vector) -> Vector:
        """y^T rows, summed over the rows where y is nonzero."""
        rows = [i for i, v in enumerate(y) if v]
        ys = tuple(y[i] for i in rows)
        return tuple(dot(ys, tuple(self.rows[i][j] for i in rows)) for j in range(self.n))

    def _check_optimal(self, x: Vector, y: Vector) -> None:
        _assert(all(v <= 0 for v in y[self.p :]) and self._combination(y) == self.c, "dual infeasible")
        _assert(dot(y, self.rhs) == dot(self.c, x), "duality gap")

    def _check_ray(self, r: Vector) -> None:
        _assert(all(dot(row, r) == 0 for row in self.rows[: self.p]), "ray leaves equalities")
        _assert(all(dot(row, r) <= 0 for row in self.rows[self.p :]), "ray not recessive")
        _assert(dot(self.c, r) < 0, "ray does not improve")

    def _check_farkas(self, y: Vector) -> None:
        _assert(all(v <= 0 for v in y[self.p :]) and not any(self._combination(y)), "Farkas columns")
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
