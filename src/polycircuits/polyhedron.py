"""H-representation polyhedra {A x = b, B x <= d} and geometric operations.

Descriptions matter here: several quantities computed downstream
(circuits in particular) depend on the literal row system, not just on
the point set, so operations never silently rewrite a description. Rows
are promoted or dropped only by `minimize_description` and by `project`;
both share one row normalizer and redundancy pass (`_irredundant_rows`).

`project` asks each LP question once:
- Fourier-Motzkin elimination prunes after every step, and a row that a
  prune kept is not tested again (`_Eliminator`). Its witness, a point
  that satisfies every other row and violates it, survives the later
  steps: new rows are nonnegative combinations of rows it satisfies, and
  substitution keeps the equality rows it satisfies.
- After the last prune the implicit equalities are promoted, and the rows
  are not pruned again. By Farkas, the implicit rows have a positive
  combination that reads 0 <= 0 and uses no other row, so dropping any
  other row keeps them implicit. Promoting them therefore leaves the
  polyhedron that every row was tested against unchanged.
- A row slack at some known point is not an implicit equality, so only
  rows that no LP point has shown slack get an LP (`_implicit_rows`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, gcd
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .directions import CircuitSet
from .errors import (
    BudgetExceeded,
    CorrespondenceViolation,
    EmptyPolyhedron,
    NotPointed,
    PreconditionViolation,
)
from .linalg import (
    _EMPTY,
    _Echelon,
    ONE,
    ZERO,
    Direction,
    Matrix,
    Vector,
    _canonical,
    _fold,
    _int_rows,
    _kernel_line,
    _rank_upto,
    _subset_echelons,
    dot,
    identity,
    is_zero,
    kernel_basis,
    mat_vec,
    matmul,
    matrix,
    primitive,
    rank,
    row_space_basis_indices,
    rref,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)
from . import lp

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class HPolyhedron:
    """{x in R^n : A x = b, B x <= d}; either row block may be empty."""

    n: int
    A: Matrix = ()
    b: Vector = ()
    B: Matrix = ()
    d: Vector = ()
    name: str = ""

    def __post_init__(self):
        if len(self.A) != len(self.b):
            raise PreconditionViolation(f"{len(self.A)} equality rows but {len(self.b)} right-hand sides")
        if len(self.B) != len(self.d):
            raise PreconditionViolation(f"{len(self.B)} inequality rows but {len(self.d)} right-hand sides")
        for block, rows in (("A", self.A), ("B", self.B)):
            for i, row in enumerate(rows):
                if len(row) != self.n:
                    raise PreconditionViolation(
                        f"row {i} of {block} has length {len(row)}, expected n = {self.n}"
                    )

    @staticmethod
    def make(n, A=(), b=(), B=(), d=(), name="") -> "HPolyhedron":
        return HPolyhedron(
            n=n, A=matrix(A), b=vector(b), B=matrix(B), d=vector(d), name=name
        )

    def contains(self, x: Sequence[Fraction]) -> bool:
        x = vector(x)
        if any(dot(row, x) != rhs for row, rhs in zip(self.A, self.b)):
            return False
        return all(dot(row, x) <= rhs for row, rhs in zip(self.B, self.d))

    def tight_inequality_rows(self, x: Sequence[Fraction]) -> tuple[int, ...]:
        x = vector(x)
        return tuple(i for i, (row, rhs) in enumerate(zip(self.B, self.d)) if dot(row, x) == rhs)

    def renamed(self, name: str) -> "HPolyhedron":
        return replace(self, name=name)


@dataclass(frozen=True)
class LinearMap:
    """x -> M x."""

    matrix: Matrix
    name: str = ""

    @property
    def out_dim(self) -> int:
        return len(self.matrix)

    def in_dim(self, default: int = 0) -> int:
        return len(self.matrix[0]) if self.matrix else default

    def __call__(self, x: Sequence[Fraction]) -> Vector:
        return mat_vec(self.matrix, x)

    def image_directions(self, dirs: Iterable[Sequence[Fraction]]) -> CircuitSet:
        """Canonical nonzero images of a direction collection."""
        return CircuitSet.of(map(self, dirs))

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(matrix=identity(n))


@dataclass(frozen=True)
class AffineMap:
    """x -> M x + offset."""

    matrix: Matrix
    offset: Vector

    def __call__(self, x: Sequence[Fraction]) -> Vector:
        return vec_add(mat_vec(self.matrix, x), self.offset)


@dataclass(frozen=True)
class VRep:
    """conv(vertices) + cone(rays); rays are primitive integer tuples with B r <= 0."""

    vertices: tuple[Vector, ...] = ()
    rays: tuple[Direction, ...] = ()


def check_budget(count: int, budget: Optional[int], what: str) -> None:
    if budget is not None and count > budget:
        raise BudgetExceeded(count, budget, what)


def is_pointed(P: HPolyhedron) -> bool:
    """Trivial lineality space: ker(A) meets ker(B) only at zero."""
    return rank(P.A + P.B) == P.n


def lineality_basis(P: HPolyhedron) -> list[Vector]:
    return kernel_basis(P.A + P.B, P.n)


def _feasible_point(P: HPolyhedron) -> Vector:
    """A point of P, from the zero-objective LP; raises EmptyPolyhedron."""
    res = lp.lp_solve([ZERO] * P.n, P)
    if res.status == lp.INFEASIBLE:
        raise EmptyPolyhedron(P.name or "polyhedron")
    return res.point


def implicit_equality_rows(P: HPolyhedron) -> tuple[int, ...]:
    """Inequality rows that hold with equality on the whole polyhedron."""
    return _implicit_rows(P, _feasible_point(P))


def _implicit_rows(P: HPolyhedron, x: Vector) -> tuple[int, ...]:
    """`implicit_equality_rows` of P, given a point x of P.

    A row that is slack at some point of P is not an implicit equality.
    x is the first such witness; a row that no witness so far leaves slack
    gets one LP, max -row.x over P. Its optimal point is a further witness,
    and so is x + ray when it is unbounded: the ray leaves every row it
    decreases slack.
    """
    slack = [dot(row, x) < rhs for row, rhs in zip(P.B, P.d)]
    for i, row in enumerate(P.B):
        if slack[i]:
            continue
        res = lp.lp_solve(tuple(-v for v in row), P)
        if res.point is not None:
            slack = [s or dot(r, res.point) < rhs for s, r, rhs in zip(slack, P.B, P.d)]
        elif res.ray is not None:
            slack = [s or dot(r, res.ray) < 0 for s, r in zip(slack, P.B)]
    return tuple(i for i, s in enumerate(slack) if not s)


def dim(P: HPolyhedron) -> int:
    """Dimension of the affine hull; raises EmptyPolyhedron when empty."""
    implicit = implicit_equality_rows(P)
    eqs = P.A + tuple(P.B[i] for i in implicit)
    return P.n - (rank(eqs) if eqs else 0)


def minimize_description(P: HPolyhedron) -> HPolyhedron:
    """Promote implicit equalities, then drop every redundant row.

    The result has full-row-rank A and each inequality row facet-defining.
    """
    Q = _promoted(P, implicit_equality_rows(P))  # raises on empty input
    B, d = _irredundant_rows(Q.n, Q.A, Q.b, Q.B, Q.d)
    return replace(Q, B=B, d=d)


def _promoted(P: HPolyhedron, implicit: Sequence[int]) -> HPolyhedron:
    """P with its implicit equality rows moved to A and dependent A rows dropped."""
    A = P.A + tuple(P.B[i] for i in implicit)
    b = P.b + tuple(P.d[i] for i in implicit)
    keep = row_space_basis_indices(A) if A else []
    promoted = set(implicit)
    rest = [i for i in range(len(P.B)) if i not in promoted]
    return replace(
        P,
        A=tuple(A[i] for i in keep),
        b=tuple(b[i] for i in keep),
        B=tuple(P.B[i] for i in rest),
        d=tuple(P.d[i] for i in rest),
    )


def _scaled_row(row: Sequence[Fraction], rhs: Fraction) -> tuple[Vector, Fraction]:
    """Rescale a nonzero row to its primitive integer normal, keeping orientation."""
    prim = primitive(row)
    j = next(i for i, x in enumerate(row) if x != 0)
    return prim, rhs * prim[j] / row[j]


def _irredundant_rows(
    n: int,
    A: Matrix,
    b: Vector,
    B: Sequence[Sequence[Fraction]],
    d: Sequence[Fraction],
    certified: Optional[Sequence[bool]] = None,
) -> tuple[Matrix, Vector]:
    """Inequality rows of {A x = b, B x <= d} that no other row implies.

    A cheap syntactic pass comes first: every row is scaled to its primitive
    normal, and of each group of parallel rows only the tightest stays. Then
    one LP per remaining row drops it when the rest imply it. A row flagged
    in `certified` is known to be implied by no set of the other rows, so
    it runs no LP and stays; every other row sees the same rest as without
    the flags.
    """
    seen: dict[Vector, tuple[Fraction, bool]] = {}
    for row, rhs, cert in zip(B, d, certified or itertools.repeat(False)):
        if is_zero(row):
            continue  # 0 <= d is vacuous for feasible P
        key, val = _scaled_row(row, rhs)
        if key not in seen or val < seen[key][0]:
            seen[key] = (val, cert)
    B = list(seen)
    d = [val for val, _ in seen.values()]
    cert = [c for _, c in seen.values()]
    i = 0
    while i < len(B):
        if not cert[i]:
            rest = HPolyhedron(
                n=n, A=A, b=b, B=tuple(B[:i] + B[i + 1 :]), d=tuple(d[:i] + d[i + 1 :])
            )
            if lp.is_implied(B[i], d[i], rest):
                del B[i], d[i], cert[i]
                continue
        i += 1
    return tuple(B), tuple(d)


def _int_system(P: HPolyhedron) -> tuple[_Echelon, list[list[int]], int]:
    """Echelon form of P's equality rows, P's inequality rows, and rank(A).

    Every row carries its right-hand side as a last column and is scaled to
    integers, which keeps every solution and the sign of every slack. The
    echelon form pivots in the right-hand-side column exactly when A x = b
    has no solution.
    """
    n = P.n
    base = _fold(_EMPTY, _int_rows([row + (rhs,) for row, rhs in zip(P.A, P.b)]), n + 1)
    B = _int_rows([row + (rhs,) for row, rhs in zip(P.B, P.d)])
    return base, B, len(base[1]) - (n in base[1])


def _basic_points(
    P: HPolyhedron, budget: Optional[int], what: str
) -> dict[tuple[tuple[int, ...], int], list[int]]:
    """The basic solutions of P, each mapped to its slacks.

    A basic solution solves the equality rows with n - rank(A) independent
    inequality rows held tight; there are none when the equality rows are
    inconsistent. A point x = num / den (lowest terms, den > 0) maps to
    den * (d - B x) on the `_int_system` rows. The budget caps the row
    subsets walked, comb(q, n - rank(A)).
    """
    n = P.n
    base, B, rank_A = _int_system(P)
    k = n - rank_A
    check_budget(comb(len(B), k), budget, what)
    if n in base[1]:
        return {}
    pts = set()
    for rows, pivots, det in _subset_echelons(base, B, k, n):
        num = [0] * n
        for R, p in zip(rows, pivots):
            num[p] = R[n]
        g = gcd(det, *num)
        if det < 0:
            g = -g
        pts.add((tuple(v // g for v in num), det // g))
    return {(num, den): [row[n] * den - sum(map(mul, row, num)) for row in B] for num, den in pts}


def _circuit_lines(P: HPolyhedron, budget: Optional[int]) -> tuple[list[Vector], list[Direction]]:
    """A lineality basis of P's description and, when it is empty, P's circuit lines.

    Works in kernel coordinates of the equality block: each line is the
    one-dimensional kernel of n'-1 independent rows of the reduced
    inequality matrix, n' = n - rank(A), mapped back to a canonical integer
    direction. Each line is checked to be support-minimal: the rows zero
    on it must reach rank n'-1, so that it is their whole kernel
    (CorrespondenceViolation if not). The budget caps the row subsets
    walked, comb(q, n'-1).
    """
    N = kernel_basis(P.A, P.n) if P.A else list(identity(P.n))
    np_ = len(N)
    if np_ == 0:
        return [], []
    NT = transpose(tuple(N))  # n x n', maps reduced coords to ambient
    Bred = matmul(P.B, NT) if P.B else ()
    lin = kernel_basis(Bred, np_) if Bred else list(identity(np_))
    if lin:
        return [mat_vec(NT, v) for v in lin], []
    check_budget(comb(len(Bred), np_ - 1), budget, "circuit candidate subsets")
    NT_int = _int_rows(NT)  # kernel_basis vectors are integral
    rows = _int_rows(Bred)
    ghats = {
        _canonical(_kernel_line(ech, pivots, det, np_))
        for ech, pivots, det in _subset_echelons(_EMPTY, rows, np_ - 1, np_)
    }
    lines = []
    for gh in ghats:
        g = _canonical([sum(map(mul, row, gh)) for row in NT_int])
        zero = [row for row in rows if not sum(map(mul, row, gh))]
        if _rank_upto(_EMPTY, zero, np_ - 1, np_) < np_ - 1:
            raise CorrespondenceViolation(f"circuit candidate {g} is not support-minimal")
        lines.append(g)
    return [], lines


def _vrep(P: HPolyhedron, lines: Iterable[Direction], budget: Optional[int]) -> tuple[VRep, list[int]]:
    """The vertices and extreme rays of a pointed P, given its canonical
    integer circuit lines, and the tight-row mask of each vertex, in vertex order.

    The vertices are the feasible basic solutions; a pointed polyhedron
    with none is empty (EmptyPolyhedron). The extreme rays are the
    sign-consistent circuits (Rockafellar 1969), oriented so that B r <= 0.
    """
    tight = sorted(
        (tuple(Fraction(v, den) for v in num), sum(1 << i for i, s in enumerate(slacks) if s == 0))
        for (num, den), slacks in _basic_points(P, budget, "vertex candidates").items()
        if all(s >= 0 for s in slacks)
    )
    if not tight:
        raise EmptyPolyhedron(P.name or "polyhedron")
    B = _int_rows(P.B)
    rays = []
    for g in lines:
        Bg = [sum(map(mul, row, g)) for row in B]
        if all(x <= 0 for x in Bg):
            rays.append(g)
        elif all(x >= 0 for x in Bg):
            rays.append(tuple(-x for x in g))
    V = VRep(vertices=tuple(x for x, _ in tight), rays=tuple(sorted(rays)))
    return V, [m for _, m in tight]


def _pointed_vrep(P: HPolyhedron, budget: Optional[int]) -> tuple[VRep, list[int]]:
    """`_vrep` of P from its circuit walk; NotPointed when the walk finds a lineality space."""
    lineality, lines = _circuit_lines(P, budget)
    if lineality:
        raise NotPointed(P.name or "polyhedron")
    return _vrep(P, lines, budget)


def vrep(P: HPolyhedron, budget: Optional[int] = DEFAULT_BUDGET) -> VRep:
    """All vertices and extreme rays of a pointed polyhedron, with no LP (`_vrep`)."""
    return _pointed_vrep(P, budget)[0]


def _edge_test(P: HPolyhedron) -> Callable[[int], bool]:
    """Whether the rows in a tight-row mask, with A, have rank exactly n - 1.

    For two points u, v of P the rows tight at their midpoint are exactly
    the rows tight at both, so `mask(u) & mask(v)` decides adjacency; a
    vertex with itself reaches rank n and is not an edge.
    """
    base, B, _ = _int_system(P)
    n = P.n

    def is_edge(mask: int) -> bool:
        rows = [row for i, row in enumerate(B) if mask >> i & 1]
        return _rank_upto(base, rows, n, n) == n - 1

    return is_edge


def adjacent_vertices(P: HPolyhedron, u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """Whether the segment between the points u and v of P lies on an edge of P."""
    for name, x in (("u", u), ("v", v)):
        if not P.contains(x):
            raise PreconditionViolation(
                f"{name} = ({', '.join(map(str, vector(x)))}) is not a point of {P.name or 'the polyhedron'}"
            )
    common = set(P.tight_inequality_rows(u)).intersection(P.tight_inequality_rows(v))
    return _edge_test(P)(sum(1 << i for i in common))


def _edge_directions_of(P: HPolyhedron, V: VRep, masks: Sequence[int]) -> CircuitSet:
    """Edge directions of P from `_vrep(P, ...)`: its vertices, rays and vertex tight-row masks."""
    is_edge = _edge_test(P)
    dirs = list(V.rays)
    for (u, mu), (v, mv) in itertools.combinations(zip(V.vertices, masks), 2):
        if is_edge(mu & mv):
            dirs.append(vec_sub(u, v))
    return CircuitSet.of(dirs)


def edge_directions(P: HPolyhedron, budget: Optional[int] = DEFAULT_BUDGET) -> CircuitSet:
    """Directions of bounded edges (adjacent vertex differences) and extreme rays."""
    return _edge_directions_of(P, *_pointed_vrep(P, budget))


def cartesian_product(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """Block-diagonal description of P1 x P2 with P1 rows first."""
    n = P1.n + P2.n
    pad1 = zero_vector(P2.n)
    pad2 = zero_vector(P1.n)
    A = tuple(row + pad1 for row in P1.A) + tuple(pad2 + row for row in P2.A)
    B = tuple(row + pad1 for row in P1.B) + tuple(pad2 + row for row in P2.B)
    return HPolyhedron(n=n, A=A, b=P1.b + P2.b, B=B, d=P1.d + P2.d)


def homogenize(P: HPolyhedron) -> HPolyhedron:
    """Cone {(t, x) : t >= 0, A x - b t = 0, B x - d t <= 0}, t-row first."""
    A = tuple((-rhs,) + row for row, rhs in zip(P.A, P.b))
    B = ((-ONE,) + zero_vector(P.n),) + tuple((-rhs,) + row for row, rhs in zip(P.B, P.d))
    return HPolyhedron(
        n=P.n + 1,
        A=A,
        b=zero_vector(len(A)),
        B=B,
        d=zero_vector(len(B)),
        name=f"hom({P.name})" if P.name else "",
    )


def slack_standard_form(P: HPolyhedron) -> tuple[HPolyhedron, AffineMap]:
    """Standard-form copy in slack space plus the slack map x -> d - B x.

    The image polyhedron {s >= 0, U s = U d} uses the inequality parts of
    a kernel basis of [B^T A^T] as equality normals. Requires a pointed
    input with independent equality rows (i.e. a minimized description).
    """
    if not is_pointed(P):
        raise NotPointed(P.name or "polyhedron")
    q = len(P.B)
    stacked = transpose(P.B) if not P.A else tuple(
        br + ar for br, ar in zip(transpose(P.B), transpose(P.A))
    )
    basis = kernel_basis(stacked, q + len(P.A)) if stacked else []
    U = tuple(v[:q] for v in basis)
    if U and rank(U) != len(U):
        raise PreconditionViolation("slack_standard_form needs independent equality rows")
    eq_rhs = tuple(dot(u, P.d) for u in U)
    S = HPolyhedron(
        n=q,
        A=U,
        b=eq_rhs,
        B=tuple(vec_scale(-ONE, row) for row in identity(q)),
        d=zero_vector(q),
        name=f"slack({P.name})" if P.name else "",
    )
    sigma = AffineMap(matrix=tuple(vec_scale(-ONE, row) for row in P.B), offset=P.d)
    return S, sigma


class _Eliminator:
    """Fourier-Motzkin with equality substitution and exact redundancy pruning.

    `certified[i]` says that inequality row i is implied by no set of the
    other rows. A prune certifies every row it keeps, by a witness point
    that satisfies every other row and violates row i. Substitution
    through an equality row keeps every witness, since witnesses satisfy
    the equality rows. A Fourier-Motzkin step keeps the witness of every
    row it keeps, projected: the new rows are nonnegative combinations of
    other rows, which the witness satisfies. Only the new rows need an LP.
    """

    def __init__(self, nvars: int, eqs, ineqs):
        # Rows are (coeffs list over live variables, rhs).
        self.live = list(range(nvars))
        self.eqs = [(list(r), rhs) for r, rhs in eqs]
        self.ineqs = [(list(r), rhs) for r, rhs in ineqs]
        self.certified = [False] * len(self.ineqs)

    def eliminate(self, target_vars: set[int]) -> None:
        """Eliminate every target variable, pruning after each step.

        The rows are pruned at least once, so on return every row is certified.
        """
        while pending := [j for j, v in enumerate(self.live) if v in target_vars]:
            self._eliminate_one(self._pick(pending))
            self._prune()
        if not all(self.certified):  # nothing was eliminated
            self._prune()

    def _pick(self, pending: list[int]) -> int:
        best, best_cost = None, None
        for j in pending:
            if any(r[j] != 0 for r, _ in self.eqs):
                return j  # substitution never adds rows
            pos = sum(1 for r, _ in self.ineqs if r[j] > 0)
            neg = sum(1 for r, _ in self.ineqs if r[j] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = j, cost
        return best

    def _eliminate_one(self, j: int) -> None:
        pivot = next((i for i, (r, _) in enumerate(self.eqs) if r[j] != 0), None)
        if pivot is not None:
            prow, prhs = self.eqs.pop(pivot)
            inv = ONE / prow[j]
            prow = [x * inv for x in prow]
            prhs = prhs * inv

            def subst(rows):
                out = []
                for r, rhs in rows:
                    if r[j] != 0:
                        f = r[j]
                        r = [x - f * y for x, y in zip(r, prow)]
                        rhs = rhs - f * prhs
                    out.append((r, rhs))
                return out

            self.eqs = subst(self.eqs)
            self.ineqs = subst(self.ineqs)
        else:
            pos = [(r, rhs) for r, rhs in self.ineqs if r[j] > 0]
            neg = [(r, rhs) for r, rhs in self.ineqs if r[j] < 0]
            kept = [i for i, (r, _) in enumerate(self.ineqs) if r[j] == 0]
            rows = [self.ineqs[i] for i in kept]
            for rp, bp in pos:
                for rn, bn in neg:
                    a, c = rp[j], -rn[j]
                    row = [c * x + a * y for x, y in zip(rp, rn)]
                    rows.append((row, c * bp + a * bn))
            self.certified = [self.certified[i] for i in kept] + [False] * (len(rows) - len(kept))
            self.ineqs = rows
        del self.live[j]
        self.eqs = [(r[:j] + r[j + 1 :], rhs) for r, rhs in self.eqs]
        self.ineqs = [(r[:j] + r[j + 1 :], rhs) for r, rhs in self.ineqs]

    def _prune(self) -> None:
        """Trim duplicates and LP-redundant inequality rows."""
        B, d = _irredundant_rows(
            len(self.live),
            tuple(tuple(r) for r, _ in self.eqs),
            tuple(rhs for _, rhs in self.eqs),
            [r for r, _ in self.ineqs],
            [rhs for _, rhs in self.ineqs],
            self.certified,
        )
        self.ineqs = [(list(r), rhs) for r, rhs in zip(B, d)]
        self.certified = [True] * len(self.ineqs)

    def result(self, n: int) -> HPolyhedron:
        if len(self.live) != n:
            raise CorrespondenceViolation(f"{len(self.live)} variables left after elimination, expected {n}")
        return HPolyhedron(
            n=n,
            A=tuple(tuple(r) for r, _ in self.eqs),
            b=tuple(rhs for _, rhs in self.eqs),
            B=tuple(tuple(r) for r, _ in self.ineqs),
            d=tuple(rhs for _, rhs in self.ineqs),
        )


def project(P: HPolyhedron, pi: LinearMap) -> HPolyhedron:
    """Minimized description of pi(P) by Fourier-Motzkin elimination.

    Works on the graph system {x = pi(y), y in P} over (x, y) and
    eliminates all y variables, substituting through equality rows when
    possible and pruning redundant rows after every elimination step.
    The implicit equalities of the pruned rows are then promoted; that
    makes no row redundant (see the module docstring), so the rows are
    not pruned again.
    """
    m = P.n
    nt = pi.out_dim
    if pi.in_dim(m) != m:
        raise PreconditionViolation(
            f"map has domain dimension {pi.in_dim(m)}, polyhedron has dimension {m}"
        )
    y = _feasible_point(P)

    eqs = []
    for i in range(nt):
        row = [ZERO] * (nt + m)
        row[i] = ONE
        for jj in range(m):
            row[nt + jj] = -pi.matrix[i][jj]
        eqs.append((row, ZERO))
    for row, rhs in zip(P.A, P.b):
        eqs.append(([ZERO] * nt + list(row), rhs))
    ineqs = [([ZERO] * nt + list(row), rhs) for row, rhs in zip(P.B, P.d)]

    elim = _Eliminator(nt + m, eqs, ineqs)
    elim.eliminate(set(range(nt, nt + m)))
    R = elim.result(nt)
    x = pi(y)
    if not R.contains(x):
        raise CorrespondenceViolation(f"projection misses pi({', '.join(map(str, y))})")
    return _promoted(R, _implicit_rows(R, x))


def affine_image_description(P: HPolyhedron, phi: AffineMap) -> HPolyhedron:
    """Description of phi(P) for invertible linear part, by row composition."""
    Minv = _inverse(phi.matrix)
    # x = M y + t  =>  rows become (row . M^-1) x <= rhs + row . M^-1 t
    A = tuple(mat_vec(transpose(Minv), row) for row in P.A)
    B = tuple(mat_vec(transpose(Minv), row) for row in P.B)
    b = tuple(rhs + dot(row, phi.offset) for row, rhs in zip(A, P.b))
    d = tuple(rhs + dot(row, phi.offset) for row, rhs in zip(B, P.d))
    return HPolyhedron(n=P.n, A=A, b=b, B=B, d=d, name=P.name)


def preimage_description(P: HPolyhedron, tau: LinearMap) -> HPolyhedron:
    """{x : tau(x) in P} by composing rows with tau; tau need not be square."""
    mt = tau.matrix
    A = tuple(mat_vec(transpose(mt), row) for row in P.A)
    B = tuple(mat_vec(transpose(mt), row) for row in P.B)
    return HPolyhedron(n=tau.in_dim(P.n), A=A, b=P.b, B=B, d=P.d)


def _inverse(M: Matrix) -> Matrix:
    n = len(M)
    aug = tuple(row + ident for row, ident in zip(M, identity(n)))
    R, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(row[n:] for row in R[:n])
