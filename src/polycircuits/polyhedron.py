"""H-representation polyhedra {A x = b, B x <= d} and geometric operations.

Descriptions matter here: several quantities computed downstream
(circuits in particular) depend on the literal row system, not just on
the point set, so operations never silently rewrite a description. Rows
are promoted or dropped only by `minimize_description` and by `project`.
Their prunes keep the rows of one sequential redundancy pass
(`_irredundant_rows`, one LP per row), and all of them start with its
syntactic part (`_distinct_rows`); each skips the LPs whose answer it
can prove otherwise. No circuit, basic solution, edge, slack sign or
redundancy test changes when a row and its right-hand side are scaled by
a positive number, and no image line when the whole map is, so a
description's rows become integers once, in its cached view `_IntRows`
(an image of `project` and a promoted description take theirs from the
rows they were made from), and a map once, in `LinearMap._ints`; `_IntRows` also eliminates the
equality block once for every walk and rank test, and is the one map
back from its kernel coordinates: `lift` for directions, `line` for
points and rays, each checked on the equality rows. They stay integers
through the walks, the slack tests, the simplex, both row blocks of
Fourier-Motzkin (`_Eliminator`) and the redundancy pass; the edge walk
and `project` read the vertex lines, and `project` checks its result on
every generator in integers. `linalg` makes and reduces the integers, and
Fractions are made only for what a caller gets back.

Each description is walked once. `HPolyhedron` caches each walk on first
use as the object its reader returns: `_circuit_lines`, a subset walk,
the `CircuitSet` of `enumerate_circuits`; `_vrep`, a double description
of the homogenization cone (`_extreme_rays`), not a subset walk, the
`VRep` of `vrep` (vertex lines and rays) with each vertex's tight-row
mask, or `_image_vrep` for an image that `project` returned, which reads
that from the elimination's generators and tight sets and runs no double
description; `_edges` the `CircuitSet` of `edge_directions`; and
`_domain_generators` the generators that `project` prunes by. A cache
hit runs no walk and charges no work budget; a walk that raises,
`BudgetExceeded` included, is not cached. The cache belongs to the
object: a `renamed` copy or any new description walks afresh. The basic
solution walk `_basic_points` is not cached; it returns the checked
`BasicSolutionSet` of `basic_solutions`. Both subset walks go through one
check, `_certified_lines`: each line on the rows the walk names with it,
and one `_ranks_reach` pass over all of them. Both vertex walks hand
(line, tight mask) pairs to one check too, `_certified_vrep`: each mask
must be the zero set of its line's slacks, none negative, and one
`_ranks_reach` pass covers the vertices' tight sets.

`project` has one route. It prunes every domain, pointed or not, by the
rows' incidences with generators of P: the vertices and rays of `vrep(P)`,
or for a P with a lineality space L those of P ∩ L^⊥ and ± each line of
L. Facets, like the adjacencies of the double description and the edge
walk (`_adjacent`), are decided by containment of tight-row masks, and
rank tests only check outputs (vertices, circuit lines, basic solutions).
Each row's mask is read once for the domain's rows and then carried
through the elimination steps, and read again on the rows left, which
must match; every generator must read 0 on the equality rows left. The
image keeps the generators and the masks of its inequality rows for its
vertex walk (`_image_vrep`). Only the implicit equalities of a prune, the
rows tight on every generator, meet an LP, and those LPs see only them
and the equality rows (`_Eliminator`). Both routes prune after the first step and after
each combination step; a substitution that follows a prune leaves
nothing to prune. After the last prune the implicit equalities are
promoted, and the rows are not pruned again. By Farkas, the implicit rows
have a positive combination that reads 0 <= 0 and uses no other row, so
dropping any other row keeps them implicit. Promoting them therefore
leaves the polyhedron that every row was tested against unchanged.

`_project` without generators is the LP route that `project` is checked
against. Each prune tests every row against the others that are left
(`_irredundant_rows`), and the implicit equalities come from LPs: a row
slack at some known point is not one, so each round solves one LP, on
the summed slack of the rows that no LP point or ray has shown slack,
and stops when that LP shows none of them slack (`_implicit_rows`).

`minimize_description` has no generators, but the witnesses of its
implicit equalities sum to a point strictly inside every other row. From
that point it shoots a ray at each row (`_shot_facets`); a row the ray
meets first, and alone, defines a facet on its own, so it keeps its
place without an LP, after its witness is checked on the rows. Only the
rows the rays cannot prove meet an LP, against the same rows as in the
LP-only pass.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import comb
from operator import mul
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .directions import BasicSolutionSet, CircuitSet
from .errors import (
    BudgetExceeded,
    CorrespondenceViolation,
    EmptyPolyhedron,
    NotPointed,
    PreconditionViolation,
)
from .linalg import (
    ONE,
    ZERO,
    Direction,
    Matrix,
    Vector,
    _canonical,
    _independent,
    _int_vector,
    _kernel,
    _primitive,
    _ranks_reach,
    _scaled_ints,
    _scaled_row,
    _subset_lines,
    dot,
    identity,
    kernel_basis,
    mat_vec,
    matrix,
    rank,
    transpose,
    vec_scale,
    vector,
    zero_vector,
)
from . import lp

DEFAULT_BUDGET = 10**7
_BUDGET: ContextVar[int] = ContextVar("work_budget", default=DEFAULT_BUDGET)


@contextmanager
def work_budget(cap: int) -> Iterator[None]:
    """Cap every subset walk and double description in the `with` block at `cap`
    candidates; restore the cap on exit.

    A negative cap is an input error (PreconditionViolation); a cap of 0
    lets only an empty walk through."""
    if cap < 0:
        raise PreconditionViolation(f"work budget {cap} is negative")
    token = _BUDGET.set(cap)
    try:
        yield
    finally:
        _BUDGET.reset(token)


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
        if self.n < 0:
            raise PreconditionViolation(f"dimension n = {self.n} is negative")
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

    @cached_property
    def _ints(self) -> "_IntRows":
        return _IntRows(self)

    @cached_property
    def _circuit_walk(self) -> CircuitSet:
        return _circuit_lines(self)

    @cached_property
    def _vertex_walk(self) -> tuple["VRep", tuple[int, ...]]:
        incidences = self.__dict__.pop("_incidences", None)  # left by `_project` on its image
        return _vrep(self) if incidences is None else _image_vrep(self, *incidences)

    @cached_property
    def _edge_walk(self) -> CircuitSet:
        return _edges(self)

    @cached_property
    def _generators(self) -> "VRep":
        return _domain_generators(self)

    def _slacks_at(self, x: Sequence[Fraction]) -> tuple[list[int], list[int]]:
        """The `_slacks` of the A rows and of the B rows at the point x."""
        num, den = _int_vector(vector(x))
        if len(num) != self.n:
            raise ValueError(f"point has length {len(num)}, polyhedron dimension is {self.n}")
        return _slacks(self._ints.A, num, den), _slacks(self._ints.B, num, den)

    def contains(self, x: Sequence[Fraction]) -> bool:
        eq, ineq = self._slacks_at(x)
        return not any(eq) and all(s >= 0 for s in ineq)

    def tight_inequality_rows(self, x: Sequence[Fraction]) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self._slacks_at(x)[1]) if s == 0)

    def renamed(self, name: str) -> "HPolyhedron":
        return replace(self, name=name)


class _IntRows:
    """`HPolyhedron._ints`: each row [a | rhs] times s, the lcm of its denominators.

    `scale` holds each s, A rows first. `reduced`, built on first use by one
    fold of the A rows, is (K, R, n'): K is their integer kernel in n + 1
    columns, the n' = n - rank(A) vectors of ker(A) (0 in column n), then,
    iff A x = b is consistent (`consistent`), (-c x0, c) with c > 0 and
    A x0 = b; R holds each B row times K, so a B row reads on K v what its
    R row reads on v. With no A rows K is the identity and R is B itself.
    `lineality`, the kernel of the first n' columns of R, is P's lineality
    space in kernel coordinates: P is pointed iff it is empty. Every walk
    runs in these coordinates, and `lift` and `line` are the one map back:
    no reader outside this class sees K.

    `ints`, when given, are the rows' (row, s) pairs, A rows first, exactly
    what `_int_vector` gives for each: `_with_ints` hands an image or a
    promoted description the view its maker already holds."""

    def __init__(self, P: HPolyhedron, ints: Optional[Sequence[tuple[list[int], int]]] = None):
        if ints is None:
            ints = [_int_vector((*row, rhs)) for row, rhs in zip((*P.A, *P.B), (*P.b, *P.d))]
        rows, self.scale = [num for num, _ in ints], [den for _, den in ints]
        self.A, self.B = rows[: len(P.A)], rows[len(P.A) :]
        self.n = P.n

    @cached_property
    def reduced(self) -> tuple[list[list[int]], list[list[int]], int]:
        K = _kernel(_independent(self.A, self.n + 1)[1], self.n + 1)
        R = [[sum(map(mul, row, v)) for v in K] for row in self.B] if self.A else self.B
        return K, R, sum(not v[-1] for v in K)

    @property
    def consistent(self) -> bool:
        K, _, np_ = self.reduced
        return len(K) > np_

    @cached_property
    def _columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.reduced[0]))  # the n + 1 rows of the matrix whose columns are K

    @cached_property
    def lineality(self) -> list[list[int]]:
        _, R, np_ = self.reduced
        return _kernel(_independent([row[:np_] for row in R], np_)[1], np_)

    def lift(self, v: Sequence[int]) -> Sequence[int]:
        """K v = (x, t), missing entries of v read as 0 (so n' of them give t = 0),
        or v itself with no A rows. K v must read 0 on every A row [a | rhs], or
        it is off the equality rows and K is wrong (CorrespondenceViolation)."""
        if not self.A:
            return v
        w = [sum(map(mul, col, v)) for col in self._columns]
        if any(sum(map(mul, row, w)) for row in self.A):
            raise CorrespondenceViolation(f"lifted vector {tuple(w)} leaves the equality rows")
        return w

    def line(self, v: Sequence[int]) -> Direction:
        """The primitive line of what v stands for, read off K v = (-x t, t) (`lift`):
        (den, *num), den > 0, for the point x = num / den, so that v and -v name
        the same point, or (0, *r) for t = 0 and the ray r = -(K v)[:n]."""
        w = _primitive(self.lift(v))[0]
        s = -1 if w[-1] < 0 else 1
        return (s * w[-1], *(-s * x for x in w[:-1]))


def _with_ints(P: HPolyhedron, ints: Sequence[tuple[list[int], int]]) -> HPolyhedron:
    """P, its `_ints` view built from the ready (row, s) pairs `ints` (`_IntRows`)."""
    P.__dict__["_ints"] = _IntRows(P, ints)
    return P


def _slacks(rows: Sequence[Sequence[int]], num: Sequence[int], den: int) -> list[int]:
    """den * (rhs - a . x) of each integer row [a | rhs] at x = num / den: a positive
    multiple of the row's slack. With den = 0 it is -a . num, the slack a ray adds."""
    return [row[-1] * den - sum(map(mul, row, num)) for row in rows]


@dataclass(frozen=True)
class LinearMap:
    """x -> M x. `_ints`, built on first use, is (N, D): D > 0 the lcm of every
    denominator of M and N = D M; one D for all rows keeps the line of each image."""

    matrix: Matrix
    name: str = ""

    @property
    def out_dim(self) -> int:
        return len(self.matrix)

    def in_dim(self, default: int = 0) -> int:
        return len(self.matrix[0]) if self.matrix else default

    @cached_property
    def _ints(self) -> tuple[list[list[int]], int]:
        num, D = _int_vector([x for row in self.matrix for x in row])
        w = self.in_dim()
        return [num[i * w : (i + 1) * w] for i in range(self.out_dim)], D

    def __call__(self, x: Sequence[Fraction]) -> Vector:
        return mat_vec(self.matrix, x)

    def image_directions(self, dirs: Iterable[Sequence[int]]) -> CircuitSet:
        """The lines of the nonzero images N g of integer directions g, canonical and sorted."""
        N = self._ints[0]
        lines = {_canonical([sum(map(mul, row, g)) for row in N]) for g in dirs}
        return CircuitSet(directions=tuple(sorted(c for c in lines if any(c))))


@dataclass(frozen=True)
class VRep:
    """conv(vertices) + cone(rays): `lines` holds the vertices as canonical lines (den, *num),
    sorted by point, `vertices` their Fraction view, built on demand; rays are primitive, B r <= 0."""

    lines: tuple[Direction, ...] = ()
    rays: tuple[Direction, ...] = ()

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        return BasicSolutionSet(self.lines).points


def check_budget(count: int, what: str) -> None:
    """BudgetExceeded when a walk of `count` candidates would pass the cap of `work_budget`."""
    cap = _BUDGET.get()
    if count > cap:
        raise BudgetExceeded(count, cap, what)


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
    return _implicit_rows(P, _feasible_point(P))[0]


def _implicit_rows(P: HPolyhedron, x: Vector) -> tuple[tuple[int, ...], Direction]:
    """`implicit_equality_rows` of P, given a point x of P, and the line
    (den, *num) of a point of P strictly inside every other row.

    A row that is slack at some point of P is not an implicit equality.
    x is the first witness. The witnesses' lines (den, *num) are summed,
    a ray as the line (0, *ray): a row's `_slacks` on the sum is the sum of
    its `_slacks` on the witnesses, none of them negative, so it is 0 iff
    every witness is tight on the row. Each round takes the rows T that
    read 0 on the sum and solves one LP, max -sum_{i in T} n_i . x over P,
    with n_i the `_primitive` normal of row i, so that rescaled rows give
    the same LP: it maximizes a positively weighted sum of the slacks of T
    (Schrijver 1986, sec. 8.2). If its optimal point leaves no row of T
    slack, that maximum is 0, as the LP's certificate proves, so T is
    exactly the set of implicit equalities. Otherwise the point, or the
    ray when the LP is unbounded (the objective grows along it, so it
    leaves some row of T slack), is the next witness and frees at least
    one row of T. The sum, a point since x is one, is strictly inside
    every row not in T.
    """
    B = P._ints.B
    normals = [_primitive(row[:-1])[0] for row in B]
    num, den = _int_vector(x)
    line = [den, *num]
    while tight := [i for i, s in enumerate(_slacks(B, line[1:], line[0])) if not s]:
        res = lp.lp_solve([-sum(col) for col in zip(*(normals[i] for i in tight))], P)
        # P holds x, so the LP is optimal or unbounded
        num, den = _int_vector(res.point) if res.point is not None else (_int_vector(res.ray)[0], 0)
        if not any(_slacks([B[i] for i in tight], num, den)):
            break
        line = [a + b for a, b in zip(line, (den, *num))]
    return tuple(tight), tuple(line)


def dim(P: HPolyhedron) -> int:
    """Dimension of the affine hull; raises EmptyPolyhedron when empty."""
    implicit = implicit_equality_rows(P)
    eqs = P.A + tuple(P.B[i] for i in implicit)
    return P.n - (rank(eqs) if eqs else 0)


def minimize_description(P: HPolyhedron) -> HPolyhedron:
    """Promote implicit equalities, then drop every redundant row.

    The result has full-row-rank A and each inequality row facet-defining.
    The implicit equalities come from witnesses (`_implicit_rows`, one LP
    per round on the summed slack of the rows no witness has left slack),
    whose summed line is a point strictly inside every row that is not
    promoted, a relative-interior point of P. `_shot_facets` shoots rays
    from it, so that only the rows it cannot prove to be facets on their
    own meet a redundancy LP (`_irredundant_rows`).
    """
    implicit, inside = _implicit_rows(P, _feasible_point(P))  # raises on empty input
    Q = _promoted(P, implicit)
    ints, keep = Q._ints, _distinct_rows(Q._ints.B)
    keep = _irredundant_rows(Q.n, ints.A, ints.B, keep, _shot_facets(ints, keep, inside))
    B, d = tuple(zip(*(_scaled_row(ints.B[i]) for i in keep))) or ((), ())
    return _with_ints(replace(Q, B=B, d=d), [*zip(ints.A, ints.scale), *(_scaled_ints(ints.B[i]) for i in keep)])


def _promoted(P: HPolyhedron, implicit: Sequence[int]) -> HPolyhedron:
    """P with its implicit equality rows moved to A and dependent A rows dropped;
    it gets the rows of P's `_ints` view that it keeps as its own."""
    A = P.A + tuple(P.B[i] for i in implicit)
    b = P.b + tuple(P.d[i] for i in implicit)
    ints = P._ints
    pairs = list(zip((*ints.A, *ints.B), ints.scale))
    eqs = pairs[: len(P.A)] + [pairs[len(P.A) + i] for i in implicit]
    keep, _ = _independent([row[:-1] for row, _ in eqs], P.n)
    promoted = set(implicit)
    rest = [i for i in range(len(P.B)) if i not in promoted]
    Q = replace(
        P,
        A=tuple(A[i] for i in keep),
        b=tuple(b[i] for i in keep),
        B=tuple(P.B[i] for i in rest),
        d=tuple(P.d[i] for i in rest),
    )
    return _with_ints(Q, [eqs[i] for i in keep] + [pairs[len(P.A) + i] for i in rest])


def _distinct_rows(B: Sequence[Sequence[int]]) -> list[int]:
    """The syntactic pass of `_irredundant_rows`: the integer rows B grouped by their
    `_primitive` normal, in order of each group's first row, and the index of each
    group's first row with the least rhs over its normal's gcd."""
    seen: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for i, row in enumerate(B):
        normal, g = _primitive(row[:-1])
        key = tuple(normal)  # a zero row is left out: 0 <= d is vacuous for feasible P
        if any(key) and (key not in seen or row[-1] * seen[key][1] < seen[key][0] * g):
            seen[key] = (row[-1], g, i)
    return [i for _, _, i in seen.values()]


def _irredundant_rows(
    n: int, A: Sequence[Sequence[int]], B: Sequence[Sequence[int]],
    keep: Optional[Sequence[int]] = None, proved: Container[int] = (),
) -> list[int]:
    """The indices of the integer rows [a | rhs] of B that no other row of {A, B} implies.

    A cheap syntactic pass comes first (`_distinct_rows`, or the caller's
    `keep`, rows that passed it): of each group of parallel rows only the
    tightest stays. Then one LP per remaining row, in that order, drops it
    when the rest imply it; the LPs read the integer rows as they are,
    since scaling a row by a positive number changes neither the
    polyhedron nor the simplex's pivots.

    A row of `proved`, one that no other row of `keep` and A implies
    (`_shot_facets`), keeps its place without an LP. The sequential LPs
    would keep it too: the other rows left when it is tested are rows of
    `keep`. Kept rows stay in `rest`, so every other row's LP sees the same
    rows as without `proved`, and the simplex makes the same pivots.
    """
    keep = _distinct_rows(B) if keep is None else list(keep)
    eqs = tuple(row[:-1] for row in A), tuple(row[-1] for row in A)
    k = 0
    while k < len(keep):
        if keep[k] in proved:
            k += 1
            continue
        rest = [B[i] for i in keep[:k] + keep[k + 1 :]]
        P = HPolyhedron(n, *eqs, tuple(row[:-1] for row in rest), tuple(row[-1] for row in rest))
        if lp.is_implied(B[keep[k]][:-1], B[keep[k]][-1], P):
            del keep[k]
        else:
            k += 1
    return keep


def _shot_facets(ints: _IntRows, keep: Sequence[int], inside: Sequence[int]) -> set[int]:
    """The rows of `keep`, indices into `ints.B`, that no other row of `keep`
    and the A rows imply, proved by ray shooting from the point x0 of the
    line `inside` (Fukuda's polyhedral computation notes).

    Every row must be slack at x0 (its `_slacks` s > 0) and every equality
    row tight, or the point is no proof (CorrespondenceViolation). Row k is
    shot along d_k = `ints.lift`(R_k[:n']) over the reduced rows R of
    `ints.reduced`: d_k keeps A x = b, and row i reads a_i . d_k = G_ik =
    R_i[:n'] . R_k[:n'] on it. With G_kk > 0, row k is the only one the ray
    meets first iff s_k G_ik < s_i G_kk for every other row i with
    G_ik > 0. Its witness y = x0 + (s_k / G_kk) d_k then lies in A x = b, on
    row k and strictly inside every other row, so a step past y leaves row
    k alone: no set of the other rows implies it, and it alone defines a
    facet. Each witness is checked on the integer rows themselves
    (CorrespondenceViolation if not), so a wrong G or d_k cannot drop a row
    the LPs would keep. A row the ray does not prove this way may be a
    facet all the same.
    """
    A, B = ints.A, ints.B
    _, R, np_ = ints.reduced
    num, den = inside[1:], inside[0]
    slack = _slacks(B, num, den)
    if den <= 0 or any(_slacks(A, num, den)) or any(slack[i] <= 0 for i in keep):
        raise CorrespondenceViolation("the interior point is not strictly inside every row")
    normals = {i: R[i][:np_] for i in keep}
    proved = set()
    for k in keep:
        G = {i: sum(map(mul, normals[i], normals[k])) for i in keep}
        s, gkk = slack[k], G[k]
        if gkk <= 0 or any(s * g >= slack[i] * gkk for i, g in G.items() if g > 0 and i != k):
            continue
        y = [gkk * x + s * dx for x, dx in zip(num, ints.lift(normals[k]))], den * gkk
        reads = _slacks([B[i] for i in keep], *y)
        if any(_slacks(A, *y)) or any((x != 0) if i == k else (x <= 0) for i, x in zip(keep, reads)):
            raise CorrespondenceViolation(f"the ray shot at row {k} misses its facet")
        proved.add(k)
    return proved


def _certified_lines(
    rows: Sequence[Sequence[int]], k: int, ncols: int, width: int, what: str,
    name: Callable[[Sequence[int]], Direction],
) -> list[Direction]:
    """The lines of the subset walk `_subset_lines`(rows, k, ncols, width), each
    checked to be support-minimal on the k rows the walk names with it first.

    Different prefixes of the walk may still reach the same line, so each
    line keeps its first certificate: its greedy basis, since the walk skips
    no prefix that starts one, and the lines come first in ascending order
    of it. It must read 0 on those rows, and one `_ranks_reach` pass
    checks that the certificates of all lines reach rank k in the first
    `ncols` columns, sharing their common prefixes, so that their kernel is
    the line and any line of smaller support would lie in it. A line that
    fails raises CorrespondenceViolation, naming it as `what` `name`(line).
    The lines come back in walk coordinates, in walk order. The certificates
    go before they do: held through the lift of hom(ccp5)'s circuits, they
    raised its peak RSS from 26.2 to 30.0 MB.
    """
    certs = {}
    for v, cert in _subset_lines(rows, k, ncols, width):
        certs.setdefault(v, cert)
    for v, cert in certs.items():
        if any(sum(map(mul, rows[i], v)) for i in cert):
            raise CorrespondenceViolation(f"{what} {name(v)} does not read 0 on its certificate rows {cert}")
    lines, sets = list(certs), list(certs.values())
    del certs  # held through the rank pass, it raised the tracemalloc peak of hom(ccp5)'s circuits by 1 MB
    bad = _ranks_reach(sets, rows, k, ncols)
    if bad is not None:
        raise CorrespondenceViolation(f"{what} {name(lines[bad])} is not support-minimal")
    return lines


def _basic_points(P: HPolyhedron) -> BasicSolutionSet:
    """The `BasicSolutionSet` of P, its points as lines (den, *num), each checked to be basic.

    A basic solution solves the equality rows with n' = n - rank(A)
    independent inequality rows held tight; there are none when the
    equality rows are inconsistent. The walk (`_certified_lines`) runs on
    the reduced rows R of `P._ints.reduced`, width n' + 1: each line is the
    kernel of n' rows independent in the first n' columns, checked on those
    rows, and maps back to its point's line (den, *num) (`_IntRows.line`).
    A sample of non-basic points is checked to be dominated, their tight
    set strictly inside that of a basic point, which is the support
    characterization that makes these the degree-one homogenization
    circuits: the sample names that basic point, and the walk must have
    found it. Slacks are computed only for the at most 51 points the sample
    reads. The work budget caps the row subsets walked, comb(q, n').
    """
    ints = P._ints
    _, R, np_ = ints.reduced
    check_budget(comb(len(ints.B), np_), "basic solution subsets")
    if not ints.consistent:
        return BasicSolutionSet()
    # a dict, not a set, for the sample's lookups: at ccp4's 1,480 points it takes 74 KB, a set 131 KB
    pts = dict.fromkeys(map(ints.line, _certified_lines(R, np_, np_, np_ + 1, "basic solution line", ints.line)))
    sols = BasicSolutionSet.of(pts)
    # Non-basic sample: midpoints of basic pairs stay on the equality block;
    # that of (du, *nu) and (dv, *nv) is the line of (2 du dv, nu dv + nv du),
    # and su * dv + sv * du is its `_slacks` vector times 2 du dv. Its tight
    # rows, extended greedily to rank n' (its own rows first), cut out one
    # point: the midpoint itself when its own rows reach rank n', else a
    # basic point tight on every row tight at the midpoint (each such row,
    # rhs included, is a combination of the independent ones) and on more.
    pairs = list(itertools.islice(itertools.combinations(sols.lines, 2), 50))
    slacks = {x: _slacks(ints.B, x[1:], x[0]) for x in set(itertools.chain(*pairs))}
    for u, v in pairs:
        (du, *nu), (dv, *nv) = u, v
        z = _canonical([2 * du * dv, *(a * dv + b * du for a, b in zip(nu, nv))])
        t = [i for i, (a, b) in enumerate(zip(slacks[u], slacks[v])) if a * dv + b * du == 0]
        tight = set(t)
        order = t + [i for i in range(len(R)) if i not in tight]
        picked, echelon = _independent([R[i] for i in order], np_)
        rows = [order[j] for j in picked]
        if tight.issuperset(rows):  # the midpoint is basic
            if z not in pts:
                raise CorrespondenceViolation(f"missed basic solution line {z}")
            continue
        (w,) = _kernel(echelon, np_ + 1)  # the picked rows are independent in the first n' columns
        w = ints.line(w)
        if w not in pts:
            raise CorrespondenceViolation(
                f"non-basic midpoint line {z} not dominated: no basic solution line {w} on its rows {tuple(rows)}"
            )
    return sols


def _circuit_lines(P: HPolyhedron) -> CircuitSet:
    """The `CircuitSet` of P's description: its sorted circuit lines, or its lineality basis.

    Works in kernel coordinates of the equality block: each line is the
    one-dimensional kernel of n'-1 independent rows among the first n'
    columns of the reduced rows R of `P._ints.reduced`, n' = n - rank(A),
    checked on those rows (`_certified_lines`) and mapped back by
    `_IntRows.lift` to a canonical integer direction, as is each vector of
    the lineality basis. The work budget caps the row subsets walked,
    comb(q, n'-1).
    """
    ints, n = P._ints, P.n
    _, R, np_ = ints.reduced
    if np_ == 0:
        return CircuitSet()
    if ints.lineality:
        return CircuitSet.subspace(ints.lift(v)[:n] for v in ints.lineality)
    check_budget(comb(len(R), np_ - 1), "circuit candidate subsets")

    def name(gh: Sequence[int]) -> Direction:
        return _canonical(ints.lift(gh)[:n])

    lines = _certified_lines([row[:np_] for row in R], np_ - 1, np_, np_, "circuit candidate", name)
    for i, gh in enumerate(lines):
        lines[i] = name(gh)  # in place, so each line in walk coordinates goes as its lift comes
    lines.sort()  # in place: a sorted copy added 2 MB to the peak RSS of thm2 --n 5
    return CircuitSet(directions=tuple(lines))


def _adjacent(masks: Sequence[int], z: int, k: int) -> bool:
    """Whether two extreme rays of a pointed cone, or two vertices of a pointed
    polyhedron, are adjacent, given z, the mask of the rows tight on both, the
    masks of all its rays, or vertices, and k, the dimension less two for a
    cone's rays or less one for vertices: iff z holds k rows or more and no
    third mask contains z (Fukuda & Prodon 1996), as z cuts out the least face
    holding both, which holds those whose masks contain z. A z of fewer rows
    cuts out a face too large to be an edge, and no mask is scanned."""
    if z.bit_count() < k:
        return False
    third = itertools.islice((m for m in masks if m & z == z), 2, None)  # the masks past two that contain z
    return next(third, None) is None


def _maximal(masks: Iterable[int]) -> set[int]:
    """The distinct masks of `masks` that no other of them strictly contains."""
    masks = set(masks)
    return {m for m in masks if not any(o != m and o & m == m for o in masks)}


def _extreme_rays(rows: Sequence[Sequence[int]], width: int) -> tuple[list[list[int]], list[int]]:
    """The extreme rays of the pointed cone {v : row . v >= 0 for every row}, as
    primitive integer vectors, by double description (Motzkin, Raiffa, Thompson
    & Thrall 1953; Fukuda & Prodon 1996), and the mask of the rows tight on
    each, bit i for `rows[i]`. `rows` must reach rank `width`.

    The first `width` independent rows S cut a simplicial start cone, whose
    ray j is the kernel line of the rows of S but row j, oriented so that row
    j reads > 0: column j of S^-1. The rows [S_j | e_j], inserted in order
    (`_independent`), give the echelon form det [I | S^-1], so ray j is
    column j of det S^-1, times the sign of det, made primitive. The other
    rows are added in order. Adding a row a keeps the rays with a . v >= 0
    and adds the ray (a . p) q - (a . q) p, on which a reads 0, for every
    adjacent pair with a . p > 0 > a . q. Each ray carries the mask of the rows added
    so far that are tight on it, and p and q are adjacent iff `_adjacent`
    holds on the masks of the rays so far: a face of the cone with three
    dimensions or more has three extreme rays or more. The new ray's mask is
    a's bit and the rows tight on both p and q, since a row that reads > 0
    on either reads > 0 on their positive combination; so each mask returned
    is the zero set of its ray's reads, which `_certified_vrep` reads again.
    The work budget caps the pairs tested, a running count checked before
    each row's pairs.
    """
    start, _ = _independent(rows, width)
    unit = [[int(k == j) for k in range(width)] for j in range(width)]
    echelon, pivots, det = _independent([[*rows[i], *e] for i, e in zip(start, unit)], width)[1]
    inverse = [None] * width  # det S^-1, row by row: the echelon row with pivot c holds row c
    for R, c in zip(echelon, pivots):
        inverse[c] = R[width:] if det > 0 else [-x for x in R[width:]]
    tight = sum(1 << i for i in start)
    rays = [_primitive(column)[0] for column in zip(*inverse)]
    masks = [tight & ~(1 << i) for i in start]

    pairs = 0
    for i in sorted(set(range(len(rows))) - set(start)):
        a, bit = rows[i], 1 << i
        reads = [sum(map(mul, a, v)) for v in rays]
        pos = [k for k, s in enumerate(reads) if s > 0]
        neg = [k for k, s in enumerate(reads) if s < 0]
        pairs += len(pos) * len(neg)
        check_budget(pairs, "double description pairs")
        new = [
            (_primitive([reads[p] * x - reads[q] * y for x, y in zip(rays[q], rays[p])])[0], z | bit)
            for p in pos
            for q in neg
            if _adjacent(masks, z := masks[p] & masks[q], width - 2)
        ]
        keep = [k for k, s in enumerate(reads) if s >= 0]
        masks = [masks[k] | bit if reads[k] == 0 else masks[k] for k in keep] + [m for _, m in new]
        rays = [rays[k] for k in keep] + [v for v, _ in new]
    return rays, masks


def _vrep(P: HPolyhedron) -> tuple[VRep, tuple[int, ...]]:
    """The `VRep` of a pointed P and the tight-row mask of each vertex, in
    `VRep.lines` order; NotPointed when P has a lineality space.

    The vertices and extreme rays are read off the extreme rays v of the
    homogenization cone {v : t >= 0, R v >= 0} of the reduced rows R of
    `P._ints.reduced`, t = v[n'] the coefficient of the particular solution
    (`_extreme_rays`): `_IntRows.line` maps v with t > 0 to its vertex's
    line (den, *num), and v with t = 0 to (0, *r), r an extreme ray of P.
    Each comes with the mask the double description carried, the t-row's
    bit dropped, as R row i reads 0 on v iff row i of P.B is tight on the
    line; `_certified_vrep` checks both and raises as it says.
    """
    ints = P._ints
    _, R, np_ = ints.reduced
    if ints.lineality:
        raise NotPointed(P.name or "polyhedron")
    if not ints.consistent:
        raise EmptyPolyhedron(P.name or "polyhedron")
    rays, masks = _extreme_rays([[0] * np_ + [1], *R], np_ + 1)
    return _certified_vrep(P, ((ints.line(v), m >> 1) for v, m in zip(rays, masks)))


def _image_vrep(P: HPolyhedron, gens: Sequence[Sequence[int]], masks: Sequence[int]) -> tuple[VRep, tuple[int, ...]]:
    """`_vrep` of an image P = pi(Q) read off the elimination that made it
    (`_project`), with no double description: `gens` are the generators
    [N num | D num | -D den] and [N w | D w | 0] of Q, and `masks` holds, for
    each row of P.B in order, the mask of the generators tight on it, read
    again on the rows left at the end of the elimination.

    Every vertex of P is the image (D den, *N num) of a vertex of Q, and every
    face of P of dimension 1 or more holds a vertex. A nonempty face strictly
    inside another has a strictly smaller tight set (Ziegler, Lectures on
    Polytopes, ch. 2), so the vertices are the image lines whose tight mask
    over P.B no other vertex image's mask strictly contains (`_maximal`;
    Fukuda & Prodon 1996). The extreme rays are found the same way among the
    nonzero ray images N w, as faces of P's pointed recession cone. The
    distinct (line, mask) pairs go to `_certified_vrep`, the check a double
    description's vertices get. Q's double description paid for the
    generators, so this charges no work budget.
    """
    if P._ints.lineality:
        raise NotPointed(P.name or "polyhedron")
    tight = [0] * len(gens)  # each generator's mask over P.B, bit by bit from the rows' masks
    for i, m in enumerate(masks):
        while m:
            tight[(m & -m).bit_length() - 1] |= 1 << i
            m &= m - 1
    n = P.n
    points = [(g, m) for g, m in zip(gens, tight) if g[-1]]
    directions = [(g, m) for g, m in zip(gens, tight) if not g[-1] and any(g[:n])]
    vertices, extreme = _maximal(m for _, m in points), _maximal(m for _, m in directions)
    found = [(_canonical((-g[-1], *g[:n])), m) for g, m in points if m in vertices]
    found += [((0, *_primitive(g[:n])[0]), m) for g, m in directions if m in extreme]
    return _certified_vrep(P, dict.fromkeys(found))


def _certified_vrep(P: HPolyhedron, found: Iterable[tuple[Direction, int]]) -> tuple[VRep, tuple[int, ...]]:
    """The `VRep` of P and the tight-row mask of each vertex, in `VRep.lines`
    order, from the (line, mask) pairs of a vertex walk: a vertex line
    (den, *num), den > 0, or a ray r as (0, *r), with the mask of the rows of
    P.B the walk found tight on it. Every vertex walk ends here.

    Each line must have no negative `_slacks` (B r <= 0 for a ray), and its
    mask must be their zero set: CorrespondenceViolation if not. A pointed
    P with no vertex is empty (EmptyPolyhedron). The rows tight on a vertex
    reach rank n' iff it is extreme in the homogenization cone, so one
    `_ranks_reach` pass over the vertices' zero sets, read off their slacks,
    checks that each is a vertex (CorrespondenceViolation if not).
    """
    ints = P._ints
    tights, rays = {}, []
    for line, mask in found:
        slacks = _slacks(ints.B, line[1:], line[0])
        zero = tuple(i for i, s in enumerate(slacks) if not s)
        if any(s < 0 for s in slacks) or mask != sum(1 << i for i in zero):
            name = f"vertex line {line}" if line[0] else f"extreme ray {line[1:]}"
            raise CorrespondenceViolation(f"{name} is off the polyhedron or off its carried tight set")
        if line[0]:
            tights[line] = mask, zero
        else:
            rays.append(line[1:])
    if not tights:
        raise EmptyPolyhedron(P.name or "polyhedron")
    _, R, np_ = ints.reduced
    bad = _ranks_reach([zero for _, zero in tights.values()], R, np_, np_ + 1)
    if bad is not None:
        raise CorrespondenceViolation(f"vertex line {list(tights)[bad]} is not a vertex")
    lines = BasicSolutionSet.of(tights).lines
    return VRep(lines=lines, rays=tuple(sorted(rays))), tuple(tights[v][0] for v in lines)


def vrep(P: HPolyhedron) -> VRep:
    """All vertices and extreme rays of a pointed polyhedron, with no LP (`_vrep`, run once per P)."""
    return P._vertex_walk[0]


def edge_directions(P: HPolyhedron) -> CircuitSet:
    """Directions of bounded edges (adjacent vertex differences) and extreme rays (`_edges`, walked once per P)."""
    vrep(P)  # so a trace (perfbench/tracer.py) sees the vertex set of the pairs
    return P._edge_walk


def _edges(P: HPolyhedron) -> CircuitSet:
    """`edge_directions` of P, from its cached vertices and their tight-row masks (`_vrep`).

    Vertices u and v are adjacent iff `_adjacent` holds on the vertex masks
    with k = n' - 1, n' = n - rank(A). The test is exact although the rays
    of P take no part: if
    the least face F holding u and v has dimension 2 or more, it holds a
    third vertex, since the bounded edges of the pointed F connect its
    vertices and an edge from u to v would be a smaller face holding both.
    The work budget caps the vertex pairs tested. The direction of an edge
    comes from the vertex lines `V.lines`: u - v is a positive multiple of
    num_u den_v - num_v den_u, whose `_canonical` names the line.
    """
    V, masks = P._vertex_walk
    np_ = P._ints.reduced[2]
    check_budget(comb(len(V.lines), 2), "vertex pairs")
    dirs = {_canonical(r) for r in V.rays}
    for (u, mu), (v, mv) in itertools.combinations(zip(V.lines, masks), 2):
        if _adjacent(masks, mu & mv, np_ - 1):
            dirs.add(_canonical([x * v[0] - y * u[0] for x, y in zip(u[1:], v[1:])]))
    return CircuitSet(directions=tuple(sorted(dirs)))


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


def slack_standard_form(P: HPolyhedron) -> HPolyhedron:
    """Standard-form copy of P in slack space, the image of the slack map x -> d - B x.

    The image polyhedron {s >= 0, U s = U d} uses the inequality parts of
    a kernel basis of [B^T A^T] as equality normals. Requires a pointed
    input with independent equality rows (i.e. a minimized description).
    """
    if not is_pointed(P):
        raise NotPointed(P.name or "polyhedron")
    q = len(P.B)
    stacked = transpose(P.B + P.A)
    basis = kernel_basis(stacked, q + len(P.A)) if stacked else []
    U = tuple(v[:q] for v in basis)
    if U and rank(U) != len(U):
        raise PreconditionViolation("slack_standard_form needs independent equality rows")
    eq_rhs = tuple(dot(u, P.d) for u in U)
    return HPolyhedron(
        n=q,
        A=U,
        b=eq_rhs,
        B=tuple(vec_scale(-ONE, row) for row in identity(q)),
        d=zero_vector(q),
        name=f"slack({P.name})" if P.name else "",
    )


class _Eliminator:
    """Fourier-Motzkin with equality substitution and exact redundancy pruning.

    Rows, equality and inequality alike, are integer lists [a | rhs] over
    the live variables, and each substitution or combination divides out
    its gcd: a positive multiple of the row a Fraction elimination would
    hold, which names the same hyperplane or halfspace. `result` writes
    both blocks as primitive integer normals with their right-hand sides,
    and gives the description its `_ints` view from these integer rows
    (`_scaled_ints`, `_with_ints`), on either route, so no row of it is
    converted again.

    Every system the eliminator holds is a coordinate projection of the
    first one, so it can carry generators of its polyhedron, points v and
    rays w with conv(v) + cone(w) equal to it. `gens` holds them as integer
    vectors [*z, -h] over the first system's variables, positive multiples
    of (v, 1) and (w, 0). A row [a | rhs] reads a.z - rhs h <= 0 on each,
    z read on the live variables, and a generator is tight on the row where
    it reads 0. Each generator must read 0 on every equality row and no
    more than 0 on every inequality row of the first system
    (CorrespondenceViolation).

    With `gens`, `masks` runs parallel to `ineqs`: each row's tight set,
    the mask of the generators tight on it. It is read once for the first
    rows (`_tight`) and then carried, the incidence form of Chernikov's rule
    (Chernikov 1965). A substitution p r - r[j] prow, p > 0, reads
    p (r . g) on each generator g, as prow reads 0 there, so it keeps r's
    mask; a combination of two rows with positive multipliers reads 0 on g
    iff both rows do, so it gets the intersection of their masks.
    `implicit_rows` reads each row left on the generators again and raises
    CorrespondenceViolation where that differs from its carried mask.

    The rows are pruned after the first step and after each combination:
    by the masks when `gens` is given, else by `_irredundant_rows`, which
    tests every row in order against the others that are left. Both keep
    the same rows in the same order. A substitution after a prune needs
    none: solving prow for x_j maps the affine hull of the equality rows
    isomorphically onto that of the substituted equality rows, one variable
    fewer, and each substituted row reads at the image of a point what its
    row read at the point. So rows imply a row iff the substituted rows
    imply the substituted row: a pruned set, no row implied by the others,
    none zero and no two parallel, stays one, and the next prune would keep
    every row, in order.

    The prune by generators reads each row's tight set. A row is an
    implicit equality iff its tight set is full; let I be those rows. No
    prune changes the polyhedron, so the sequential LPs drop a row iff the
    rows left when it is tested still cut out the polyhedron without it.
    - A row outside I is implied by the rest iff its face holds no point, is
      no facet, or is a facet that a later row also defines: every facet is
      defined by some row, and the earlier rows that define it are gone by
      then. Its face holds a point iff its tight set does. A nonempty face
      strictly inside another has a strictly smaller tight set (Ziegler,
      Lectures on Polytopes, ch. 2), so it is a facet iff no tight set but
      a full one strictly contains it; rows that define the same facet
      have the same tight set, and of these the last stays.
    - A row of I that the rest implies is, by Farkas (Schrijver 1986,
      ch. 8), a nonnegative combination of them and the equality rows with
      no larger right-hand side. It reads its rhs on the whole nonempty
      polyhedron, so every row with a positive multiplier is tight there
      too, and is in I. So `_irredundant_rows` on the equality rows and I
      alone, in the same order, drops the same rows of I, and only when I
      is nonempty does a prune solve an LP.
    """

    def __init__(
        self,
        nvars: int,
        eqs: Iterable[list[int]],
        ineqs: Iterable[list[int]],
        gens: Optional[list[list[int]]] = None,
    ):
        self.live, self.width = list(range(nvars)), nvars + 1
        self.eqs = list(eqs)
        self.ineqs = list(ineqs)
        self.gens = gens
        if gens is not None:
            self._on_equality_rows()
            self.masks = [self._tight(row) for row in self.ineqs]

    def eliminate(self, target_vars: set[int]) -> None:
        """Eliminate every target variable, pruning after each step but a
        substitution that follows a prune, and at least once."""
        pruned = False
        while pending := [j for j, v in enumerate(self.live) if v in target_vars]:
            if not self._eliminate_one(self._pick(pending)) or not pruned:
                self._prune()
                pruned = True
        if not pruned:
            self._prune()

    def _pick(self, pending: list[int]) -> int:
        best, best_cost = None, None
        for j in pending:
            if any(r[j] for r in self.eqs):
                return j  # substitution never adds rows
            pos = sum(1 for r in self.ineqs if r[j] > 0)
            neg = sum(1 for r in self.ineqs if r[j] < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = j, cost
        return best

    def _eliminate_one(self, j: int) -> bool:
        """Eliminate live variable j; whether it was substituted through an equality row."""
        pivot = next((i for i, r in enumerate(self.eqs) if r[j]), None)
        if pivot is not None:
            prow = self.eqs.pop(pivot)
            p = prow[j]
            if p < 0:
                prow, p = [-x for x in prow], -p

            def subst(r: list[int]) -> list[int]:
                # p * r - r[j] * prow over its gcd: a positive multiple of r - r[j] / p * prow
                return _primitive([p * x - r[j] * y for x, y in zip(r, prow)])[0] if r[j] else r

            self.eqs = [subst(r) for r in self.eqs]
            self.ineqs = [subst(r) for r in self.ineqs]
        else:
            R = self.ineqs
            pairs = [(p, q) for p, rp in enumerate(R) if rp[j] > 0 for q, rn in enumerate(R) if rn[j] < 0]
            zero = [k for k, r in enumerate(R) if r[j] == 0]
            self.ineqs = [R[k] for k in zero]
            self.ineqs += [_primitive([-R[q][j] * x + R[p][j] * y for x, y in zip(R[p], R[q])])[0] for p, q in pairs]
            if self.gens is not None:
                self.masks = [self.masks[k] for k in zero] + [self.masks[p] & self.masks[q] for p, q in pairs]
        del self.live[j]
        self.eqs = [r[:j] + r[j + 1 :] for r in self.eqs]
        self.ineqs = [r[:j] + r[j + 1 :] for r in self.ineqs]
        return pivot is not None

    def _prune(self) -> None:
        """Trim duplicates and redundant inequality rows, by the generators when there are any."""
        if self.gens is None:
            keep = _irredundant_rows(len(self.live), self.eqs, self.ineqs)
        else:
            keep = self._incident_rows()
            self.masks = [self.masks[i] for i in keep]
        self.ineqs = [self.ineqs[i] for i in keep]

    def _reads(self, row: Sequence[int]) -> list[int]:
        """What `row`, a row over the live variables, reads on each generator."""
        if len(row) < self.width:  # eliminated variables read 0
            full = [0] * self.width
            for v, x in zip([*self.live, -1], row):
                full[v] = x
            row = full
        return [sum(map(mul, row, g)) for g in self.gens]

    def _on_equality_rows(self) -> None:
        """CorrespondenceViolation unless every generator reads 0 on every equality row."""
        if any(any(self._reads(row)) for row in self.eqs):
            raise CorrespondenceViolation("a generator of the domain leaves an equality row")

    def _tight(self, row: Sequence[int]) -> int:
        """The mask of the generators tight on `row`, a row over the live variables;
        CorrespondenceViolation if one violates it."""
        reads = self._reads(row)
        if any(x > 0 for x in reads):
            raise CorrespondenceViolation("a generator of the domain violates an eliminated row")
        return sum(1 << k for k, x in enumerate(reads) if not x)

    def _incident_rows(self) -> list[int]:
        """The rows `_irredundant_rows` keeps: those outside I read off the
        carried masks, and those of I from its LPs on I and the equality rows."""
        full, points = (1 << len(self.gens)) - 1, sum(1 << k for k, g in enumerate(self.gens) if g[-1])
        keep = _distinct_rows(self.ineqs)
        masks = [self.masks[i] for i in keep]
        facets = _maximal(m for m in masks if m != full and m & points)  # a mask holding one holds a point too
        last = {m: i for i, m in zip(keep, masks) if m in facets}
        if implicit := [i for i, m in zip(keep, masks) if m == full]:
            implicit = _irredundant_rows(len(self.live), self.eqs, self.ineqs, implicit)
        return [i for i, m in zip(keep, masks) if (i in implicit if m == full else last.get(m) == i)]

    def implicit_rows(self) -> tuple[int, ...]:
        """The inequality rows tight on every generator: the implicit equalities.
        Every generator must still read 0 on every equality row, and each row's
        tight set is read again and must equal its carried mask."""
        self._on_equality_rows()
        masks = [self._tight(row) for row in self.ineqs]
        if masks != self.masks:
            raise CorrespondenceViolation("a carried tight set differs from its row's")
        return tuple(i for i, m in enumerate(masks) if m == (1 << len(self.gens)) - 1)

    def result(self, n: int) -> HPolyhedron:
        if len(self.live) != n:
            raise CorrespondenceViolation(f"{len(self.live)} variables left after elimination, expected {n}")
        A, b = tuple(zip(*map(_scaled_row, self.eqs))) or ((), ())
        B, d = tuple(zip(*map(_scaled_row, self.ineqs))) or ((), ())
        return _with_ints(HPolyhedron(n, A, b, B, d), [_scaled_ints(row) for row in (*self.eqs, *self.ineqs)])


def project(P: HPolyhedron, pi: LinearMap) -> HPolyhedron:
    """Minimized description of pi(P) by Fourier-Motzkin elimination.

    Works on the graph system {x = pi(y), y in P} over (x, y), whose rows
    [D e_i | -N_i | 0] come from the map's integer view (N, D), and
    eliminates all y variables, substituting through equality rows when
    possible and pruning redundant rows after the first step and after
    each combination step (`_Eliminator`).
    The implicit equalities of the pruned rows are then promoted; that
    makes no row redundant (see the module docstring), so the rows are
    not pruned again. Both row blocks come back as primitive integer
    normals with their right-hand sides. Every prune reads the generators
    of P (`_project`), cached on P (`_domain_generators`), so projecting
    one domain again runs no second double description, and the image's
    vertices are read off them and the rows' tight sets (`_image_vrep`),
    so the image needs none of its own.
    """
    if pi.in_dim(P.n) != P.n:
        raise PreconditionViolation(f"map has domain dimension {pi.in_dim(P.n)}, polyhedron has dimension {P.n}")
    return _project(P, pi, P._generators)


def _domain_generators(P: HPolyhedron) -> VRep:
    """Vertices and rays whose convex and conic hull is P, for `project`.

    A pointed P has those of `vrep(P)`. A P with a lineality space L is
    (P ∩ L^⊥) + L: the primitive lines l of L's basis (the lineality set of
    its circuit walk), appended to A as the rows l.x = 0, cut out the
    pointed P ∩ L^⊥, whose `vrep` gives the vertices and rays, and each ±l
    is one more ray. Every row of P reads 0 on ±l, so their bits sit in
    every tight set. The work budget caps the double description either way.
    """
    lin = P._circuit_walk.lineality if P._ints.lineality else ()
    V = vrep(replace(P, A=P.A + matrix(lin), b=P.b + zero_vector(len(lin))) if lin else P)
    return VRep(V.lines, V.rays + tuple(tuple(s * x for x in l) for l in lin for s in (1, -1)))


def _project(P: HPolyhedron, pi: LinearMap, V: Optional[VRep]) -> HPolyhedron:
    """`project` of P, pruned by the generators of V, or by LPs when V is None.

    A vertex line (den, *num) of V.lines and a ray w give the generators
    [N num | D num | -D den] and [N w | D w | 0] (`_Eliminator`). The
    implicit equalities are the rows tight on every generator, and the
    result is checked on every generator in integers: each reads 0 on every
    equality row left, and each row's tight set is read again
    (`_Eliminator.implicit_rows`). The image keeps the generators and the
    tight sets of its inequality rows, in order, in its `__dict__` as
    `_incidences`, where its vertex walk reads them (`_image_vrep`). On
    both routes the result takes its `_ints` view from the eliminator's
    integer rows (`_Eliminator.result`).
    Without V, an LP finds a point of P, and the result is checked to hold
    its image, whose `_implicit_rows` are the implicit equalities: that
    route is the reference that `law_two_route_projection` and the tests
    compare `project` with.
    """
    m, nt = P.n, pi.out_dim
    N, D = pi._ints
    if V is None:
        y, gens = _feasible_point(P), None
    else:
        lines = [*V.lines, *((0, *w) for w in V.rays)]  # a ray w as the line (0, *w)
        gens = [[*(sum(map(mul, row, v[1:])) for row in N), *(D * x for x in v[1:]), -D * v[0]] for v in lines]
    eqs = [[*(D * (k == i) for k in range(nt)), *(-x for x in row), 0] for i, row in enumerate(N)]
    eqs += [[0] * nt + row for row in P._ints.A]
    elim = _Eliminator(nt + m, eqs, [[0] * nt + row for row in P._ints.B], gens)
    elim.eliminate(set(range(nt, nt + m)))
    R = elim.result(nt)
    if V is not None:
        implicit = elim.implicit_rows()
        image = _promoted(R, implicit)
        image.__dict__["_incidences"] = gens, [mask for i, mask in enumerate(elim.masks) if i not in implicit]
        return image
    x = pi(y)
    if not R.contains(x):
        raise CorrespondenceViolation(f"projection misses pi({', '.join(map(str, y))})")
    return _promoted(R, _implicit_rows(R, x)[0])


def preimage_description(P: HPolyhedron, tau: LinearMap) -> HPolyhedron:
    """{x : tau(x) in P} by composing rows with tau; tau need not be square."""
    mt = tau.matrix
    A = tuple(mat_vec(transpose(mt), row) for row in P.A)
    B = tuple(mat_vec(transpose(mt), row) for row in P.B)
    return HPolyhedron(n=tau.in_dim(P.n), A=A, b=P.b, B=B, d=P.d)
