"""Builders for projection matrices, polytope families, and lifted extensions.

Everything here is a pure function from parameters to exact rational data.
Row and variable orderings are fixed conventions, documented per builder, so
serialized systems reproduce byte for byte.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .circuits import enumerate_circuits
from .directions import CircuitSet
from .errors import (
    EdgeDirectionGiven,
    EmptyPolyhedron,
    CorrespondenceViolation,
    PreconditionViolation,
)
from .linalg import (
    Matrix,
    Vector,
    _int_vector,
    _scaled_row,
    canonicalize_direction,
    dot,
    frac,
    identity,
    is_zero,
    kernel_basis,
    matmul,
    matrix,
    primitive,
    rank,
    solve,
    transpose,
    unit_vector,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
    vector,
    zero_vector,
)
from .lp import is_feasible
from .polyhedron import (
    HPolyhedron,
    LinearMap,
    cartesian_product,
    check_budget,
    edge_directions,
    project,
    vrep,
)


# ---------------------------------------------------------------------------
# projection matrices


def pi_matrix(n: int, m: int) -> LinearMap:
    """Integer n x m projection whose orthant image is a pointed cone with
    n+1 facets and n+1 extreme rays.

    Layout: a fixed 3x4 header block, a doubled identity in rows 4..n right
    after the header columns, zero columns past column n+1.  Every nonzero
    column sums to 2, so the image of the standard simplex is the slice of
    the image cone at coordinate sum 2.
    """
    if not m > n >= 3:
        raise PreconditionViolation(f"need m > n >= 3, got n={n}, m={m}")
    return LinearMap(_pi_rows(n, m, 2), name=f"pi_{n}_{m}")


def pi_alpha_matrix(m: int, alpha: int) -> LinearMap:
    """Scaled variant of pi_matrix, (m-1) x m, one map per integer alpha >= 2.

    The preimage of the third-coordinate axis is always two-dimensional,
    spanned by alpha*e2 - e1 and alpha*e4 - e3, and these planes for distinct
    alpha intersect only at the origin.  alpha = 2 recovers pi_matrix(m-1, m).
    """
    if m < 4:
        raise PreconditionViolation(f"need m >= 4, got {m}")
    if not isinstance(alpha, int) or alpha < 2:
        raise PreconditionViolation(f"need integer alpha >= 2, got {alpha!r}")
    return LinearMap(_pi_rows(m - 1, m, alpha), name=f"pi_alpha_{alpha}_{m}")


def _pi_rows(n: int, m: int, a: int) -> Matrix:
    """Rows of the pi layout with scale a: the 3x4 header, then a at (i, i + 1)
    for i >= 3.  pi_matrix is a = 2; pi_alpha_matrix is n = m - 1."""
    rows = [[0] * m for _ in range(n)]
    for i, header in enumerate(((a, 1, 0, 0), (0, 0, a, 1), (0, a - 1, 0, a - 1))):
        rows[i][:4] = header
    for i in range(3, n):
        rows[i][i + 1] = a
    return matrix(rows)


def pi_prime_matrix(n: int, m: int) -> LinearMap:
    """Integer n x m projection sending the standard simplex to a polytope
    that keeps a non-edge circuit while inheriting its whole circuit set.

    Layout: a fixed 3x6 header block, an identity in rows 4..n at columns
    7..n+3, zero columns after that (hence the m >= n+3 requirement).
    """
    if n < 3 or m < n + 3:
        raise PreconditionViolation(f"need n >= 3 and m >= n+3, got n={n}, m={m}")
    rows = [[0] * m for _ in range(n)]
    headers = ((1, 1, 2, 0, 0, 0), (0, 0, 0, 1, 1, 2), (0, 1, 1, 0, 1, 1))
    for i, header in enumerate(headers):
        rows[i][:6] = header
    for i in range(3, n):
        rows[i][i + 3] = 1
    return LinearMap(matrix(rows), name=f"pi_prime_{n}_{m}")


# ---------------------------------------------------------------------------
# stock polytopes


def orthant(m: int) -> HPolyhedron:
    """Nonnegative orthant, rows -x_i <= 0 in coordinate order."""
    neg = [vec_neg(u) for u in identity(m)]
    return HPolyhedron.make(m, B=neg, d=[0] * m, name=f"orthant{m}")


def hypercube(m: int) -> HPolyhedron:
    """Unit cube [0,1]^m: rows -x_i <= 0, then x_i <= 1."""
    eye = identity(m)
    rows = [vec_neg(u) for u in eye] + list(eye)
    return HPolyhedron.make(m, B=rows, d=[0] * m + [1] * m, name=f"cube{m}")


def simplex(m: int) -> HPolyhedron:
    """Standard simplex {x >= 0, sum x <= 1}: nonnegativity rows first."""
    rows = [vec_neg(u) for u in identity(m)] + [vector([1] * m)]
    return HPolyhedron.make(m, B=rows, d=[0] * m + [1], name=f"simplex{m}")


def cross_polytope(n: int) -> HPolyhedron:
    """All 2^n sign rows s.x <= 1, s in {-1,1}^n in lexicographic order.

    The n 2^n entries count against the work budget (BudgetExceeded)."""
    if n < 1:
        raise PreconditionViolation("dimension must be positive")
    check_budget(n * 2**n, "cross-polytope entries")
    rows = [list(s) for s in itertools.product((-1, 1), repeat=n)]
    return HPolyhedron.make(n, B=rows, d=[1] * len(rows), name=f"crosspoly{n}")


def cropped_cross_polytope(n: int, delta=Fraction(3, 4)) -> HPolyhedron:
    """Cross-polytope intersected with the box [-delta, delta]^n.

    For n >= 2 and delta strictly between 1/2 and 1 (PreconditionViolation
    otherwise), every one of the 2^n + 2n rows is facet-defining, the vertex
    count is 4n(n-1), and all 2^n box corners are basic solutions without
    being vertices.  Row order: sign rows as in cross_polytope, then
    x_i <= delta, then -x_i <= delta.
    """
    if n < 2:
        raise PreconditionViolation(f"cropped cross-polytope needs n >= 2, got {n}")
    d = frac(delta)
    if not Fraction(1, 2) < d < 1:
        raise PreconditionViolation(f"delta must lie strictly in (1/2, 1), got {d}")
    base = cross_polytope(n)
    eye = identity(n)
    rows = list(base.B) + list(eye) + [vec_neg(u) for u in eye]
    rhs = list(base.d) + [d] * (2 * n)
    return HPolyhedron.make(n, B=rows, d=rhs, name=f"croppedcross{n}(delta={d})")


# ---------------------------------------------------------------------------
# assignment polytopes and their clustering projections


@dataclass(frozen=True)
class PartitionInstance:
    """Items to cluster: n points in R^d, k clusters with prescribed sizes."""

    points: tuple[Vector, ...]
    k: int
    sizes: tuple[int, ...]

    @staticmethod
    def make(points: Sequence[Sequence], k: int, sizes: Sequence[int]) -> "PartitionInstance":
        pts = tuple(vector(p) for p in points)
        sz = tuple(int(s) for s in sizes)
        if not pts or len({len(p) for p in pts}) != 1:
            raise PreconditionViolation("points must be nonempty and share a dimension")
        if len(sz) != k or any(s < 1 for s in sz) or sum(sz) != len(pts):
            raise PreconditionViolation(f"cluster sizes {sz} must be positive and sum to {len(pts)}")
        return PartitionInstance(points=pts, k=k, sizes=sz)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return len(self.points[0])


def transportation(n: int, k: int, kappa: Sequence[int]) -> HPolyhedron:
    """Assignment polytope with fixed cluster sizes, in k*n variables y_ij.

    Variable order is row-major (y_11..y_1n, y_21..).  Equality rows: the k
    cluster-size rows sum_j y_ij = kappa_i first, then the n assignment rows
    sum_i y_ij = 1.  Inequalities are y >= 0 in variable order.
    """
    sizes = tuple(int(s) for s in kappa)
    if len(sizes) != k or any(s < 1 for s in sizes) or sum(sizes) != n:
        raise PreconditionViolation(f"cluster sizes {sizes} must be positive and sum to {n}")
    nv = k * n
    eqs, rhs = [], []
    for i in range(k):
        row = [0] * nv
        row[i * n : (i + 1) * n] = [1] * n
        eqs.append(row)
        rhs.append(sizes[i])
    for j in range(n):
        row = [0] * nv
        for i in range(k):
            row[i * n + j] = 1
        eqs.append(row)
        rhs.append(1)
    neg = [vec_neg(u) for u in identity(nv)]
    name = f"transport(n={n},k={k},sizes={sizes})"
    return HPolyhedron.make(nv, A=eqs, b=rhs, B=neg, d=[0] * nv, name=name)


def partition_projection(inst: PartitionInstance) -> LinearMap:
    """Map assignments to stacked cluster sums: y -> (c_1, .., c_k) with
    c_i = sum_j y_ij * point_j.  Block-diagonal, one d x n data block per
    cluster, matching the row-major variable order of transportation().
    """
    d, n, k = inst.d, inst.n, inst.k
    rows = []
    for i in range(k):
        for coord in range(d):
            row = [frac(0)] * (k * n)
            for j in range(n):
                row[i * n + j] = inst.points[j][coord]
            rows.append(row)
    return LinearMap(matrix(rows), name=f"cluster_sums(k={k},d={d})")


# ---------------------------------------------------------------------------
# disjunctive extensions


@dataclass(frozen=True)
class DisjunctiveFamily:
    """Nonempty polyhedra in a common ambient space whose union is covered."""

    pieces: tuple[HPolyhedron, ...]

    @staticmethod
    def make(pieces: Sequence[HPolyhedron]) -> "DisjunctiveFamily":
        pieces = tuple(pieces)
        if not pieces:
            raise PreconditionViolation("family needs at least one piece")
        if len({P.n for P in pieces}) != 1:
            raise PreconditionViolation("pieces must share an ambient dimension")
        for i, P in enumerate(pieces):
            if not is_feasible(P):
                raise EmptyPolyhedron(P.name or f"piece {i}")
        return DisjunctiveFamily(pieces=pieces)

    @property
    def p(self) -> int:
        return len(self.pieces)

    @property
    def n(self) -> int:
        return self.pieces[0].n


def balas_extension(family: DisjunctiveFamily) -> tuple[HPolyhedron, LinearMap]:
    """Lift a union of p polyhedra in R^n to one system in R^(p + p*n).

    Variables: weights lambda in R^p first, then one copied block x_i per
    piece.  Equality rows: sum lambda = 1 first, then each piece's equality
    rows with right-hand sides scaled onto -lambda_i.  Inequality rows:
    lambda >= 0 first, then the scaled piece inequalities.  No minimization
    is applied; the raw system is the object of interest.  Returns the lifted
    polyhedron and the summation map (lambda, x_1, .., x_p) -> sum x_i, whose
    image is the convex hull of the union.
    """
    p, n = family.p, family.n
    nv = p + p * n

    def lift(i: int, a, rhs) -> list:
        """The row a . x_i - rhs * lambda_i, over (lambda, x_1, .., x_p)."""
        row = [frac(0)] * nv
        row[i] = -rhs
        row[p + i * n : p + (i + 1) * n] = a
        return row

    pieces = list(enumerate(family.pieces))
    eqs = [[1] * p + [0] * (p * n)]
    eqs += [lift(i, a, beta) for i, piece in pieces for a, beta in zip(piece.A, piece.b)]
    ineqs = [lift(i, zero_vector(n), 1) for i in range(p)]
    ineqs += [lift(i, a, delta) for i, piece in pieces for a, delta in zip(piece.B, piece.d)]
    erhs, irhs = [1] + [0] * (len(eqs) - 1), [0] * len(ineqs)

    Q = HPolyhedron.make(nv, A=eqs, b=erhs, B=ineqs, d=irhs, name=f"disjunctive_p{p}")
    summation = [[0] * p + list(u) * p for u in identity(n)]
    return Q, LinearMap(matrix(summation), name=f"sum_of_{p}_blocks")


class NonInheritingExtension(NamedTuple):
    polyhedron: HPolyhedron
    projection: LinearMap
    family: DisjunctiveFamily


def _point_polyhedron(v: Vector, name: str) -> HPolyhedron:
    return HPolyhedron.make(len(v), A=identity(len(v)), b=v, name=name)


def _parallelogram(mid: Vector, delta: Vector, z: Vector, eps: Fraction, name: str) -> HPolyhedron:
    """conv{mid +- delta/2, mid +- eps z} with delta orthogonal to z."""
    n = len(mid)
    eqs, erhs = [], []
    for normal in kernel_basis(matrix([delta, z]), n):
        row, rhs = _scaled_row(_int_vector((*normal, dot(normal, mid)))[0])
        eqs.append(row)
        erhs.append(rhs)
    svec = vec_scale(Fraction(2) / dot(delta, delta), delta)
    tvec = vec_scale(Fraction(1) / (eps * dot(z, z)), z)
    ineqs, irhs = [], []
    for ssign, tsign in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        normal = vec_add(vec_scale(frac(ssign), svec), vec_scale(frac(tsign), tvec))
        row, rhs = _scaled_row(_int_vector((*normal, Fraction(1) + dot(normal, mid)))[0])
        ineqs.append(row)
        irhs.append(rhs)
    return HPolyhedron.make(n, A=eqs, b=erhs, B=ineqs, d=irhs, name=name)


def _separable_orthogonally(g: Vector, left: list[Vector], right: list[Vector]) -> bool:
    """Strict separation of two vertex sets by a hyperplane normal to g.

    Scale-invariant formulation: find (a, beta) with a.g = 0, a.u <= beta - 1
    on the left and a.v >= beta + 1 on the right.

    One candidate is tried first, in integers: one `_int_vector` over g and
    every corner gives G = D g, U_l = D u_l and V_r = D v_r for one D > 0;
    d = |L| sum V - |R| sum U is a positive multiple of the difference of
    the two centroids, and a = (G.G) d - (d.G) G is its component orthogonal
    to G, times G.G.  If a.G = 0 and lo = max a.U_l < hi = min a.V_r, the
    pair is separable, exactly: a times 2D / (hi - lo) with beta =
    (hi + lo) / (hi - lo) reads 0 on g, at most beta - 1 on every u and at
    least beta + 1 on every v, a feasible point of the system below.  A
    checked witness settles what it can, as in Fukuda's polyhedral
    computation notes; otherwise the system is solved by `is_feasible`,
    whose answer `lp_solve` certifies (a Farkas certificate for a no).
    """
    n = len(g)
    ints = _int_vector((*g, *itertools.chain(*left), *itertools.chain(*right)))[0]
    G = ints[:n]
    U = [ints[i : i + n] for i in range(n, n + n * len(left), n)]
    V = [ints[i : i + n] for i in range(n + n * len(left), len(ints), n)]
    d = [len(left) * sv - len(right) * su for su, sv in zip(map(sum, zip(*U)), map(sum, zip(*V)))]
    gg, dg = sum(map(mul, G, G)), sum(map(mul, d, G))
    a = [gg * x - dg * y for x, y in zip(d, G)]
    if sum(map(mul, a, G)) == 0:
        if max(sum(map(mul, a, u)) for u in U) < min(sum(map(mul, a, v)) for v in V):
            return True
    rows, rhs = [], []
    for u in left:
        rows.append(tuple(u) + (frac(-1),))
        rhs.append(-1)
    for v in right:
        rows.append(tuple(vec_neg(v)) + (frac(1),))
        rhs.append(-1)
    system = HPolyhedron.make(n + 1, A=[tuple(g) + (frac(0),)], b=[0], B=rows, d=rhs)
    return is_feasible(system)


def _pair_geometry(hull: HPolyhedron, u: Vector, v: Vector) -> tuple[Vector, Vector, Vector]:
    """Midpoint, difference, and an in-face direction orthogonal to it."""
    mid = vec_scale(Fraction(1, 2), vec_add(u, v))
    tight = hull.tight_inequality_rows(mid)
    span_rows = hull.A + tuple(hull.B[i] for i in tight)
    space = kernel_basis(span_rows, hull.n)
    if len(space) < 2:
        raise EdgeDirectionGiven(
            "the vertex hull joins this pair along an edge; no extension can drop it"
        )
    delta = vec_sub(u, v)
    for w0 in space:
        w = vec_sub(w0, vec_scale(dot(w0, delta) / dot(delta, delta), delta))
        if not is_zero(w):
            return mid, delta, primitive(w)
    raise CorrespondenceViolation("face direction space collapsed onto the pair difference")


def _edge_free_cover(hull: HPolyhedron, verts: Sequence[Vector], g: Vector) -> DisjunctiveFamily:
    """Cover the vertices of a polytope by pieces with no edge parallel to g.

    Vertex pairs whose difference is parallel to g become flat parallelogram
    pieces inside their minimal common face; every other vertex stays a
    singleton.  The parallelogram half-width shrinks by halving until all
    pieces fit and every two pieces admit a strict separating hyperplane
    orthogonal to g (`_separable_orthogonally`): proved by one candidate
    hyperplane checked in integers, or else by an exact feasibility solve,
    so an LP meets only the pairs the candidate cannot prove, among them
    every inseparable pair.
    """
    gline = canonicalize_direction(g)
    pairs = [
        (u, v)
        for u, v in itertools.combinations(verts, 2)
        if canonicalize_direction(vec_sub(u, v)) == gline
    ]
    paired = {t for pair in pairs for t in pair}
    # three collinear vertices are impossible, so the pairs are disjoint
    if len(paired) != 2 * len(pairs):
        raise CorrespondenceViolation(f"three collinear vertices along ({', '.join(map(str, gline))})")
    singles = sorted(t for t in verts if t not in paired)
    geoms = [_pair_geometry(hull, u, v) for u, v in sorted(pairs)]

    eps = Fraction(1)
    for _ in range(128):
        pieces: list[tuple[HPolyhedron, list[Vector]]] = []
        fits = True
        for idx, (mid, delta, z) in enumerate(geoms):
            hi = vec_add(mid, vec_scale(eps, z))
            lo = vec_sub(mid, vec_scale(eps, z))
            if not (hull.contains(hi) and hull.contains(lo)):
                fits = False
                break
            piece = _parallelogram(mid, delta, z, eps, name=f"parallelogram{idx}")
            corners = [vec_add(mid, vec_scale(Fraction(1, 2), delta)),
                       vec_sub(mid, vec_scale(Fraction(1, 2), delta)), hi, lo]
            pieces.append((piece, corners))
        if fits:
            for idx, w in enumerate(singles):
                pieces.append((_point_polyhedron(w, name=f"vertex{idx}"), [w]))
            if all(
                _separable_orthogonally(g, vs1, vs2)
                for (_, vs1), (_, vs2) in itertools.combinations(pieces, 2)
            ):
                # every piece holds its corners, so none is empty
                return DisjunctiveFamily(pieces=tuple(p for p, _ in pieces))
        eps /= 2
    raise CorrespondenceViolation("no parallelogram width admitted the required separations")


def _hull_of_vertices(verts: Sequence[Vector]) -> HPolyhedron:
    """Inequality description of conv(verts), via the weight-simplex image."""
    if len(verts) == 1:
        return _point_polyhedron(verts[0], name="hull")
    k = len(verts)
    weights = HPolyhedron.make(
        k, A=[[1] * k], b=[1], B=[vec_neg(u) for u in identity(k)], d=[0] * k
    )
    cols = transpose(matrix(verts))
    return project(weights, LinearMap(cols, name="hull"))


def non_inheriting_extension(P: HPolyhedron, g: Sequence) -> NonInheritingExtension:
    """Extension of P none of whose circuits projects onto the direction g.

    Exists exactly when g is not an edge direction of P.  Bounded P: lift the
    edge-free cover of its vertices disjunctively; the lifted circuits then
    only project to piece edge directions or to differences of points in
    distinct pieces, and both families avoid g by construction.  Unbounded P:
    handle the vertex hull as above and append one nonnegative recession
    variable per extreme ray.  The returned system is checked by a full
    circuit enumeration before being handed back, and keeps that walk cached.
    """
    g = vector(g)
    if is_zero(g):
        raise PreconditionViolation("direction must be nonzero")
    if g in edge_directions(P):
        raise EdgeDirectionGiven("an edge direction is inherited from every extension")
    V = vrep(P)

    hull = _hull_of_vertices(V.vertices) if V.rays else P
    family = _edge_free_cover(hull, V.vertices, g)
    Q, proj = balas_extension(family)
    if V.rays:
        Q = cartesian_product(Q, orthant(len(V.rays)))
        cols = transpose(matrix(V.rays))
        rows = [tuple(mrow) + tuple(cols[i]) for i, mrow in enumerate(proj.matrix)]
        proj = LinearMap(matrix(rows), name=f"{proj.name}_plus_{len(V.rays)}_rays")
    Q = Q.renamed(f"edge_free_extension({P.name or 'P'})")

    if g in proj.image_directions(enumerate_circuits(Q)):
        raise CorrespondenceViolation("extension still projects a circuit onto g")
    return NonInheritingExtension(Q, proj, family)


# ---------------------------------------------------------------------------
# orthant position and the alpha-indexed projection search


def check_orthant_position(Q: HPolyhedron) -> None:
    """Require the origin to be a non-degenerate vertex of full-dimensional Q
    whose tight rows are exactly the coordinate nonnegativity constraints."""
    m = Q.n
    if Q.A:
        raise PreconditionViolation("equality rows contradict full-dimensionality")
    if not Q.contains(zero_vector(m)):
        raise PreconditionViolation("origin must belong to the polyhedron")
    tight = Q.tight_inequality_rows(zero_vector(m))
    if len(tight) != m:
        raise PreconditionViolation(
            f"{len(tight)} tight rows at the origin, need exactly {m}"
        )
    seen = set()
    for i in tight:
        row = primitive(Q.B[i])
        nz = [j for j, x in enumerate(row) if x != 0]
        if len(nz) != 1 or row[nz[0]] != -1:
            raise PreconditionViolation("tight rows at the origin must be -x_i <= 0")
        seen.add(nz[0])
    if seen != set(range(m)):
        raise PreconditionViolation("tight rows must cover every coordinate once")


class AlphaProjection(NamedTuple):
    alpha: int
    projection: LinearMap
    circuits: CircuitSet  # circuits of Q
    image_circuits: CircuitSet  # circuits of the minimized image of Q


def find_alpha_projection(Q: HPolyhedron) -> AlphaProjection:
    """Smallest alpha >= 2 whose projection family member misses every
    circuit line of Q, together with that projection and the circuit sets
    of Q and of its image that certify it.

    Q must be in orthant position in dimension m >= 4, which makes it
    full-dimensional: it has no equality rows, and eps * (1, ..., 1) for a
    small eps > 0 satisfies every row strictly.  Termination:
    the two-dimensional planes indexed by alpha pairwise intersect only at
    the origin while Q has finitely many circuit lines.  Before returning,
    the witness property is re-checked from scratch: the third unit vector
    is a circuit of the image but not the image of any circuit.
    """
    m = Q.n
    if m < 4:
        raise PreconditionViolation(f"ambient dimension must be at least 4, got {m}")
    check_orthant_position(Q)

    CQ = enumerate_circuits(Q)
    alpha = 2
    while True:
        k1 = vec_sub(vec_scale(frac(alpha), unit_vector(m, 1)), unit_vector(m, 0))
        k2 = vec_sub(vec_scale(frac(alpha), unit_vector(m, 3)), unit_vector(m, 2))
        if not any(rank(matrix([k1, k2, c])) == 2 for c in CQ):
            break
        alpha += 1

    pi = pi_alpha_matrix(m, alpha)
    CP = enumerate_circuits(project(Q, pi))
    e3 = unit_vector(m - 1, 2)
    if not (e3 in CP and e3 not in pi.image_directions(CQ)):
        raise CorrespondenceViolation("alpha search postcondition failed")
    return AlphaProjection(alpha, pi, CQ, CP)


# ---------------------------------------------------------------------------
# transferring a counterexample onto an arbitrary surjective map


def tau_transfer(pi: LinearMap, sigma: LinearMap) -> LinearMap:
    """Invertible tau with sigma composed with tau equal to pi.

    Both maps must be surjections from the same domain.  tau is assembled
    from a deterministic right inverse of sigma plus a kernel correction
    chosen lowest-index first, and is verified by exact multiplication.
    """
    Pi, Sg = pi.matrix, sigma.matrix
    if not Pi or not Sg:
        raise PreconditionViolation("maps must be nonzero matrices")
    m = len(Pi[0])
    n = len(Pi)
    if len(Sg) != n or len(Sg[0]) != m:
        raise PreconditionViolation("maps must share domain and codomain")
    if rank(Pi) != n or rank(Sg) != n:
        raise PreconditionViolation("both maps must have full row rank")

    if Pi == Sg:
        return LinearMap(identity(m), name="tau_identity")

    # right inverse of sigma, column by column, then tau0 = sigma^+ pi
    pinv_cols = [solve(Sg, unit_vector(n, i)) for i in range(n)]
    if any(c is None for c in pinv_cols):
        raise CorrespondenceViolation("a full-row-rank map has no right inverse")
    tau = [list(row) for row in matmul(transpose(matrix(pinv_cols)), Pi)]

    ker_pi = kernel_basis(Pi, m)
    if ker_pi:
        ker_sg = kernel_basis(Sg, m)
        # W has one row per kernel dimension and satisfies W K_pi = I, which
        # makes tau injective on ker(pi); solve() picks the lowest-index
        # completion, so the whole construction is deterministic
        W = [solve(matrix(ker_pi), unit_vector(len(ker_pi), l)) for l in range(len(ker_pi))]
        if any(w is None for w in W):
            raise CorrespondenceViolation("a kernel basis has no left inverse")
        for t in range(m):
            for j in range(m):
                tau[t][j] += sum(ks[t] * w[j] for ks, w in zip(ker_sg, W))
    result = matrix(tau)
    if matmul(Sg, result) != Pi or rank(result) != m:
        raise CorrespondenceViolation("transfer map failed verification")
    return LinearMap(result, name="tau")


# ---------------------------------------------------------------------------
# a randomized simple 4-polytope in orthant position


def perturbed_simple_4polytope(seed: int) -> HPolyhedron:
    """Simple full-dimensional 4-polytope in orthant position whose circuit
    set meets the alpha = 2 plane, forcing the alpha search past its first
    candidate.

    A product of a slanted triangle with two intervals; the right-hand sides
    carry small random perturbations (circuits are unaffected by them, so the
    forcing circuit (1,-2,0,0) is present for every seed).
    """
    rng = random.Random(seed)
    eps = [Fraction(rng.randint(1, 99), 1000) for _ in range(3)]
    rows = [vec_neg(u) for u in identity(4)]
    rows += [vector([2, 1, 0, 0]), vector([0, 0, 1, 0]), vector([0, 0, 0, 1])]
    rhs = [0, 0, 0, 0, 2 + eps[0], 1 + eps[1], 1 + eps[2]]
    return HPolyhedron.make(4, B=rows, d=rhs, name=f"perturbed4(seed={seed})")
