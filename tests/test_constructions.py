"""Constructions: frozen matrices, stock polytopes, lifted extensions.

Expected values were computed independently before being pinned here: small
vertex sets by hand, larger ones through the tight-row enumerator, circuit
counts through the subset-enumeration oracle. A separation that the
integer candidate hyperplane proves is checked against the LP-only
separation, which stays here as the reference.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from polycircuits import constructions, lp
from polycircuits.circuits import basic_solutions, enumerate_circuits
from polycircuits.constructions import (
    DisjunctiveFamily,
    PartitionInstance,
    _hull_of_vertices,
    balas_extension,
    check_orthant_position,
    cropped_cross_polytope,
    cross_polytope,
    find_alpha_projection,
    hypercube,
    non_inheriting_extension,
    orthant,
    partition_projection,
    perturbed_simple_4polytope,
    pi_alpha_matrix,
    pi_matrix,
    pi_prime_matrix,
    simplex,
    tau_transfer,
    transportation,
)
from polycircuits.errors import (
    EdgeDirectionGiven,
    EmptyPolyhedron,
    NotPointed,
    PreconditionViolation,
)
from polycircuits.experiments import run_experiment
from polycircuits.linalg import (
    canonicalize_direction,
    frac,
    identity,
    mat_vec,
    matmul,
    matrix,
    rank,
    transpose,
    vec_sub,
    vector,
)
from polycircuits.inheritance import _descriptions_match
from polycircuits.polyhedron import HPolyhedron, LinearMap, cartesian_product, dim, edge_directions, project, vrep


def V(p):
    return vector(p)


def vertex_set(P):
    return set(vrep(P).vertices)


# ---------------------------------------------------------------------------
# projection matrices


class TestPiMatrix:
    def test_3_by_4(self):
        assert pi_matrix(3, 4).matrix == matrix([[2, 1, 0, 0], [0, 0, 2, 1], [0, 1, 0, 1]])

    def test_4_by_6(self):
        assert pi_matrix(4, 6).matrix == matrix(
            [
                [2, 1, 0, 0, 0, 0],
                [0, 0, 2, 1, 0, 0],
                [0, 1, 0, 1, 0, 0],
                [0, 0, 0, 0, 2, 0],
            ]
        )

    def test_nonzero_columns_sum_to_two(self):
        for n in range(3, 6):
            for m in range(n + 1, 8):
                cols = transpose(pi_matrix(n, m).matrix)
                sums = {sum(c) for c in cols if any(c)}
                assert sums == {2}
                # columns past n+1 are zero padding
                assert all(not any(c) for c in cols[n + 2 :])

    def test_full_row_rank(self):
        assert rank(pi_matrix(4, 6).matrix) == 4

    def test_rejects_bad_shapes(self):
        with pytest.raises(PreconditionViolation):
            pi_matrix(2, 4)
        with pytest.raises(PreconditionViolation):
            pi_matrix(4, 4)


class TestPiAlphaMatrix:
    def test_alpha_two_recovers_base_map(self):
        assert pi_alpha_matrix(4, 2).matrix == pi_matrix(3, 4).matrix
        assert pi_alpha_matrix(6, 2).matrix == pi_matrix(5, 6).matrix

    def test_alpha_three(self):
        assert pi_alpha_matrix(4, 3).matrix == matrix(
            [[3, 1, 0, 0], [0, 0, 3, 1], [0, 2, 0, 2]]
        )

    def test_axis_preimage_plane(self):
        # alpha*e2 - e1 and alpha*e4 - e3 map onto the third coordinate axis
        for m in (4, 6):
            for alpha in (2, 3, 5):
                M = pi_alpha_matrix(m, alpha).matrix
                for k in (self._k(m, alpha, 0), self._k(m, alpha, 1)):
                    img = mat_vec(M, k)
                    assert img[2] != 0
                    assert all(x == 0 for i, x in enumerate(img) if i != 2)

    def test_planes_meet_only_at_origin(self):
        for a, b in ((2, 3), (2, 5), (3, 4)):
            stack = [self._k(5, a, 0), self._k(5, a, 1), self._k(5, b, 0), self._k(5, b, 1)]
            assert rank(matrix(stack)) == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(PreconditionViolation):
            pi_alpha_matrix(3, 2)
        with pytest.raises(PreconditionViolation):
            pi_alpha_matrix(4, 1)
        with pytest.raises(PreconditionViolation):
            pi_alpha_matrix(4, Fraction(5, 2))

    @staticmethod
    def _k(m, alpha, which):
        v = [0] * m
        if which == 0:
            v[0], v[1] = -1, alpha
        else:
            v[2], v[3] = -1, alpha
        return vector(v)


class TestPiPrimeMatrix:
    def test_3_by_6_columns(self):
        cols = transpose(pi_prime_matrix(3, 6).matrix)
        assert cols == matrix(
            [[1, 0, 0], [1, 0, 1], [2, 0, 1], [0, 1, 0], [0, 1, 1], [0, 2, 1]]
        )

    def test_4_by_7_appends_identity_row(self):
        M = pi_prime_matrix(4, 7).matrix
        assert M[3] == vector([0, 0, 0, 0, 0, 0, 1])
        assert M[0][:6] == vector([1, 1, 2, 0, 0, 0])

    def test_rejects_narrow_domains(self):
        with pytest.raises(PreconditionViolation):
            pi_prime_matrix(3, 5)
        with pytest.raises(PreconditionViolation):
            pi_prime_matrix(2, 6)


# ---------------------------------------------------------------------------
# stock polytopes


class TestStockPolytopes:
    def test_orthant_rows(self):
        P = orthant(3)
        assert P.B == matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
        assert P.d == vector([0, 0, 0])

    def test_cube_layout(self):
        P = hypercube(2)
        assert P.B == matrix([[-1, 0], [0, -1], [1, 0], [0, 1]])
        assert P.d == vector([0, 0, 1, 1])
        assert vertex_set(P) == {V((0, 0)), V((1, 0)), V((0, 1)), V((1, 1))}

    def test_simplex_layout(self):
        P = simplex(3)
        assert len(P.B) == 4 and P.B[3] == vector([1, 1, 1])
        assert vertex_set(P) == {V((0, 0, 0)), V((1, 0, 0)), V((0, 1, 0)), V((0, 0, 1))}

    def test_cross_polytope(self):
        P = cross_polytope(3)
        assert len(P.B) == 8
        assert vertex_set(cross_polytope(2)) == {
            V((1, 0)), V((-1, 0)), V((0, 1)), V((0, -1))
        }

    def test_cropped_cross_row_layout(self):
        P = cropped_cross_polytope(3)
        assert len(P.B) == 8 + 6
        assert P.B[8] == vector([1, 0, 0]) and P.d[8] == Fraction(3, 4)
        assert P.B[11] == vector([-1, 0, 0]) and P.d[11] == Fraction(3, 4)

    def test_cropped_cross_vertex_count(self):
        # 4n(n-1) vertices for delta strictly between 1/2 and 1
        assert len(vrep(cropped_cross_polytope(3)).vertices) == 24

    def test_cropped_cross_corners_are_infeasible_basic_solutions(self):
        # box corners satisfy three tight box rows but violate a sign row,
        # so they are basic solutions without being vertices
        P = cropped_cross_polytope(3)
        verts = vertex_set(P)
        basics = set(basic_solutions(P))
        d = Fraction(3, 4)
        import itertools

        for signs in itertools.product((-d, d), repeat=3):
            corner = V(signs)
            assert not P.contains(corner)
            assert corner in basics
            assert corner not in verts

    def test_cropped_cross_vertices_touch_one_box_facet(self):
        P = cropped_cross_polytope(3)
        for v in vrep(P).vertices:
            box_tight = [i for i in P.tight_inequality_rows(v) if i >= 8]
            assert len(box_tight) == 1

    def test_cropped_cross_accepts_rational_strings(self):
        P = cropped_cross_polytope(2, "2/3")
        assert P.d[4] == Fraction(2, 3)

    def test_cropped_cross_rejects_bad_delta(self):
        for bad in (Fraction(1, 2), 1, Fraction(5, 4), 0):
            with pytest.raises(PreconditionViolation):
                cropped_cross_polytope(3, bad)


# ---------------------------------------------------------------------------
# transportation systems and clustering projections


class TestTransportation:
    def test_2_by_2_is_a_segment(self):
        T = transportation(2, 2, (1, 1))
        assert T.A == matrix([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
        assert T.b == vector([1, 1, 1, 1])
        assert vertex_set(T) == {V((1, 0, 0, 1)), V((0, 1, 1, 0))}

    def test_one_big_cluster_gives_a_simplex(self):
        # with sizes (1, n-1) the system is affinely a standard simplex
        T = transportation(4, 2, (1, 3))
        assert len(vrep(T).vertices) == 4
        assert dim(T) == 3
        assert not vrep(T).rays

    def test_rejects_bad_sizes(self):
        with pytest.raises(PreconditionViolation):
            transportation(4, 2, (1, 2))
        with pytest.raises(PreconditionViolation):
            transportation(4, 2, (0, 4))
        with pytest.raises(PreconditionViolation):
            transportation(4, 3, (1, 3))


class TestPartitionProjection:
    def test_instance_validation(self):
        with pytest.raises(PreconditionViolation):
            PartitionInstance.make([(0,), (1, 2)], 1, (2,))
        with pytest.raises(PreconditionViolation):
            PartitionInstance.make([(0,), (1,)], 2, (1, 2))
        with pytest.raises(PreconditionViolation):
            PartitionInstance.make([], 1, ())

    def test_one_dimensional_points(self):
        inst = PartitionInstance.make([(0,), (1,), (2,)], 2, (1, 2))
        M = partition_projection(inst).matrix
        assert M == matrix([[0, 1, 2, 0, 0, 0], [0, 0, 0, 0, 1, 2]])

    def test_block_structure_matches_assignment(self):
        pts = [(1, 0), (0, 1), (2, 3)]
        inst = PartitionInstance.make(pts, 2, (2, 1))
        pi = partition_projection(inst)
        # assignment: items 1,2 in cluster one, item 3 in cluster two
        y = vector([1, 1, 0, 0, 0, 1])
        assert pi(y) == vector([1, 1, 2, 3])


# ---------------------------------------------------------------------------
# disjunctive lifts


def point_piece(coords, name=""):
    v = vector(coords)
    return HPolyhedron.make(len(v), A=identity(len(v)), b=v, name=name)


class TestDisjunctiveFamily:
    def test_rejects_empty_piece(self):
        bad = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0], name="void")
        with pytest.raises(EmptyPolyhedron):
            DisjunctiveFamily.make([bad])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(PreconditionViolation):
            DisjunctiveFamily.make([point_piece((0,)), point_piece((0, 0))])

    def test_rejects_empty_family(self):
        with pytest.raises(PreconditionViolation):
            DisjunctiveFamily.make([])


class TestBalasExtension:
    def test_singleton_family_is_a_simplex(self):
        # one point per square vertex: the lift is affinely a 3-simplex
        pieces = [point_piece(v, name=f"v{i}") for i, v in enumerate(sorted(vertex_set(hypercube(2))))]
        Q, s = balas_extension(DisjunctiveFamily.make(pieces))
        assert Q.n == 4 + 4 * 2
        rep = vrep(Q)
        assert len(rep.vertices) == 4 and not rep.rays
        assert dim(Q) == 3

    def test_point_plus_polytope_is_a_capped_cone(self):
        # pieces {0} and the triangle: vertices are the apex weight plus one
        # lifted copy of each triangle vertex
        tri = simplex(2)
        Q, s = balas_extension(DisjunctiveFamily.make([point_piece((0, 0)), tri]))
        assert vertex_set(Q) == {
            V((1, 0, 0, 0, 0, 0)),
            V((0, 1, 0, 0, 0, 0)),
            V((0, 1, 0, 0, 1, 0)),
            V((0, 1, 0, 0, 0, 1)),
        }

    def test_summation_map_shape(self):
        Q, s = balas_extension(DisjunctiveFamily.make([point_piece((0, 0)), simplex(2)]))
        assert s.matrix == matrix([[0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 1]])

    def test_circuit_classes_and_count(self):
        # square and a horizontal segment: circuit count must equal
        # |C(P1)| + |C(P2)| + |B(P1)|*|B(P2)| = 2 + 1 + 4*2 = 11
        sq = hypercube(2)
        seg = HPolyhedron.make(2, A=[[0, 1]], b=[0], B=[[-1, 0], [1, 0]], d=[0, 1], name="seg")
        Q, _ = balas_extension(DisjunctiveFamily.make([sq, seg]))
        C = enumerate_circuits(Q)
        assert len(C) == 11
        # one member of each class, frozen by hand
        assert vector([0, 0, 1, 0, 0, 0]) in C  # square circuit in its slot
        assert vector([1, -1, 0, 0, 0, 0]) in C  # weight swap between pieces


class TestNonInheritingExtension:
    def test_square_diagonal_family_shape(self):
        ext = non_inheriting_extension(hypercube(2), (1, 1))
        names = sorted(p.name for p in ext.family.pieces)
        assert names == ["parallelogram0", "vertex0", "vertex1"]
        slab = next(p for p in ext.family.pieces if p.name == "parallelogram0")
        assert not slab.A and len(slab.B) == 4
        singles = {tuple(p.b) for p in ext.family.pieces if p.name.startswith("vertex")}
        assert singles == {(0, 1), (1, 0)}

    def test_square_diagonal_excludes_direction(self):
        ext = non_inheriting_extension(hypercube(2), (1, 1))
        projected = ext.projection.image_directions(enumerate_circuits(ext.polyhedron))
        assert canonicalize_direction(vector([1, 1])) not in projected

    def test_cube_long_diagonal(self):
        ext = non_inheriting_extension(hypercube(3), (1, 1, 1))
        # one vertex pair differs along the diagonal, six vertices remain
        assert sum(p.name.startswith("parallelogram") for p in ext.family.pieces) == 1
        assert sum(p.name.startswith("vertex") for p in ext.family.pieces) == 6
        projected = ext.projection.image_directions(enumerate_circuits(ext.polyhedron))
        assert canonicalize_direction(vector([1, 1, 1])) not in projected

    def test_unbounded_cone_appends_ray_variables(self):
        R3 = HPolyhedron.make(
            3, B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, 1]], d=[0] * 4, name="R3"
        )
        ext = non_inheriting_extension(R3, (0, 0, 1))
        # single vertex at the origin, four extreme rays
        assert [p.name for p in ext.family.pieces] == ["vertex0"]
        assert ext.polyhedron.n == 1 + 3 + 4
        assert len(ext.projection.matrix[0]) == 8
        projected = ext.projection.image_directions(enumerate_circuits(ext.polyhedron))
        assert canonicalize_direction(vector([0, 0, 1])) not in projected

    def test_unbounded_target_with_several_vertices(self):
        # five vertices and one ray: the vertex hull gets its own description
        P = cartesian_product(project(simplex(4), pi_matrix(3, 4)), orthant(1))
        assert (len(vrep(P).vertices), len(vrep(P).rays)) == (5, 1)
        g = vector([0, 0, 1, 0])
        ext = non_inheriting_extension(P, g)
        assert ext.polyhedron.n == 26
        CQ = enumerate_circuits(ext.polyhedron)
        assert len(CQ) == 11
        assert g not in ext.projection.image_directions(CQ)
        assert _descriptions_match(project(ext.polyhedron, ext.projection), P)

    def test_rejects_edge_directions(self):
        with pytest.raises(EdgeDirectionGiven):
            non_inheriting_extension(hypercube(2), (1, 0))

    def test_rejects_zero_direction(self):
        with pytest.raises(PreconditionViolation):
            non_inheriting_extension(hypercube(2), (0, 0))

    def test_rejects_nonpointed_targets(self):
        slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0], name="slab")
        with pytest.raises(NotPointed):
            non_inheriting_extension(slab, (1, 1))


# ---------------------------------------------------------------------------
# separations: the integer candidate hyperplane against the LP


def _separable_by_lp(g, left, right):
    """The LP-only `_separable_orthogonally`: the reference for its candidate."""
    n = len(g)
    rows, rhs = [], []
    for u in left:
        rows.append(tuple(u) + (frac(-1),))
        rhs.append(-1)
    for v in right:
        rows.append(tuple(-x for x in v) + (frac(1),))
        rhs.append(-1)
    system = HPolyhedron.make(n + 1, A=[tuple(g) + (frac(0),)], b=[0], B=rows, d=rhs)
    return lp.is_feasible(system)


def _separation_case(rng, i):
    """A seeded (g, left, right) in dimension 2..5, 1..4 rational corners a side.
    Every fourth right side is the left one moved along g, so the centroids
    differ along g; every fourth, one right corner is a left corner moved
    along g, so the hulls touch modulo g; the rest are random corners moved
    along a random direction by 0..6, both sides stretched along another."""
    n = rng.randint(2, 5)
    q = lambda: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    g = (0,) * n
    while not any(g):
        g = tuple(q() for _ in range(n))
    left = [tuple(q() for _ in range(n)) for _ in range(rng.randint(1, 4))]
    t = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    along = lambda u: tuple(x + t * y for x, y in zip(u, g))
    if i % 4 == 0:
        return g, left, [along(u) for u in left]
    w, s, e = tuple(q() for _ in range(n)), rng.randint(0, 6), tuple(q() for _ in range(n))
    stretch = lambda u: tuple(x + rng.randint(-5, 5) * y for x, y in zip(u, e))
    left = [stretch(u) for u in left]
    right = [stretch(tuple(q() + s * x for x in w)) for _ in range(rng.randint(1, 4))]
    if i % 4 == 1:
        right[0] = along(left[0])
    return g, left, right


def test_separation_candidate_matches_the_lp(monkeypatch):
    # `_separable_orthogonally` accepts a pair on its integer candidate alone,
    # or asks the LP; either way it answers as the LP-only reference does.
    # The counts are pinned: a change that makes the candidate settle fewer
    # pairs, or accept a wrong one, moves them.
    lps = []
    monkeypatch.setattr(constructions, "is_feasible", lambda P: lps.append(P) or lp.is_feasible(P))
    seen = Counter()
    rng = random.Random(3900)
    for i in range(600):
        g, left, right = _separation_case(rng, i)
        lps.clear()
        got = constructions._separable_orthogonally(vector(g), [vector(u) for u in left], [vector(v) for v in right])
        assert got == _separable_by_lp(g, left, right), (g, left, right)
        seen[("LP" if lps else "candidate") + (" accepts" if got else " rejects")] += 1
        centroids = [[sum(xs) / len(side) for xs in zip(*side)] for side in (left, right)]
        if rank(matrix([[y - x for x, y in zip(*centroids)], g])) < 2:
            seen["a = 0"] += 1
            assert not got
        if any(rank(matrix([[y - x for x, y in zip(u, v)], g])) < 2 for u in left for v in right):
            seen["touch modulo g"] += 1
            assert not got
    assert seen == {
        "candidate accepts": 195, "LP accepts": 48, "LP rejects": 357, "a = 0": 156, "touch modulo g": 304,
    }, seen


def _thm5_targets():
    P3 = project(simplex(4), pi_matrix(3, 4))
    yield from ((P3, g) for g in sorted(set(enumerate_circuits(P3)) - set(edge_directions(P3))))
    yield hypercube(2), V((1, 1))
    yield hypercube(3), V((1, 1, 0))
    yield hypercube(3), V((1, 1, 1))


def _seeded_targets(count):
    """Hulls of 3..6 random integer points in dimension 2 or 3, each with a
    vertex difference that is not an edge direction."""
    rng = random.Random(3901)
    while count:
        n = rng.choice((2, 2, 3))
        pts = [V([rng.randint(-3, 3) for _ in range(n)]) for _ in range(rng.randint(n + 1, n + 3))]
        if rank(matrix([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])) < n:
            continue
        P = _hull_of_vertices(pts)
        verts, edges = vrep(P).vertices, set(edge_directions(P))
        diffs = [vec_sub(u, v) for u, v in itertools.combinations(verts, 2)]
        if diffs := [d for d in diffs if canonicalize_direction(d) not in edges]:
            count -= 1
            yield P, rng.choice(diffs)


def test_the_lp_reference_builds_the_same_extensions(monkeypatch):
    # With the LP-only separation patched in, every thm5 target and every
    # seeded target gets the same extension, family, pieces and eps alike.
    # Some of the seeded covers halve eps: a piece did not fit or two pieces
    # were not separable at a larger width.
    cases = [*_thm5_targets(), *_seeded_targets(24)]
    built = [non_inheriting_extension(P, g) for P, g in cases]
    widths, refused = [], []
    parallelogram = constructions._parallelogram

    def recorded(mid, delta, z, eps, name):
        widths.append(eps)
        return parallelogram(mid, delta, z, eps, name)

    def reference(g, left, right):
        refused.append(not _separable_by_lp(g, left, right))
        return not refused[-1]

    monkeypatch.setattr(constructions, "_parallelogram", recorded)
    monkeypatch.setattr(constructions, "_separable_orthogonally", reference)
    for (P, g), ext in zip(cases, built):
        assert non_inheriting_extension(P, g) == ext, (P, g)
    assert min(widths) < 1 and any(refused)


def test_separation_lps_are_pinned(monkeypatch, tmp_path):
    # The integer candidate proves every separation of thm5's covers but two;
    # the LP-only separation solved 52 (cube (1,1,0) 17, cube (1,1,1) 21,
    # square (1,1) 4, the simplex image's targets 10). A change that makes
    # the candidate settle fewer pairs moves these counts.
    calls = []
    solve = lp.lp_solve
    monkeypatch.setattr(lp, "lp_solve", lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))

    def lps(run):
        calls.clear()
        run()
        return len(calls)

    assert lps(lambda: run_experiment("thm5", {}, tmp_path)) == 2
    assert lps(lambda: non_inheriting_extension(hypercube(3), (1, 1, 0))) == 1
    assert lps(lambda: non_inheriting_extension(hypercube(3), (1, 1, 1))) == 0
    assert lps(lambda: non_inheriting_extension(hypercube(2), (1, 1))) == 1


# ---------------------------------------------------------------------------
# orthant position


class TestOrthantPosition:
    def test_accepts_standard_examples(self):
        check_orthant_position(hypercube(3))
        check_orthant_position(simplex(4))
        check_orthant_position(orthant(2))

    def test_rejects_interior_origin(self):
        with pytest.raises(PreconditionViolation):
            check_orthant_position(cross_polytope(3))

    def test_rejects_wrong_cone(self):
        shifted = HPolyhedron.make(2, B=[[1, 0], [0, 1], [-1, 0], [0, -1]], d=[0, 0, 1, 1])
        with pytest.raises(PreconditionViolation):
            check_orthant_position(shifted)

    def test_rejects_equality_rows(self):
        flat = HPolyhedron.make(2, A=[[0, 1]], b=[0], B=[[-1, 0], [1, 0]], d=[0, 1])
        with pytest.raises(PreconditionViolation):
            check_orthant_position(flat)


# ---------------------------------------------------------------------------
# the alpha search


class TestFindAlphaProjection:
    def test_cube_accepts_first_candidate(self):
        found = find_alpha_projection(hypercube(4))
        assert found.alpha == 2
        assert found.projection.matrix == pi_alpha_matrix(4, 2).matrix

    def test_simplex_accepts_first_candidate(self):
        assert find_alpha_projection(simplex(4)).alpha == 2

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_perturbed_polytope_skips_alpha_two(self, seed):
        # the slanted facet contributes the circuit (1, -2, 0, 0), which lies
        # in the alpha = 2 plane, so the search must move on to 3
        assert find_alpha_projection(perturbed_simple_4polytope(seed)).alpha == 3

    def test_rejects_small_dimensions(self):
        with pytest.raises(PreconditionViolation):
            find_alpha_projection(hypercube(3))

    def test_rejects_bad_position(self):
        with pytest.raises(PreconditionViolation):
            find_alpha_projection(cross_polytope(4))


class TestPerturbedPolytope:
    def test_frozen_circuits(self):
        C = enumerate_circuits(perturbed_simple_4polytope(3))
        assert set(C) == {
            V((1, 0, 0, 0)),
            V((0, 1, 0, 0)),
            V((0, 0, 1, 0)),
            V((0, 0, 0, 1)),
            V((1, -2, 0, 0)),
        }

    def test_simple_and_in_position(self):
        P = perturbed_simple_4polytope(11)
        check_orthant_position(P)
        for v in vrep(P).vertices:
            assert len(P.tight_inequality_rows(v)) == 4

    def test_seeds_change_offsets_only(self):
        P0, P1 = perturbed_simple_4polytope(0), perturbed_simple_4polytope(1)
        assert P0.B == P1.B
        assert P0.d != P1.d


# ---------------------------------------------------------------------------
# transfer maps


class TestTauTransfer:
    def test_identity_fast_path(self):
        pi = pi_matrix(3, 5)
        tau = tau_transfer(pi, pi)
        assert tau.matrix == identity(5)

    def test_coordinate_projection_target(self):
        pi = pi_matrix(3, 5)
        sigma = LinearMap(matrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]))
        tau = tau_transfer(pi, sigma)
        assert matmul(sigma.matrix, tau.matrix) == pi.matrix
        assert rank(tau.matrix) == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_random_surjections(self, seed):
        rng = random.Random(seed)
        pi = LinearMap(self._random_full_rank(rng, 3, 5))
        sigma = LinearMap(self._random_full_rank(rng, 3, 5))
        tau = tau_transfer(pi, sigma)
        assert matmul(sigma.matrix, tau.matrix) == pi.matrix
        assert rank(tau.matrix) == 5

    def test_square_case_inverts(self):
        sigma = LinearMap(matrix([[0, 1], [1, 0]]))
        pi = LinearMap(matrix([[1, 2], [3, 4]]))
        tau = tau_transfer(pi, sigma)
        assert matmul(sigma.matrix, tau.matrix) == pi.matrix
        assert rank(tau.matrix) == 2

    def test_rejects_rank_deficiency(self):
        sigma = LinearMap(matrix([[1, 0, 0], [2, 0, 0]]))
        with pytest.raises(PreconditionViolation):
            tau_transfer(LinearMap(matrix([[1, 0, 0], [0, 1, 0]])), sigma)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PreconditionViolation):
            tau_transfer(LinearMap(matrix([[1, 0]])), LinearMap(matrix([[1, 0, 0]])))

    @staticmethod
    def _random_full_rank(rng, rows, cols):
        while True:
            M = matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
            if rank(M) == rows:
                return M
