"""Inheritance reports and the structural laws.

The three worked projection examples are pinned with their known witness
directions; the law tests enumerate both sides of each identity through
independent code paths.
"""

import random
from fractions import Fraction

import pytest

from polycircuits.circuits import circuits_of_homogenization, enumerate_circuits
from polycircuits.constructions import (
    DisjunctiveFamily,
    balas_extension,
    cropped_cross_polytope,
    hypercube,
    non_inheriting_extension,
    orthant,
    pi_matrix,
    pi_prime_matrix,
    simplex,
)
from polycircuits.errors import NotInjectiveOnQ, NotPointed, ProjectionMismatch
from polycircuits.inheritance import (
    ALL_INHERITED,
    NOT_ALL_INHERITED,
    check_inheritance,
    balas_circuit_prediction,
    verify_cartesian_law,
    verify_hom_law,
    verify_isomorphism_law,
    verify_slack_law,
)
from polycircuits.linalg import identity, matrix, rank, vec_neg, vector
from polycircuits.polyhedron import (
    HPolyhedron,
    LinearMap,
    dim,
    minimize_description,
    project,
    vrep,
)


def V(p):
    return vector(p)


def point_piece(coords, name=""):
    v = vector(coords)
    return HPolyhedron.make(len(v), A=identity(len(v)), b=v, name=name)


def cone_r3():
    return HPolyhedron.make(
        3, B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, 1]], d=[0] * 4, name="R3"
    )


# ---------------------------------------------------------------------------
# check_inheritance on the worked examples


class TestCheckInheritance:
    def test_orthant_witnesses(self):
        rep = check_inheritance(orthant(4), pi_matrix(3, 4))
        assert rep.verdict == NOT_ALL_INHERITED
        assert set(rep.non_inherited) == {V((0, 0, 1)), V((1, -1, 0))}
        assert rep.inherited_equals_edges

    def test_simplex_witnesses(self):
        rep = check_inheritance(simplex(4), pi_matrix(3, 4))
        assert rep.verdict == NOT_ALL_INHERITED
        assert V((0, 0, 1)) in rep.non_inherited
        assert rep.inherited_equals_edges

    def test_prime_projection_inherits_everything(self):
        rep = check_inheritance(simplex(6), pi_prime_matrix(3, 6))
        assert rep.verdict == ALL_INHERITED
        e3 = V((0, 0, 1))
        assert e3 in rep.P_circuits
        assert e3 not in rep.edge_dirs
        assert not rep.inherited_equals_edges

    def test_report_partition_invariants(self):
        rep = check_inheritance(simplex(4), pi_matrix(3, 4))
        inherited, non_inherited = set(rep.inherited), set(rep.non_inherited)
        assert inherited | non_inherited == set(rep.P_circuits)
        assert not inherited & non_inherited
        assert set(rep.edge_dirs) <= inherited
        assert set(rep.edge_dirs) <= set(rep.P_circuits)

    def test_supplied_description_is_used(self):
        pi = pi_matrix(3, 4)
        P = minimize_description(project(simplex(4), pi))
        rep = check_inheritance(simplex(4), pi, P_desc=P)
        assert rep.verdict == NOT_ALL_INHERITED
        assert V((0, 0, 1)) in rep.non_inherited

    def test_wrong_description_rejected(self):
        with pytest.raises(ProjectionMismatch):
            check_inheritance(simplex(4), pi_matrix(3, 4), P_desc=hypercube(3))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ProjectionMismatch):
            check_inheritance(simplex(4), pi_matrix(3, 4), P_desc=hypercube(2))

    def test_projection_of_cube_keeps_edge_directions_only(self):
        rep = check_inheritance(hypercube(4), pi_matrix(3, 4))
        assert rep.inherited_equals_edges
        assert V((0, 0, 1)) in rep.non_inherited

    @pytest.mark.parametrize("Q", [orthant(4), hypercube(4)], ids=["cone", "polytope"])
    def test_check_builds_no_fraction_vertex_view(self, Q):
        # the vertex walks hold integer lines, and the generators of the
        # projection and the edges read them: Fraction vertices are built
        # only for a caller that reads `VRep.vertices`
        rep = check_inheritance(Q, pi_matrix(3, 4))
        for V in (vrep(Q), vrep(rep.P)):
            assert V.lines and "vertices" not in vars(V)
            assert len(V.vertices) == len(V.lines) and "vertices" in vars(V)

    def test_low_image_dimension_is_trivially_inherited(self):
        flatten = LinearMap(matrix([[1, 0, 0], [0, 1, 0]]))
        rep = check_inheritance(hypercube(3), flatten)
        assert rep.verdict == ALL_INHERITED

    def test_low_source_dimension_is_trivially_inherited(self):
        skew = LinearMap(matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
        rep = check_inheritance(simplex(3), skew)
        assert rep.verdict == ALL_INHERITED

    def test_nonpointed_domain_rejected(self):
        # the strip 0 <= x <= 1 has lineality y; its image [0, 1] is pointed
        strip = HPolyhedron.make(2, B=[[-1, 0], [1, 0]], d=[0, 1], name="strip")
        with pytest.raises(NotPointed, match="strip"):
            check_inheritance(strip, LinearMap(matrix([[1, 0]])))

    def test_description_with_equality_row(self):
        # {x = y, 0 <= x <= 1} under the identity: the equality row must
        # describe the same line, a positive or negative multiple of x - y
        Q = HPolyhedron.make(2, B=[[1, -1], [-1, 1], [-1, 0], [1, 0]], d=[0, 0, 0, 1])
        ident = LinearMap(matrix([[1, 0], [0, 1]]))
        same = HPolyhedron.make(2, A=[[2, -2]], b=[0], B=[[-1, 0], [1, 0]], d=[0, 1])
        assert check_inheritance(Q, ident, P_desc=same).P == same
        other = HPolyhedron.make(2, A=[[1, -2]], b=[0], B=[[-1, 0], [1, 0]], d=[0, 1])
        with pytest.raises(ProjectionMismatch):
            check_inheritance(Q, ident, P_desc=other)


# ---------------------------------------------------------------------------
# laws


class TestCartesianLaw:
    def test_segments(self):
        assert verify_cartesian_law(hypercube(1), hypercube(1))

    def test_simplex_times_square(self):
        assert verify_cartesian_law(simplex(2), hypercube(2))

    def test_unbounded_factor(self):
        assert verify_cartesian_law(cone_r3(), hypercube(1))

    def test_rejects_nonpointed_factor(self):
        slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])
        with pytest.raises(NotPointed):
            verify_cartesian_law(slab, hypercube(1))


class TestSlackLaw:
    def test_segment(self):
        assert verify_slack_law(minimize_description(hypercube(1)))

    def test_simplex(self):
        assert verify_slack_law(simplex(2))

    def test_cone(self):
        assert verify_slack_law(cone_r3())

    def test_rejects_nonpointed(self):
        slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])
        with pytest.raises(NotPointed):
            verify_slack_law(slab)


class TestHomLaw:
    def test_segment(self):
        assert verify_hom_law(hypercube(1))

    def test_simplex(self):
        assert verify_hom_law(simplex(2))

    def test_cone(self):
        assert verify_hom_law(cone_r3())

    def test_cropped_cross_point_class_covers_box_corners(self):
        P = cropped_cross_polytope(3)
        assert verify_hom_law(P)
        _, split = circuits_of_homogenization(P)
        d = Fraction(3, 4)
        import itertools

        for signs in itertools.product((-d, d), repeat=3):
            assert V(signs) in set(split.point_class)
        # the box corners are cut off; the vertices of the double description
        # are the point-class lines that P holds, in point order
        basics = split.point_class
        assert vrep(P).lines == tuple(v for v, x in zip(basics.lines, basics.points) if P.contains(x))
        assert len(vrep(P).lines) == 24 < len(split.point_class)


def balas_law_holds(fam):
    """The disjunctive lift's circuits are exactly the ones its pieces predict."""
    return enumerate_circuits(balas_extension(fam)[0]) == balas_circuit_prediction(fam)


class TestBalasLaw:
    def test_two_singletons(self):
        fam = DisjunctiveFamily.make([point_piece((0, 0)), point_piece((1, 2))])
        assert balas_law_holds(fam)

    def test_point_plus_segment(self):
        fam = DisjunctiveFamily.make([point_piece((0,)), hypercube(1)])
        assert balas_law_holds(fam)

    def test_square_plus_segment(self):
        seg = HPolyhedron.make(2, A=[[0, 1]], b=[0], B=[[-1, 0], [1, 0]], d=[0, 1])
        fam = DisjunctiveFamily.make([hypercube(2), seg])
        assert balas_law_holds(fam)

    def test_extension_family_for_square_diagonal(self):
        ext = non_inheriting_extension(hypercube(2), (1, 1))
        assert balas_law_holds(ext.family)

    def test_rejects_nonpointed_piece(self):
        slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])
        with pytest.raises(NotPointed):
            balas_circuit_prediction(DisjunctiveFamily.make([slab]))


class TestIsomorphismLaw:
    def test_rotation_of_simplex(self):
        rot = LinearMap(matrix([[0, -1], [1, 0]]))
        assert verify_isomorphism_law(simplex(2), rot)

    def test_slack_map_on_cone(self):
        R3 = cone_r3()
        slack_map = LinearMap(matrix([vec_neg(r) for r in R3.B]))
        assert verify_isomorphism_law(R3, slack_map)

    def test_flat_polyhedron_with_kernel_off_the_hull(self):
        flat = HPolyhedron.make(
            2, A=[[1, 1]], b=[1], B=[[-1, 0], [0, -1]], d=[0, 0], name="flat"
        )
        assert verify_isomorphism_law(flat, LinearMap(matrix([[1, 0]])))

    def test_rejects_kernel_meeting_the_hull(self):
        with pytest.raises(NotInjectiveOnQ):
            verify_isomorphism_law(simplex(2), LinearMap(matrix([[1, 1]])))

    def test_rejects_nonpointed_domain(self):
        slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0], name="slab")
        with pytest.raises(NotPointed, match="slab"):
            verify_isomorphism_law(slab, LinearMap(identity(2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_unimodular_maps(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 3))
        while True:
            M = matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if rank(M) == n:
                break
        P = simplex(n) if rng.random() < 0.5 else hypercube(n)
        assert verify_isomorphism_law(P, LinearMap(M))
