"""Inheritance reports and exact verification of the structural laws.

The central question: which circuits of a projection are images of circuits
of the lifted system?  check_inheritance answers it for one (Q, pi) pair and
classifies the failures.  The verify_* functions each re-derive both sides of
one known identity from scratch and compare canonicalized direction sets, so
they double as cross-checks of the enumeration machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .circuits import (
    basic_solutions,
    circuits_of_homogenization,
    enumerate_circuits,
)
from .constructions import DisjunctiveFamily
from .directions import CircuitSet
from .errors import (
    CorrespondenceViolation,
    NotInjectiveOnQ,
    NotPointed,
    ProjectionMismatch,
)
from .linalg import (
    kernel_basis,
    matrix,
    rank,
    vec_neg,
    zero_vector,
)
from .lp import is_implied
from .polyhedron import (
    HPolyhedron,
    LinearMap,
    cartesian_product,
    edge_directions,
    is_pointed,
    minimize_description,
    project,
    slack_standard_form,
)

ALL_INHERITED = "AllInherited"
NOT_ALL_INHERITED = "NotAllInherited"


@dataclass(frozen=True)
class InheritanceReport:
    """Classification of the circuits of P against those lifted from Q.

    P is the image description the circuits were computed on: the supplied
    one, or else the minimized projection of Q, whose vertices come from
    the elimination that made it, with no double description of their own.
    P and Q keep the walks `check_inheritance` and `project` ran, so
    `vrep(report.P)` or `edge_directions(Q)` afterwards walks nothing.
    """

    P: HPolyhedron
    P_circuits: CircuitSet
    Q_circuits: CircuitSet
    projected: CircuitSet
    inherited: CircuitSet
    non_inherited: CircuitSet
    edge_dirs: CircuitSet
    inherited_equals_edges: bool
    verdict: str


def _descriptions_match(P_desc: HPolyhedron, image: HPolyhedron) -> bool:
    """Same point set, decided by implying every row in both directions."""

    def rows_implied(src: HPolyhedron, tgt: HPolyhedron) -> bool:
        for a, beta in zip(src.A, src.b):
            if not is_implied(a, beta, tgt):
                return False
            if not is_implied(vec_neg(a), -beta, tgt):
                return False
        return all(is_implied(b, d, tgt) for b, d in zip(src.B, src.d))

    return rows_implied(P_desc, image) and rows_implied(image, P_desc)


def check_inheritance(Q: HPolyhedron, pi: LinearMap, P_desc: Optional[HPolyhedron] = None) -> InheritanceReport:
    """Full inheritance classification for the projection of Q under pi.

    When P_desc is given it must describe pi(Q) exactly as a point set
    (checked row by row); circuits of the image are then computed on that
    description, since circuit sets are description-sensitive.  Without it
    the image is derived by elimination and minimized.  Raises
    NotPointed when the image or Q has a lineality space, and fails loudly
    if the computed data ever contradicts the edge-inheritance guarantee.
    """
    if pi.in_dim(Q.n) != Q.n:
        raise ProjectionMismatch(f"map expects {pi.in_dim(Q.n)} coordinates, Q has {Q.n}")
    CQ = enumerate_circuits(Q)  # first, so its errors and budget come before the projection's
    image = project(Q, pi)
    if P_desc is not None:
        if P_desc.n != pi.out_dim:
            raise ProjectionMismatch(
                f"supplied description lives in dimension {P_desc.n}, map lands in {pi.out_dim}"
            )
        if not _descriptions_match(P_desc, image):
            raise ProjectionMismatch("supplied description is not the image point set")
        P = P_desc
    else:
        P = image

    CP = enumerate_circuits(P)
    if CP.is_subspace:
        raise NotPointed(P.name or "projection image")
    if CQ.is_subspace:
        # the image of a lineality vector of Q lies in the lineality space of
        # P, so a pointed image has pi(lin Q) = 0 and inherits nothing
        raise NotPointed(Q.name or "domain")

    projected = pi.image_directions(CQ)
    lines = set(projected)
    inherited = CircuitSet(directions=tuple(g for g in CP if g in lines))
    non_inherited = CircuitSet(directions=tuple(g for g in CP if g not in lines))

    # P and Q are pointed, and their circuit walks and Q's vertices are
    # cached: only P's vertices are computed here, read off the projection's
    # generators unless P is a supplied description
    edge_dirs = edge_directions(P)
    edges = set(edge_dirs)
    if not edges <= set(inherited):
        raise CorrespondenceViolation("an edge direction of the image was not inherited")
    # stronger form of the same guarantee: edges come from edges
    if not edges <= set(pi.image_directions(edge_directions(Q))):
        raise CorrespondenceViolation("an edge direction of the image lifts to no edge of Q")

    return InheritanceReport(
        P=P,
        P_circuits=CP,
        Q_circuits=CQ,
        projected=projected,
        inherited=inherited,
        non_inherited=non_inherited,
        edge_dirs=edge_dirs,
        inherited_equals_edges=inherited == edge_dirs,
        verdict=ALL_INHERITED if len(non_inherited) == 0 else NOT_ALL_INHERITED,
    )


# ---------------------------------------------------------------------------
# structural laws, each verified by enumerating both sides independently


def verify_cartesian_law(P1: HPolyhedron, P2: HPolyhedron) -> bool:
    """Circuits of a product are the two factor circuit sets, zero-padded."""
    for P in (P1, P2):
        if not is_pointed(P):
            raise NotPointed(P.name or "cartesian law factor")
    lhs = enumerate_circuits(cartesian_product(P1, P2))
    padded = [tuple(g) + tuple(zero_vector(P2.n)) for g in enumerate_circuits(P1)]
    padded += [tuple(zero_vector(P1.n)) + tuple(g) for g in enumerate_circuits(P2)]
    return set(lhs) == set(CircuitSet.of(padded))


def verify_slack_law(P: HPolyhedron) -> bool:
    """Circuits of the slack embedding are the images of C(P) under the
    inequality matrix.  Description-sensitive: P should be minimal."""
    if not is_pointed(P):
        raise NotPointed(P.name or "slack law input")
    S = slack_standard_form(P)
    lhs = enumerate_circuits(S)
    rhs = LinearMap(P.B).image_directions(enumerate_circuits(P))
    return set(lhs) == set(rhs)


def verify_hom_law(P: HPolyhedron) -> bool:
    """Circuits of the homogenization split into the level-zero copies of
    C(P) and the level-one basic solutions, with nothing left over."""
    if not is_pointed(P):
        raise NotPointed(P.name or "hom law input")
    try:
        circuits_of_homogenization(P)
    except CorrespondenceViolation:
        return False
    return True


def balas_circuit_prediction(family: DisjunctiveFamily) -> CircuitSet:
    """Circuits the disjunctive lift of `family` must have, from its pieces:
    single-slot copies of piece circuits, plus weight swaps e_i - e_j
    carrying a basic solution of piece i against a negated basic solution
    of piece j."""
    for piece in family.pieces:
        if not is_pointed(piece):
            raise NotPointed(piece.name or "family piece")
    p, n = family.p, family.n
    expected = []
    for i, piece in enumerate(family.pieces):
        for g in enumerate_circuits(piece):
            expected.append([0] * (p + n * i) + list(g) + [0] * (n * (p - i - 1)))
    basics = [basic_solutions(piece).lines for piece in family.pieces]
    for i, j in itertools.combinations(range(p), 2):
        # the swap for the basic solution lines (ds, *s) and (dt, *t), times ds dt
        for (ds, *s), (dt, *t) in itertools.product(basics[i], basics[j]):
            weights, blocks = [0] * p, [[0] * n] * p
            weights[i], weights[j] = ds * dt, -ds * dt
            blocks[i], blocks[j] = [x * dt for x in s], [-x * ds for x in t]
            expected.append(weights + sum(blocks, []))
    return CircuitSet.of(expected)


def verify_isomorphism_law(Q: HPolyhedron, pi: LinearMap) -> bool:
    """Under a map injective on Q's affine hull, circuits transfer exactly.

    Both sides are computed on minimal descriptions: Q is minimized first so
    its implicit equalities are explicit, and the image is minimized by the
    elimination step.
    """
    if not is_pointed(Q):
        raise NotPointed(Q.name or "isomorphism law input")
    Qm = minimize_description(Q)
    ker = kernel_basis(pi.matrix, Q.n)
    hull_dirs = kernel_basis(Qm.A, Q.n)
    if ker and hull_dirs:
        stacked = rank(matrix(list(ker) + list(hull_dirs)))
        if stacked != len(ker) + len(hull_dirs):
            raise NotInjectiveOnQ("map kernel meets the affine hull of Q")

    CQ = enumerate_circuits(Qm)
    lhs = enumerate_circuits(project(Qm, pi))
    rhs = pi.image_directions(CQ)
    return set(lhs) == set(rhs)
