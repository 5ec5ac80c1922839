"""Circuits (elementary vectors), basic solutions, and homogenization.

A circuit of {A x = b, B x <= d} is a kernel vector of A whose image
under B has support-minimal nonzero pattern among all nonzero kernel
vectors. The set depends on the literal description, so nothing here
minimizes or reorders rows behind the caller's back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .directions import BasicSolutionSet, CircuitSet
from .errors import CorrespondenceViolation, NotPointed
from .linalg import Direction, canonicalize_direction, kernel_basis, mat_vec
from .polyhedron import (
    HPolyhedron,
    _basic_points,
    check_budget,
    homogenize,
    is_pointed,
    lineality_basis,
)

__all__ = [
    "basic_solutions",
    "circuits_of_homogenization",
    "enumerate_circuits",
    "enumerate_circuits_bruteforce",
    "HomogenizationSplit",
]


def _support_mask(v: Sequence) -> int:
    return sum(1 << i for i, x in enumerate(v) if x != 0)


def enumerate_circuits(P: HPolyhedron) -> CircuitSet:
    """All circuit directions of P's description, canonically represented.

    The set is P's cached circuit walk (`_circuit_lines`), so every call on
    one P returns the same object: the lines of the (n'-1)-row subset walk,
    each checked to be support-minimal on the n'-1 rows the walk names with
    it, which must read 0 on it and have rank n'-1 (`_certified_lines`,
    which checks basic solutions alike; CorrespondenceViolation if not). A
    non-pointed system yields its lineality basis instead (every nonzero
    lineality vector is a circuit there).
    """
    return P._circuit_walk


def enumerate_circuits_bruteforce(P: HPolyhedron) -> CircuitSet:
    """Literal transcription of the circuit definition, for cross-checking.

    Candidates come from every inequality-row subset whose kernel
    (together with the equality rows) is one-dimensional, of any size,
    computed in ambient coordinates; minimality is then applied pairwise.
    """
    if not is_pointed(P):
        return CircuitSet.subspace(lineality_basis(P))
    q = len(P.B)
    check_budget(2**q, "brute-force row subsets")
    cands: dict[Direction, int] = {}
    for size in range(q + 1):
        for S in itertools.combinations(range(q), size):
            M = P.A + tuple(P.B[i] for i in S)
            ker = kernel_basis(M, P.n)
            if len(ker) != 1:
                continue
            g = canonicalize_direction(ker[0])
            if g not in cands:
                cands[g] = _support_mask(mat_vec(P.B, g))
    masks = set(cands.values())
    minimal = (g for g, m in cands.items() if not any(o != m and o & m == o for o in masks))
    return CircuitSet.of(minimal)


def basic_solutions(P: HPolyhedron) -> BasicSolutionSet:
    """All points (feasible or not) whose tight rows have full column rank.

    Points satisfy every equality row; only inequality rows may be
    violated. The set is the basic solution walk `_basic_points`, which
    checks each point on the n' rows the walk names with it, as
    `enumerate_circuits` checks each circuit on its n'-1 rows, and checks
    that a sample of non-basic points is dominated by a point it found
    (CorrespondenceViolation if not).
    """
    if not is_pointed(P):
        raise NotPointed(P.name or "polyhedron")
    return _basic_points(P)


@dataclass(frozen=True)
class HomogenizationSplit:
    """Homogenization circuits split by the leading coordinate."""

    direction_class: CircuitSet  # leading coordinate 0, dehomogenized
    point_class: BasicSolutionSet  # leading coordinate positive: the lines (den, *num)


def circuits_of_homogenization(P: HPolyhedron) -> tuple[CircuitSet, HomogenizationSplit]:
    """Circuits of the homogenization cone, with the verified two-class split.

    Expects a pointed P with minimized description. Raises
    CorrespondenceViolation if the split does not reproduce exactly the
    circuits and the basic solutions of P.
    """
    if not is_pointed(P):
        raise NotPointed(P.name or "polyhedron")
    CH = enumerate_circuits(homogenize(P))
    # CH is sorted and canonical: its lines with leading entry 0 come first,
    # and dropping that entry leaves them sorted and canonical; every other
    # line has a positive leading entry
    directions = CircuitSet(directions=tuple(v[1:] for v in CH if v[0] == 0))
    points = BasicSolutionSet.of([v for v in CH if v[0]])
    CP = enumerate_circuits(P)
    BP = basic_solutions(P)
    if directions.directions != CP.directions:
        raise CorrespondenceViolation("degree-0 class does not match the circuits")
    if points.lines != BP.lines:
        raise CorrespondenceViolation("degree-1 class does not match the basic solutions")
    return CH, HomogenizationSplit(direction_class=directions, point_class=points)
