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
from .linalg import (
    _EMPTY,
    Direction,
    _canonical,
    _fold,
    _independent,
    _kernel,
    _ranks_reach,
    canonicalize_direction,
    kernel_basis,
    mat_vec,
)
from .polyhedron import (
    HPolyhedron,
    _basic_points,
    _slacks,
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
    it, which must read 0 on it and have rank n'-1 (CorrespondenceViolation
    if not). A non-pointed system yields its lineality basis instead (every
    nonzero lineality vector is a circuit there).
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
    violated. Each returned point is checked to be basic on the n' rows the
    walk names with it (`_basic_points`): it must read 0 on them, and one
    `_ranks_reach` pass checks that the certificates of all points reach
    rank n'. A sample of non-basic points is checked to be dominated, their
    tight set strictly inside that of a basic point, which is the support
    characterization that makes these the degree-one homogenization
    circuits: the sample names that basic point, and the walk must have
    found it. Slacks are computed only for the at most 51 points the sample
    reads.
    """
    if not is_pointed(P):
        raise NotPointed(P.name or "polyhedron")
    ints = P._ints
    _, R, np_ = ints.reduced
    pts = _basic_points(P)
    sols = BasicSolutionSet.of(pts)
    bad = _ranks_reach(list(pts.values()), R, np_, np_)
    if bad is not None:
        raise CorrespondenceViolation(f"basic solution line {list(pts)[bad]} is not support-minimal")
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
        rows = [order[j] for j in _independent([R[i] for i in order], np_)]
        if tight.issuperset(rows):  # the midpoint is basic
            if z not in pts:
                raise CorrespondenceViolation(f"missed basic solution line {z}")
            continue
        (w,) = _kernel(_fold(_EMPTY, [R[i] for i in rows], np_ + 1), np_ + 1)
        w = ints.line(w)
        if w not in pts:
            raise CorrespondenceViolation(
                f"non-basic midpoint line {z} not dominated: no basic solution line {w} on its rows {tuple(rows)}"
            )
    return sols


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
    points = BasicSolutionSet.of(v for v in CH if v[0])
    CP = enumerate_circuits(P)
    BP = basic_solutions(P)
    if directions.directions != CP.directions:
        raise CorrespondenceViolation("degree-0 class does not match the circuits")
    if points.lines != BP.lines:
        raise CorrespondenceViolation("degree-1 class does not match the basic solutions")
    return CH, HomogenizationSplit(direction_class=directions, point_class=points)
