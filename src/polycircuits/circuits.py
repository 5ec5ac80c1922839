"""Circuits (elementary vectors), basic solutions, and homogenization.

A circuit of {A x = b, B x <= d} is a kernel vector of A whose image
under B has support-minimal nonzero pattern among all nonzero kernel
vectors. The set depends on the literal description, so nothing here
minimizes or reorders rows behind the caller's back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import mul
from typing import Iterable, Optional, Sequence

from .directions import BasicSolutionSet, CircuitSet
from .errors import CorrespondenceViolation, NotPointed
from .linalg import (
    _EMPTY,
    _Echelon,
    Vector,
    _fold,
    _int_rows,
    _kernel_line,
    _subset_echelons,
    canonicalize_direction,
    identity,
    kernel_basis,
    mat_vec,
    matmul,
    transpose,
    vec_scale,
    vector,
)
from .polyhedron import (
    DEFAULT_BUDGET,
    HPolyhedron,
    _basic_points,
    _int_system,
    _slacks,
    check_budget,
    edge_directions,
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
    "is_edge_direction",
]


def _support_mask(v: Sequence) -> int:
    m = 0
    for i, x in enumerate(v):
        if x != 0:
            m |= 1 << i
    return m


def _minimal_masks(masks: Iterable[int]) -> set[int]:
    """The masks of which no other mask in `masks` is a proper submask.

    A proper submask has strictly fewer bits, so the masks are taken in
    order of popcount and each is tested only against the minimal masks
    of smaller popcount; any proper submask contains a minimal one.
    """
    minimal: list[int] = []
    for _, group in itertools.groupby(sorted(set(masks), key=int.bit_count), key=int.bit_count):
        minimal += [m for m in group if not any(o & m == o for o in minimal)]
    return set(minimal)


def _keep_support_minimal(cands: dict) -> list:
    minimal = _minimal_masks(cands.values())
    return [g for g, m in cands.items() if m in minimal]


def _canonical(v: Sequence[int]) -> tuple[int, ...]:
    """`canonicalize_direction` on a nonzero integer vector."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def enumerate_circuits(P: HPolyhedron, budget: Optional[int] = DEFAULT_BUDGET) -> CircuitSet:
    """All circuit directions of P's description, canonically represented.

    Works in kernel coordinates of the equality block: candidate
    directions are the one-dimensional kernels of (n'-1)-row subsets of
    the reduced inequality matrix, each checked to be support-minimal
    (CorrespondenceViolation if not). A non-pointed system yields its
    lineality basis instead (every nonzero lineality vector is a circuit
    there).
    """
    N = kernel_basis(P.A, P.n) if P.A else list(identity(P.n))
    np_ = len(N)
    if np_ == 0:
        return CircuitSet(source="circuits")
    NT = transpose(tuple(N))  # n x n', maps reduced coords to ambient
    Bred = matmul(P.B, NT) if P.B else ()
    q = len(Bred)

    lin = kernel_basis(Bred, np_) if Bred else list(identity(np_))
    if lin:
        return CircuitSet.subspace((mat_vec(NT, v) for v in lin), source="lineality")

    k = np_ - 1
    check_budget(comb(q, k), budget, "circuit candidate subsets")
    rows = _int_rows(Bred)
    NT_int = _int_rows(NT)  # kernel_basis vectors are integral
    cands: dict[tuple[int, ...], int] = {}
    seen: set[tuple[int, ...]] = set()
    for ech, pivots, det in _subset_echelons(_EMPTY, rows, k, np_):
        ghat = _canonical(_kernel_line(ech, pivots, det, np_))
        if ghat in seen:
            continue
        seen.add(ghat)
        g = _canonical([sum(map(mul, row, ghat)) for row in NT_int])
        cands[g] = _support_mask([sum(map(mul, row, ghat)) for row in rows])
    # Every candidate is support-minimal: it spans the kernel of k independent
    # rows, and a vector of smaller support would be tight on those rows too,
    # so it would lie on the same line. A candidate that is not is a bug.
    minimal = _minimal_masks(cands.values())
    for g, m in cands.items():
        if m not in minimal:
            raise CorrespondenceViolation(f"circuit candidate {g} is not support-minimal")
    return CircuitSet(directions=tuple(tuple(Fraction(x) for x in g) for g in sorted(cands)), source="circuits")


def enumerate_circuits_bruteforce(P: HPolyhedron, budget: Optional[int] = DEFAULT_BUDGET) -> CircuitSet:
    """Literal transcription of the circuit definition, for cross-checking.

    Candidates come from every inequality-row subset whose kernel
    (together with the equality rows) is one-dimensional, of any size,
    computed in ambient coordinates; minimality is then applied pairwise.
    """
    if not is_pointed(P):
        return CircuitSet.subspace(lineality_basis(P), source="lineality")
    q = len(P.B)
    check_budget(2**q, budget, "brute-force row subsets")
    cands: dict[Vector, int] = {}
    for size in range(q + 1):
        for S in itertools.combinations(range(q), size):
            M = P.A + tuple(P.B[i] for i in S)
            ker = kernel_basis(M, P.n) if M else list(identity(P.n))
            if len(ker) != 1:
                continue
            g = canonicalize_direction(ker[0])
            if g not in cands:
                cands[g] = _support_mask(mat_vec(P.B, g))
    return CircuitSet(directions=tuple(sorted(_keep_support_minimal(cands))), source="circuits-bruteforce")


def basic_solutions(
    P: HPolyhedron, budget: Optional[int] = DEFAULT_BUDGET, verify: bool = True
) -> BasicSolutionSet:
    """All points (feasible or not) whose tight rows have full column rank.

    Points satisfy every equality row; only inequality rows may be
    violated. With `verify`, each returned point is checked to be
    support-minimal against the others and a sample of non-basic points
    is checked to be dominated, which is the support characterization
    that makes these the degree-one homogenization circuits.
    """
    if not is_pointed(P):
        raise NotPointed(P.name or "polyhedron")
    n, q = P.n, len(P.B)
    base, B, rank_A = _int_system(P)
    k = n - rank_A
    check_budget(comb(q, k), budget, "basic solution subsets")
    pts = {tuple(Fraction(v, den) for v in num): (num, den) for num, den in _basic_points(base, B, k, n)}
    result = BasicSolutionSet.of(pts)
    if verify:
        _verify_support_characterization(P, result, pts, base, B)
    return result


def _verify_support_characterization(
    P: HPolyhedron,
    sols: BasicSolutionSet,
    ints: dict[Vector, tuple[tuple[int, ...], int]],
    base: _Echelon,
    B: list[list[int]],
) -> None:
    """`ints` maps each point to (num, den); `base` and `B` are `_int_system(P)`."""
    masks = {x: _support_mask(_slacks(B, *ints[x])) for x in sols}
    minimal = _minimal_masks(masks.values())
    for x, m in masks.items():
        if m not in minimal:
            raise CorrespondenceViolation(f"basic solution {x} is not support-minimal")
    # Non-basic sample: midpoints of basic pairs stay on the equality block.
    pairs = itertools.islice(itertools.combinations(sols, 2), 50)
    for u, v in pairs:
        (nu, du), (nv, dv) = ints[u], ints[v]
        znum, zden = [a * dv + b * du for a, b in zip(nu, nv)], 2 * du * dv
        z = tuple(Fraction(a, zden) for a in znum)
        slacks = _slacks(B, znum, zden)
        tight = [row for row, s in zip(B, slacks) if s == 0]
        if len(_fold(base, tight, P.n)[1]) == P.n:
            if z not in sols:
                raise CorrespondenceViolation(f"missed basic solution {z}")
            continue
        zm = _support_mask(slacks)
        if not any(m != zm and m & zm == m for m in minimal):
            raise CorrespondenceViolation(f"non-basic point {z} not dominated")


@dataclass(frozen=True)
class HomogenizationSplit:
    """Homogenization circuits split by the leading coordinate."""

    direction_class: CircuitSet  # leading coordinate 0, dehomogenized
    point_class: BasicSolutionSet  # leading coordinate rescaled to 1


def circuits_of_homogenization(
    P: HPolyhedron, budget: Optional[int] = DEFAULT_BUDGET
) -> tuple[CircuitSet, HomogenizationSplit]:
    """Circuits of the homogenization cone, with the verified two-class split.

    Expects a pointed P with minimized description. Raises
    CorrespondenceViolation if the split does not reproduce exactly the
    circuits and the basic solutions of P.
    """
    if not is_pointed(P):
        raise NotPointed(P.name or "polyhedron")
    CH = enumerate_circuits(homogenize(P), budget)
    dirs, points = [], []
    for v in CH:
        if v[0] == 0:
            dirs.append(v[1:])
        else:  # canonical representative has positive leading entry
            points.append(vec_scale(Fraction(1, v[0]), v[1:]))
    split = HomogenizationSplit(
        direction_class=CircuitSet.of(dirs, source="hom-degree-0"),
        point_class=BasicSolutionSet.of(points),
    )
    CP = enumerate_circuits(P, budget)
    BP = basic_solutions(P, budget)
    if split.direction_class.directions != CP.directions:
        raise CorrespondenceViolation("degree-0 class does not match the circuits")
    if split.point_class.points != BP.points:
        raise CorrespondenceViolation("degree-1 class does not match the basic solutions")
    return CH, split


def is_edge_direction(g: Sequence[Fraction], P: HPolyhedron, budget: Optional[int] = DEFAULT_BUDGET) -> bool:
    return canonicalize_direction(vector(g)) in edge_directions(P, budget=budget)
