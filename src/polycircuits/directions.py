"""Canonical direction-set and point-set containers.

A direction set stores one primitive integer representative per line
through the origin (first nonzero entry positive), as a tuple of Python
ints, sorted, so two sets compare equal iff they describe the same
collection of lines. Each entry is canonicalized once, by
`canonicalize_direction`, or comes canonical from the subset walk. A
system with a nontrivial lineality space carries a basis of that
subspace instead of a finite direction list. Points stay Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .linalg import Direction, Fraction, Vector, canonicalize_direction, rank, vector


@dataclass(frozen=True)
class CircuitSet:
    """Sorted canonical direction representatives, or a lineality basis."""

    directions: tuple[Direction, ...] = ()
    lineality: tuple[Direction, ...] = ()

    @staticmethod
    def of(vs: Iterable[Sequence[Fraction]]) -> "CircuitSet":
        """The set of lines through the nonzero vectors of `vs` (ints or Fractions)."""
        lines = {c for c in map(canonicalize_direction, vs) if any(c)}
        return CircuitSet(directions=tuple(sorted(lines)))

    @staticmethod
    def subspace(basis: Iterable[Sequence[Fraction]]) -> "CircuitSet":
        """The lineality set spanned by the nonzero vectors of `basis`; with none, the empty set."""
        return CircuitSet(lineality=tuple(c for c in map(canonicalize_direction, basis) if any(c)))

    @property
    def is_subspace(self) -> bool:
        return bool(self.lineality)

    def __len__(self) -> int:
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)

    @cached_property
    def _direction_set(self) -> frozenset[Direction]:
        return frozenset(self.directions)

    def __contains__(self, v) -> bool:
        cv = canonicalize_direction(v)
        if not any(cv):
            return False
        if self.is_subspace:
            return rank(self.lineality) == rank(self.lineality + (cv,))
        return cv in self._direction_set

    def same_lines(self, other: "CircuitSet") -> bool:
        """Equality of geometric content: for lineality bases, the same subspace."""
        if self.is_subspace != other.is_subspace:
            return False
        if self.is_subspace:
            r1, r2 = rank(self.lineality), rank(other.lineality)
            return r1 == r2 == rank(self.lineality + other.lineality)
        return self.directions == other.directions


@dataclass(frozen=True)
class BasicSolutionSet:
    """Sorted rational points whose tight rows have full column rank."""

    points: tuple[Vector, ...] = ()

    @staticmethod
    def of(ps: Iterable[Sequence[Fraction]]) -> "BasicSolutionSet":
        """Sorted on integer keys: each point times the lcm of every denominator, which keeps the order."""
        pts = {vector(p) for p in ps}
        den = lcm(*(x.denominator for p in pts for x in p))
        keyed = sorted(([x.numerator * (den // x.denominator) for x in p], p) for p in pts)
        return BasicSolutionSet(points=tuple(p for _, p in keyed))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _point_set(self) -> frozenset[Vector]:
        return frozenset(self.points)

    def __contains__(self, p) -> bool:
        return vector(p) in self._point_set
