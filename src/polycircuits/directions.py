"""Canonical direction-set and point-set containers.

A direction set stores one primitive integer representative per line
through the origin (first nonzero entry positive), sorted, so two sets
compare equal iff they describe the same collection of lines. A system
with a nontrivial lineality space carries a basis of that subspace
instead of a finite direction list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import (
    Fraction,
    Vector,
    canonicalize_direction,
    is_zero,
    rank,
    vector,
)


def _canonical_tuple(vs: Iterable[Sequence[Fraction]]) -> tuple[Vector, ...]:
    out = {canonicalize_direction(vector(v)) for v in vs}
    out.discard(tuple())
    return tuple(sorted(v for v in out if not is_zero(v)))


@dataclass(frozen=True)
class CircuitSet:
    """Sorted canonical direction representatives, or a lineality basis."""

    directions: tuple[Vector, ...] = ()
    lineality: tuple[Vector, ...] = ()
    source: str = ""

    @staticmethod
    def of(vs: Iterable[Sequence[Fraction]], source: str = "") -> "CircuitSet":
        return CircuitSet(directions=_canonical_tuple(vs), source=source)

    @staticmethod
    def subspace(basis: Iterable[Sequence[Fraction]], source: str = "") -> "CircuitSet":
        return CircuitSet(
            lineality=tuple(canonicalize_direction(vector(v)) for v in basis),
            source=source,
        )

    @property
    def is_subspace(self) -> bool:
        return bool(self.lineality)

    def __len__(self) -> int:
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)

    @cached_property
    def _direction_set(self) -> frozenset[Vector]:
        return frozenset(self.directions)

    def __contains__(self, v) -> bool:
        cv = canonicalize_direction(vector(v))
        if is_zero(cv):
            return False
        if self.is_subspace:
            return rank(self.lineality) == rank(self.lineality + (cv,))
        return cv in self._direction_set

    def same_lines(self, other: "CircuitSet") -> bool:
        """Equality of geometric content, ignoring provenance tags."""
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
        return BasicSolutionSet(points=tuple(sorted({vector(p) for p in ps})))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _point_set(self) -> frozenset[Vector]:
        return frozenset(self.points)

    def __contains__(self, p) -> bool:
        return vector(p) in self._point_set
