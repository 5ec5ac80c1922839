"""Canonical direction-set and point-set containers.

A direction set stores one primitive integer representative per line
through the origin (first nonzero entry positive), as a tuple of Python
ints, sorted, so two sets compare equal iff they describe the same
collection of lines. Each entry is canonicalized once, by
`canonicalize_direction`, or comes canonical from the subset walk or
from a map's integer images (`LinearMap.image_directions`). A
system with a nontrivial lineality space carries a basis of that
subspace instead of a finite direction list. A basic solution x is the
canonical line (den, *num) of (1, x); its Fraction view is built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Collection, Iterable, Sequence

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
    """Basic solutions as canonical lines (den, *num), den > 0, sorted by point."""

    lines: tuple[Direction, ...] = ()

    @staticmethod
    def of(lines: Collection[Direction]) -> "BasicSolutionSet":
        """Distinct lines, sorted as they are, with no copy, on integer keys: each
        point times the lcm of every den, which keeps the order, as a tuple."""
        den = lcm(*(v[0] for v in lines))
        return BasicSolutionSet(lines=tuple(sorted(lines, key=lambda v: tuple([x * (den // v[0]) for x in v[1:]]))))

    @cached_property
    def points(self) -> tuple[Vector, ...]:
        return tuple(tuple(Fraction(x, v[0]) for x in v[1:]) for v in self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _line_set(self) -> frozenset[Direction]:
        return frozenset(self.lines)

    def __contains__(self, p) -> bool:
        return canonicalize_direction((1, *vector(p))) in self._line_set
