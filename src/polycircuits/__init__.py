"""Exact rational polyhedral computation: circuits, projections, inheritance."""

from .errors import (
    BudgetExceeded,
    CorrespondenceViolation,
    EdgeDirectionGiven,
    EmptyPolyhedron,
    NotInjectiveOnQ,
    NotPointed,
    PolyhedronError,
    PreconditionViolation,
    ProjectionMismatch,
)
from .linalg import Fraction, Matrix, Vector, canonicalize_direction, frac, matrix, vector
from .directions import BasicSolutionSet, CircuitSet
from .polyhedron import (
    DEFAULT_BUDGET,
    HPolyhedron,
    LinearMap,
    edge_directions,
    homogenize,
    minimize_description,
    preimage_description,
    project,
    vrep,
    work_budget,
)
from .circuits import (
    basic_solutions,
    circuits_of_homogenization,
    enumerate_circuits,
    enumerate_circuits_bruteforce,
)
from .inheritance import (
    ALL_INHERITED,
    NOT_ALL_INHERITED,
    InheritanceReport,
    check_inheritance,
)

__all__ = [
    "ALL_INHERITED",
    "BasicSolutionSet",
    "BudgetExceeded",
    "CircuitSet",
    "CorrespondenceViolation",
    "DEFAULT_BUDGET",
    "EdgeDirectionGiven",
    "EmptyPolyhedron",
    "Fraction",
    "HPolyhedron",
    "InheritanceReport",
    "LinearMap",
    "Matrix",
    "NOT_ALL_INHERITED",
    "NotInjectiveOnQ",
    "NotPointed",
    "PolyhedronError",
    "PreconditionViolation",
    "ProjectionMismatch",
    "Vector",
    "basic_solutions",
    "canonicalize_direction",
    "check_inheritance",
    "circuits_of_homogenization",
    "edge_directions",
    "enumerate_circuits",
    "enumerate_circuits_bruteforce",
    "frac",
    "homogenize",
    "matrix",
    "minimize_description",
    "preimage_description",
    "project",
    "vector",
    "vrep",
    "work_budget",
]
