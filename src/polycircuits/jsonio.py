"""Exact JSON serialization for polyhedra, maps, direction sets, reports.

Rationals travel as strings, "p/q" or just "p" for integers, so every round
trip is bit-exact.  Direction vectors are primitive integers by construction
and are emitted as JSON integers.  All dumps are sorted and indented the same
way, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .directions import BasicSolutionSet, CircuitSet
from .errors import CorrespondenceViolation
from .linalg import Vector, frac, matrix, vector
from .polyhedron import HPolyhedron, LinearMap


def rat_vec(v: Sequence[Fraction]) -> list[str]:
    return [str(x) for x in v]


def rat_rows(M) -> list[list[str]]:
    return [rat_vec(row) for row in M]


def int_vec(v: Sequence[Fraction]) -> list[int]:
    """A direction vector as JSON integers; directions are primitive integers."""
    if any(x.denominator != 1 for x in v):
        raise CorrespondenceViolation(f"direction ({', '.join(map(str, v))}) is not integral")
    return [int(x) for x in v]


def parse_vector(items: Sequence) -> Vector:
    return vector([frac(x) for x in items])


def parse_matrix(rows: Sequence[Sequence]):
    return matrix([[frac(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# polyhedra and maps


def poly_to_dict(P: HPolyhedron) -> dict:
    return {
        "name": P.name,
        "n": P.n,
        "A": rat_rows(P.A),
        "b": rat_vec(P.b),
        "B": rat_rows(P.B),
        "d": rat_vec(P.d),
    }


def poly_from_dict(data: dict) -> HPolyhedron:
    n = int(data["n"])
    return HPolyhedron.make(
        n,
        A=parse_matrix(data.get("A", ())),
        b=parse_vector(data.get("b", ())),
        B=parse_matrix(data.get("B", ())),
        d=parse_vector(data.get("d", ())),
        name=str(data.get("name", "")),
    )


def map_to_dict(pi: LinearMap) -> dict:
    return {"name": pi.name, "matrix": rat_rows(pi.matrix)}


def map_from_dict(data: dict) -> LinearMap:
    return LinearMap(parse_matrix(data["matrix"]), name=str(data.get("name", "")))


# ---------------------------------------------------------------------------
# direction and point sets


def circuits_to_dict(C: CircuitSet) -> dict:
    if C.is_subspace:
        return {"lineality": [int_vec(v) for v in C.lineality]}
    return {"directions": [int_vec(v) for v in C.directions]}


def circuits_from_dict(data: dict) -> CircuitSet:
    if "lineality" in data:
        return CircuitSet.subspace(parse_matrix(data["lineality"]))
    return CircuitSet.of(parse_matrix(data["directions"]))


def basics_to_dict(B: BasicSolutionSet) -> dict:
    return {"points": rat_rows(B.points)}


# ---------------------------------------------------------------------------
# reports


def report_to_dict(report) -> dict:
    out = {
        "verdict": report.verdict,
        "inherited_equals_edges": report.inherited_equals_edges,
        "counts": {
            "P_circuits": len(report.P_circuits),
            "inherited": len(report.inherited),
            "non_inherited": len(report.non_inherited),
            "edge_dirs": len(report.edge_dirs),
        },
    }
    for field in ("P_circuits", "Q_circuits", "projected", "inherited", "non_inherited", "edge_dirs"):
        out[field] = circuits_to_dict(getattr(report, field))
    return out


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
