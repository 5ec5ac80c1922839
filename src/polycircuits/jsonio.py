"""Exact JSON serialization for polyhedra, maps, direction sets, reports.

The package writes JSON only through `dumps` and `dump`.  Rationals travel
as strings, "p/q" or just "p" for integers, so reading a polyhedron or a map
back is bit-exact.  Direction vectors are primitive integers by construction
and are emitted as JSON integers.  All dumps are sorted and indented the same
way, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .directions import BasicSolutionSet, CircuitSet
from .errors import CorrespondenceViolation, PreconditionViolation
from .linalg import Matrix, Vector, matrix, vector
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


def _field(data, key: str, default):
    """`data[key]`, or `default` when the key is absent; with no default the key is required."""
    if not isinstance(data, dict):
        raise PreconditionViolation(f"expected a JSON object with field {key!r}, got {type(data).__name__}")
    if default is None and key not in data:
        raise PreconditionViolation(f"missing field {key!r}")
    return data.get(key, default)


def _rationals(items, key: str) -> Vector:
    """A list of rationals, each a JSON integer or a string such as "3/4".

    A float or a boolean is refused: JSON floats are binary, so 0.1 would
    load as 3602879701896397/36028797018963968, and true would load as 1.
    """
    if not isinstance(items, list):
        raise PreconditionViolation(f"field {key!r} must be a list, got {type(items).__name__}")
    for x in items:
        if type(x) not in (int, str):
            raise PreconditionViolation(
                f"field {key!r} holds the {type(x).__name__} {json.dumps(x)}; "
                'write a rational as an integer or a string like "3/4"'
            )
    try:
        return vector(items)
    except ZeroDivisionError:
        raise PreconditionViolation(f"field {key!r} holds a rational with a zero denominator") from None


def parse_vector(data, key: str) -> Vector:
    """The rational vector `data[key]`, or () when the key is absent."""
    return _rationals(_field(data, key, []), key)


def parse_matrix(data, key: str, default=None) -> Matrix:
    """The rational matrix `data[key]`, a list of rows that are lists of rationals.

    An absent key reads as `default`, or is an input error when that is None.
    """
    rows = _field(data, key, default)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise PreconditionViolation(f"field {key!r} must be a list of rows, each a list")
    return matrix(_rationals(row, key) for row in rows)


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
    A, b = parse_matrix(data, "A", []), parse_vector(data, "b")
    B, d = parse_matrix(data, "B", []), parse_vector(data, "d")
    n = _field(data, "n", None)
    if type(n) is str:
        try:
            n = int(n)
        except ValueError:
            pass
    if type(n) is not int:
        raise PreconditionViolation(f"field 'n' must be an integer, got {json.dumps(n)}")
    return HPolyhedron(n=n, A=A, b=b, B=B, d=d, name=str(data.get("name", "")))


def map_to_dict(pi: LinearMap) -> dict:
    return {"name": pi.name, "matrix": rat_rows(pi.matrix)}


def map_from_dict(data: dict) -> LinearMap:
    return LinearMap(parse_matrix(data, "matrix"), name=str(data.get("name", "")))


# ---------------------------------------------------------------------------
# direction and point sets


def circuits_to_dict(C: CircuitSet) -> dict:
    if C.is_subspace:
        return {"lineality": [int_vec(v) for v in C.lineality]}
    return {"directions": [int_vec(v) for v in C.directions]}


def basics_to_dict(B: BasicSolutionSet) -> dict:
    """The points as rational strings, read off the lines (den, *num): the set's
    Fraction view of every point is not built, nor kept for the rest of a run."""
    return {"points": [[str(Fraction(x, v[0])) for x in v[1:]] for v in B.lines]}


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
    """`dumps(obj)` into the file at `path`, streamed: the text is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
