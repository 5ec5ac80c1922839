"""Inputs, op lists and output checks of the four benchmark workloads.

A workload turns (package, seed, pass index) into a list of ops. Each op is
a closure over inputs generated before timing starts, so the program only
ever receives HPolyhedron and LinearMap objects built here (or, for
`reproduce`, an experiment name and its parameters). After a pass, every
output is reduced to canonical JSON and checked against committed
references (a SHA-256 prefix per op, made from the commit that defined the
benchmark) and against invariants taken from the paper.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
THM5_DATA = HERE / "data" / "thm5_cube3_110.json"

# The check population: pairs (Q, pi) drawn once from this seed, like the
# law suites draw them. --seed then picks a positive factor for every row of
# every Q, and the op order.
POPULATION_SEED = 0
DEFAULT_SEED = 0
# (dimension of Q, rank of pi, number of pairs): 100 ops, so that ten op
# latencies lie beyond p90. Only the last stratum can give NotAllInherited.
CHECK_STRATA = ((3, 1, 30), (3, 2, 26), (3, 3, 24), (4, 1, 6), (4, 2, 6), (4, 3, 8))


@dataclass
class Op:
    label: str  # names the reference this op's output must match
    call: Callable[[], Any]
    context: Any = None  # what the check needs besides the output


# -- canonical JSON -----------------------------------------------------


def _vec(v) -> list[str]:
    return [str(x) for x in v]


def _rows(M) -> list[list[str]]:
    return [_vec(r) for r in M]


def _circuits(C) -> dict:
    return {"directions": _rows(C.directions), "lineality": _rows(C.lineality)}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rref(rows) -> list[list[Fraction]]:
    """Nonzero rows of the reduced row echelon form (the benchmark's own)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def _canonical_direction(v) -> tuple:
    """Primitive integer vector with a positive leading entry."""
    v = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    ints = [k // g for k in ints] if g else ints
    lead = next((k for k in ints if k), 0)
    return tuple(-k for k in ints) if lead < 0 else tuple(ints)


# -- workloads ----------------------------------------------------------


class Workload:
    name = ""
    repeat_passes = True  # False: the op list runs once per process

    def __init__(self, scratch: Path):
        self.scratch = scratch  # where ops may write files

    def ops(self, pc, seed: int, pass_index: int) -> list[Op]:
        """The op list of one pass."""
        raise NotImplementedError

    def warmup(self, pc) -> None:
        """One op on an input that no measured op uses."""
        raise NotImplementedError

    def canonical(self, op: Op, out) -> Any:
        raise NotImplementedError

    def check(self, pc, op: Op, out, canon, refs: dict) -> list[str]:
        """Problems found in one op's output; empty when it is correct."""
        expected = refs.get(op.label)
        if expected is None:
            return [f"no reference for {op.label}"]
        problems = self.invariants(pc, op, out, expected)
        if digest(canon) != expected["digest"]:
            problems.append(f"digest {digest(canon)} != reference {expected['digest']}")
        return problems

    def invariants(self, pc, op: Op, out, expected: dict) -> list[str]:
        return []

    def cleanup(self, op: Op) -> None:
        pass


def _permuted_rows(pc, P, rng: random.Random):
    """The same polyhedron with its equality and inequality rows reordered.

    Circuits, basic solutions and edges do not depend on row order, and the
    subset loops do the same work in any order.
    """
    eq = list(zip(P.A, P.b))
    ineq = list(zip(P.B, P.d))
    rng.shuffle(eq)
    rng.shuffle(ineq)
    return _rebuilt(pc, P, eq, ineq)


def _scaled_rows(pc, P, rng: random.Random):
    """The same polyhedron with every row multiplied by a factor in 1..3.

    Bland's rule picks the same pivots after positive row scaling, so the
    simplex does the same work; reordering rows would change its path.
    """

    def scale(rows, rhs):
        out = []
        for row, x in zip(rows, rhs):
            f = rng.randint(1, 3)
            out.append((tuple(f * v for v in row), f * x))
        return out

    return _rebuilt(pc, P, scale(P.A, P.b), scale(P.B, P.d))


def _rebuilt(pc, P, eq, ineq):
    return pc.HPolyhedron(
        n=P.n,
        A=tuple(r for r, _ in eq),
        b=tuple(x for _, x in eq),
        B=tuple(r for r, _ in ineq),
        d=tuple(x for _, x in ineq),
        name=P.name,
    )


def _fresh_copy(transform, pc, P, rng, pass_index: int):
    """Pass 0 gets the description as built; later passes get an equivalent
    one with different rows, so that no pass repeats an earlier input."""
    return P if pass_index == 0 else transform(pc, P, rng)


def _load_poly(pc, data: dict):
    return pc.HPolyhedron.make(
        data["n"], A=data["A"], b=data["b"], B=data["B"], d=data["d"]
    )


class Check(Workload):
    """check_inheritance on a stream of distinct (Q, pi) pairs."""

    name = "check"

    def population(self, pc) -> list[tuple]:
        pairs = []
        for n, k, count in CHECK_STRATA:
            for _ in range(count):
                rng = random.Random(POPULATION_SEED * 1_000_003 + len(pairs))
                pairs.append((_random_polytope(pc, rng, n), _random_map(pc, rng, k, n)))
        return pairs

    def ops(self, pc, seed, pass_index):
        pairs = self.population(pc)
        rng = random.Random(f"check/{seed}/{pass_index}")
        ops = []
        for i, (Q, pi) in enumerate(pairs):
            Qt = _scaled_rows(pc, Q, rng)
            ops.append(Op(f"pair{i:03d}", _bind(pc.inheritance, "check_inheritance", Qt, pi)))
        rng.shuffle(ops)
        return ops

    def warmup(self, pc):
        rng = random.Random("check/warmup")
        Q = _random_polytope(pc, rng, 3)
        pc.inheritance.check_inheritance(Q, _random_map(pc, rng, 2, 3))

    def canonical(self, op, rep):
        return {
            "verdict": rep.verdict,
            "inherited_equals_edges": rep.inherited_equals_edges,
            "P_circuits": _circuits(rep.P_circuits),
            "Q_circuits": _circuits(rep.Q_circuits),
            "projected": _circuits(rep.projected),
            "inherited": _circuits(rep.inherited),
            "non_inherited": _circuits(rep.non_inherited),
            "edge_dirs": _circuits(rep.edge_dirs),
        }

    def invariants(self, pc, op, rep, expected):
        problems = []
        P, inh, non = set(rep.P_circuits), set(rep.inherited), set(rep.non_inherited)
        if inh | non != P or inh & non:
            problems.append("inherited/non-inherited is not a partition of C(P)")
        if not set(rep.edge_dirs) <= inh:
            problems.append("an edge direction of the image is not inherited")
        if (expected["dim_Q"] <= 3 or expected["dim_P"] <= 2) and rep.verdict != "AllInherited":
            problems.append(f"verdict {rep.verdict} contradicts dimension triviality")
        if rep.verdict != expected["verdict"]:
            problems.append(f"verdict {rep.verdict} != reference {expected['verdict']}")
        return problems


def _random_polytope(pc, rng: random.Random, n: int):
    """Box [0, u] cut by one random halfspace, as the law suites draw Q."""
    rows = [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows += [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rhs = [0] * n + [rng.randint(1, 3) for _ in range(n)]
    row = [rng.randint(-2, 2) for _ in range(n)]
    if any(row):
        rows.append(row)
        rhs.append(rng.randint(0, 4))
    return pc.HPolyhedron.make(n, B=rows, d=rhs)


def _random_map(pc, rng: random.Random, k: int, n: int):
    """Random integer k x n map of full row rank."""
    while True:
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if len(_rref(M)) == k:
            return pc.LinearMap(pc.matrix(M))


def _bind(module, fname: str, *args):
    """Call module.fname(*args), looked up at call time so tracing sees it."""
    return lambda: getattr(module, fname)(*args)


class Enumerate(Workload):
    """Subset enumeration and exact elimination, no LP on the hot path."""

    name = "enumerate"

    def inputs(self, pc):
        C4 = pc.constructions.cropped_cross_polytope(4)
        thm5 = json.loads(THM5_DATA.read_text())
        return {
            "hom_ccp4_circuits": ("circuits", "enumerate_circuits", pc.homogenize(C4)),
            "ccp4_basic_solutions": ("circuits", "basic_solutions", C4),
            "ccp4_edges": ("polyhedron", "edge_directions", C4),
            "thm5_cube3_circuits": ("circuits", "enumerate_circuits", _load_poly(pc, thm5["extension"])),
            "transport_edges": ("polyhedron", "edge_directions", pc.constructions.transportation(5, 2, (1, 4))),
        }

    def ops(self, pc, seed, pass_index):
        rng = random.Random(f"enumerate/{seed}/{pass_index}")
        ops = []
        for label, (mod, fname, P) in self.inputs(pc).items():
            P = _fresh_copy(_permuted_rows, pc, P, rng, pass_index)
            ops.append(Op(label, _bind(getattr(pc, mod), fname, P)))
        rng.shuffle(ops)
        return ops

    def warmup(self, pc):
        pc.circuits.enumerate_circuits(pc.homogenize(pc.constructions.cropped_cross_polytope(3)))

    def canonical(self, op, out):
        if op.label == "ccp4_basic_solutions":
            return {"points": _rows(out.points)}
        return _circuits(out)

    def invariants(self, pc, op, out, expected):
        problems = []
        if len(out) != expected["count"]:
            problems.append(f"{len(out)} results, reference {expected['count']}")
        if op.label == "ccp4_basic_solutions":
            n, delta = 4, Fraction(3, 4)
            pts = set(out.points)
            corners = [tuple(c) for c in itertools.product((-delta, delta), repeat=n)]
            if sum(c in pts for c in corners) != 2**n:
                problems.append("not every box corner is a basic solution")
            feasible = [x for x in out.points if _in_cropped_cross(x, delta)]
            if len(feasible) != 4 * n * (n - 1):
                problems.append(f"{len(feasible)} feasible basic solutions, paper says 4n(n-1) = 48 vertices")
        if op.label == "thm5_cube3_circuits":
            if set(out.directions) != _balas_prediction(pc):
                problems.append("circuits differ from the Balas prediction")
        return problems


def _in_cropped_cross(x, delta) -> bool:
    return sum(abs(v) for v in x) <= 1 and all(abs(v) <= delta for v in x)


def _balas_prediction(pc) -> set:
    """Circuits of the disjunctive lift predicted from its pieces.

    Single-slot copies of each piece's circuits, plus weight swaps e_i - e_j
    carrying a basic solution of piece i against a negated basic solution of
    piece j (the characterization behind Theorem 5). Piece circuits come from
    the brute-force enumerator, so this route shares no subset code with the
    op it checks.
    """
    data = json.loads(THM5_DATA.read_text())
    pieces = [_load_poly(pc, p) for p in data["pieces"]]
    p, n = len(pieces), pieces[0].n
    circuits = [list(pc.circuits.enumerate_circuits_bruteforce(P)) for P in pieces]
    basics = [list(pc.circuits.basic_solutions(P)) for P in pieces]
    zero = [Fraction(0)] * n
    expected = []
    for i in range(p):
        for g in circuits[i]:
            blocks = [zero] * p
            blocks[i] = list(g)
            expected.append([0] * p + sum(blocks, []))
    for i, j in itertools.combinations(range(p), 2):
        for s in basics[i]:
            for t in basics[j]:
                w = [0] * p
                w[i], w[j] = 1, -1
                blocks = [zero] * p
                blocks[i], blocks[j] = list(s), [-x for x in t]
                expected.append(w + sum(blocks, []))
    return {tuple(Fraction(x) for x in _canonical_direction(v)) for v in expected}


class Minimize(Workload):
    """minimize_description on descriptions that are irredundant or nearly so."""

    name = "minimize"
    # (rank of the equality rows, inequality rows) of each minimal description
    SHAPES = {
        "ccp4": (0, 2**4 + 2 * 4),  # every row of the cropped cross-polytope is a facet
        "hom_ccp4": (0, 2**4 + 2 * 4),  # t >= 0 is implied for a bounded polytope
        "cross4": (0, 2**4),
        "cube10": (0, 2 * 10),
        "transport": (6, 5),  # dimension 4, a simplex: y_1j >= 0 are its facets
    }

    def inputs(self, pc):
        con = pc.constructions
        C4 = con.cropped_cross_polytope(4)
        return {
            "ccp4": C4,
            "hom_ccp4": pc.homogenize(C4),
            "cross4": con.cross_polytope(4),
            "cube10": con.hypercube(10),
            "transport": con.transportation(5, 2, (1, 4)),
        }

    def ops(self, pc, seed, pass_index):
        rng = random.Random(f"minimize/{seed}/{pass_index}")
        ops = []
        for label, P in self.inputs(pc).items():
            Pt = _fresh_copy(_scaled_rows, pc, P, rng, pass_index)
            ops.append(Op(label, _bind(pc.polyhedron, "minimize_description", Pt), Pt))
        rng.shuffle(ops)
        return ops

    def warmup(self, pc):
        pc.polyhedron.minimize_description(pc.constructions.hypercube(4))

    def canonical(self, op, out):
        hull = _rref([list(r) + [x] for r, x in zip(out.A, out.b)])
        facets = sorted((_vec(r), str(x)) for r, x in zip(out.B, out.d))
        return {"n": out.n, "hull": _rows(hull), "facets": facets}

    def invariants(self, pc, op, out, expected):
        problems = []
        shape = (len(_rref(out.A)) if out.A else 0, len(out.B))
        if shape != self.SHAPES[op.label] or len(out.A) != shape[0]:
            problems.append(f"(equality rows, inequality rows) = {(len(out.A), len(out.B))}, expected {self.SHAPES[op.label]}")
        source = {(_canonical_direction(r), Fraction(x) / _scale(r)) for r, x in zip(op.context.B, op.context.d)}
        if any((_canonical_direction(r), Fraction(x) / _scale(r)) not in source for r, x in zip(out.B, out.d)):
            problems.append("an output row is not a row of the input")
        return problems


def _scale(row) -> Fraction:
    """Positive factor with row = factor * canonical direction of row."""
    c = _canonical_direction(row)
    i = next(i for i, x in enumerate(c) if x)
    return Fraction(row[i]) / c[i]


class Reproduce(Workload):
    """run_experiment into a fresh directory, per scripted experiment."""

    name = "reproduce"
    repeat_passes = False  # the list is fixed, a second pass would repeat it
    EXPERIMENTS = (
        ("thm1_3_4", "thm1", {"n": 3, "m": 4}),
        ("thm1_4_6", "thm1", {"n": 4, "m": 6}),
        ("thm1_5_6", "thm1", {"n": 5, "m": 6}),
        ("thm3_seed0", "thm3", {"seed": 0}),
        ("thm5", "thm5", {}),
        ("thm6_seed0", "thm6", {"seed": 0}),
        ("lemma17", "lemma17", {}),
    )

    def __init__(self, scratch: Path):
        super().__init__(scratch)
        self._dirs = itertools.count()  # a fresh directory for every op built

    def ops(self, pc, seed, pass_index):
        rng = random.Random(f"reproduce/{seed}/{pass_index}")
        ops = []
        for label, exp, params in self.EXPERIMENTS:
            out_dir = self.scratch / f"reproduce-{next(self._dirs)}-{label}"
            ops.append(Op(label, _bind(pc.experiments, "run_experiment", exp, dict(params), str(out_dir)), out_dir))
        rng.shuffle(ops)
        return ops

    def warmup(self, pc):
        out_dir = self.scratch / "reproduce-warmup"
        try:
            pc.experiments.run_experiment("thm3", {"seed": 1}, str(out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def canonical(self, op, result):
        out_dir = op.context
        files = {}
        for path in sorted(out_dir.rglob("*.json")):
            data = json.loads(path.read_text())
            if path.name == "result.json":
                data.pop("runtime_seconds", None)
                data["artifacts"] = [os.path.relpath(a, out_dir) for a in data.get("artifacts", [])]
            files[str(path.relative_to(out_dir))] = data
        return files

    def invariants(self, pc, op, result, expected):
        failed = [c.description for c in result.claims if not c.passed]
        problems = [f"claim failed: {d}" for d in failed]
        if result.error:
            problems.append(f"error: {result.error}")
        if len(result.claims) != expected["claims"]:
            problems.append(f"{len(result.claims)} claims, reference {expected['claims']}")
        return problems

    def cleanup(self, op):
        shutil.rmtree(op.context, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Check, Enumerate, Minimize, Reproduce)}
NAMES = tuple(WORKLOADS)


def make(name: str, scratch: Path) -> Workload:
    return WORKLOADS[name](scratch)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
