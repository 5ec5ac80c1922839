import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polycircuits
from polycircuits import polyhedron
from polycircuits.circuits import (
    basic_solutions,
    circuits_of_homogenization,
    enumerate_circuits,
    enumerate_circuits_bruteforce,
)
from polycircuits.constructions import cropped_cross_polytope
from polycircuits.directions import CircuitSet
from polycircuits.errors import BudgetExceeded, CorrespondenceViolation, NotPointed, PreconditionViolation
from polycircuits.linalg import canonicalize_direction, matrix, rank, solve, vector
from polycircuits.polyhedron import (
    DEFAULT_BUDGET,
    HPolyhedron,
    LinearMap,
    edge_directions,
    project,
    work_budget,
)


def cube(n):
    B = [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    B += [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return HPolyhedron.make(n, B=B, d=[0] * n + [1] * n)


def simplex(n):
    B = [[-1 if j == i else 0 for j in range(n)] for i in range(n)] + [[1] * n]
    return HPolyhedron.make(n, B=B, d=[0] * n + [1])


def cone_r3():
    return HPolyhedron.make(3, B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, 1]], d=[0] * 4)


# Worked out by hand from the 4-row description: every pair of rows with a
# one-dimensional kernel yields a candidate, all six have incomparable
# two-row supports.
R3_CIRCUITS = CircuitSet.of(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, -1, 0)]
)

# Adding the translated facet x1+x2+x3 <= 2 to the cone rows admits two more
# support-minimal directions; the rest of the ten pairs repeat lines.
P3_CIRCUITS = CircuitSet.of(list(R3_CIRCUITS) + [(0, 1, -1), (1, 0, -1)])


def p3():
    return HPolyhedron.make(
        3,
        B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, 1], [1, 1, 1]],
        d=[0, 0, 0, 0, 2],
    )


def test_circuits_of_cone():
    assert enumerate_circuits(cone_r3()).directions == R3_CIRCUITS.directions


def test_circuits_of_p3():
    assert enumerate_circuits(p3()).directions == P3_CIRCUITS.directions


def test_circuits_of_cube_are_unit_directions():
    C = enumerate_circuits(cube(3))
    assert C.directions == tuple(sorted(vector(v) for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_circuits_of_simplex():
    C = enumerate_circuits(simplex(3))
    expected = CircuitSet.of(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
    )
    assert C.directions == expected.directions


def test_circuits_with_equality_block():
    # {x : x1+x2+x3 = 0, x >= 0} is the origin; its kernel coordinates
    # still expose the three difference circuits.
    P = HPolyhedron.make(
        3, A=[[1, 1, 1]], b=[0],
        B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1]], d=[0, 0, 0],
    )
    expected = CircuitSet.of([(1, -1, 0), (1, 0, -1), (0, 1, -1)])
    assert enumerate_circuits(P).directions == expected.directions


def test_sign_symmetry_and_canonical_form():
    for g in enumerate_circuits(p3()):
        assert next(x for x in g if x != 0) > 0
        assert all(x.denominator == 1 for x in g)


def test_nonpointed_returns_lineality():
    slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])
    C = enumerate_circuits(slab)
    assert C.is_subspace
    assert C.lineality == (vector([0, 1]),)
    assert vector([0, -5]) in C and vector([1, 0]) not in C
    CB = enumerate_circuits_bruteforce(slab)
    assert CB.is_subspace and CB.lineality == C.lineality


@pytest.mark.parametrize(
    "P", [cube(3), HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])], ids=["pointed", "slab"]
)
def test_enumerate_circuits_returns_the_cached_set(P):
    # the circuit walk is cached as the `CircuitSet` itself, lineality basis
    # or directions, so a second call rebuilds nothing
    assert enumerate_circuits(P) is enumerate_circuits(P)
    assert enumerate_circuits(P).is_subspace == (P.n == 2)


def test_non_minimal_circuit_candidate_is_a_correspondence_violation(monkeypatch):
    # Every candidate spans the kernel of the n'-1 independent rows the walk
    # names with it, so it is support-minimal; enumerate_circuits reports one
    # that is not instead of dropping it. Corrupt the first line of the
    # subset walk to (1, 1, 1), whose support on the cube's rows contains that
    # of (1, 0, 0), and keep its certificate: no row of the cube reads 0 on it.
    subset_lines = polyhedron._subset_lines

    def corrupted(rows, k, ncols, width):
        lines = subset_lines(rows, k, ncols, width)
        _, cert = next(lines)
        yield (1,) * width, cert
        yield from lines

    monkeypatch.setattr(polyhedron, "_subset_lines", corrupted)
    with pytest.raises(CorrespondenceViolation, match=r"\(1, 1, 1\) does not read 0 on its certificate rows"):
        enumerate_circuits(cube(3))
    # The brute-force oracle keeps the definitional filter and is untouched.
    assert enumerate_circuits_bruteforce(cube(3)).directions == tuple(
        vector(v) for v in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    )


def test_lone_non_minimal_circuit_is_a_correspondence_violation(monkeypatch):
    # Every line of the square's subset walk corrupted to (1, 1), each with
    # its certificate: the candidates agree with each other, so no comparison
    # among them can see it. The certificate check can: no row of the square
    # is zero on (1, 1).
    subset_lines = polyhedron._subset_lines

    def corrupted(rows, k, ncols, width):
        for _, cert in subset_lines(rows, k, ncols, width):
            yield (1,) * width, cert

    monkeypatch.setattr(polyhedron, "_subset_lines", corrupted)
    with pytest.raises(CorrespondenceViolation, match=r"\(1, 1\) does not read 0 on its certificate rows"):
        enumerate_circuits(cube(2))


_WRONG_CERTIFICATE = """
import itertools

from polycircuits import polyhedron
from polycircuits.circuits import basic_solutions, enumerate_circuits
from polycircuits.constructions import cropped_cross_polytope
from polycircuits.errors import CorrespondenceViolation
from polycircuits.linalg import rank

walk = polyhedron._subset_lines


def reads_zero(row, line):
    return sum(a * b for a, b in zip(row, line)) == 0


def off_by_one(rows, line, cert):
    # the row after the last one, if it reads nonzero on the line (at a
    # degenerate basic solution it may be tight as well)
    j = cert[-1] + 1
    if j < len(rows) and not reads_zero(rows[j], line):
        return (*cert[:-1], j)


def wrong_class(rows, line, cert):
    # the first row after the prefix that reads nonzero on the line: the
    # first row of a class other than those of the two points
    *prefix, ri, si = cert
    j = next((j for j in range(prefix[-1] + 1 if prefix else 0, len(rows)) if not reads_zero(rows[j], line)), None)
    if j is not None:
        return tuple(sorted((*prefix, j, si)))


def low_rank(rows, line, cert):
    # as many rows as the certificate's that read 0 on the line but have
    # lower rank: distinct rows if some are dependent, else a row repeated
    zeros = [i for i, row in enumerate(rows) if reads_zero(row, line)]
    k = len(cert)
    subsets = itertools.chain(itertools.combinations(zeros, k), itertools.combinations_with_replacement(zeros, k))
    return next(S for S in subsets if rank([rows[i] for i in S]) < k)


subjects = {
    "circuits": lambda: enumerate_circuits(polyhedron.homogenize(cropped_cross_polytope(3))),
    "basic": lambda: basic_solutions(cropped_cross_polytope(3)),
}
for subject, run in subjects.items():
    for mutate in (off_by_one, wrong_class, low_rank):

        def corrupted(rows, k, ncols, width):
            # the first line of the walk that the mutation can give a wrong certificate
            wrong = None
            for line, cert in walk(rows, k, ncols, width):
                if wrong is None and (wrong := mutate(rows, line, cert)) is not None:
                    print(subject, mutate.__name__, cert, "->", wrong, end=" ")
                    cert = wrong
                yield line, cert

        polyhedron._subset_lines = corrupted
        try:
            run()
            print("returned")
        except CorrespondenceViolation as exc:
            print("CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_wrong_certificate_is_a_correspondence_violation(flags):
    # Each circuit line is checked on the n'-1 rows the walk names with it,
    # and each basic solution on its n' rows, also under -O. In the walk
    # over hom(ccp3) (circuits) and over ccp3 (basic solutions), the first
    # line that the mutation can give a wrong certificate gets one: its last
    # row index off by one, a row of another parallel class than its two
    # points', or rows as many as the certificate's that read 0 on it but
    # have lower rank (at ccp3's basic solutions no distinct rows do, so a
    # row repeats). The first two read nonzero on the line, the last leaves
    # a kernel larger than the line; enumerate_circuits and basic_solutions
    # raise each time.
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _WRONG_CERTIFICATE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    mutations = ["off_by_one", "wrong_class", "low_rank"]
    assert [line.split(" ", 2)[:2] for line in lines] == [[s, m] for s in ("circuits", "basic") for m in mutations]
    misses = "does not read 0 on its certificate rows"
    names = {"circuits": "circuit candidate", "basic": "basic solution line"}
    for line, caught in zip(lines, [misses, misses, "is not support-minimal"] * 2):
        m = re.fullmatch(r"(\w+) \w+ (\(.*\)) -> (\(.*\)) CorrespondenceViolation: ([a-z ]+) \(.*\) (.*)", line)
        assert m and m[2] != m[3] and m[4] == names[m[1]] and m[5].startswith(caught), line


def test_lone_non_basic_point_is_a_correspondence_violation(monkeypatch):
    # The square's walk yields only the edge midpoint (1/2, 0), as the
    # vector (-1, 0, 2) on the rows [a | rhs], whose line (den, *num) is
    # (2, 1, 0), with its certificate, the one row tight there (-y <= 0):
    # it reads 0 on the midpoint, but rank 1 < 2, so it is not basic.
    monkeypatch.setattr(polyhedron, "_subset_lines", lambda rows, k, ncols, width: iter([((-1, 0, 2), (1,))]))
    with pytest.raises(CorrespondenceViolation, match=re.escape("basic solution line (2, 1, 0) is not support-minimal")):
        basic_solutions(cube(2))


def _first_sampled_witness(P):
    """The basic point that dominates the first non-basic midpoint of the
    pairs `basic_solutions` samples (the first 50 pairs of its points, in
    order), from Fractions: the rows tight at the midpoint, extended
    greedily, in row order, to rank n, and solved."""
    sols = basic_solutions(P)
    for u, v in itertools.islice(itertools.combinations(sols.points, 2), 50):
        tight = P.tight_inequality_rows([(a + b) / 2 for a, b in zip(u, v)])
        if not tight or rank([P.B[i] for i in tight]) < P.n:
            break
    rows = []
    for i in [*tight, *(i for i in range(len(P.B)) if i not in tight)]:
        if rank([P.B[j] for j in (*rows, i)]) > len(rows):
            rows.append(i)
    return canonicalize_direction((1, *solve([P.B[i] for i in rows], [P.d[i] for i in rows])))


def test_a_missing_dominating_point_is_a_correspondence_violation(monkeypatch):
    # Each sampled non-basic midpoint names the basic point that dominates
    # it, and the walk must have found that point. Drop the one that the
    # first non-basic midpoint of ccp3's sample names. The midpoint's own
    # endpoints still have tight sets strictly containing its own, so a
    # test that some basic point dominates it passes; only the named
    # witness sees the gap.
    P = cropped_cross_polytope(3)
    drop = _first_sampled_witness(P)
    walk = polyhedron._subset_lines

    def without_drop(rows, k, ncols, width):
        return ((v, cert) for v, cert in walk(rows, k, ncols, width) if P._ints.line(v) != drop)

    monkeypatch.setattr(polyhedron, "_subset_lines", without_drop)
    with pytest.raises(CorrespondenceViolation, match=f"not dominated: no basic solution line {re.escape(str(drop))}"):
        basic_solutions(P)


def test_budget_exceeded():
    with work_budget(10), pytest.raises(BudgetExceeded):
        enumerate_circuits(cube(8))


def _cap_in_force() -> int:
    # cube(30) would walk comb(60, 29) > DEFAULT_BUDGET row subsets, so the
    # walk stops before it starts and reports the cap it was held to
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_circuits(cube(30))
    return exc.value.cap


def test_work_budget_is_restored_after_the_block():
    assert _cap_in_force() == DEFAULT_BUDGET
    with work_budget(7):
        assert _cap_in_force() == 7
        with work_budget(5):
            assert _cap_in_force() == 5
        assert _cap_in_force() == 7
    assert _cap_in_force() == DEFAULT_BUDGET
    with pytest.raises(BudgetExceeded), work_budget(5):
        enumerate_circuits(cube(30))
    assert _cap_in_force() == DEFAULT_BUDGET


def test_negative_work_budget_is_a_precondition_violation():
    with pytest.raises(PreconditionViolation, match="negative"), work_budget(-1):
        enumerate_circuits(cube(2))
    assert _cap_in_force() == DEFAULT_BUDGET
    with work_budget(0), pytest.raises(BudgetExceeded):
        enumerate_circuits(cube(2))


@pytest.mark.parametrize(
    "P",
    [cube(3), simplex(3), cone_r3(), p3(), cube(2)],
    ids=["cube3", "simplex3", "coneR3", "p3", "square"],
)
def test_bruteforce_agrees(P):
    assert enumerate_circuits(P).directions == enumerate_circuits_bruteforce(P).directions


@pytest.mark.parametrize("seed", range(25))
def test_bruteforce_agrees_on_random_systems(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    rows = [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    rhs = [0] * n
    for _ in range(rng.randint(1, 3)):
        rows.append([rng.randint(-2, 2) for _ in range(n)])
        rhs.append(rng.randint(0, 3))
    eqs, eq_rhs = [], []
    if rng.random() < 0.4:
        eqs.append([rng.randint(-2, 2) for _ in range(n)])
        eq_rhs.append(0)
    P = HPolyhedron.make(n, A=eqs, b=eq_rhs, B=rows, d=rhs)
    assert enumerate_circuits(P).directions == enumerate_circuits_bruteforce(P).directions


def test_basic_solutions_of_square():
    pts = basic_solutions(cube(2))
    assert set(pts) == {vector(v) for v in [(0, 0), (0, 1), (1, 0), (1, 1)]}


def test_basic_solutions_include_infeasible_points():
    # triangle x,y >= 0, x+y <= 1: the three line intersections are basic,
    # and all three happen to be vertices; cutting with x <= 2 adds the
    # infeasible crossings on that line.
    T = HPolyhedron.make(2, B=[[-1, 0], [0, -1], [1, 1], [1, 0]], d=[0, 0, 1, 2])
    pts = basic_solutions(T)
    assert vector([2, 0]) in pts and vector([2, -1]) in pts
    assert not T.contains(vector([2, -1]))


def test_basic_solutions_require_equality_rows_satisfied():
    P = HPolyhedron.make(2, A=[[1, 1]], b=[1], B=[[-1, 0], [0, -1]], d=[0, 0])
    pts = basic_solutions(P)
    assert set(pts) == {vector([0, 1]), vector([1, 0])}


def test_basic_solutions_build_no_fraction_until_points_are_read(monkeypatch):
    # The walk, the rank tests and the midpoint sample all run on the integer
    # lines (den, *num); only the `points` view builds Fractions.
    P = cropped_cross_polytope(3)
    new, calls = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        calls.append(None)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    sols = basic_solutions(P)
    assert calls == []
    assert len(sols.points) == len(sols) and calls


def test_basic_solutions_not_pointed():
    slab = HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0])
    with pytest.raises(NotPointed):
        basic_solutions(slab)


def test_homogenization_split_of_triangle():
    T = simplex(2)
    CH, split = circuits_of_homogenization(T)
    assert split.direction_class.directions == enumerate_circuits(T).directions
    assert set(split.point_class) == {vector(v) for v in [(0, 0), (1, 0), (0, 1)]}
    # every homogenization circuit is one of the two classes
    assert len(CH) == len(split.direction_class) + len(split.point_class)


def test_edge_direction_membership():
    P = p3()
    assert vector([1, -1, 0]) in edge_directions(P)
    assert vector([0, 0, 1]) not in edge_directions(P)
    # circuits always contain the edge directions
    assert set(edge_directions(P)).issubset(set(enumerate_circuits(P)))


def test_p3_nonedge_circuit_is_exactly_e3():
    P = p3()
    C = set(enumerate_circuits(P))
    E = set(edge_directions(P))
    assert C - E == {vector([0, 0, 1])}
