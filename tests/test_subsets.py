"""The subset enumerators and the double description against per-subset references.

`enumerate_circuits` and `basic_solutions` visit row subsets depth first,
carry each prefix's tableau (its echelon form and the residuals of the
later rows) and stop two rows early: each later row becomes three
coordinates on the kernel of a (k-2)-prefix, and the last two rows of a
subset meet in one cross product (`linalg._subset_lines`); `vrep`
runs the double description of the homogenization cone
(`polyhedron._extreme_rays`), and edges are decided by tight-row masks.
The references below are per-subset loops: every subset is eliminated
from scratch through the public `rank`, `solve` and `kernel_basis`, and
adjacency is the dimension of the face at the midpoint. Both must return
exactly the same objects. Every circuit line is checked on the n'-1 rows
the walk names with it (its certificate), every basic solution on its n'
certificate rows, and every vertex on its own tight rows, by one
`linalg._ranks_reach` pass over the sorted row sets, which resumes each
set from the prefix it shares with the set before it; its reference folds
every set afresh.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import polycircuits
from polycircuits import linalg, lp, polyhedron
from polycircuits.circuits import basic_solutions, enumerate_circuits
from polycircuits.constructions import (
    DisjunctiveFamily,
    balas_extension,
    cropped_cross_polytope,
    hypercube,
    transportation,
)
from polycircuits.directions import BasicSolutionSet, CircuitSet
from polycircuits.errors import EmptyPolyhedron, NotPointed
from polycircuits.linalg import (
    canonicalize_direction,
    dot,
    identity,
    kernel_basis,
    mat_vec,
    matmul,
    primitive,
    rank,
    solve,
    transpose,
    vec_add,
    vec_scale,
    vec_sub,
)
from polycircuits.polyhedron import HPolyhedron, edge_directions, homogenize, vrep


def _ref_keep_support_minimal(cands):
    masks = list(set(cands.values()))
    return [g for g, m in cands.items() if not any(o != m and o & m == o for o in masks)]


def _mask(v):
    return sum(1 << i for i, x in enumerate(v) if x != 0)


def _ref_enumerate_circuits(P):
    N = kernel_basis(P.A, P.n) if P.A else list(identity(P.n))
    np_ = len(N)
    if np_ == 0:
        return CircuitSet()
    NT = transpose(tuple(N))
    Bred = matmul(P.B, NT) if P.B else ()
    lin = kernel_basis(Bred, np_) if Bred else list(identity(np_))
    if lin:
        return CircuitSet.subspace((mat_vec(NT, v) for v in lin))
    cands = {}
    for S in itertools.combinations(range(len(Bred)), np_ - 1):
        ker = kernel_basis([Bred[i] for i in S], np_)
        if len(ker) == 1:
            ghat = canonicalize_direction(ker[0])
            cands[canonicalize_direction(mat_vec(NT, ghat))] = _mask(dot(row, ghat) for row in Bred)
    return CircuitSet(directions=tuple(sorted(_ref_keep_support_minimal(cands))))


def _ref_basic_points(P):
    n = P.n
    k = n - (rank(P.A) if P.A else 0)
    pts = set()
    for S in itertools.combinations(range(len(P.B)), k):
        M = P.A + tuple(P.B[i] for i in S)
        if rank(M) == n:
            x = solve(M, P.b + tuple(P.d[i] for i in S))
            if x is not None:
                pts.add(x)
    return pts, k


def _is_pointed(P):
    return rank(P.A + P.B) == P.n if P.A + P.B else P.n == 0


def _ref_basic_solutions(P):
    if not _is_pointed(P):
        raise NotPointed(P.name)
    return BasicSolutionSet.of([canonicalize_direction((1, *x)) for x in _ref_basic_points(P)[0]])


def _ref_vrep(P):
    if not _is_pointed(P):
        raise NotPointed(P.name)
    if not lp.is_feasible(P):
        raise EmptyPolyhedron(P.name)
    pts, k = _ref_basic_points(P)
    vertices = {x for x in pts if P.contains(x)}
    rays = set()
    for S in itertools.combinations(range(len(P.B)), k - 1) if k >= 1 else ():
        ker = kernel_basis(P.A + tuple(P.B[i] for i in S), P.n)
        if len(ker) == 1:
            Br = mat_vec(P.B, ker[0])
            if all(x <= 0 for x in Br):
                rays.add(primitive(ker[0]))
            elif all(x >= 0 for x in Br):
                rays.add(primitive(vec_scale(-1, ker[0])))
    return tuple(sorted(vertices)), tuple(sorted(rays))


def _vertices_and_rays(P):
    """`vrep(P)` as `_ref_vrep` returns it: its sorted Fraction vertices and its rays.
    Its lines must be the canonical lines (den, *num) of (1, x) of those vertices."""
    V = vrep(P)
    assert V.lines == tuple(canonicalize_direction((1, *x)) for x in V.vertices)
    return V.vertices, V.rays


def _ref_face_dim(P, x):
    rows = P.A + tuple(P.B[i] for i in P.tight_inequality_rows(x))
    return P.n - (rank(rows) if rows else 0)


def _ref_edge_directions(P):
    vertices, rays = _ref_vrep(P)
    dirs = list(rays)
    for u, v in itertools.combinations(vertices, 2):
        if _ref_face_dim(P, vec_scale(Fraction(1, 2), vec_add(u, v))) == 1:
            dirs.append(vec_sub(u, v))
    return CircuitSet.of(dirs)


def _check_basic_solution_set(S):
    """A `BasicSolutionSet` holds canonical lines (den, *num), den > 0, sorted
    by point; `in` takes a point as ints, Fractions or strings in any terms
    and refuses one of the wrong length."""
    if not isinstance(S, BasicSolutionSet):
        return
    assert all(v[0] > 0 and canonicalize_direction(v) == v for v in S.lines)
    assert list(S.points) == sorted(S.points)
    for x in S.points[:4]:
        assert x in S
        assert [c.numerator if c.denominator == 1 else c for c in x] in S
        assert [f"{2 * c.numerator}/{2 * c.denominator}" for c in x] in S
        assert (*x, 0) not in S and x[1:] not in S


# ---------------------------------------------------------------------------
# Seeded descriptions.


def _entry(rng):
    x = rng.randint(-3, 3)
    return Fraction(x, rng.choice((1, 1, 1, 2, 3))) if rng.random() < 0.2 else Fraction(x)


def _description(seed):
    """A small random {A x = b, B x <= d}, built to hit the corner cases:
    rows through one point (degenerate vertices), zero, duplicate and
    parallel rows, dependent or inconsistent equality rows, fractional
    entries, unbounded and empty sets, and k = n - rank(A) from 0 up."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    x0 = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    A, b = [], []
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, n))):
        row = [_entry(rng) for _ in range(n)]
        A.append(row)
        b.append(dot(row, x0))
    if A and rng.random() < 0.3:  # a dependent equality row, sometimes inconsistent
        c = Fraction(rng.choice((-2, 1, 3)))
        A.append([c * x for x in A[0]])
        b.append(c * b[0] + (rng.choice((1, -1)) if rng.random() < 0.4 else 0))
    B, d = [], []
    if rng.random() < 0.5:  # a box keeps most systems bounded
        for i in range(n):
            for s in (1, -1):
                B.append([Fraction(s) if j == i else Fraction(0) for j in range(n)])
                d.append(s * x0[i] + rng.randint(0, 2))
    for _ in range(rng.randint(0, 5)):
        row = [_entry(rng) for _ in range(n)]
        tight = rng.random() < 0.5  # through x0, so x0 may be a degenerate vertex
        B.append(row)
        d.append(dot(row, x0) + (0 if tight else rng.randint(-2, 3)))
    extras = rng.random()
    if B and extras < 0.15:
        B.append([Fraction(0)] * n)
        d.append(Fraction(rng.randint(-1, 1)))
    elif B and extras < 0.3:
        i = rng.randrange(len(B))
        c = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        B.append([c * x for x in B[i]])
        d.append(c * d[i] + rng.choice((0, 0, 1)))
    order = list(range(len(B)))
    rng.shuffle(order)
    return HPolyhedron.make(n, A, b, [B[i] for i in order], [d[i] for i in order])


SEEDS = range(400)
CHUNKS = 20


def _outcome(fn, P):
    try:
        return fn(P)
    except (NotPointed, EmptyPolyhedron) as exc:
        return type(exc)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_subset_enumerators_match_reference(chunk):
    for seed in SEEDS[chunk::CHUNKS]:
        P = _description(seed)
        assert enumerate_circuits(P) == _ref_enumerate_circuits(P), seed
        assert _outcome(_vertices_and_rays, P) == _outcome(_ref_vrep, P), seed
        sols = _outcome(basic_solutions, P)
        assert sols == _outcome(_ref_basic_solutions, P), seed
        _check_basic_solution_set(sols)
        assert _outcome(edge_directions, P) == _outcome(_ref_edge_directions, P), seed


def test_reference_descriptions_cover_every_case():
    seen = set()
    for seed in SEEDS:
        P = _description(seed)
        rank_A = rank(P.A) if P.A else 0
        seen.add(f"k={P.n - rank_A}")
        if P.A and solve(P.A, P.b) is None and _is_pointed(P):
            seen.add("inconsistent equalities")
        elif len(P.A) > rank_A:
            seen.add("dependent equalities")
        if any(x.denominator != 1 for row in P.A + P.B for x in row):
            seen.add("fractional")
        if any(all(x == 0 for x in row) for row in P.B):
            seen.add("zero row")
        for row, rhs in zip(P.A, P.b):
            if not any(row):  # the rhs column is the first pivot of the A rows when rhs != 0
                seen.add("zero equality row, 0 = c != 0" if rhs else "zero equality row")
        if "parallel rows" not in seen and any(
            rank((r, s)) == 1 for r, s in itertools.combinations(P.B, 2) if any(r) and any(s)
        ):
            seen.add("parallel rows")
        V = _outcome(_ref_vrep, P)
        if isinstance(V, tuple):
            vertices, rays = V
            seen.add("rays" if rays else "bounded")
            if any(len(P.tight_inequality_rows(v)) > P.n - rank_A for v in vertices):
                seen.add("degenerate vertex")
            if "edges" not in seen and len(_ref_edge_directions(P)) > len(rays):
                seen.add("edges")
            if "n' - 1 common tight rows, no edge" not in seen and any(
                len(set(P.tight_inequality_rows(u)) & set(P.tight_inequality_rows(v))) >= P.n - rank_A - 1
                and _ref_face_dim(P, vec_scale(Fraction(1, 2), vec_add(u, v))) > 1
                for u, v in itertools.combinations(vertices, 2)
            ):
                seen.add("n' - 1 common tight rows, no edge")
        else:
            seen.add(V.__name__)
    assert seen >= {
        "k=0", "k=1", "k=2", "k=3", "k=4",
        "inconsistent equalities", "dependent equalities", "fractional",
        "zero row", "zero equality row", "zero equality row, 0 = c != 0", "parallel rows", "rays", "bounded", "degenerate vertex",
        "edges", "n' - 1 common tight rows, no edge", "NotPointed", "EmptyPolyhedron",
    }, seen


# `_description` draws n >= 1, so the single-point systems with n' = 0 come
# here: R^0 with no rows, and two systems whose equality rows fix the point
# (1, 2), the second infeasible. The walk names that point with the empty
# certificate, which is checked like any other, and every enumerator must
# agree with its reference.
POINT_SYSTEMS = {
    "R^0": (HPolyhedron.make(0), (1,)),
    "fixed": (HPolyhedron.make(2, A=[[1, 0], [1, 1]], b=[1, 3], B=[[1, 1], [-1, 0]], d=[5, 0]), (1, 1, 2)),
    "fixed, infeasible": (HPolyhedron.make(2, A=[[1, 0], [1, 1]], b=[1, 3], B=[[1, 1], [-1, 0]], d=[2, 0]), (1, 1, 2)),
}


@pytest.mark.parametrize("name", list(POINT_SYSTEMS))
def test_point_systems_match_reference(name):
    P, line = POINT_SYSTEMS[name]
    assert basic_solutions(P) == _ref_basic_solutions(P) == BasicSolutionSet(lines=(line,))
    assert polyhedron._basic_points(P) == BasicSolutionSet(lines=(line,))
    assert enumerate_circuits(P) == _ref_enumerate_circuits(P) == CircuitSet()
    assert _outcome(_vertices_and_rays, P) == _outcome(_ref_vrep, P)
    assert _outcome(edge_directions, P) == _outcome(_ref_edge_directions, P)


_POINT_SYSTEMS_CHECK = """
from polycircuits import polyhedron
from polycircuits.circuits import basic_solutions
from polycircuits.directions import BasicSolutionSet
from test_subsets import POINT_SYSTEMS

for name, (P, line) in POINT_SYSTEMS.items():
    got = basic_solutions(P).lines, polyhedron._basic_points(P)
    if got != ((line,), BasicSolutionSet(lines=(line,))):
        raise SystemExit(f"{name}: {got}")
    print(name, "ok")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_point_systems_have_one_basic_solution(flags):
    # the same single points, also under -O, where asserts are stripped and
    # only the checks that raise stay
    paths = [str(Path(polycircuits.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _POINT_SYSTEMS_CHECK], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"{name} ok" for name in POINT_SYSTEMS]


def _ref_subset_lines(rows, k, ncols, width):
    """The canonical kernel line of every k-subset of `rows` independent in
    its first `ncols` columns, each subset eliminated from scratch, and the
    number of (prefix, line) pairs, a prefix being the subset's first k - 2
    rows: what a walk yields that gives each line once per prefix and skips
    no prefix."""
    lines, pairs = set(), set()
    for S in itertools.combinations(range(len(rows)), k):
        M = [rows[i] for i in S]
        if len(kernel_basis([r[:ncols] for r in M], ncols)) == ncols - k:
            (v,) = kernel_basis(M, width)
            line = canonicalize_direction(v)
            lines.add(line)
            pairs.add((S[: k - 2], line))
    return lines, len(pairs)


def _walk_rows(rng, q, width, seen, large=False):
    """q random integer rows, `width` wide, with zero rows, duplicate rows,
    parallel rows of either sign and rows dependent on two earlier rows.
    Entries are at most 3 in absolute value, or with `large` a random row's
    entries are 0, small or up to 10^3, and a dependent row combines three
    earlier rows."""
    rows = []
    for _ in range(q):
        kind = rng.choice(("random", "random", "random", "zero", "duplicate", "parallel", "dependent"))
        if kind == "zero":
            row = [0] * width
        elif kind == "duplicate" and rows:
            row = list(rng.choice(rows))
        elif kind == "parallel" and rows:
            c = rng.choice((-3, -2, -1, 2))
            row = [c * x for x in rng.choice(rows)]
        elif kind == "dependent" and len(rows) >= 2 + large:
            picked = rng.sample(rows, 2 + large)
            coefs = [rng.choice((-2, -1, 1, 3)), rng.choice((-1, 1, 2))] + [rng.choice((-1, 2))] * large
            row = [sum(a * x for a, x in zip(coefs, col)) for col in zip(*picked)]
        elif large:  # each entry 0, small or large
            kind = "random"
            row = [rng.choice((0, rng.randint(-3, 3), rng.randint(-(10**3), 10**3))) for _ in range(width)]
        else:
            kind, row = "random", [rng.randint(-3, 3) for _ in range(width)]
        seen.add(kind)
        rows.append(row)
    return rows


def _box_or_simplex(rng, n):
    """A seeded box or simplex in R^n: shifted, and stretched by 1 to 3."""
    shift, scale = [rng.randint(-2, 2) for _ in range(n)], rng.randint(1, 3)
    if rng.random() < 0.5:
        B = [[-1 if j == i else 0 for j in range(n)] for i in range(n)] + [[int(j == i) for j in range(n)] for i in range(n)]
        d = [-x for x in shift] + [x + scale for x in shift]
    else:
        B = [[-1 if j == i else 0 for j in range(n)] for i in range(n)] + [[1] * n]
        d = [-x for x in shift] + [sum(shift) + scale]
    return HPolyhedron.make(n, B=B, d=d)


def _degenerate_systems(rng, last_column_pivots, trials):
    """Seeded (rows, k, ncols, width, kind) on which many subsets cut out one line.

    "cross": rows +-1 on one of a few random supports, 0 elsewhere, so the
    rows of a support share their zero set, with right-hand side 1 or 2 in
    the last column when ncols = width - 1 (the rows of a cropped
    cross-polytope and of a box); "sums": rows with entries in -1..1 and
    rows that are sums of two or three earlier rows; "balas": the reduced
    rows `_ints.reduced` of the `balas_extension` of two or three seeded
    boxes or simplices, whose k is n' - 1 (circuits) or n' (basic
    solutions). k runs over 3..7; the rows come in shuffled order."""
    for trial in range(trials):
        kind = ("cross", "sums", "balas")[trial % 3]
        if kind == "balas":
            p, n = rng.choice(((2, 1), (2, 2), (3, 1), (2, 3))[last_column_pivots:])
            Q, _ = balas_extension(DisjunctiveFamily.make([_box_or_simplex(rng, n) for _ in range(p)]))
            _, R, np_ = Q._ints.reduced
            if last_column_pivots:
                rows, k, width = [row[:np_] for row in R], np_ - 1, np_
            else:
                rows, k, width = [list(row) for row in R], np_, np_ + 1
        else:
            k = 3 + trial // 3 % 5
            width = k + 1
            free = width if last_column_pivots else width - 1
            rows = []
            if kind == "cross":
                supports = [rng.sample(range(free), rng.randint(2, free)) for _ in range(rng.randint(1, 3))]
                for _ in range(rng.randint(k + 1, k + 6)):
                    row = [0] * width
                    for col in rng.choice(supports):
                        row[col] = rng.choice((-1, 1))
                    if free < width:
                        row[-1] = rng.choice((1, 1, 2))
                    rows.append(row)
            else:
                for _ in range(rng.randint(k + 1, k + 6)):
                    if len(rows) >= 3 and rng.random() < 0.4:
                        picked = rng.sample(rows, rng.choice((2, 3)))
                        rows.append([sum(col) for col in zip(*picked)])
                    else:
                        rows.append([rng.randint(-1, 1) for _ in range(width)])
        rng.shuffle(rows)
        yield rows, k, (width if last_column_pivots else width - 1), width, kind


def _walk_checked(rows, k, ncols, width):
    """The walk's (line, certificate) pairs, its lines those of the per-subset
    reference, each certificate k ascending row indices whose rows have rank
    k in the first `ncols` columns and read 0 on the line; and the
    reference's (prefix, line) count."""
    expected, unpruned = _ref_subset_lines(rows, k, ncols, width)
    walked = list(linalg._subset_lines(rows, k, ncols, width))
    assert {line for line, _ in walked} == expected, (rows, k, ncols)
    for line, cert in walked:
        S = [rows[i] for i in cert]
        assert len(cert) == k and list(cert) == sorted(set(cert)), (rows, line, cert)
        assert rank([r[:ncols] for r in S]) == k, (rows, line, cert)
        assert all(dot(r, line) == 0 for r in S), (rows, line, cert)
    return walked, unpruned


@pytest.mark.parametrize("last_column_pivots", [True, False], ids=["ncols=width", "ncols=width-1"])
def test_subset_lines_match_per_subset_reference(last_column_pivots):
    # The walk carries a fraction-free tableau down its prefixes and stops
    # two rows early (a cross product of three kernel coordinates per pair
    # of later rows); the reference eliminates every k-subset through
    # `kernel_basis`. Each line comes with its certificate: k ascending row
    # indices whose rows have rank k in the first `ncols` columns and read 0
    # on the line. The second half of the trials has up to 11 rows with
    # entries up to 10^3, so the tableau's exact divisions act on large
    # minors, and rows that combine three earlier rows, whose residual on a
    # prefix holding those rows is zero. Then come the seeded degenerate
    # systems of `_degenerate_systems`, k = 3..7.
    rng, seen = random.Random(2601 + last_column_pivots), set()
    for trial in range(300):
        k = 1 + trial % 5
        width = k + 1
        ncols = width if last_column_pivots else width - 1
        large = trial >= 150
        rows = _walk_rows(rng, rng.randint(0, 11 if large else 8), width, seen, large)
        walked, _ = _walk_checked(rows, k, ncols, width)
        if large and len(rows) > 8 and walked:
            seen.add("more than 8 rows")
        if large and any(abs(x) > 100 for line, _ in walked for x in line):
            seen.add("lines with entries over 100")
    assert seen == {
        "random", "zero", "duplicate", "parallel", "dependent", "more than 8 rows", "lines with entries over 100",
    }, seen
    # On degenerate systems many prefixes reach one line. The walk skips a
    # prefix when a row it passed (a child it took before, independent of
    # the prefix rows below it) falls into the prefix's span: no line below
    # has the prefix as the start of its greedy basis. It must still find
    # every line, and on every kind of system yield fewer lines than one per
    # (prefix, line) pair, which is what a walk that skips nothing yields.
    walked, unpruned, ks = Counter(), Counter(), set()
    for rows, k, ncols, width, kind in _degenerate_systems(rng, last_column_pivots, 90):
        lines, pairs = _walk_checked(rows, k, ncols, width)
        walked[kind] += len(lines)
        unpruned[kind] += pairs
        ks.add(k)
    assert ks == {3, 4, 5, 6, 7}, ks
    assert all(walked[kind] < unpruned[kind] for kind in unpruned), (walked, unpruned)


def _greedy_basis(indices, rows, ncols):
    """The first basis of the rows `indices` in their first `ncols` columns:
    each row is kept when it is independent of the rows kept before it."""
    kept = []
    for i in indices:
        if rank([rows[j][:ncols] for j in kept + [i]]) > len(kept):
            kept.append(i)
    return tuple(kept)


@pytest.mark.parametrize("last_column_pivots", [True, False], ids=["ncols=width", "ncols=width-1"])
def test_first_certificates_are_greedy_bases(last_column_pivots):
    # Different subsets reach the same line, and `_certified_lines` keeps the
    # certificate the walk names with it first. That certificate is the
    # lexicographically first basis of the rows that read 0 on the line:
    # those rows in ascending order, each kept when it is independent of the
    # rows kept before it. The lines come first in ascending order of those
    # certificates. The degenerate systems of `_degenerate_systems` follow
    # the random ones: there the walk skips most prefixes, and must never
    # skip the start of a greedy basis.
    rng, checked = random.Random(4301 + last_column_pivots), 0
    systems = []
    for trial in range(600):
        k = 1 + trial % 6
        width = k + 1
        ncols = width if last_column_pivots else width - 1
        systems.append((_walk_rows(rng, rng.randint(0, 9), width, set()), k, ncols, width))
    systems += [system[:4] for system in _degenerate_systems(rng, last_column_pivots, 90)]
    for rows, k, ncols, width in systems:
        first = {}
        for line, cert in linalg._subset_lines(rows, k, ncols, width):
            first.setdefault(line, cert)
        for line, cert in first.items():
            zeros = [i for i, r in enumerate(rows) if not sum(x * v for x, v in zip(r, line))]
            assert cert == _greedy_basis(zeros, rows, ncols), (rows, k, ncols, line, cert)
        assert list(first.values()) == sorted(first.values()), (rows, k, ncols)
        checked += len(first)
    assert checked > 1000, checked


def _ref_rank_upto(rows, r, ncols):
    """The rank of `rows` in their first `ncols` columns, or r once it reaches
    r: one fresh fold per row set."""
    echelon, rank = linalg._EMPTY, 0
    for x in rows:
        if rank >= r:
            break
        step = linalg._insert(*echelon, x, ncols)
        if step is not None:
            echelon = step
            rank += 1
    return rank


def _rank_sets(rng, q, seen):
    """Ascending index sets into q rows: fresh ones, which diverge early from
    the others, and ones that keep a prefix of an earlier set."""
    sets = []
    for _ in range(rng.randint(1, 8)):
        base = rng.choice(sets) if sets and rng.random() < 0.5 else ()
        cut = rng.randint(0, len(base))
        rest = range(base[cut - 1] + 1 if cut else 0, q)
        sets.append(base[:cut] + tuple(sorted(rng.sample(rest, rng.randint(0, len(rest))))))
    ordered = sorted(sets)
    for s, t in zip(ordered, ordered[1:]):
        if s and t and s[0] != t[0]:
            seen.add("diverge at the first row")
        elif s and t and s[0] == t[0] and s != t:
            seen.add("shared prefix")
    if () in sets:
        seen.add("empty set")
    return sets


def test_ranks_reach_matches_a_fold_per_set():
    # `_ranks_reach` folds the sorted sets in one pass, resuming each from the
    # prefix it shares with the set before it and only reducing the row that
    # would reach rank r; the reference folds every set afresh.
    rng, seen = random.Random(2701), set()
    for trial in range(400):
        width = rng.randint(1, 5)
        ncols = width - 1 if width > 1 and rng.random() < 0.5 else width
        rows = _walk_rows(rng, rng.randint(0, 9), width, seen)
        if ncols < width and rows:
            # equal to another row in the first ncols columns only
            for _ in range(rng.randint(1, 2)):
                row = list(rng.choice(rows))
                row[-1] += rng.choice((-2, -1, 1, 3))
                rows.insert(rng.randint(0, len(rows)), row)
            seen.add("ncols < width")
        r = rng.randint(0, ncols)
        seen.add("r = 0" if r == 0 else "r > 0")
        sets = _rank_sets(rng, len(rows), seen)
        passes = [_ref_rank_upto([rows[i] for i in s], r, ncols) >= r for s in sets]
        for s, ok in zip(sets, passes):
            assert (linalg._ranks_reach([s], rows, r, ncols) is None) == ok, (rows, s, r, ncols)
        failing = [p for p, ok in enumerate(passes) if not ok]
        expected = min(failing, key=lambda p: (sets[p], p)) if failing else None
        assert linalg._ranks_reach(sets, rows, r, ncols) == expected, (rows, sets, r, ncols)
        # every passing set and one failing set, in shuffled positions
        good = [s for s, ok in zip(sets, passes) if ok]
        for p in failing:
            mixed = good + [sets[p]]
            rng.shuffle(mixed)
            at = mixed.index(sets[p])
            assert linalg._ranks_reach(mixed, rows, r, ncols) == at, (rows, mixed, r, ncols)
            place = sorted(mixed).index(sets[p])
            if len(set(mixed)) > 2:
                seen.add("fails first" if place == 0 else "fails last" if sets[p] == max(mixed) else "fails in the middle")
    assert seen == {
        "random", "zero", "duplicate", "parallel", "dependent", "ncols < width", "r = 0", "r > 0",
        "diverge at the first row", "shared prefix", "empty set", "fails first", "fails in the middle", "fails last",
    }, seen


def _ref_start_rays(rows, width):
    """The start cone's rays as one fold per ray gave them: the kernel of the
    start rows but one, oriented so that the row left out reads > 0."""
    start, _ = linalg._independent(rows, width)
    rays = []
    for i in start:
        (v,) = linalg._kernel(linalg._independent([rows[j] for j in start if j != i], width)[1], width)
        rays.append(v if dot(rows[i], v) > 0 else [-x for x in v])
    return rays


def test_start_rays_match_a_fold_per_ray(monkeypatch):
    # Rows of which exactly `width` are independent, and the others positive
    # multiples of earlier rows, cut a simplicial cone: the double
    # description keeps its start rays. They come from one elimination of
    # the start rows augmented with the identity (`_independent`, the only
    # call with rows twice `width` wide); the reference folds the other rows
    # of each ray afresh. The elimination's det takes both signs.
    rng = random.Random(4200)
    independent, dets = polyhedron._independent, []

    def recording(rows, ncols):
        picked, echelon = independent(rows, ncols)
        if len(rows[0]) == 2 * ncols:
            dets.append(echelon[2])
        return picked, echelon

    monkeypatch.setattr(polyhedron, "_independent", recording)
    checked = 0
    while checked < 60:
        width = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(width)]
        if len(linalg._independent(rows, width)[0]) < width:
            continue
        for _ in range(rng.randint(0, 2)):
            i, c = rng.randrange(len(rows)), rng.randint(1, 3)
            rows.insert(rng.randint(i + 1, len(rows)), [c * x for x in rows[i]])
        assert polyhedron._extreme_rays(rows, width)[0] == _ref_start_rays(rows, width), rows
        checked += 1
    assert min(dets) < 0 < max(dets)


def _thm5_cube3_extension():
    """The Balas extension of the unit cube that thm5 builds for the direction
    (1, 1, 0), n = 24 with 15 equality and 14 inequality rows, as the
    benchmark stores it (`non_inheriting_extension(hypercube(3), (1, 1, 0))`)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "thm5_cube3_110.json"
    return json.loads(path.read_text())["extension"]


@pytest.mark.parametrize(
    "run, steps, walked",
    [
        (lambda: enumerate_circuits(homogenize(cropped_cross_polytope(3))), 85, (211, 151)),
        (lambda: basic_solutions(cropped_cross_polytope(3)), 235, (172, 142)),
        (lambda: edge_directions(hypercube(3)), 22, (0, 0)),
        (lambda: enumerate_circuits(HPolyhedron.make(**_thm5_cube3_extension())), 168, (160, 58)),
    ],
    ids=["circuits-hom-ccp3", "basic-solutions-ccp3", "edges-cube3", "circuits-thm5-cube3"],
)
def test_subset_work_is_pinned(monkeypatch, run, steps, walked):
    # Every elimination of a whole matrix or of a row set is a sequence of
    # linalg._insert steps. A whole matrix is eliminated by
    # `linalg._independent`, which stops once its rank fills the columns that
    # can pivot. The steps include the rank test of every circuit line and
    # basic solution on its certificate rows and of every vertex on its own
    # tight rows (linalg._ranks_reach, one pass over the sorted row sets that
    # resumes each from the echelon form of the prefix it shares with the set
    # before it; the last row of each check is reduced, not inserted), and
    # the start cone of the double description, one fold of its n' + 1 rows
    # augmented with the identity (cube3: 4 steps, where one fold per ray
    # took 12); edges are decided by tight-row masks, with no rank test. Of
    # ccp3's 235 basic-solution steps, 157 name the dominating point of each
    # sampled non-basic midpoint: its tight rows, then the others, are
    # inserted greedily until they reach rank n' (`linalg._independent`),
    # whose echelon form gives the kernel line with no fold of its own.
    # The subset walk (`linalg._subset_lines`) takes no _insert step: it
    # updates its own tableau of residuals at each prefix, so its work is
    # pinned by what it yields, lines against distinct lines. It skips every
    # prefix in whose span a row it passed falls, and no such prefix starts
    # the greedy basis of a line. The repeats that remain come from prefixes
    # whose passed rows read 0 on the line but lie outside the prefix's own
    # span, in that of a whole subset (thm5's cube3 lift: 160 lines for 58,
    # where a walk that skips nothing yields 560). A change that visits more
    # subsets, eliminates more rows or yields more lines must update these
    # counts on purpose.
    calls, lines = [], []
    insert, subset_lines = linalg._insert, polyhedron._subset_lines

    def counting(*args):
        calls.append(None)
        return insert(*args)

    def recording(*args):
        for line, cert in subset_lines(*args):
            lines.append(line)
            yield line, cert

    monkeypatch.setattr(linalg, "_insert", counting)
    monkeypatch.setattr(polyhedron, "_subset_lines", recording)
    run()
    assert len(calls) == steps
    assert (len(lines), len(set(lines))) == walked


def test_walks_and_rank_tests_read_the_reduced_rows(monkeypatch):
    # The equality block is eliminated once per description: its rows
    # [a | rhs], n + 1 wide, are folded once into `_ints.reduced`, and every
    # rank test and double description step after that inserts reduced
    # rows, with at most n' + 1 columns that can pivot; the subset walks
    # read the reduced rows through their own tableau and the edge walk
    # inserts none, and the last row of each rank test is reduced, not
    # inserted. The double description's start cone folds its n' + 1 rows
    # once, each augmented with a row of the identity: 2(n' + 1) wide, of
    # which n' + 1 columns can pivot.
    # transportation(5, 2, (1, 4)) has n = 10 and seven equality rows of
    # rank 6, so n' = 4. The rows n wide are the Fraction `rank` of [A; B]
    # in `is_pointed`, which stops at rank 10, on the 11th row. Of the 323
    # steps, 209 name the dominating point of
    # each non-basic midpoint that `basic_solutions` samples: a greedy pass
    # over the reduced rows to rank n' (`linalg._independent`), whose
    # echelon form gives the point's kernel line with no second fold.
    P = transportation(5, 2, (1, 4))
    widths = []
    insert = linalg._insert

    def recording(rows, pivots, det, x, ncols):
        widths.append((len(x), ncols))
        return insert(rows, pivots, det, x, ncols)

    monkeypatch.setattr(linalg, "_insert", recording)
    basic_solutions(P)
    vrep(P)
    edge_directions(P)
    wide = Counter(w for w in widths if w[0] > 5)
    assert wide == {(11, 11): len(P.A), (10, 10): 11, (10, 5): 5}
    assert len(widths) == 323


def test_circuit_lines_are_checked_on_their_certificates_alone(monkeypatch):
    # Each circuit line is checked on the n'-1 rows the walk names with it,
    # not on every row that reads 0 on it: the one `_ranks_reach` pass of
    # `_circuit_lines` (in `_certified_lines`) receives one set of exactly
    # n'-1 rows per line.
    # hom(ccp3) has n' = 4, and 39 of its 151 lines read 0 on 4 to 7 rows.
    received = []
    ranks_reach = polyhedron._ranks_reach

    def recording(sets, rows, r, ncols):
        received.append(sets)
        return ranks_reach(sets, rows, r, ncols)

    monkeypatch.setattr(polyhedron, "_ranks_reach", recording)
    C = enumerate_circuits(homogenize(cropped_cross_polytope(3)))
    (sets,) = received
    assert len(sets) == len(C) and {len(s) for s in sets} == {3}
