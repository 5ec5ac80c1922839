"""Scripted reproductions of the headline computations.

Each experiment re-derives one published claim from scratch, records a list
of machine-checkable claims (expected vs observed, exact values only), and
persists every intermediate object as JSON under a run directory.  One run
is one `Recorder`: `run_experiment` opens it, the experiment records into it,
and `run_experiment` finishes it, writing `result.json`, and returns it.  The
same functions back both the command-line `reproduce` verb and the acceptance
test suite, so there is exactly one implementation of each check.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import jsonio
from .circuits import (
    basic_solutions,
    circuits_of_homogenization,
    enumerate_circuits,
    enumerate_circuits_bruteforce,
)
from .constructions import (
    PartitionInstance,
    cropped_cross_polytope,
    find_alpha_projection,
    hypercube,
    non_inheriting_extension,
    orthant,
    partition_projection,
    perturbed_simple_4polytope,
    pi_matrix,
    pi_prime_matrix,
    simplex,
    tau_transfer,
    transportation,
)
from .directions import CircuitSet
from .errors import BudgetExceeded, PolyhedronError, PreconditionViolation
from .inheritance import (
    ALL_INHERITED,
    NOT_ALL_INHERITED,
    _descriptions_match,
    balas_circuit_prediction,
    check_inheritance,
    verify_cartesian_law,
    verify_hom_law,
    verify_isomorphism_law,
    verify_slack_law,
)
from .linalg import (
    dot,
    mat_vec,
    matmul,
    matrix,
    rank,
    unit_vector,
    vec_sub,
    vector,
    zero_vector,
)
from .polyhedron import (
    HPolyhedron,
    LinearMap,
    _project,
    edge_directions,
    is_pointed,
    minimize_description,
    preimage_description,
    project,
    vrep,
)


@dataclass(frozen=True)
class Claim:
    description: str
    expected: object
    observed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.observed

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }


class Recorder:
    """The record of one run: the parameters, claims and artifacts an experiment
    records under one run directory, and, once `finish`ed, its runtime and
    error, written as `result.json`."""

    def __init__(self, experiment: str, parameters: dict, out_dir):
        self.experiment = experiment
        self.parameters = parameters
        self.out_dir = os.fspath(out_dir)
        self.claims: list[Claim] = []
        self.artifacts: list[str] = []
        self.runtime_seconds = 0.0
        self.error = ""
        self._start = time.monotonic()

    def claim(self, description: str, expected, observed) -> None:
        self.claims.append(Claim(description, expected, observed))

    def _path(self, filename: str) -> str:
        # the directory is made on the first write, so an input error leaves none
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, filename)

    def save(self, stem: str, payload: dict) -> None:
        path = self._path(f"{stem}.json")
        jsonio.dump(payload, path)
        self.artifacts.append(path)

    @property
    def passed(self) -> bool:
        return not self.error and all(c.passed for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "claims": [c.to_dict() for c in self.claims],
            "pass": self.passed,
            "runtime_seconds": self.runtime_seconds,
            "artifacts": self.artifacts,
            "error": self.error,
        }

    def finish(self, error: str = "") -> Recorder:
        self.runtime_seconds = time.monotonic() - self._start
        self.error = error
        # runtime_seconds varies run to run; every other byte is stable
        jsonio.dump(self.to_dict(), self._path("result.json"))
        return self


# ---------------------------------------------------------------------------
# experiments


def run_thm1(params: dict, rec: Recorder) -> None:
    """Bounded and conic images of one projection: facet and vertex counts,
    the non-inherited witnesses, and the inherited-equals-edges identity."""
    n = int(params.get("n", 3))
    m = int(params.get("m", 4))
    rec.parameters = {"n": n, "m": m}
    pi = pi_matrix(n, m)
    rec.save("projection", jsonio.map_to_dict(pi))
    e3 = unit_vector(n, 2)
    e12 = vector([1, -1] + [0] * (n - 2))

    S = simplex(m)
    rep = check_inheritance(S, pi)
    P = rep.P.renamed(f"simplex_image_{n}_{m}")
    rec.save("simplex_domain", jsonio.poly_to_dict(S))
    rec.save("simplex_image", jsonio.poly_to_dict(P))
    rec.save("simplex_report", jsonio.report_to_dict(rep))
    rec.claim("bounded image is full-dimensional", 0, len(P.A))
    rec.claim(f"bounded image has n+2 = {n + 2} facets", n + 2, len(P.B))
    rec.claim(f"bounded image has n+2 = {n + 2} vertices", n + 2, len(vrep(rep.P).vertices))
    rec.claim("e3 is a circuit of the bounded image", True, e3 in rep.P_circuits)
    rec.claim("e3 is not inherited from the simplex", True, e3 in rep.non_inherited)
    rec.claim(
        "inherited circuits of the bounded image are exactly its edge directions",
        True,
        rep.inherited_equals_edges,
    )

    O = orthant(m)
    repc = check_inheritance(O, pi)
    R = repc.P.renamed(f"orthant_image_{n}_{m}")
    V = vrep(repc.P)
    rec.save("orthant_image", jsonio.poly_to_dict(R))
    rec.save("orthant_report", jsonio.report_to_dict(repc))
    rec.claim("cone image is full-dimensional", 0, len(R.A))
    rec.claim(f"cone image has n+1 = {n + 1} facets", n + 1, len(R.B))
    rec.claim(f"cone image has n+1 = {n + 1} extreme rays", n + 1, len(V.rays))
    rec.claim(
        "cone image has the origin as its only vertex",
        True,
        list(V.vertices) == [vector(zero_vector(n))],
    )
    rec.claim(
        "projected orthant circuits are exactly the cone's edge directions",
        True,
        set(repc.projected) == set(repc.edge_dirs),
    )
    rec.claim("conic: e3 is not inherited", True, e3 in repc.non_inherited)
    rec.claim("conic: e1 - e2 is not inherited", True, e12 in repc.non_inherited)


def run_zonotope(params: dict, rec: Recorder) -> None:
    """Cube images: inherited circuits collapse to the edge directions."""
    rec.parameters = {}
    for n, m in ((3, 4), (4, 6)):
        pi = pi_matrix(n, m)
        rep = check_inheritance(hypercube(m), pi)
        rec.save(f"report_{n}_{m}", jsonio.report_to_dict(rep))
        e3 = unit_vector(n, 2)
        rec.claim(
            f"cube image under the {n}x{m} map inherits exactly its edge directions",
            True,
            rep.inherited_equals_edges,
        )
        rec.claim(f"{n}x{m}: e3 is a non-inherited circuit", True, e3 in rep.non_inherited)


def run_thm2(params: dict, rec: Recorder) -> None:
    """Cropped cross-polytope: vertex count, box-corner basic solutions, and
    the circuit surplus of the homogenization over the orthant extension."""
    n = int(params.get("n", 3))
    delta = Fraction(params.get("delta", Fraction(3, 4)))
    rec.parameters = {"n": n, "delta": str(delta)}

    Qp = cropped_cross_polytope(n, delta)
    CH, split = circuits_of_homogenization(Qp)
    verts = vrep(Qp).lines  # by double description, apart from the walks of CH
    basics = split.point_class
    rec.save("cropped", jsonio.poly_to_dict(Qp))
    rec.claim(f"vertex count is 4n(n-1) = {4 * n * (n - 1)}", 4 * n * (n - 1), len(verts))

    corners = [vector(s) for s in itertools.product((-delta, delta), repeat=n)]
    rec.save("basic_solutions", jsonio.basics_to_dict(basics))
    rec.claim(
        f"all {2 ** n} box corners are basic solutions",
        2 ** n,
        sum(c in basics for c in corners),
    )

    if n == 3:
        # circuits_of_homogenization has checked that the two classes are the
        # circuits and the basic solutions of Qp; nothing may be left over
        rec.claim(
            "homogenization circuits split into circuits and basic solutions",
            True,
            len(split.direction_class) + len(split.point_class) == len(CH),
        )

    rec.save("hom_circuits", jsonio.circuits_to_dict(CH))
    lifted = CircuitSet(directions=tuple(sorted(verts)))
    rec.claim(
        "orthant extension contributes one inherited line per vertex",
        len(verts),
        len(lifted),
    )
    rec.claim(
        "every inherited line is a homogenization circuit",
        True,
        all(g in CH for g in lifted),
    )
    gap = len(CH) - len(verts)
    rec.claim("circuit count strictly exceeds the inherited count", True, gap > 0)
    if n >= 4:
        Qprev = cropped_cross_polytope(n - 1, delta)
        CH_prev, _ = circuits_of_homogenization(Qprev)
        rec.claim(
            f"circuit surplus grows from n={n - 1} to n={n}", True, len(CH_prev) - len(vrep(Qprev).lines) < gap
        )


def run_partpoly(params: dict, rec: Recorder) -> None:
    """Clustering projection of the transportation system: its image has new
    circuits even though every circuit of the source is an edge direction."""
    if int(params.get("n", 5)) != 5:
        raise PreconditionViolation("only the five-point clustering instance is scripted")
    rec.parameters = {"n": 5, "k": 2, "sizes": [1, 4]}
    P3 = project(simplex(4), pi_matrix(3, 4))
    X = sorted(vrep(P3).vertices)
    rec.claim("the point set has five points in R^3", (5, 3), (len(X), len(X[0])))

    inst = PartitionInstance.make(X, 2, (1, 4))
    T = transportation(5, 2, (1, 4))
    piX = partition_projection(inst)
    rec.save("transportation", jsonio.poly_to_dict(T))
    rec.save("cluster_projection", jsonio.map_to_dict(piX))

    # the report holds T's circuits, and T keeps the vertices it computed
    rep = check_inheritance(T, piX)
    CT = rep.Q_circuits
    rec.save("source_circuits", jsonio.circuits_to_dict(CT))
    rec.claim(
        "every circuit of the transportation system is an edge direction",
        True,
        set(CT) == set(edge_directions(T)),
    )

    rec.save("report", jsonio.report_to_dict(rep))
    rec.claim("the projected clustering polytope has non-inherited circuits",
              NOT_ALL_INHERITED, rep.verdict)
    rec.claim("at least one witness", True, len(rep.non_inherited) > 0)


def _random_full_rank_map(rng: random.Random, rows: int, cols: int) -> LinearMap:
    while True:
        M = matrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        if rank(M) == rows:
            return LinearMap(M, name=f"random_{rows}x{cols}")


def run_thm3(params: dict, rec: Recorder) -> None:
    """Transfer the known counterexample onto a random surjection R^5 -> R^3
    via an invertible change of coordinates."""
    seed = int(params.get("seed", 0))
    rec.parameters = {"seed": seed}
    rng = random.Random(seed)
    pi = _random_full_rank_map(rng, 3, 5)
    rec.save("target_map", jsonio.map_to_dict(pi))
    rec.claim("map is surjective", 3, rank(pi.matrix))
    rec.claim("map is not injective", True, len(pi.matrix[0]) > len(pi.matrix))

    sigma = pi_matrix(3, 5)
    tau = tau_transfer(pi, sigma)
    rec.save("transfer", jsonio.map_to_dict(tau))
    rec.claim("transfer satisfies sigma . tau = pi", True, matmul(sigma.matrix, tau.matrix) == pi.matrix)
    rec.claim("transfer is invertible", 5, rank(tau.matrix))

    Qt = preimage_description(simplex(5), tau).renamed(f"transferred_domain_seed{seed}")
    rec.save("transferred_domain", jsonio.poly_to_dict(Qt))
    rep = check_inheritance(Qt, pi)
    rec.save("report", jsonio.report_to_dict(rep))
    rec.claim("the image has non-inherited circuits", NOT_ALL_INHERITED, rep.verdict)
    rec.claim(
        "inherited circuits are exactly the image's edge directions",
        True,
        rep.inherited_equals_edges,
    )


def run_thm5(params: dict, rec: Recorder) -> None:
    """Single-direction exclusion: for every target polytope and non-edge
    direction, the disjunctive extension projects no circuit onto it."""
    rec.parameters = {}
    P3 = project(simplex(4), pi_matrix(3, 4)).renamed("simplex_image_3_4")
    cases: list[tuple[HPolyhedron, list]] = []
    non_edge = sorted(set(enumerate_circuits(P3)) - set(edge_directions(P3)))
    cases.append((P3, non_edge))
    # boxes have no non-edge circuits; diagonals exercise the construction
    cases.append((hypercube(2).renamed("square"), [vector((1, 1))]))
    cases.append((hypercube(3).renamed("cube"), [vector((1, 1, 0)), vector((1, 1, 1))]))

    for P, directions in cases:
        rec.claim(f"{P.name}: found at least one target direction", True, len(directions) > 0)
        for g in directions:
            tag = f"{P.name}_{'_'.join(str(int(x)) for x in g)}"
            ext = non_inheriting_extension(P, g)
            rec.save(f"ext_{tag}", jsonio.poly_to_dict(ext.polyhedron))
            rec.save(f"proj_{tag}", jsonio.map_to_dict(ext.projection))
            # every target is a polytope, so ext.polyhedron is the Balas lift
            # of ext.family; its circuits are cached from the certificate
            CQ = enumerate_circuits(ext.polyhedron)
            projected = ext.projection.image_directions(CQ)
            rec.claim(
                f"{P.name}: direction {tuple(int(x) for x in g)} is not projected",
                False,
                g in projected,
            )
            rec.claim(
                f"{P.name}: lifted circuit classes verified for {tuple(int(x) for x in g)}",
                True,
                set(CQ) == set(balas_circuit_prediction(ext.family)),
            )


def run_thm6(params: dict, rec: Recorder) -> None:
    """Scaled-projection search: a witness circuit of the image that no
    circuit of the domain maps onto."""
    seed = int(params.get("seed", 0))
    rec.parameters = {"seed": seed}
    cases = [hypercube(4), simplex(4), perturbed_simple_4polytope(seed)]
    for Q in cases:
        alpha, pi, CQ, CP = find_alpha_projection(Q)
        rec.save(f"domain_{Q.name}", jsonio.poly_to_dict(Q))
        rec.save(f"projection_{Q.name}", jsonio.map_to_dict(pi))
        rec.claim(f"{Q.name}: search terminated at an integer scale", True, alpha >= 2)
        m = Q.n
        k1 = vector([-1, alpha] + [0] * (m - 2))
        k2 = vector([0, 0, -1, alpha] + [0] * (m - 4))
        clean = not any(rank(matrix([k1, k2, c])) == 2 for c in CQ)
        rec.claim(f"{Q.name}: no circuit lies in the selected plane", True, clean)
        e3 = unit_vector(m - 1, 2)
        rec.claim(
            f"{Q.name}: witness is a circuit of the image",
            True,
            e3 in CP,
        )
        rec.claim(
            f"{Q.name}: witness is not the image of any circuit",
            False,
            e3 in pi.image_directions(CQ),
        )


def run_lemma17(params: dict, rec: Recorder) -> None:
    """The positive instance: full inheritance without affine triviality."""
    rec.parameters = {"n": 3, "m": 6}
    pi = pi_prime_matrix(3, 6)
    S = simplex(6)
    rep = check_inheritance(S, pi)
    P = rep.P.renamed("prime_image_3_6")
    rec.save("image", jsonio.poly_to_dict(P))
    rec.save("projection", jsonio.map_to_dict(pi))
    rec.save("report", jsonio.report_to_dict(rep))

    rec.claim("every circuit of the image is inherited", ALL_INHERITED, rep.verdict)
    rec.claim("image has exactly 6 facets", 6, len(P.B) + 2 * len(P.A))
    expected_system = HPolyhedron.make(
        3,
        B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1], [1, 1, -1], [-1, -1, 1]],
        d=[0, 0, 0, 1, 1, 0],
        name="prime_image_reference",
    )
    rec.claim(
        "image equals the reference six-row system as a point set",
        True,
        _descriptions_match(P, expected_system),
    )
    e3 = vector((0, 0, 1))
    rec.claim("e3 is a circuit of the image", True, e3 in rep.P_circuits)
    rec.claim("e3 is not an edge direction", False, e3 in rep.edge_dirs)
    rec.claim(
        "image is not the simplex: facet counts differ",
        True,
        len(P.B) != len(simplex(6).B),
    )


# ---------------------------------------------------------------------------
# randomized law suites


def _random_polytope(rng: random.Random, n: int, extra: int = 2) -> HPolyhedron:
    """Box around the origin cut by a few random halfspaces through it."""
    eye = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows = [[-x for x in r] for r in eye] + [list(r) for r in eye]
    rhs = [0] * n + [rng.randint(1, 3) for _ in range(n)]
    for _ in range(extra):
        row = [rng.randint(-2, 2) for _ in range(n)]
        if any(row):
            rows.append(row)
            rhs.append(rng.randint(0, 4))
    return HPolyhedron.make(n, B=rows, d=rhs, name=f"rand{n}")


def _random_pointed(rng: random.Random, n: int) -> HPolyhedron:
    """Possibly unbounded: the orthant cut by a few random halfspaces."""
    rows = [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    rhs = [0] * n
    for _ in range(rng.randint(1, 2)):
        row = [rng.randint(-2, 2) for _ in range(n)]
        if any(row):
            rows.append(row)
            rhs.append(rng.randint(0, 3))
    return HPolyhedron.make(n, B=rows, d=rhs, name=f"randcone{n}")


def _random_system(rng: random.Random, max_dim: int = 6) -> HPolyhedron:
    """Arbitrary small description, not necessarily feasible or pointed."""
    n = rng.randint(1, max_dim)
    p = rng.randint(0, 1)
    q = rng.randint(1, min(8, n + 4))
    A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(p)]
    b = [rng.randint(-2, 2) for _ in range(p)]
    B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(q)]
    d = [rng.randint(-2, 2) for _ in range(q)]
    return HPolyhedron.make(n, A=A, b=b, B=B, d=d)


def law_cartesian(rng: random.Random) -> bool:
    n1, n2 = rng.randint(1, 2), rng.randint(1, 3)
    P1 = _random_polytope(rng, n1, extra=1) if rng.random() < 0.7 else _random_pointed(rng, n1)
    P2 = _random_polytope(rng, n2, extra=1)
    return verify_cartesian_law(P1, P2)


def law_slack(rng: random.Random) -> bool:
    P = minimize_description(_random_polytope(rng, rng.randint(2, 3)))
    return verify_slack_law(P)


def law_hom(rng: random.Random) -> bool:
    n = rng.randint(1, 3)
    P = _random_polytope(rng, n) if rng.random() < 0.7 else _random_pointed(rng, n)
    return verify_hom_law(minimize_description(P))


def law_edge_inheritance(rng: random.Random) -> bool:
    Q = _random_polytope(rng, rng.randint(2, 3), extra=1)
    k = rng.randint(1, Q.n)
    pi = _random_full_rank_map(rng, k, Q.n)
    # check_inheritance raises if an image edge direction is not inherited
    rep = check_inheritance(Q, pi)
    inherited, non_inherited = set(rep.inherited), set(rep.non_inherited)
    ok = inherited | non_inherited == set(rep.P_circuits)
    ok = ok and not inherited & non_inherited
    return ok and set(rep.edge_dirs) <= inherited


def law_isomorphism(rng: random.Random) -> bool:
    n = rng.randint(2, 3)
    P = _random_polytope(rng, n, extra=1)
    M = _random_full_rank_map(rng, n, n)
    return verify_isomorphism_law(P, M)


def law_dimension_triviality(rng: random.Random) -> bool:
    if rng.random() < 0.5:
        # a domain of dimension at most three inherits everything
        Q = _random_polytope(rng, 3, extra=1)
        k = rng.randint(1, 3)
        pi = _random_full_rank_map(rng, k, 3)
    else:
        # an image of dimension at most two inherits everything
        Q = _random_polytope(rng, 4, extra=1)
        pi = _random_full_rank_map(rng, 2, 4)
    return check_inheritance(Q, pi).verdict == ALL_INHERITED


def law_oracle(rng: random.Random) -> bool:
    P = _random_system(rng)
    fast = enumerate_circuits(P)
    slow = enumerate_circuits_bruteforce(P)
    return fast.same_lines(slow)


def law_two_route_projection(rng: random.Random) -> bool:
    """`project`, by incidence here, against its LP route `_project(Q, pi, None)`
    on a pointed Q (bounded or not) under a map with fractional entries: the
    two descriptions are equal, every image of a vertex or ray of Q satisfies
    it, and every vertex of the image is the image of a vertex of Q."""
    n = rng.randint(2, 4)
    Q = _random_polytope(rng, n, extra=1) if rng.random() < 0.5 else _random_pointed(rng, n)
    k = rng.randint(1, n)
    pi = LinearMap(matrix([[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
                           for _ in range(k)]))
    V = vrep(Q)
    P = project(Q, pi)
    if P != _project(Q, pi, None):
        return False
    cone = HPolyhedron(k, P.A, zero_vector(len(P.A)), P.B, zero_vector(len(P.B)))
    if not (all(P.contains(pi(v)) for v in V.vertices) and all(cone.contains(pi(w)) for w in V.rays)):
        return False
    return not is_pointed(P) or set(vrep(P).vertices) <= {pi(v) for v in V.vertices}


def law_two_route_vertices(rng: random.Random) -> bool:
    """Double description against the subset walks, on a pointed P, bounded or
    not, with or without equality rows and a redundant row: the vertices of
    `vrep` are the basic solutions that P contains, its rays are the
    sign-consistent circuits oriented so that B r <= 0, and `edge_directions`
    holds those rays and u - v for each pair of those basic solutions whose
    common tight rows reach rank n - 1 together with the equality rows."""
    n = rng.randint(2, 4)
    Q = _random_polytope(rng, n, extra=1) if rng.random() < 0.5 else _random_pointed(rng, n)
    B, d = list(Q.B), list(Q.d)
    if rng.random() < 0.5:  # implied by two other rows
        i, j = rng.sample(range(len(B)), 2)
        B.append([x + y for x, y in zip(B[i], B[j])])
        d.append(d[i] + d[j] + rng.randint(0, 1))
    x0 = vector(Fraction(rng.randint(0, 2), rng.choice((2, 3))) for _ in range(n))
    if not Q.contains(x0):
        x0 = zero_vector(n)  # the origin is a point of every random Q
    A = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(n)] for _ in range(rng.randint(0, 2))]
    P = HPolyhedron.make(n, A, [dot(row, x0) for row in A], B, d)
    V = vrep(P)
    sols = basic_solutions(P)
    vertices = [(v, x) for v, x in zip(sols.lines, sols.points) if P.contains(x)]
    if V.lines != tuple(v for v, _ in vertices):
        return False
    rays = []
    for g in enumerate_circuits(P):
        reads = mat_vec(P.B, g)
        if all(x <= 0 for x in reads):
            rays.append(g)
        elif all(x >= 0 for x in reads):
            rays.append(tuple(-x for x in g))
    if V.rays != tuple(sorted(rays)):
        return False
    edges = list(rays)
    for (_, u), (_, v) in itertools.combinations(vertices, 2):
        common = set(P.tight_inequality_rows(u)) & set(P.tight_inequality_rows(v))
        rows = P.A + tuple(P.B[i] for i in sorted(common))
        if rank(rows) == n - 1:
            edges.append(vec_sub(u, v))
    return edge_directions(P) == CircuitSet.of(edges)


LAW_SUITES: dict[str, Callable[[random.Random], bool]] = {
    "cartesian": law_cartesian,
    "slack": law_slack,
    "hom": law_hom,
    "edge_inheritance": law_edge_inheritance,
    "isomorphism": law_isomorphism,
    "dimension_triviality": law_dimension_triviality,
    "oracle": law_oracle,
    "two_route_projection": law_two_route_projection,
    "two_route_vertices": law_two_route_vertices,
}


def run_laws(params: dict, rec: Recorder) -> None:
    """Randomized law suites: every identity on every seeded instance."""
    seed = int(params.get("seed", 0))
    count = int(params.get("count", 100))
    rec.parameters = {"seed": seed, "count": count}
    for suite_index, (name, fn) in enumerate(sorted(LAW_SUITES.items())):
        failures = []
        for i in range(count):
            rng = random.Random(seed * 1_000_003 + suite_index * 10_007 + i)
            try:
                ok = fn(rng)
            except BudgetExceeded:
                raise
            except PolyhedronError:
                ok = False
            if not ok:
                failures.append(i)
        rec.claim(f"{name}: failures out of {count} seeded instances", [], failures)


EXPERIMENTS: dict[str, Callable[[dict, Recorder], None]] = {
    "thm1": run_thm1,
    "thm2": run_thm2,
    "zonotope": run_zonotope,
    "partpoly": run_partpoly,
    "thm3": run_thm3,
    "thm5": run_thm5,
    "thm6": run_thm6,
    "lemma17": run_lemma17,
    "laws": run_laws,
}


def run_experiment(name: str, params: dict, out_dir) -> Recorder:
    """Run one experiment into the `Recorder` opened here and finish it.

    The experiment replaces the raw parameters with the ones it records; on
    a blown budget the record is finished as it stands, a partial log of the
    claims and artifacts recorded so far, and holds the raw parameters if the
    budget ran out before the experiment set its own."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}")
    rec = Recorder(name, dict(params), out_dir)
    try:
        EXPERIMENTS[name](params, rec)
    except BudgetExceeded as exc:
        return rec.finish(error=f"budget exceeded: {exc}")
    return rec.finish()
