"""Acceptance suite.

One test per published claim bundle, one printed pass/fail line each.
Every expected value is exact; there are no tolerances anywhere.  The
tests drive the same experiment runners as the `reproduce` verb, so a
green run here certifies the command-line artifacts as well.
"""

import time

import pytest

from polycircuits.experiments import run_experiment

PAIRS = ((3, 4), (3, 5), (4, 5), (4, 6), (5, 6))


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _failed(result) -> list[str]:
    return [c.description for c in result.claims if not c.passed] + (
        [result.error] if result.error else []
    )


@pytest.fixture(scope="module")
def thm1_runs(tmp_path_factory):
    """One run per (n, m) pair, shared by the bounded and conic criteria."""
    base = tmp_path_factory.mktemp("thm1")
    runs = {}
    for n, m in PAIRS:
        start = time.monotonic()
        result = run_experiment("thm1", {"n": n, "m": m}, base / f"{n}_{m}")
        runs[(n, m)] = (result, time.monotonic() - start)
    return runs


def test_criterion_01_bounded_images(thm1_runs):
    problems = []
    for (n, m), (result, seconds) in thm1_runs.items():
        bad = [
            c.description
            for c in result.claims
            if not c.passed and "cone" not in c.description and "conic" not in c.description
            and "orthant" not in c.description
        ]
        if bad:
            problems.append(f"({n},{m}): {bad}")
        if seconds >= 10.0:
            problems.append(f"({n},{m}): took {seconds:.1f}s")
    _verdict(1, "simplex images: counts and non-inherited witness", not problems, "; ".join(problems))


def test_criterion_02_conic_images(thm1_runs):
    problems = []
    for (n, m), (result, seconds) in thm1_runs.items():
        bad = [
            c.description
            for c in result.claims
            if not c.passed and ("cone" in c.description or "conic" in c.description
                                 or "orthant" in c.description)
        ]
        if bad:
            problems.append(f"({n},{m}): {bad}")
        if seconds >= 10.0:
            problems.append(f"({n},{m}): took {seconds:.1f}s")
    _verdict(2, "orthant images: counts and non-inherited witnesses", not problems, "; ".join(problems))


def test_criterion_03_cube_images(tmp_path):
    start = time.monotonic()
    result = run_experiment("zonotope", {}, tmp_path)
    seconds = time.monotonic() - start
    ok = result.passed and seconds < 30.0
    _verdict(3, "cube images inherit exactly their edge directions", ok,
             "; ".join(_failed(result)) or f"took {seconds:.1f}s")


def test_criterion_04_cropped_cross_polytopes(tmp_path):
    problems = []
    for n, limit in ((3, 300.0), (4, 300.0)):
        start = time.monotonic()
        result = run_experiment("thm2", {"n": n}, tmp_path / str(n))
        seconds = time.monotonic() - start
        problems += [f"n={n}: {d}" for d in _failed(result)]
        if seconds >= limit:
            problems.append(f"n={n}: took {seconds:.1f}s")
    _verdict(4, "cropped cross-polytopes: vertex counts and circuit surplus",
             not problems, "; ".join(problems))


def test_criterion_05_clustering_projection(tmp_path):
    start = time.monotonic()
    result = run_experiment("partpoly", {}, tmp_path)
    seconds = time.monotonic() - start
    ok = result.passed and seconds < 600.0
    _verdict(5, "clustering projection produces new circuits", ok,
             "; ".join(_failed(result)) or f"took {seconds:.1f}s")


def test_criterion_06_transferred_counterexamples(tmp_path):
    problems = []
    for seed in range(5):
        start = time.monotonic()
        result = run_experiment("thm3", {"seed": seed}, tmp_path / str(seed))
        seconds = time.monotonic() - start
        problems += [f"seed {seed}: {d}" for d in _failed(result)]
        if seconds >= 60.0:
            problems.append(f"seed {seed}: took {seconds:.1f}s")
    _verdict(6, "random surjections onto transferred counterexamples",
             not problems, "; ".join(problems))


def test_criterion_07_single_direction_exclusion(tmp_path):
    start = time.monotonic()
    result = run_experiment("thm5", {}, tmp_path)
    seconds = time.monotonic() - start
    # four cases, each budgeted at two minutes
    ok = result.passed and seconds < 480.0
    _verdict(7, "disjunctive extensions exclude each target direction", ok,
             "; ".join(_failed(result)) or f"took {seconds:.1f}s")


def test_criterion_08_scaled_projection_search(tmp_path):
    start = time.monotonic()
    result = run_experiment("thm6", {"seed": 0}, tmp_path)
    seconds = time.monotonic() - start
    # three cases, each budgeted at two minutes
    ok = result.passed and seconds < 360.0
    _verdict(8, "scale search finds a clean witness plane", ok,
             "; ".join(_failed(result)) or f"took {seconds:.1f}s")


def test_criterion_09_positive_instance(tmp_path):
    start = time.monotonic()
    result = run_experiment("lemma17", {}, tmp_path)
    seconds = time.monotonic() - start
    ok = result.passed and seconds < 30.0
    _verdict(9, "six-facet image inherits everything without being a simplex", ok,
             "; ".join(_failed(result)) or f"took {seconds:.1f}s")


def test_criterion_10_law_suites(tmp_path):
    start = time.monotonic()
    result = run_experiment("laws", {"seed": 0, "count": 100}, tmp_path)
    seconds = time.monotonic() - start
    ok = result.passed and seconds < 600.0
    _verdict(10, "nine law suites, one hundred seeded instances each", ok,
             "; ".join(_failed(result)) or f"took {seconds:.1f}s")
