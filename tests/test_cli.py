"""Command-line contract: exit codes, JSON schemas, determinism."""

import ast
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polycircuits
from polycircuits import jsonio
from polycircuits.circuits import basic_solutions, enumerate_circuits
from polycircuits.cli import CONSTRUCT_NAMES, main
from polycircuits.constructions import (
    cropped_cross_polytope,
    cross_polytope,
    hypercube,
    orthant,
    perturbed_simple_4polytope,
    pi_alpha_matrix,
    pi_matrix,
    pi_prime_matrix,
    simplex,
    transportation,
)
from polycircuits.polyhedron import HPolyhedron, LinearMap


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def r3cone() -> HPolyhedron:
    return HPolyhedron.make(
        3,
        B=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [-1, -1, 1]],
        d=[0, 0, 0, 0],
        name="r3cone",
    )


# ---------------------------------------------------------------------------
# JSON round-trips


def test_poly_round_trip_is_byte_exact(tmp_path):
    P = cropped_cross_polytope(3, Fraction(2, 3))
    text = jsonio.dumps(jsonio.poly_to_dict(P))
    path = tmp_path / "p.json"
    path.write_text(text)
    Q = jsonio.poly_from_dict(jsonio.load(path))
    assert Q == P
    assert jsonio.dumps(jsonio.poly_to_dict(Q)) == text


def test_map_round_trip(tmp_path):
    pi = pi_matrix(4, 6)
    d = jsonio.map_to_dict(pi)
    assert d["name"] == pi.name
    back = jsonio.map_from_dict(json.loads(jsonio.dumps(d)))
    assert back.matrix == pi.matrix


def test_rationals_serialize_as_quotient_strings():
    P = cropped_cross_polytope(3, Fraction(2, 3))
    d = jsonio.poly_to_dict(P)
    assert d["d"][-1] == "2/3"
    assert d["d"][0] == "1"


def test_circuit_directions_serialize_as_integers():
    C = enumerate_circuits(hypercube(3))
    d = jsonio.circuits_to_dict(C)
    assert d == {"directions": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}


def test_basic_solutions_serialize_from_their_lines():
    # thm2 saves 36,186 basic solutions at n = 5; their Fraction view, built
    # and cached by the save, set that run's peak resident memory
    B = basic_solutions(cropped_cross_polytope(3))
    d = jsonio.basics_to_dict(B)
    assert "points" not in vars(B)
    assert d == {"points": jsonio.rat_rows(B.points)}
    assert ["-7/4", "-3/4", "0"] in d["points"]


# ---------------------------------------------------------------------------
# circuits verb


def test_circuits_cube3_has_three_directions(tmp_path, capsys):
    path = tmp_path / "cube3.json"
    jsonio.dump(jsonio.poly_to_dict(hypercube(3)), path)
    code, out = run_cli(["circuits", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"directions": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}


def test_circuits_r3cone_has_six_directions(tmp_path, capsys):
    path = tmp_path / "r3cone.json"
    jsonio.dump(jsonio.poly_to_dict(r3cone()), path)
    code, out = run_cli(["circuits", str(path)], capsys)
    assert code == 0
    assert len(json.loads(out)["directions"]) == 6


def test_circuits_nonpointed_reports_lineality(tmp_path, capsys):
    P = HPolyhedron.make(2, B=[[1, 0]], d=[1], name="halfplane")
    path = tmp_path / "np.json"
    jsonio.dump(jsonio.poly_to_dict(P), path)
    code, out = run_cli(["circuits", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"lineality": [[0, 1]]}


def test_circuits_minimize_flag(tmp_path, capsys):
    # a redundant copy of a facet row does not change the circuits after --minimize
    P = HPolyhedron.make(2, B=[[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]], d=[1, 1, 0, 0, 2])
    path = tmp_path / "red.json"
    jsonio.dump(jsonio.poly_to_dict(P), path)
    code, out = run_cli(["circuits", str(path), "--minimize"], capsys)
    assert code == 0
    assert json.loads(out) == {"directions": [[0, 1], [1, 0]]}


def test_circuits_missing_file_is_input_error(capsys):
    code, _ = run_cli(["circuits", "/nonexistent/poly.json"], capsys)
    assert code == 2


def test_circuits_bad_schema_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": []}\n')
    code, _ = run_cli(["circuits", str(path)], capsys)
    assert code == 2


def test_circuits_tiny_budget_exits_three(tmp_path, capsys):
    path = tmp_path / "cc4.json"
    jsonio.dump(jsonio.poly_to_dict(cropped_cross_polytope(4)), path)
    code, _ = run_cli(["circuits", str(path), "--budget", "10"], capsys)
    assert code == 3


@pytest.mark.parametrize("budget, code", [("-1", 2), ("0", 3)], ids=["negative", "zero"])
def test_circuits_budget_sign(tmp_path, capsys, budget, code):
    # a negative cap is an input error; a cap of 0 is a budget that any walk exceeds
    path = tmp_path / "cube8.json"
    jsonio.dump(jsonio.poly_to_dict(hypercube(8)), path)
    assert run_cli(["circuits", str(path), "--budget", budget], capsys)[0] == code


# ---------------------------------------------------------------------------
# check verb


def write_pair(tmp_path, Q, pi):
    qp = tmp_path / f"{Q.name}.json"
    mp = tmp_path / f"{pi.name}.json"
    jsonio.dump(jsonio.poly_to_dict(Q), qp)
    jsonio.dump(jsonio.map_to_dict(pi), mp)
    return str(qp), str(mp)


def test_check_orthant_projection_fails_with_witness(tmp_path, capsys):
    qp, mp = write_pair(tmp_path, orthant(4), pi_matrix(3, 4))
    code, out = run_cli(["check", qp, mp], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "NotAllInherited"
    assert [0, 0, 1] in report["non_inherited"]["directions"]


def test_check_prime_projection_inherits_everything(tmp_path, capsys):
    qp, mp = write_pair(tmp_path, simplex(6), pi_prime_matrix(3, 6))
    code, out = run_cli(["check", qp, mp], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "AllInherited"


def test_check_invertible_map_inherits_everything(tmp_path, capsys):
    shear = LinearMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]], name="shear")
    qp, mp = write_pair(tmp_path, hypercube(3), shear)
    code, out = run_cli(["check", qp, mp], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "AllInherited"


def test_check_wrong_image_description_is_input_error(tmp_path, capsys):
    qp, mp = write_pair(tmp_path, simplex(4), pi_matrix(3, 4))
    wrong = tmp_path / "wrong.json"
    jsonio.dump(jsonio.poly_to_dict(hypercube(3)), wrong)
    code, _ = run_cli(["check", qp, mp, str(wrong)], capsys)
    assert code == 2


def test_check_dimension_mismatch_is_input_error(tmp_path, capsys):
    qp, mp = write_pair(tmp_path, hypercube(3), pi_matrix(3, 4))
    code, _ = run_cli(["check", qp, mp], capsys)
    assert code == 2


def test_check_nonpointed_domain_is_input_error(tmp_path, capsys):
    # a domain with a lineality space is outside the claim, not a failed claim
    qp, mp = tmp_path / "strip.json", tmp_path / "map.json"
    qp.write_text('{"n": 2, "B": [[-1, 0], [1, 0]], "d": [0, 1]}\n')
    mp.write_text('{"matrix": [[1, 0]]}\n')
    assert main(["check", str(qp), str(mp)]) == 2
    assert capsys.readouterr().err == "input error: domain is not pointed\n"


def test_package_has_no_assert_statements():
    # python -O strips asserts, so every check in the package raises a typed
    # error instead.
    package = Path(polycircuits.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_function_takes_a_budget_parameter():
    # the work budget is one scoped setting, set by `work_budget(cap)` and
    # read by `check_budget`; no function passes it on
    package = Path(polycircuits.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg == "budget"
    ]
    assert found == []


def test_the_work_budget_is_the_one_context_variable():
    # a run's record is handed to the experiment, not found through a
    # context variable; the work budget is the package's one scoped setting
    package = Path(polycircuits.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named = {  # the value of each assignment, by the name it is bound to
            id(node.value): ast.unparse(target)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in getattr(node, "targets", [getattr(node, "target", None)])
        }
        found += [
            f"{path.stem}.{named.get(id(node), node.lineno)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == "ContextVar"
        ]
    assert found == ["polyhedron._BUDGET"]


def _package_defs_and_reads():
    """Each top-level function and class and each method of the package, as
    (qualified name, name), and every name or attribute the package reads."""
    package = Path(polycircuits.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs):
                found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{module}.{node.name}.{item.name}", item.name)
                          for item in node.body if isinstance(item, defs[:2])]
    return found, used


def test_every_public_name_has_a_caller():
    # unused API is deleted: each public function, class and method is read
    # as a name or an attribute somewhere in the package, or is exported in
    # `__all__`; `dim` is called from outside, by perfbench/make_references.py
    found, used = _package_defs_and_reads()
    used |= set(polycircuits.__all__)
    allowed = {"polyhedron.dim"}
    unused = [
        qualname for qualname, name in found
        if not name.startswith("_") and name not in used and qualname not in allowed
    ]
    assert unused == []


def test_every_private_name_has_a_caller():
    # dead private code is deleted too: each private function, class and
    # method is read as a name or an attribute somewhere in the package;
    # Python itself calls the dunder methods
    found, used = _package_defs_and_reads()
    dead = [
        qualname for qualname, name in found
        if name.startswith("_") and not name.endswith("__") and name not in used
    ]
    assert dead == []


def test_linalg_alone_makes_and_reduces_integers():
    # how a rational vector becomes integers, and how an integer vector or
    # row is reduced, is decided once, in linalg; polyhedron and
    # constructions call its helpers and do no gcd or lcm of their own
    package = Path(polycircuits.__file__).resolve().parent
    helpers = {"_int_vector", "_primitive", "_scaled_row"}
    found = []
    for path in sorted(package.glob("*.py")):
        geometry = path.name in ("polyhedron.py", "constructions.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if geometry and names & {"gcd", "lcm"}:
                    found.append(f"{path.name}:{node.lineno} imports gcd or lcm")
                if names & helpers and node.module not in ("linalg", "polycircuits.linalg"):
                    found.append(f"{path.name}:{node.lineno} imports a normalizer from {node.module}")
            elif geometry and isinstance(node, ast.Attribute) and node.attr in ("gcd", "lcm"):
                found.append(f"{path.name}:{node.lineno} uses {node.attr}")
            elif isinstance(node, ast.FunctionDef) and node.name in helpers and path.name != "linalg.py":
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert found == []


def _private_uses(owners, imports, attributes, source="polyhedron"):
    """Where a package module other than `owners` imports one of `imports`
    from the module `source` or reads an attribute named in `attributes`."""
    package = Path(polycircuits.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in (source, f"polycircuits.{source}"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names if alias.name in imports]
            elif isinstance(node, ast.Attribute) and node.attr in attributes:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_only_circuits_imports_the_walk_internals():
    # each description caches its own walks; every other module asks for
    # circuits, vertices and edges through the public functions, so a new
    # walk can replace a cached one without touching its callers
    internals = {"_circuit_lines", "_basic_points", "_certified_lines", "_vrep"}
    caches = {"_circuit_walk", "_vertex_walk", "_edge_walk"}
    assert _private_uses(("polyhedron.py", "circuits.py"), internals, caches) == []


def test_only_polyhedron_imports_the_rank_pass():
    # the outputs of the subset walks and of the double description are
    # checked where they are made, so one rank pass serves every walk
    found = _private_uses(("polyhedron.py", "linalg.py"), {"_ranks_reach"}, {"_ranks_reach"}, source="linalg")
    assert found == []


def test_only_the_projection_law_takes_the_lp_route():
    # every other caller projects through `project`, which picks its route
    # from the domain; the law checks one route against the other
    assert _private_uses(("polyhedron.py", "experiments.py"), {"_project"}, {"_project"}) == []


def test_only_the_walks_and_the_simplex_read_the_integer_rows():
    # a description's integer rows and their slack test belong to the walks,
    # all in polyhedron, and the simplex; every other module, circuits
    # included, reads slacks, points and vertices through the public
    # functions and results, so the row format can change in one place
    assert _private_uses(("polyhedron.py", "lp.py"), {"_slacks"}, {"_ints"}) == []


_FRACTIONAL_DIRECTION = """
from fractions import Fraction
from polycircuits import jsonio
from polycircuits.errors import CorrespondenceViolation

try:
    print("returned", jsonio.int_vec((Fraction(1), Fraction(1, 2))))
except CorrespondenceViolation as exc:
    print("CorrespondenceViolation:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_fractional_direction_is_a_correspondence_violation(flags):
    # Not an assert: under -O the direction would be written as [1, 0].
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FRACTIONAL_DIRECTION],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["CorrespondenceViolation: direction (1, 1/2) is not integral"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_check_rows_longer_than_n_is_input_error(tmp_path, flags):
    # B rows of length 3 in a file that declares n = 2. The check must not be
    # an assert: under -O the rows would reach the simplex and fail as a claim.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "B": [[-1, 0, 0], [0, -1, 0], [1, 1, 1]], "d": [0, 0, 1]}))
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": [[1, 0]]}))
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "polycircuits.cli", "check", str(bad), str(mp)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr and "row 0 of B has length 3" in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
@pytest.mark.parametrize(
    "verb, document, field",
    [
        ("circuits", [], "A"),
        ("circuits", {"n": 2, "B": [1, 2], "d": [0, 0]}, "B"),
        ("circuits", {"n": 2, "B": 5, "d": []}, "B"),
        ("check", {"matrix": 7}, "matrix"),
        ("circuits", {"n": 1, "B": [[1]], "d": [0.1]}, "d"),
        ("circuits", '{"n": 1, "B": [[1]], "d": [1e400]}', "d"),
        ("circuits", {"n": 1, "B": [[True]], "d": [1]}, "B"),
        ("circuits", {"n": True, "B": [[1]], "d": [1]}, "n"),
        ("circuits", {"n": -2}, None),
        ("circuits", {"n": 1, "B": [[1]], "d": ["1/0"]}, "d"),
        ("circuits", {"B": [[1]], "d": [1]}, "n"),
        ("check", {"name": "m"}, "matrix"),
        ("circuits", {"n": "x"}, "n"),
        ("circuits", {"n": "2/1"}, "n"),
    ],
    ids=[
        "not-an-object",
        "rows-not-lists",
        "block-not-a-list",
        "map-not-a-list",
        "float",
        "float-overflow",
        "bool",
        "bool-dimension",
        "negative-dimension",
        "zero-denominator",
        "missing-dimension",
        "missing-matrix",
        "word-dimension",
        "fraction-dimension",
    ],
)
def test_malformed_json_is_input_error(tmp_path, verb, document, field, flags):
    # A str document is the file's text as it stands: json.dumps cannot
    # write the literal 1e400, which json.load reads as an infinite float.
    bad = tmp_path / "bad.json"
    bad.write_text(document if isinstance(document, str) else json.dumps(document))
    if verb == "check":
        ok = tmp_path / "ok.json"
        jsonio.dump(jsonio.poly_to_dict(hypercube(2)), ok)
        argv = ["check", str(ok), str(bad)]
    else:
        argv = ["circuits", str(bad)]
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "polycircuits.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr
    if field is not None:
        assert f"field {field!r}" in proc.stderr, proc.stderr


def test_check_output_is_the_same_under_optimize(tmp_path):
    # The simplex certificate checks are not asserts, so a NotAllInherited
    # verdict is reached through the same checks, with the same output,
    # when python runs with -O.
    qp, mp = write_pair(tmp_path, orthant(4), pi_matrix(3, 4))
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "polycircuits.cli", "check", qp, mp],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    assert [proc.returncode for proc in runs] == [1, 1], [proc.stderr for proc in runs]
    assert json.loads(runs[0].stdout)["verdict"] == "NotAllInherited"
    assert runs[0].stdout == runs[1].stdout


def test_reproduce_artifacts_are_the_same_under_optimize(tmp_path):
    # The rank tests of circuits and basic solutions and every other check
    # are not asserts, so thm2 writes the same artifacts under -O.
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    runs = []
    for flags, name in (([], "asserts"), (["-O"], "optimized")):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "polycircuits.cli", "reproduce", "thm2", "--n", "3",
             "--out-dir", str(out_dir)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        files = {}
        for path in sorted(out_dir.iterdir()):
            payload = json.loads(path.read_text())
            if path.name == "result.json":  # artifact paths name the output directory
                payload.pop("runtime_seconds")
                payload["artifacts"] = [Path(a).name for a in payload["artifacts"]]
            files[path.name] = payload
        runs.append(files)
    assert "result.json" in runs[0] and len(runs[0]) > 1
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# construct verb


def test_construct_croppedcross_accepts_rational_delta(capsys):
    code, out = run_cli(["construct", "croppedcross", "--n", "3", "--delta", "2/3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["d"].count("2/3") == 6


@pytest.mark.parametrize(
    "argv",
    [["construct", "croppedcross", "--n", "3", "--out"], ["reproduce", "thm2", "--out-dir"]],
    ids=["construct", "reproduce"],
)
def test_zero_denominator_delta_is_input_error(tmp_path, capsys, argv):
    # refused while parsing, before any file is written
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(out), "--delta", "1/0"])
    assert exc.value.code == 2
    assert "argument --delta: not a rational: '1/0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["construct", "croppedcross", "--n", "1", "--out"], ["reproduce", "thm2", "--n", "1", "--out-dir"]],
    ids=["construct", "reproduce"],
)
def test_cropped_cross_below_two_dimensions_is_input_error(tmp_path, capsys, argv):
    # its facet and 4n(n-1) vertex guarantees need n >= 2
    out = tmp_path / "out"
    assert main([*argv, str(out)]) == 2
    assert "needs n >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, err",
    [
        (["thm1", "--n", "3", "--m", "3"], "need m > n >= 3, got n=3, m=3"),
        (["thm2", "--delta", "2"], "delta must lie strictly in (1/2, 1), got 2"),
    ],
    ids=["thm1", "thm2-delta"],
)
def test_reproduce_input_error_leaves_no_run_directory(tmp_path, capsys, argv, err):
    # the run directory is made on the first artifact written
    out = tmp_path / "out"
    assert main(["reproduce", *argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {err}\n"
    assert not out.exists()


def _limit_address_space():
    # a construction that allocates without bound fails here instead of
    # taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [["construct", "crosspoly", "--n", "40"], ["reproduce", "thm2", "--n", "40", "--out-dir"]],
    ids=["construct", "reproduce"],
)
def test_cross_polytope_rows_count_against_the_budget(tmp_path, argv):
    # its n 2^n entries are checked against the budget before a row is built
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    extra = [str(tmp_path / "out")] if argv[-1] == "--out-dir" else []
    proc = subprocess.run(
        [sys.executable, "-m", "polycircuits.cli", *argv, *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    entries = 40 * 2**40
    assert proc.stderr == f"budget exceeded: cross-polytope entries: {entries} candidates exceed budget 10000000\n"


def test_construct_transport_matches_library(capsys):
    code, out = run_cli(["construct", "transport", "--n", "5", "--k", "2", "--sizes", "1,4"], capsys)
    assert code == 0
    assert json.loads(out) == jsonio.poly_to_dict(transportation(5, 2, (1, 4)))


_CONSTRUCTED = {
    "cube": (["--m", "3"], lambda: jsonio.poly_to_dict(hypercube(3))),
    "simplex": (["--n", "4"], lambda: jsonio.poly_to_dict(simplex(4))),
    "orthant": (["--m", "5"], lambda: jsonio.poly_to_dict(orthant(5))),
    "crosspoly": (["--n", "3"], lambda: jsonio.poly_to_dict(cross_polytope(3))),
    "croppedcross": (["--n", "3"], lambda: jsonio.poly_to_dict(cropped_cross_polytope(3))),
    "perturbed4": (["--seed", "7"], lambda: jsonio.poly_to_dict(perturbed_simple_4polytope(7))),
    "transport": (
        ["--n", "5", "--k", "2", "--sizes", "1,4"],
        lambda: jsonio.poly_to_dict(transportation(5, 2, (1, 4))),
    ),
    "pi": (["--n", "3", "--m", "4"], lambda: jsonio.map_to_dict(pi_matrix(3, 4))),
    "pialpha": (["--m", "5", "--alpha", "3"], lambda: jsonio.map_to_dict(pi_alpha_matrix(5, 3))),
    "piprime": (["--n", "3", "--m", "6"], lambda: jsonio.map_to_dict(pi_prime_matrix(3, 6))),
}


@pytest.mark.parametrize("name", CONSTRUCT_NAMES)
def test_construct_matches_library(name, capsys):
    flags, build = _CONSTRUCTED[name]
    code, out = run_cli(["construct", name, *flags], capsys)
    assert code == 0
    assert json.loads(out) == build()


def test_construct_missing_flag_is_input_error(capsys):
    code, _ = run_cli(["construct", "pialpha", "--m", "4"], capsys)
    assert code == 2


def test_construct_unknown_name_is_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "dodecahedron"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_construct_writes_file(tmp_path, capsys):
    out = tmp_path / "pi.json"
    code, stdout = run_cli(["construct", "pi", "--n", "3", "--m", "4", "--out", str(out)], capsys)
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text()) == jsonio.map_to_dict(pi_matrix(3, 4))


# ---------------------------------------------------------------------------
# reproduce verb


def test_reproduce_thm3_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out = run_cli(
        ["reproduce", "thm3", "--seed", "0", "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    result = json.loads(out)
    assert result["pass"] is True
    assert result["experiment"] == "thm3"
    assert all(claim["pass"] for claim in result["claims"])
    assert (out_dir / "result.json").exists()
    for rel in result["artifacts"]:
        assert rel.endswith(".json")


def test_reproduce_is_deterministic_modulo_runtime(tmp_path, capsys):
    out_dir = tmp_path / "run"
    _, first = run_cli(["reproduce", "thm3", "--seed", "1", "--out-dir", str(out_dir)], capsys)
    report_first = (out_dir / "report.json").read_bytes()
    _, second = run_cli(["reproduce", "thm3", "--seed", "1", "--out-dir", str(out_dir)], capsys)
    assert (out_dir / "report.json").read_bytes() == report_first
    a, b = json.loads(first), json.loads(second)
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b


def test_reproduce_partpoly_rejects_other_sizes(tmp_path, capsys):
    code, _ = run_cli(
        ["reproduce", "partpoly", "--n", "6", "--out-dir", str(tmp_path / "x")], capsys
    )
    assert code == 2


def test_check_empty_domain_is_input_error(tmp_path, capsys):
    empty = HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0], name="empty")
    qp, mp = write_pair(tmp_path, empty, LinearMap([[1]], name="ident1"))
    assert main(["check", qp, mp]) == 2
    assert capsys.readouterr().err == "input error: empty is empty\n"


@pytest.mark.parametrize(
    "domain, pi, err",
    [
        (HPolyhedron.make(1, B=[[1], [-1]], d=[-1, 0]), [[1]], "polyhedron is empty"),
        (HPolyhedron.make(2, B=[[1, 0], [-1, 0]], d=[1, 0]), [[1, 0], [0, 1]], "projection image is not pointed"),
    ],
    ids=["empty", "slab"],
)
def test_check_error_of_an_unnamed_input_is_a_sentence(tmp_path, capsys, domain, pi, err):
    # with no name the message names what the input is
    qp, mp = tmp_path / "domain.json", tmp_path / "map.json"
    jsonio.dump(jsonio.poly_to_dict(domain), qp)
    jsonio.dump(jsonio.map_to_dict(LinearMap(pi)), mp)
    assert main(["check", str(qp), str(mp)]) == 2
    assert capsys.readouterr().err == f"input error: {err}\n"


def test_construct_sizes_that_are_not_integers_are_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "transport", "--n", "2", "--k", "2", "--sizes", "a"])
    assert exc.value.code == 2
    assert "argument --sizes: not comma-separated integers: 'a'" in capsys.readouterr().err


def test_check_budget_below_the_domain_vertex_walk_exits_three(tmp_path):
    # The cube's circuit walk visits comb(6, 2) = 15 row subsets and its
    # double description tests 7 ray pairs, both within a budget of 15. The
    # budget runs out on the last walk of check_inheritance, the edges of Q,
    # which charges its comb(8, 2) = 28 vertex pairs up front.
    flatten = LinearMap([[1, 0, 0], [0, 1, 0]], name="flatten")
    qp, mp = write_pair(tmp_path, hypercube(3), flatten)
    src = str(Path(polycircuits.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "polycircuits.cli", "check", qp, mp, "--budget", "15"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "budget exceeded: vertex pairs: 28 candidates exceed budget 15\n"
