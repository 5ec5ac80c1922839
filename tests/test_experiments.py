"""Experiment plumbing: claim records, result files, budget handling."""

import json
import os
import sys
from collections import Counter

import pytest

from polycircuits import circuits, polyhedron
from polycircuits.constructions import transportation
from polycircuits.experiments import EXPERIMENTS, Claim, Recorder, run_experiment
from polycircuits.polyhedron import work_budget


def test_claim_passes_on_exact_equality():
    assert Claim("count", 24, 24).passed
    assert not Claim("count", 24, 23).passed
    assert Claim("witnesses", [], []).passed


def test_recorder_writes_result_file(tmp_path):
    rec = Recorder("demo", {"n": 3}, tmp_path)
    rec.claim("trivially true", 1, 1)
    result = rec.finish()
    assert result.passed
    on_disk = json.loads((tmp_path / "result.json").read_text())
    assert on_disk["experiment"] == "demo"
    assert on_disk["parameters"] == {"n": 3}
    assert on_disk["claims"][0]["pass"] is True
    assert on_disk["error"] == ""


def test_failed_claim_fails_the_run(tmp_path):
    rec = Recorder("demo", {}, tmp_path)
    rec.claim("ok", True, True)
    rec.claim("broken", 5, 6)
    result = rec.finish()
    assert not result.passed
    assert [c.description for c in result.claims if not c.passed] == ["broken"]


def test_unknown_experiment_is_a_key_error(tmp_path):
    with pytest.raises(KeyError):
        run_experiment("thm99", {}, tmp_path)


def test_blown_budget_leaves_partial_log(tmp_path):
    with work_budget(50):
        result = run_experiment("thm2", {"n": 4}, tmp_path)
    assert not result.passed
    assert result.error.startswith("budget exceeded")
    on_disk = json.loads((tmp_path / "result.json").read_text())
    assert on_disk["pass"] is False
    assert "budget" in on_disk["error"]
    # the parameters the experiment records, not the raw ones it was given
    assert on_disk["parameters"] == {"n": 4, "delta": "3/4"}
    # what ran before the budget ran out stays in the log
    with work_budget(200):
        result = run_experiment("thm5", {}, tmp_path / "thm5")
    assert result.error.startswith("budget exceeded")
    on_disk = json.loads((tmp_path / "thm5" / "result.json").read_text())
    written = sorted(p.name for p in (tmp_path / "thm5").iterdir() if p.name != "result.json")
    assert len(written) == 4
    assert sorted(os.path.basename(p) for p in on_disk["artifacts"]) == written
    assert len(on_disk["claims"]) == len(result.claims) > 0


_OWN_PARAMETERS = {
    "laws": ({"seed": 0, "count": 100}, 0),
    "lemma17": ({"n": 3, "m": 6}, 0),
    "partpoly": ({"n": 5, "k": 2, "sizes": [1, 4]}, 0),
    "thm1": ({"n": 3, "m": 4}, 1),
    "thm2": ({"n": 3, "delta": "3/4"}, 0),
    "thm3": ({"seed": 0}, 3),
    "thm5": ({}, 0),
    "thm6": ({"seed": 0}, 0),
    "zonotope": ({}, 0),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_logs_its_own_parameters_when_the_budget_runs_out(tmp_path, name):
    # A budget of 0 runs out at the first charged step: the partial log holds
    # the parameters the experiment records (its defaults, from no raw
    # parameters) and exactly the artifacts written before that step.
    parameters, artifacts = _OWN_PARAMETERS[name]
    with work_budget(0):
        rec = run_experiment(name, {}, tmp_path)
    assert rec.error.startswith("budget exceeded") and not rec.passed
    on_disk = json.loads((tmp_path / "result.json").read_text())
    assert on_disk["parameters"] == parameters
    written = sorted(str(p) for p in tmp_path.iterdir() if p.name != "result.json")
    assert len(written) == artifacts
    assert sorted(on_disk["artifacts"]) == written
    assert rec.to_dict() == on_disk


def test_experiment_artifacts_are_valid_json(tmp_path):
    result = run_experiment("lemma17", {}, tmp_path)
    assert result.passed
    for path in result.artifacts:
        payload = json.loads(open(path).read())
        assert isinstance(payload, dict)


def _record_inputs(monkeypatch) -> Counter:
    """Count the calls of project, minimize_description, enumerate_circuits,
    the basic solution walk (the k-subsets of `_basic_points`), the double
    description of the vertices (`_vrep`) and the (n'-1)-subset walk
    (`_circuit_lines`) per input, wherever a polycircuits module binds them.

    An input is keyed by its rows (and map), never by its name, so a renamed
    copy of an object counts as the same input.
    """
    def rows(P):
        return (P.n, P.A, P.b, P.B, P.d)

    keys = {
        polyhedron.project: lambda P, pi, *rest: (rows(P), pi.matrix),
        polyhedron.minimize_description: lambda P, *rest: rows(P),
        circuits.enumerate_circuits: lambda P, *rest: rows(P),
        polyhedron._basic_points: lambda P, *rest: rows(P),
        polyhedron._vrep: lambda P, *rest: rows(P),
        polyhedron._circuit_lines: lambda P, *rest: rows(P),
    }
    calls: Counter = Counter()

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            calls[fn.__name__, key(*args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {fn: counting(fn, key) for fn, key in keys.items()}
    for modname, mod in list(sys.modules.items()):
        if modname == "polycircuits" or modname.startswith("polycircuits."):
            for attr, value in list(vars(mod).items()):
                if any(value is fn for fn in wrappers):
                    monkeypatch.setattr(mod, attr, wrappers[value])
    return calls


@pytest.mark.parametrize(
    "name, params",
    [
        ("thm1", {"n": 3, "m": 4}),
        ("lemma17", {}),
        ("thm6", {"seed": 0}),
        ("thm2", {"n": 3}),
        ("thm3", {"seed": 0}),
        ("partpoly", {}),
    ],
)
def test_experiment_computes_each_object_once(tmp_path, monkeypatch, name, params):
    calls = _record_inputs(monkeypatch)
    assert run_experiment(name, params, tmp_path).passed
    assert calls
    assert {key: n for key, n in calls.items() if n > 1} == {}


def test_thm5_enumerates_each_lift_once(tmp_path, monkeypatch):
    calls = _record_inputs(monkeypatch)
    assert run_experiment("thm5", {}, tmp_path).passed
    lifts = {
        rows: n
        for (fn, rows), n in calls.items()
        if fn == "_circuit_lines" and rows[0] >= 10
    }
    assert len(lifts) == 3
    assert set(lifts.values()) == {1}


def test_thm5_walks_each_target_once(tmp_path, monkeypatch):
    # The circuit and edge tests of run_thm5 and every non_inheriting_extension
    # call on one target read the walks cached on that target. Walks are
    # counted per object: a renamed copy holds no cache and would walk again.
    # Only the simplex image's circuits are asked for; the vertices and rays
    # of `vrep` come from double description, which reads no circuit walk.
    walks: list = []

    def counting(fn):
        def wrapper(P, *rest):
            walks.append((fn.__name__, P))
            return fn(P, *rest)

        return wrapper

    wrappers = {fn: counting(fn) for fn in (polyhedron._circuit_lines, polyhedron._vrep)}
    for modname, mod in list(sys.modules.items()):
        if modname == "polycircuits" or modname.startswith("polycircuits."):
            for attr, value in list(vars(mod).items()):
                if any(value is fn for fn in wrappers):
                    monkeypatch.setattr(mod, attr, wrappers[value])
    assert run_experiment("thm5", {}, tmp_path).passed
    names = ("simplex_image_3_4", "square", "cube")
    # `walks` holds every walked object, so no two of them share an id
    targets = {id(P): P.name for _, P in walks if P.name in names}
    assert sorted(targets.values()) == sorted(names)
    per_target = Counter((fn, targets[id(P)]) for fn, P in walks if id(P) in targets)
    assert per_target == {("_circuit_lines", "simplex_image_3_4"): 1, **{("_vrep", name): 1 for name in names}}


def test_partpoly_tests_each_vertex_pair_of_the_transportation_polytope_once(tmp_path, monkeypatch):
    # The edge walk decides each vertex pair by one `_adjacent` call, which
    # the double description makes too, so only the calls inside `_edges`
    # count. The transportation polytope T has five vertices, any two
    # adjacent: check_inheritance(T, piX) tests its ten vertex pairs, and the
    # claim that every circuit of T is an edge direction reads the edge walk
    # cached on T instead of testing them again.
    walking, calls = [], Counter()
    edges, adjacent = polyhedron._edges, polyhedron._adjacent

    def walk(P):
        walking.append(P.name)
        try:
            return edges(P)
        finally:
            walking.pop()

    def counting(masks, z, k):
        if walking:
            calls[walking[-1]] += 1
        return adjacent(masks, z, k)

    monkeypatch.setattr(polyhedron, "_edges", walk)
    monkeypatch.setattr(polyhedron, "_adjacent", counting)
    assert run_experiment("partpoly", {}, tmp_path).passed
    assert calls[transportation(5, 2, (1, 4)).name] == 10
