"""Self-tests of the benchmark harness (not of polycircuits itself).

    python3 -m pytest -q perfbench/tests

They run a cheap subset of each workload's real ops, picked by label, so
the committed references still apply.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORK_COUNTS = (".calls", ".subsets", ".pairs", ".repeat_frac", ".yield", ".true_frac", "rows_dropped_frac")
CHEAP_LABELS = {
    "check": {"pair000", "pair030", "pair056", "pair080"},
    "enumerate": {"transport_edges"},
    "minimize": {"cube10", "transport"},
    "reproduce": {"thm1_3_4", "thm3_seed0", "lemma17"},
}


@pytest.fixture(scope="module")
def pc():
    return run.import_package()


def cheap_ops(pc, workload, seed=0, pass_index=0):
    labels = CHEAP_LABELS[workload.name]
    return [op for op in workload.ops(pc, seed, pass_index) if op.label in labels]


def traced_pass(pc, workload, seed=0):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run.run_pass(cheap_ops(pc, workload, seed), tracer)
    finally:
        tracer.uninstall()
    return tracer, result


def canonical_outputs(workload, result):
    out = {}
    for op, (value, error) in zip(result["ops"], result["outputs"]):
        assert error is None, error
        out[op.label] = workloads.digest(workload.canonical(op, value))
        workload.cleanup(op)
    return out


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_work_counts_repeat(pc, tmp_path, name):
    workload = workloads.make(name, tmp_path)
    first, _ = traced_pass(pc, workload)
    second, _ = traced_pass(pc, workload)
    a, b = first.metrics(), second.metrics()
    counts = {k for k in a if k.endswith(WORK_COUNTS)}
    assert counts
    assert {k: a[k] for k in counts} == {k: b.get(k) for k in counts}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_outputs_match_references(pc, tmp_path, name):
    workload = workloads.make(name, tmp_path)
    refs = workloads.load_references()[name]
    _, traced = traced_pass(pc, workload)
    plain = run.run_pass(cheap_ops(pc, workload))
    failed, digests = run.verify(workload, pc, [traced, plain], refs, log=print)
    assert failed == 0
    assert digests[0] == digests[1]


def test_check_outputs_do_not_depend_on_the_seed(pc, tmp_path):
    workload = workloads.make("check", tmp_path)
    a = canonical_outputs(workload, run.run_pass(cheap_ops(pc, workload)))
    b = canonical_outputs(workload, run.run_pass(cheap_ops(pc, workload, 12345, 3)))
    assert a == b


@pytest.mark.parametrize("name", ("enumerate", "minimize"))
def test_later_passes_get_new_rows_and_the_same_outputs(pc, tmp_path, name):
    workload = workloads.make(name, tmp_path)
    first, later = cheap_ops(pc, workload), cheap_ops(pc, workload, 0, 1)
    runs = [run.run_pass(first), run.run_pass(later)]
    failed, digests = run.verify(workload, pc, runs, workloads.load_references()[name], log=print)
    assert failed == 0 and digests[0] == digests[1]


def test_tracer_sees_calls_through_from_import_bindings(pc):
    from polycircuits import inheritance, lp, polyhedron

    original = lp.is_implied
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # inheritance did `from .lp import is_implied`; polyhedron did
        # `from .linalg import rank`; experiments keeps run_* in a dict
        assert inheritance.is_implied is not original
        cube = pc.constructions.hypercube(2)
        inheritance._descriptions_match(cube, cube)
        polyhedron.is_pointed(cube)
        assert pc.experiments.EXPERIMENTS["thm1"] is not tracer.originals["experiments.run_thm1"]
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["lp.is_implied.calls"] == 8  # 4 rows, each way
    assert m["linalg.rank.calls"] >= 1
    assert inheritance.is_implied is original
    assert pc.experiments.EXPERIMENTS["thm1"] is tracer.originals["experiments.run_thm1"]


def test_self_time_excludes_children(pc):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pc.polyhedron.minimize_description(pc.constructions.hypercube(3))
    finally:
        tracer.uninstall()
    stats = tracer.stats["polyhedron.minimize_description"]
    calls, incl, self_s = stats
    assert calls == 1 and 0 < self_s < incl
    by_id = {s[0]: s for s in tracer.spans}
    children = [s for s in tracer.spans if s[4] >= 0 and by_id[s[4]][1] == "polyhedron.minimize_description"]
    covered = sum(s[3] - s[2] for s in children)
    # the counting hooks that ran inside the span are hidden from it as well
    assert 0 < self_s <= incl - covered


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minimize", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
