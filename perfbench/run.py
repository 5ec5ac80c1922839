"""Benchmark of the polycircuits package: one workload per run.

    python3 perfbench/run.py --workload check --seed 0 --seconds 15 --trace 0

Run from the repository root. The package is imported from `src/`. A run
sets up several times (fresh import, input generation, warm-up) and keeps
the median as `setup_s`, then runs passes over the workload's op list, one
client in a closed loop, until `--seconds` have passed (at least one pass;
`reproduce` runs its fixed list once). Times are reported at a fixed
reference speed, measured by the probe in `speed.py`. Outputs are checked
after the timed passes. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With `--trace 1` the run
makes one traced pass and one untraced pass over the same inputs and
reports per-layer metrics instead; the spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SUBMODULES = ("linalg", "lp", "polyhedron", "circuits", "constructions", "inheritance", "experiments")

import tracer as tracing  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

END_TO_END = (
    ("wall_ref_s", "s"),
    ("cpu_ref_s", "s"),
    ("op_p50_ref_ms", "ms"),
    ("op_p90_ref_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_package():
    """Import polycircuits from src/ afresh, dropping any earlier import."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "polycircuits" or m.startswith("polycircuits.")]:
        del sys.modules[name]
    pc = importlib.import_module("polycircuits")
    for sub in SUBMODULES:
        importlib.import_module(f"polycircuits.{sub}")
    return pc


def set_up(workload, seed: int):
    """Import, generate the first pass's inputs and warm up; timed at the
    reference speed, like the ops."""
    with SpeedProbe() as probe:
        probe.sample()
        t0 = time.perf_counter()
        pc = import_package()
        ops = workload.ops(pc, seed, 0)
        workload.warmup(pc)
        t1 = time.perf_counter()
        probe.sample()
    probe_s, speed = probe.across(t0, t1)
    return (t1 - t0 - probe_s) * speed, pc, ops


def run_pass(ops, tracer=None):
    """Run the ops in order; times are raw and at the reference speed.

    A traced pass samples the machine speed only between ops, so that no
    probe loop adds to a traced function's time."""
    outputs, spans = [], []
    with SpeedProbe(during_ops=tracer is None) as probe:
        probe.sample()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(i)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out, error = op.call(), None
            except Exception:  # an op that raises is counted as failed, the run goes on
                out, error = None, traceback.format_exc()
            spans.append((t0, time.perf_counter(), time.process_time() - c0))
            outputs.append((out, error))
            probe.sample()
    wall, wall_ref, cpu_ref = [], [], []
    for t0, t1, cpu in spans:
        probe_s, speed = probe.across(t0, t1)
        wall.append(t1 - t0 - probe_s)
        wall_ref.append(wall[-1] * speed)
        cpu_ref.append((cpu - probe_s) * speed)
    return {
        "ops": ops,
        "outputs": outputs,
        "latencies_ref": wall_ref,
        "wall_s": sum(wall),
        "wall_ref_s": sum(wall_ref),
        "cpu_ref_s": sum(cpu_ref),
        "probe_loop_s": probe.median_loop_s(),
    }


def verify(workload, pc, passes, refs, log) -> tuple[int, list[list[str]]]:
    """Check every output; returns the failed count and per-pass digests."""
    failed, digests = 0, []
    for p in passes:
        pass_digests = []
        for op, (out, error) in zip(p["ops"], p["outputs"]):
            if error is not None:
                problems = [f"raised:\n{error}"]
                pass_digests.append(None)
            else:
                canon = workload.canonical(op, out)
                pass_digests.append((op.label, workloads.digest(canon)))
                problems = workload.check(pc, op, out, canon, refs)
            workload.cleanup(op)
            if problems:
                failed += 1
                log(f"FAILED {workload.name}/{op.label}: " + "; ".join(problems))
        digests.append(sorted(d for d in pass_digests if d is not None))
    return failed, digests


def op_quantiles(latencies) -> tuple[float, float]:
    """p50 and p90 of one pass's op latencies (inclusive interpolation)."""
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return q[4], q[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        return _run(args, scratch, log)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch: Path, log) -> int:
    workload = workloads.make(args.workload, scratch)
    refs = workloads.load_references()[args.workload]
    try:
        setups = [set_up(workload, args.seed) for _ in range(SETUP_REPEATS)]
    except ImportError as exc:
        log(f"cannot import polycircuits from {ROOT / 'src'}: {exc}")
        return 2
    setup_s = statistics.median(s[0] for s in setups)
    _, pc, ops = setups[-1]

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        plain = run_pass(workload.ops(pc, args.seed, 0))
        passes = [traced, plain]
    else:
        passes, start = [], time.perf_counter()
        while True:
            passes.append(run_pass(ops))
            if len(passes) == 1:
                # every pass's outputs are kept until they are checked, so
                # the peak is taken before a second pass can raise it
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if not workload.repeat_passes or time.perf_counter() - start >= args.seconds:
                break
            ops = workload.ops(pc, args.seed, len(passes))

    failed, digests = verify(workload, pc, passes, refs, log)
    attempted = sum(len(p["ops"]) for p in passes)
    if args.trace and digests[0] != digests[1]:
        log("FAILED traced and untraced passes gave different outputs")
        failed += 1

    quantiles = [op_quantiles(p["latencies_ref"]) for p in passes]
    log(f"{args.workload}: raw wall time per pass {[round(p['wall_s'], 3) for p in passes]} s, "
        f"probe loop {[round(1000 * p['probe_loop_s'], 4) for p in passes]} ms")
    if args.trace:
        values = tracer.metrics()
        values["trace.overhead_frac"] = traced["wall_ref_s"] / plain["wall_ref_s"] - 1
        values["machine.wall_s"] = plain["wall_s"]
        values["machine.probe_loop_ms"] = 1000 * plain["probe_loop_s"]
        metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in tracing.PER_LAYER}
        spans_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_spans(spans_path)
        log(f"{len(tracer.spans)} spans written to {spans_path}")
    else:
        values = {
            "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
            "cpu_ref_s": statistics.median(p["cpu_ref_s"] for p in passes),
            "op_p50_ref_ms": 1000 * statistics.median(q[0] for q in quantiles),
            "op_p90_ref_ms": 1000 * statistics.median(q[1] for q in quantiles),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    log(f"{args.workload}: {len(passes)} pass(es), "
        f"{len(setups)} set-ups, {failed}/{attempted} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
