"""Write perfbench/references.json from the current checkout.

    python3 perfbench/make_references.py

References must come from a commit whose outputs are trusted (the one that
defined the benchmark); a change under test never regenerates them. Each
op's reference holds the digest of its canonical output plus the counts
that the invariant checks compare against.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def check_extras(pc, Q, pi) -> dict:
    """Dimensions of Q and of pi(Q) for one population pair."""
    poly, linalg = pc.polyhedron, pc.linalg
    implicit = poly.implicit_equality_rows(Q)
    hull_normals = Q.A + tuple(Q.B[i] for i in implicit)
    hull_dirs = linalg.kernel_basis(hull_normals, Q.n) if hull_normals else list(linalg.identity(Q.n))
    images = [pi(v) for v in hull_dirs]
    return {"dim_Q": poly.dim(Q), "dim_P": linalg.rank(images) if images else 0}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    scratch = run.OUT / "references"
    scratch.mkdir(exist_ok=True)
    pc = run.import_package()
    population = workloads.Check(scratch).population(pc)
    refs = {}
    try:
        for name in workloads.NAMES:
            workload = workloads.make(name, scratch)
            result = run.run_pass(workload.ops(pc, workloads.DEFAULT_SEED, 0))
            entries = {}
            for op, (out, error) in zip(result["ops"], result["outputs"]):
                if error is not None:
                    raise RuntimeError(f"{name}/{op.label} raised:\n{error}")
                entry = {"digest": workloads.digest(workload.canonical(op, out))}
                if name == "check":
                    entry.update(check_extras(pc, *population[int(op.label[4:])]), verdict=out.verdict)
                elif name == "enumerate":
                    entry["count"] = len(out)
                elif name == "reproduce":
                    entry["claims"] = len(out.claims)
                    entry["passed"] = out.passed
                workload.cleanup(op)
                entries[op.label] = entry
            refs[name] = dict(sorted(entries.items()))
            print(f"{name}: {len(entries)} references, pass {result['wall_s']:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
