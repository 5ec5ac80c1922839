"""Outside-in tracer for the polycircuits layers.

`Tracer.install` replaces the public functions of the layer modules with
timing wrappers, from outside the package: nothing under `src/` changes.
A function imported by name (`from .linalg import rref`) leaves one binding
in each importing module, and registries such as `experiments.EXPERIMENTS`
hold further references, so every module attribute and every module-level
dict value that *is* an original function is rebound. `uninstall` puts the
originals back.

Each call becomes a span (id, name, start, end, parent id, op id). Spans are
kept in memory and written once, by `write_spans`. A span's self time is its
duration minus the time covered by its child spans and by the counting
hooks that ran inside it. Work counts (subsets visited, vertex pairs tested,
repeated inputs, ...) are derived from each call's input and result by the
hooks below, using the original, untraced functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from math import comb

PACKAGE = "polycircuits"

# Element-wise helpers run millions of times per pass; a span around each
# would cost more than the work it records, so they stay unwrapped.
UNWRAPPED = {
    "linalg": {
        "frac", "vector", "matrix", "zero_vector", "unit_vector", "identity",
        "is_zero", "dot", "vec_add", "vec_sub", "vec_scale", "vec_neg",
        "mat_vec", "transpose", "matmul", "hstack", "primitive",
        "canonicalize_direction",
    },
}
LAYERS = ("linalg", "lp", "polyhedron", "circuits", "inheritance", "experiments")
EXPERIMENTS = ("thm1", "thm3", "thm5", "thm6", "lemma17")

# Every metric a traced run reports, with its unit; BENCHMARK.json's
# per_layer list mirrors this table.
PER_LAYER = (
    ("lp.lp_solve.calls", "count"),
    ("lp.lp_solve.self_s", "s"),
    ("lp.lp_solve.mean_ms", "ms"),
    ("lp.is_implied.calls", "count"),
    ("lp.is_implied.true_frac", "ratio"),
    ("lp.is_feasible.calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.rank.calls", "count"),
    ("polyhedron.project.calls", "count"),
    ("polyhedron.project.incl_s", "s"),
    ("polyhedron.project.repeat_frac", "ratio"),
    ("polyhedron.minimize_description.calls", "count"),
    ("polyhedron.minimize_description.incl_s", "s"),
    ("polyhedron.minimize_description.rows_dropped_frac", "ratio"),
    ("polyhedron.implicit_equality_rows.incl_s", "s"),
    ("polyhedron.vrep.calls", "count"),
    ("polyhedron.vrep.self_s", "s"),
    ("polyhedron.vrep.subsets", "count"),
    ("polyhedron.vrep.yield", "ratio"),
    ("polyhedron.edge_directions.self_s", "s"),
    ("polyhedron.edge_directions.pairs", "count"),
    ("polyhedron.edge_directions.yield", "ratio"),
    ("circuits.enumerate_circuits.calls", "count"),
    ("circuits.enumerate_circuits.self_s", "s"),
    ("circuits.enumerate_circuits.subsets", "count"),
    ("circuits.enumerate_circuits.yield", "ratio"),
    ("circuits.enumerate_circuits.repeat_frac", "ratio"),
    ("circuits.basic_solutions.self_s", "s"),
    ("circuits.basic_solutions.subsets", "count"),
    ("inheritance.check_inheritance.self_s", "s"),
    ("inheritance.check_inheritance.non_inherited_frac", "ratio"),
) + tuple((f"experiments.{e}.wall_s", "s") for e in EXPERIMENTS) + (
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("machine.wall_s", "s"),
    ("machine.probe_loop_ms", "ms"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows_key(P):
    return (P.n, P.A, P.b, P.B, P.d)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._seen: dict[str, set] = {}
        self._last_vertices = 0
        self._patched: list[tuple] = []  # (container, key, original)
        self.originals: dict[str, object] = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            skip = UNWRAPPED.get(layer, set())
            for fname, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not fname.startswith("_")
                    and fname not in skip
                ):
                    name = f"{layer}.{fname}"
                    self.originals[name] = fn
                    wrappers[id(fn)] = self._wrap(name, fn, _HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patched.append((mod, key, value))
                    setattr(mod, key, wrappers[id(value)])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if id(v) in wrappers and inspect.isfunction(v):
                            self._patched.append((value, k, v))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen = {}

    def _wrap(self, name, fn, hook):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                incl = t1 - t0
                stats[0] += 1
                stats[1] += incl
                stats[2] += incl - frame[1]
                spans.append((frame[0], name, t0, t1, parent, self.op_id))
                if stack:
                    stack[-1][1] += incl
            if hook is not None:
                # the hook's own time is hidden from the caller's self time
                h0 = clock()
                hook(self, args, kwargs, result)
                if stack:
                    stack[-1][1] += clock() - h0
            return result

        return traced

    # -- counting helpers used by the hooks ---------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def note_input(self, name: str, key) -> None:
        seen = self._seen.setdefault(name, set())
        self.add(f"{name}.repeats", key in seen)
        seen.add(key)

    def rank(self, rows) -> int:
        return self.originals["linalg.rank"](rows) if rows else 0

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s
            out[f"{name}.mean_ms"] = 1000 * incl / calls if calls else 0.0
        c = self.counts

        def calls(name):
            return self.stats.get(name, [0])[0]

        def share(num, den):
            return c.get(num, 0) / den if den else 0.0

        out["lp.is_implied.true_frac"] = share("lp.is_implied.true", calls("lp.is_implied"))
        for name in ("polyhedron.project", "circuits.enumerate_circuits"):
            out[f"{name}.repeat_frac"] = share(f"{name}.repeats", calls(name))
        rows_in = c.get("polyhedron.minimize_description.rows_in", 0)
        dropped = rows_in - c.get("polyhedron.minimize_description.rows_out", 0)
        out["polyhedron.minimize_description.rows_dropped_frac"] = dropped / rows_in if rows_in else 0.0
        for key in (
            "polyhedron.vrep.subsets",
            "circuits.enumerate_circuits.subsets",
            "circuits.basic_solutions.subsets",
            "polyhedron.edge_directions.pairs",
        ):
            out[key] = c.get(key, 0)
        for name in ("polyhedron.vrep", "circuits.enumerate_circuits"):
            out[f"{name}.yield"] = share(f"{name}.found", out[f"{name}.subsets"])
        out["polyhedron.edge_directions.yield"] = share(
            "polyhedron.adjacent_vertices.true", out["polyhedron.edge_directions.pairs"]
        )
        out["inheritance.check_inheritance.non_inherited_frac"] = share(
            "inheritance.check_inheritance.non_inherited", calls("inheritance.check_inheritance")
        )
        for e in EXPERIMENTS:
            out[f"experiments.{e}.wall_s"] = self.stats.get(f"experiments.run_{e}", [0, 0.0])[1]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        """One JSON document: span rows [id, name, start_s, end_s, parent, op]."""
        t_origin = min((s[2] for s in self.spans), default=0.0)
        rows = [[i, n, round(a - t_origin, 7), round(b - t_origin, 7), p, op] for i, n, a, b, p, op in self.spans]
        rows.sort()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "op"], "spans": rows}, fh, separators=(",", ":"))


# -- hooks: input-derived work counts, run after each successful call ----


def _is_implied(t, args, kwargs, result):
    t.add("lp.is_implied.true", bool(result))


def _minimize(t, args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    t.add("polyhedron.minimize_description.rows_in", len(P.A) + len(P.B))
    t.add("polyhedron.minimize_description.rows_out", len(result.A) + len(result.B))


def _vrep(t, args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    q, k = len(P.B), P.n - t.rank(P.A)
    t.add("polyhedron.vrep.subsets", comb(q, k) + (comb(q, k - 1) if k >= 1 else 0))
    t.add("polyhedron.vrep.found", len(result.vertices) + len(result.rays))
    t._last_vertices = len(result.vertices)


def _edge_directions(t, args, kwargs, result):
    # edge_directions runs vrep first, so the last vrep seen is its own
    t.add("polyhedron.edge_directions.pairs", comb(t._last_vertices, 2))


def _adjacent(t, args, kwargs, result):
    t.add("polyhedron.adjacent_vertices.true", bool(result))


def _project(t, args, kwargs, result):
    P, pi = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "pi")
    t.note_input("polyhedron.project", (_rows_key(P), pi.matrix))


def _enumerate_circuits(t, args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    t.note_input("circuits.enumerate_circuits", _rows_key(P))
    reduced = P.n - t.rank(P.A)
    pointed = t.rank(P.A + P.B) == P.n
    if reduced > 0 and pointed:
        t.add("circuits.enumerate_circuits.subsets", comb(len(P.B), reduced - 1))
        t.add("circuits.enumerate_circuits.found", len(result.directions))


def _basic_solutions(t, args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    t.add("circuits.basic_solutions.subsets", comb(len(P.B), P.n - t.rank(P.A)))


def _check_inheritance(t, args, kwargs, result):
    t.add("inheritance.check_inheritance.non_inherited", result.verdict != "AllInherited")


_HOOKS = {
    "lp.is_implied": _is_implied,
    "polyhedron.minimize_description": _minimize,
    "polyhedron.vrep": _vrep,
    "polyhedron.edge_directions": _edge_directions,
    "polyhedron.adjacent_vertices": _adjacent,
    "polyhedron.project": _project,
    "circuits.enumerate_circuits": _enumerate_circuits,
    "circuits.basic_solutions": _basic_solutions,
    "inheritance.check_inheritance": _check_inheritance,
}
