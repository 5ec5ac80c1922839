"""Command-line front end.

Four verbs: `construct` emits stock polyhedra and projection matrices as
JSON, `circuits` enumerates circuit directions of a polyhedron file,
`check` runs the inheritance report for a domain/map pair, and `reproduce`
re-runs a scripted experiment and persists its artifacts.

Exit codes are part of the contract so shell pipelines can branch on
mathematical outcomes: 0 success (or AllInherited), 1 failed claim (or
NotAllInherited), 2 input error, 3 work budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import jsonio
from .circuits import enumerate_circuits
from .constructions import (
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
from .errors import (
    BudgetExceeded,
    CorrespondenceViolation,
    PolyhedronError,
    PreconditionViolation,
)
from .experiments import EXPERIMENTS, run_experiment
from .inheritance import ALL_INHERITED, check_inheritance
from .polyhedron import DEFAULT_BUDGET, minimize_description, work_budget

EXIT_OK = 0
EXIT_FAILED_CLAIM = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

CONSTRUCT_NAMES = (
    "cube",
    "simplex",
    "orthant",
    "crosspoly",
    "croppedcross",
    "perturbed4",
    "transport",
    "pi",
    "pialpha",
    "piprime",
)


def _rational(text: str) -> str:
    """A `--delta` value as typed, once it reads as a rational with a nonzero denominator."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    return text


def _sizes(text: str) -> tuple[int, ...]:
    """A `--sizes` value, comma-separated integers such as 1,4."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _need(value, flag: str, name: str):
    if value is None:
        raise PreconditionViolation(f"construct {name} requires {flag}")
    return value


def _construct_payload(args) -> dict:
    name = args.name
    if name in ("cube", "simplex", "orthant"):
        size = args.m if args.m is not None else args.n
        size = int(_need(size, "--m", name))
        builder = {"cube": hypercube, "simplex": simplex, "orthant": orthant}[name]
        return jsonio.poly_to_dict(builder(size))
    if name == "crosspoly":
        return jsonio.poly_to_dict(cross_polytope(int(_need(args.n, "--n", name))))
    if name == "croppedcross":
        n = int(_need(args.n, "--n", name))
        delta = Fraction(args.delta) if args.delta is not None else Fraction(3, 4)
        return jsonio.poly_to_dict(cropped_cross_polytope(n, delta))
    if name == "perturbed4":
        return jsonio.poly_to_dict(perturbed_simple_4polytope(args.seed or 0))
    if name == "transport":
        n = int(_need(args.n, "--n", name))
        k = int(_need(args.k, "--k", name))
        return jsonio.poly_to_dict(transportation(n, k, _need(args.sizes, "--sizes", name)))
    if name == "pi":
        n = int(_need(args.n, "--n", name))
        m = int(_need(args.m, "--m", name))
        return jsonio.map_to_dict(pi_matrix(n, m))
    if name == "pialpha":
        m = int(_need(args.m, "--m", name))
        alpha = int(_need(args.alpha, "--alpha", name))
        return jsonio.map_to_dict(pi_alpha_matrix(m, alpha))
    if name == "piprime":
        n = int(_need(args.n, "--n", name))
        m = int(_need(args.m, "--m", name))
        return jsonio.map_to_dict(pi_prime_matrix(n, m))
    raise PreconditionViolation(f"unknown construction {name!r}")


def cmd_construct(args) -> int:
    payload = _construct_payload(args)
    if args.out:
        jsonio.dump(payload, args.out)
    else:
        sys.stdout.write(jsonio.dumps(payload))
    return EXIT_OK


def cmd_circuits(args) -> int:
    P = jsonio.poly_from_dict(jsonio.load(args.input))
    if args.minimize:
        P = minimize_description(P)
    C = enumerate_circuits(P)
    sys.stdout.write(jsonio.dumps(jsonio.circuits_to_dict(C)))
    return EXIT_OK


def cmd_check(args) -> int:
    Q = jsonio.poly_from_dict(jsonio.load(args.domain))
    pi = jsonio.map_from_dict(jsonio.load(args.map))
    P = jsonio.poly_from_dict(jsonio.load(args.image)) if args.image else None
    report = check_inheritance(Q, pi, P_desc=P)
    sys.stdout.write(jsonio.dumps(jsonio.report_to_dict(report)))
    return EXIT_OK if report.verdict == ALL_INHERITED else EXIT_FAILED_CLAIM


def cmd_reproduce(args) -> int:
    params = {
        key: value
        for key, value in (
            ("n", args.n),
            ("m", args.m),
            ("delta", args.delta),
            ("seed", args.seed),
        )
        if value is not None
    }
    out_dir = args.out_dir if args.out_dir else os.path.join("runs", args.experiment)
    result = run_experiment(args.experiment, params, out_dir)
    sys.stdout.write(jsonio.dumps(result.to_dict()))
    if result.error:  # set only for a blown budget
        print(result.error, file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK if result.passed else EXIT_FAILED_CLAIM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycircuits",
        description="circuit directions of rational polyhedra and their behavior under projection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a stock polyhedron or projection matrix as JSON")
    p.add_argument("name", choices=CONSTRUCT_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--delta", type=_rational, help="rational like 3/4")
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--sizes", type=_sizes, help="comma-separated cluster sizes, e.g. 1,4")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("circuits", help="enumerate circuit directions of a polyhedron file")
    p.add_argument("input")
    p.add_argument("--minimize", action="store_true", help="drop redundant rows first")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_circuits)

    p = sub.add_parser("check", help="inheritance report for a domain and a projection")
    p.add_argument("domain")
    p.add_argument("map")
    p.add_argument("image", nargs="?", help="optional trusted description of the image")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reproduce", help="re-run a scripted experiment and write artifacts")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--delta", type=_rational, help="rational like 3/4")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    budget = getattr(args, "budget", None)
    try:
        with work_budget(DEFAULT_BUDGET if budget is None else budget):
            return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CorrespondenceViolation as exc:
        print(f"claim failed: {exc}", file=sys.stderr)
        return EXIT_FAILED_CLAIM
    except (OSError, ValueError, KeyError, PolyhedronError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
