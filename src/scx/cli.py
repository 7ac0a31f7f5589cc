"""Command line front end.

Five subcommands cover the library surface: ``spectrum`` and ``betti``
for a single complex, ``verify`` for the seeded check campaigns,
``reproduce`` for the named headline computations, and ``matroid`` for
general-position invariants.  Canonical JSON goes to stdout (wall time
is reported on stderr so reruns stay byte-identical); ``--pretty``
switches to a human table.

Exit codes: 0 all checks passed, 1 a check failed, 2 input could not be
parsed or has the wrong shape, 3 a numeric certification failed, 4 a
size or applicability guard refused the computation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .campaigns import REPRODUCE_NAMES, SUITES, run_reproduce, run_suite
from .complexes import (Partition, _OverBudget, complex_from_json, from_missing_faces,
                        partition_from_json)
from .domination import _check_partition
from .homology import betti_exact, spectrum
from .matroids import (
    MAX_GP_CLASSES,
    UniformMatroid,
    ag23_complex,
    ag23_matroid,
    check_fractional_gp_hall,
    check_gp_hall,
    matroid_from_json,
    pg33_complex,
    pg33_matroid,
    phi,
    phi_star,
)
from .reports import VerificationReport, jsonable

CHECK_FAILURE = 1
PARSE_FAILURE = 2
NUMERIC_FAILURE = 3
GUARD_FAILURE = 4


BUILTIN_COMPLEXES = {
    "ag23": ag23_complex,
    "pg33": pg33_complex,
    "hollow-triangle": lambda: from_missing_faces(3, [(0, 1, 2)]),
}
BUILTIN_PARTITIONS = {
    "3-parallel-lines": lambda: Partition(((0, 1, 2), (3, 4, 5), (6, 7, 8))),
}
BUILTIN_MATROIDS = {"builtin:AG23": ag23_matroid, "builtin:PG33": pg33_matroid}


def _load(token, builtins, from_json, what):
    """The builtin named ``token``, else the JSON file at that path."""
    make = builtins.get(token)
    if make is not None:
        return make()
    try:
        text = Path(token).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {what} {token!r}: {exc}") from exc
    return from_json(text)


def _load_matroid(token):
    if token.startswith("builtin:") and token not in BUILTIN_MATROIDS:
        raise ValueError(f"unknown builtin matroid {token[len('builtin:'):]!r}")
    if token.startswith("uniform:"):
        parts = token[len("uniform:"):].split(",")
        if len(parts) != 2 or not all(p.strip().lstrip("-").isdigit() for p in parts):
            raise ValueError(f"uniform spec must look like uniform:R,N, got {token!r}")
        return UniformMatroid(int(parts[0]), int(parts[1]))
    return _load(token, BUILTIN_MATROIDS, matroid_from_json, "matroid")


def _parse_subset(text, n):
    if text is None:
        return None
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items or not all(p.lstrip("-").isdigit() for p in items):
        raise ValueError(f"subset must be comma-separated integers, got {text!r}")
    subset = tuple(int(p) for p in items)
    bad = [v for v in subset if not 0 <= v < n]
    if bad:
        raise ValueError(f"subset elements {bad} outside the ground set 0..{n - 1}")
    return subset


def _fail(code, message):
    print(f"scx: {message}", file=sys.stderr)
    return code


def _emit_report(rep, pretty):
    if pretty:
        print(rep.to_table())
    else:
        print(rep.to_json())
        if rep.wall_time_s is not None:
            print(f"wall time: {rep.wall_time_s:.3f} s", file=sys.stderr)
    return 0 if rep.passed else CHECK_FAILURE


def cmd_spectrum(args):
    try:
        x = _load(args.input, BUILTIN_COMPLEXES, complex_from_json, "complex")
    except ValueError as exc:
        return _fail(GUARD_FAILURE if isinstance(exc, _OverBudget) else PARSE_FAILURE, exc)
    t0 = time.perf_counter()
    rep = spectrum(x, args.dim)
    wall = time.perf_counter() - t0
    if args.pretty:
        print(f"degree {rep.k} spectrum on {x.n} vertices "
              f"({len(rep.eigenvalues)} eigenvalues, guard tol {rep.tol:g})")
        print(f"mu = {rep.mu:.12g}   lambda_max = {rep.lambda_max:.12g}")
        print(" ".join(f"{e:.9g}" for e in rep.eigenvalues))
    else:
        doc = {
            "dim": rep.k,
            "n": x.n,
            "eigenvalues": jsonable(list(rep.eigenvalues)),
            "mu": jsonable(rep.mu),
            "lambda_max": jsonable(rep.lambda_max),
            "tol": rep.tol,
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        print(f"wall time: {wall:.3f} s", file=sys.stderr)
    return 0


def cmd_betti(args):
    try:
        x = _load(args.input, BUILTIN_COMPLEXES, complex_from_json, "complex")
    except ValueError as exc:
        return _fail(GUARD_FAILURE if isinstance(exc, _OverBudget) else PARSE_FAILURE, exc)
    print(betti_exact(x, args.dim))
    return 0


# verify option -> the SUITES parameter it sets
_VERIFY_KNOBS = {"--n-max": "n_max", "--d-max": "d_max",
                 "--slack-tol": "tol", "--kernel-tol": "kernel_tol"}


def cmd_verify(args):
    # an option the suite does not take is refused, not silently dropped
    defaults = SUITES[args.suite][0]
    params = {}
    for option, key in _VERIFY_KNOBS.items():
        value = getattr(args, option[2:].replace("-", "_"))
        if value is None:
            continue
        if key not in defaults:
            raise ValueError(f"{option} does not apply to suite {args.suite!r}")
        params[key] = value
    rep = run_suite(args.suite, seed=args.seed, trials=args.trials, **params)
    return _emit_report(rep, args.pretty)


def cmd_reproduce(args):
    return _emit_report(run_reproduce(args.name, stretch=args.stretch), args.pretty)


def cmd_matroid(args):
    try:
        m = _load_matroid(args.matroid)
        subset = _parse_subset(args.subset, m.n)
        partition = (_load(args.partition, BUILTIN_PARTITIONS, partition_from_json, "partition")
                     if args.partition else None)
        if args.operation == "hall" and partition is None:
            raise ValueError("the hall operation needs --partition")
        if partition is not None:
            _check_partition(partition, MAX_GP_CLASSES, m.n, "ground set")
    except ValueError as exc:
        return _fail(PARSE_FAILURE, exc)
    t0 = time.perf_counter()
    if args.operation == "phi":
        value = phi(m, subset)
    elif args.operation == "phistar":
        value = phi_star(m, subset)
    else:
        records = (
            check_fractional_gp_hall(m, partition),
            check_gp_hall(m, partition),
        )
        rep = VerificationReport(
            "matroid-hall", 0, {"matroid": args.matroid},
            records, wall_time_s=time.perf_counter() - t0)
        return _emit_report(rep, args.pretty)
    print(value)
    print(f"wall time: {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scx",
        description="Spectral, homological, and matroid checks for "
                    "simplicial complexes stored by minimal non-faces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    builtin_names = ", ".join(BUILTIN_COMPLEXES)
    sp = sub.add_parser("spectrum", help="full-Laplacian eigenvalues in one degree")
    sp.add_argument("input", help=f"complex JSON file or builtin ({builtin_names})")
    sp.add_argument("--dim", type=int, required=True, help="cochain degree, -1 upward")
    sp.add_argument("--pretty", action="store_true", help="human table instead of JSON")
    sp.set_defaults(fn=cmd_spectrum)

    bt = sub.add_parser("betti", help="exact rational Betti number in one degree")
    bt.add_argument("input", help=f"complex JSON file or builtin ({builtin_names})")
    bt.add_argument("--dim", type=int, required=True)
    bt.set_defaults(fn=cmd_betti)

    vf = sub.add_parser("verify", help="run one seeded verification campaign")
    vf.add_argument("suite", choices=sorted(SUITES), metavar="suite",
                    help="one of: " + ", ".join(sorted(SUITES)))
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--trials", type=int, default=None,
                    help="override every part's trial count (at least 1)")
    vf.add_argument("--n-max", type=int, default=None, dest="n_max",
                    help="largest vertex count drawn per trial")
    vf.add_argument("--d-max", type=int, default=None, dest="d_max",
                    help="largest missing-face dimension drawn per trial")
    vf.add_argument("--kernel-tol", type=float, default=None, dest="kernel_tol",
                    help="eigenvalue threshold treated as kernel")
    vf.add_argument("--slack-tol", type=float, default=None, dest="slack_tol",
                    help="tolerance on inequality margins")
    vf.add_argument("--pretty", action="store_true")
    vf.set_defaults(fn=cmd_verify)

    rp = sub.add_parser("reproduce", help="recompute a named headline quantity")
    rp.add_argument("name", choices=REPRODUCE_NAMES, metavar="name",
                    help="one of: " + ", ".join(REPRODUCE_NAMES))
    rp.add_argument("--stretch", action="store_true",
                    help="also attempt the large homology computation "
                         "(refused with its matrix sizes when over budget)")
    rp.add_argument("--pretty", action="store_true")
    rp.set_defaults(fn=cmd_reproduce)

    mt = sub.add_parser("matroid", help="general-position invariants of a matroid")
    mt.add_argument("operation", choices=("phi", "phistar", "hall"), metavar="operation",
                    help="phi (largest general-position subset), phistar "
                         "(fractional relaxation, exact rational), hall "
                         "(colorful threshold checks; needs --partition)")
    mt.add_argument("--matroid", required=True,
                    help="matroid JSON file, builtin:AG23, builtin:PG33, or uniform:R,N")
    mt.add_argument("--subset", default=None,
                    help="comma-separated ground elements (default: all)")
    mt.add_argument("--partition", default=None,
                    help="partition JSON file or builtin 3-parallel-lines")
    mt.add_argument("--pretty", action="store_true")
    mt.set_defaults(fn=cmd_matroid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # input errors are caught per command (exit 2); past parsing, a
    # ValueError is a guard refusing the work and a RuntimeError a
    # failed certification
    try:
        return args.fn(args)
    except ValueError as exc:
        return _fail(GUARD_FAILURE, exc)
    except RuntimeError as exc:
        return _fail(NUMERIC_FAILURE, exc)


if __name__ == "__main__":
    sys.exit(main())
