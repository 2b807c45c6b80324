"""Command-line front end.

Exit codes: 0 success, 1 validation/property failure (the suite found a
failing check), 2 bad input.

Each command imports the modules it runs when it runs, so one call loads
(and, without bytecode, compiles) only its own command's modules.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from . import jsonio
from .errors import TropimeasError

MAX_CSV_LEVELS = 10**5  # dist --emit-csv writes one row per level 1..n


def _print(obj):
    print(jsonio.dump(jsonio.sanitize(obj)))


def cmd_validate(args):
    space = jsonio.load_space(args.space)
    _print({"points": list(space.points), "diameter": space.diameter,
            "valid": True})
    return 0


def cmd_dist(args):
    from .pseudometric import _walk, aggregate_d, hat_d

    mu = jsonio.load_measure(args.measure1)
    nu = jsonio.load_measure(args.measure2)
    report = hat_d(args.n, mu, nu)
    if args.emit_csv and report.n > MAX_CSV_LEVELS:
        raise jsonio.BadInput(f"--emit-csv budget: --n <= {MAX_CSV_LEVELS} levels")
    out = {
        "n": report.n,
        "value": report.value,
        "normalized": report.value / report.n,
        "witness": {"direction": report.witness_direction,
                    "atom": report.witness_atom},
    }
    if args.aggregate:
        out["aggregate"] = aggregate_d(mu, nu, args.tol)
        out["tol"] = args.tol
    if args.emit_csv:
        with open(args.emit_csv, "w") as fh:
            fh.write("n,hat_d,tilde_d\n")
            values = _walk(mu, nu, range(1, report.n + 1))
            for k, v in enumerate(values, 1):
                fh.write(f"{k},{v},{v / k}\n")
    _print(out)
    return 0


def cmd_integrate(args):
    from .measure import integrate

    mu = jsonio.load_measure(args.measure)
    values = jsonio.load_function(args.function)
    _print({"value": integrate(mu, values)})
    return 0


def cmd_pushforward(args):
    from .measure import pushforward

    mu = jsonio.load_measure(args.measure)
    f = jsonio.load_map(args.map, mu.space)
    _print(jsonio.measure_to_obj(pushforward(mu, f)))
    return 0


def cmd_flatten(args):
    from .measure import flatten

    M = jsonio.load_meta_measure(args.meta)
    _print(jsonio.measure_to_obj(flatten(M)))
    return 0


def cmd_combine(args):
    from .measure import combine

    _print(jsonio.measure_to_obj(combine(jsonio.load_combine(args.spec))))
    return 0


def cmd_homotopy(args):
    from .geometry import homotopy_H

    mu = jsonio.load_measure(args.measure)
    mu0 = jsonio.load_measure(args.measure0)
    _print(jsonio.measure_to_obj(homotopy_H(mu, mu0, float(args.lam))))
    return 0


def cmd_bridge(args):
    from .bridge import delta_to_gamma_rows, gamma_to_delta_rows

    if args.to_simplex == args.to_tropical:
        raise jsonio.BadInput("pass exactly one of --to-simplex/--to-tropical")
    key, out, rows = (("z", "p", gamma_to_delta_rows) if args.to_simplex
                      else ("p", "z", delta_to_gamma_rows))
    _print({out: rows([jsonio.load_vector(args.vector, key)])[0].tolist()})
    return 0


def cmd_dap_demo(args):
    import numpy as np

    from .geometry import dap_demo

    if args.seed < 0:
        raise jsonio.BadInput("--seed must be an integer >= 0")
    space = jsonio.load_space(args.space)
    net = [p.strip() for p in args.net.split(",") if p.strip()]
    rng = np.random.default_rng(args.seed)
    report = dap_demo(space, net, float(args.lam), args.samples, args.n,
                      rng=rng)
    _print({"net": net, "lambda": float(args.lam), "samples": args.samples,
            "n": args.n, **dataclasses.asdict(report)})
    return 0


def cmd_oracle_check(args):
    from .pseudometric import _sandwich, hat_d, oracle_sup

    mu = jsonio.load_measure(args.measure1)
    nu = jsonio.load_measure(args.measure2)
    exact = hat_d(args.n, mu, nu).value
    grid = oracle_sup(args.n, mu, nu, args.step)
    ok = _sandwich([(exact, grid)], args.step)["passed"]
    _print({"n": args.n, "step": args.step, "closed_form": exact,
            "oracle": grid, "sandwich_ok": ok})
    return 0 if ok else 1


def cmd_suite(args):
    from .suite import SuiteConfig, run_suite

    counts = {}
    for item in args.count or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise jsonio.BadInput(f"--count {item!r} must look like NAME=K")
        counts[name] = int(value)
    config = SuiteConfig(seed=args.seed, counts=counts)
    timings = {}
    with contextlib.ExitStack() as files:  # both opened before any check runs
        fh = files.enter_context(open(args.output, "w")) if args.output else sys.stdout
        times = files.enter_context(open(args.timings, "w")) if args.timings else None
        if times is not None and fh is not sys.stdout and os.path.samestat(
                os.fstat(fh.fileno()), os.fstat(times.fileno())):
            raise jsonio.BadInput(f"--output and --timings are the same file: {args.timings}")
        report = run_suite(config, timings)
        fh.write(jsonio.dump(jsonio.sanitize(report)) + "\n")
        if times is not None:
            jsonio.dump(timings, times)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropimeas",
        description="Max-plus measures on finite metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a space file")
    p.add_argument("space")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("dist", help="dual distance between two measures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--aggregate", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--emit-csv")
    p.add_argument("measure1")
    p.add_argument("measure2")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("integrate", help="Maslov integral of a function")
    p.add_argument("measure")
    p.add_argument("function")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("pushforward", help="image measure along a point map")
    p.add_argument("measure")
    p.add_argument("map")
    p.set_defaults(fn=cmd_pushforward)

    p = sub.add_parser("flatten", help="collapse a measure of measures")
    p.add_argument("meta")
    p.set_defaults(fn=cmd_flatten)

    p = sub.add_parser("combine", help="max-plus combination of measures")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_combine)

    p = sub.add_parser("homotopy", help="contraction step mu oplus (lam odot mu0)")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("measure")
    p.add_argument("measure0")
    p.set_defaults(fn=cmd_homotopy)

    p = sub.add_parser("bridge", help="tropical <-> probability simplex")
    p.add_argument("--to-simplex", action="store_true")
    p.add_argument("--to-tropical", action="store_true")
    p.add_argument("vector")
    p.set_defaults(fn=cmd_bridge)

    p = sub.add_parser("dap-demo", help="disjoint-approximation demonstration")
    p.add_argument("--net", required=True, help="comma-separated net points")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("space")
    p.set_defaults(fn=cmd_dap_demo)

    p = sub.add_parser("oracle-check", help="grid oracle vs closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("measure1")
    p.add_argument("measure2")
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("suite", help="run the seeded property/acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.add_argument("--timings", metavar="FILE",
                   help="write each check's wall time in seconds as JSON")
    p.add_argument("--count", action="append", metavar="NAME=K",
                   help="instance count of a criterion, K >= 1 "
                        "(names: suite.COUNTS)")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TropimeasError, OSError, ValueError) as exc:  # OSError: unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
