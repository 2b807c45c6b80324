"""Command-line front end.

Exit codes: 0 success, 1 validation/property failure (the suite found a
failing check), 2 bad input.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .bridge import DeltaPoint, GammaPoint, delta_to_gamma, gamma_to_delta
from .errors import TropimeasError
from .geometry import dap_demo, homotopy_H
from .measure import combine, flatten, integrate
from .pseudometric import aggregate_d, hat_d, oracle_sup, tilde_d
from .rmax import BOTTOM
from .suite import SuiteConfig, default_seed, run_suite

import numpy as np


def _print(obj):
    print(jsonio.dump(jsonio.sanitize(obj)))


def cmd_validate(args):
    space = jsonio.load_space(args.space)
    _print({"points": list(space.points), "diameter": space.diameter,
            "valid": True})
    return 0


def cmd_dist(args):
    mu = jsonio.load_measure(args.measure1)
    nu = jsonio.load_measure(args.measure2)
    report = hat_d(args.n, mu, nu)
    out = {
        "n": report.n,
        "value": report.value,
        "normalized": tilde_d(args.n, mu, nu),
        "witness": {"direction": report.witness_direction,
                    "atom": report.witness_atom},
    }
    if args.aggregate:
        out["aggregate"] = aggregate_d(mu, nu, args.tol)
        out["tol"] = args.tol
    if args.emit_csv:
        with open(args.emit_csv, "w") as fh:
            fh.write("n,hat_d,tilde_d\n")
            for k in range(1, args.n + 1):
                fh.write(f"{k},{hat_d(k, mu, nu).value},{tilde_d(k, mu, nu)}\n")
    _print(out)
    return 0


def cmd_integrate(args):
    mu = jsonio.load_measure(args.measure)
    values, _ = jsonio.load_function(args.function, mu.space)
    _print({"value": integrate(mu, values)})
    return 0


def cmd_pushforward(args):
    mu = jsonio.load_measure(args.measure)
    f = jsonio.load_map(args.map, mu.space)
    from .measure import pushforward

    _print(jsonio.measure_to_obj(pushforward(mu, f)))
    return 0


def cmd_flatten(args):
    M = jsonio.load_meta_measure(args.meta)
    _print(jsonio.measure_to_obj(flatten(M)))
    return 0


def cmd_combine(args):
    obj = jsonio._load(args.spec)
    from pathlib import Path

    space = jsonio._resolve_space(obj.get("space"), Path(args.spec).parent,
                                  args.spec)
    pairs = obj.get("pairs")
    if not isinstance(pairs, list) or not all(isinstance(p, dict) for p in pairs):
        raise jsonio.BadInput(f"{args.spec}: missing or malformed 'pairs'")
    parsed = [
        (jsonio.rmax_from_json(p.get("alpha", 0.0)),
         jsonio.measure_from_obj(p.get("measure", {}), space, args.spec,
                                 normalize=True))
        for p in pairs
    ]
    _print(jsonio.measure_to_obj(combine(parsed)))
    return 0


def cmd_homotopy(args):
    mu = jsonio.load_measure(args.measure)
    mu0 = jsonio.load_measure(args.measure0, space=mu.space)
    lam = BOTTOM if args.lam == "-inf" else float(args.lam)
    _print(jsonio.measure_to_obj(homotopy_H(mu, mu0, lam)))
    return 0


def cmd_bridge(args):
    if args.to_simplex == args.to_tropical:
        raise jsonio.BadInput("pass exactly one of --to-simplex/--to-tropical")
    if args.to_simplex:
        z = jsonio.load_vector(args.vector, "z")
        out = gamma_to_delta(GammaPoint(tuple(z)))
        result = {"p": list(out.p)}
        rows = zip(z, out.p)
    else:
        p = jsonio.load_vector(args.vector, "p")
        out = delta_to_gamma(DeltaPoint(tuple(p)))
        result = {"z": list(out.z)}
        rows = zip(p, out.z)
    if args.emit_csv:
        with open(args.emit_csv, "w") as fh:
            fh.write("index,input,output\n")
            for i, (a, b) in enumerate(rows):
                fh.write(f"{i},{a},{b}\n")
    _print(result)
    return 0


def cmd_dap_demo(args):
    space = jsonio.load_space(args.space)
    net = [p.strip() for p in args.net.split(",") if p.strip()]
    rng = np.random.default_rng(args.seed)
    report = dap_demo(space, net, float(args.lam), args.samples, args.n,
                      rng=rng)
    _print({
        "disjoint": report.disjoint,
        "net": net,
        "lambda": float(args.lam),
        "samples": args.samples,
        "n": args.n,
        "displacement_bound_g1": report.displacement_bound_g1,
        "max_displacement_g1": report.max_displacement_g1,
        "displacement_bound_g2": report.displacement_bound_g2,
        "max_displacement_g2": report.max_displacement_g2,
    })
    return 0


def cmd_oracle_check(args):
    mu = jsonio.load_measure(args.measure1)
    nu = jsonio.load_measure(args.measure2)
    exact = hat_d(args.n, mu, nu).value
    grid = oracle_sup(args.n, mu, nu, args.step)
    ok = grid <= exact + 1e-12 and exact <= grid + 2 * args.step
    _print({"n": args.n, "step": args.step, "closed_form": exact,
            "oracle": grid, "sandwich_ok": ok})
    return 0 if ok else 1


def cmd_suite(args):
    def parse_overrides(items, cast):
        out = {}
        for item in items or []:
            if "=" not in item:
                raise jsonio.BadInput(f"override {item!r} must look like NAME=VALUE")
            name, _, value = item.partition("=")
            out[name] = cast(value)
        return out

    config = SuiteConfig(
        seed=args.seed,
        counts=parse_overrides(args.count, int),
        tolerances=parse_overrides(args.tol, float),
        output=args.output,
    )
    report = run_suite(config)
    text = jsonio.dump(jsonio.sanitize(report))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
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
    p.add_argument("--emit-csv")
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
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--output")
    p.add_argument("--count", action="append", metavar="NAME=K")
    p.add_argument("--tol", action="append", metavar="NAME=V")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TropimeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
