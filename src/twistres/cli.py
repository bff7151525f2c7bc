"""Command-line front end.

Subcommands: ``build`` (construct resolutions, print signatures and
generator counts), ``aw`` / ``ez`` (evaluate the reduced or unreduced maps
on a serialized element), ``convert`` (run a conversion pipeline and emit a
certificate), ``verify`` (run the check suite), ``shuffle`` (list signed
shuffles).  Exit codes: 0 pass, 1 verification failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import sys

from .awez import enumerate_shuffles
from .checks import check_chain_map, check_identity_composition
from .errors import TwistresError
from .instances import BUILTIN_NAMES, builtin_instance, parse_instance
from .serialize import complex_registry, element_to_json, json_text, parse_element
from .suite import battery_windows, pipeline_reports, verify_reports


def _load_instance(args, name=None):
    name = args.instance if name is None else name
    if name is None:
        raise TwistresError("no --instance given")
    kwargs = dict(field=args.field, hdeg=args.hdeg, gdeg=args.gdeg)
    if name in BUILTIN_NAMES:
        return builtin_instance(name, **kwargs)
    return parse_instance(name, field_override=args.field,
                          hdeg=args.hdeg, gdeg=args.gdeg)


def cmd_shuffle(args):
    shuffles = enumerate_shuffles(args.ell, args.m)
    if args.json:
        data = [{"images": [k + 1 for k in s.images], "sign": s.sign,
                 "cycles": s.cycle_notation()} for s in shuffles]
        print(json_text({"ell": args.ell, "m": args.m, "count": len(shuffles),
                         "shuffles": data}))
    else:
        for s in shuffles:
            print(f"{s.cycle_notation():<20} sign {s.sign:+d}")
        print(f"({args.ell},{args.m})-shuffles: {len(shuffles)}")
    return 0


def cmd_build(args):
    instance = _load_instance(args)
    registry = complex_registry(instance)
    names = args.complexes or sorted(registry)
    out = {}
    for name in names:
        if name not in registry:
            raise TwistresError(f"unknown complex {name!r}; "
                                f"available: {', '.join(sorted(registry))}")
        X = registry[name]
        levels = []
        for n in range(X.n_max + 1):
            term = X.term(n)
            comps = []
            for comp, sig in term.components:
                comps.append({"component": list(comp) if comp != () else None,
                              "signature": sig.label()})
            gens = {}
            for d in range(instance.budgets.gdeg + 1):
                k = len(X.free_generators(n, d))
                if k:
                    gens[str(d)] = k
            levels.append({"degree": n, "components": comps,
                           "free_generators_by_internal_degree": gens})
        out[name] = levels
    if args.json:
        print(json_text({"instance": instance.name,
                         "field": instance.field.name, "complexes": out}))
    else:
        print(f"instance {instance.name} over {instance.field.name}")
        for name in names:
            print(f"complex {name}:")
            for level in out[name]:
                print(f"  n={level['degree']}")
                for comp in level["components"]:
                    tag = "" if comp["component"] is None else f"{tuple(comp['component'])}: "
                    print(f"    {tag}{comp['signature']}")
                gens = level["free_generators_by_internal_degree"]
                if gens:
                    listed = ", ".join(f"deg {d}: {k}" for d, k in gens.items())
                    print(f"    free generators: {listed}")
    return 0


def _evaluate_map(args, which):
    instance = _load_instance(args)
    maps = instance.bar_maps()
    registry = complex_registry(instance)
    with open(args.element, "r", encoding="utf-8") as fh:
        payload = fh.read()
    cname, n, elt = parse_element(instance, payload, complexes=registry)
    if which == "aw":
        fmap = maps.aw_unreduced if args.unreduced else maps.aw_reduced
        expected = "bar" if args.unreduced else "reduced_bar"
        target_name = "bar_product" if args.unreduced else "reduced_bar_product"
    else:
        fmap = maps.ez_unreduced if args.unreduced else maps.ez_reduced
        expected = "bar_product" if args.unreduced else "reduced_bar_product"
        target_name = "bar" if args.unreduced else "reduced_bar"
    if cname != expected:
        raise TwistresError(
            f"{which} expects an element of {expected!r}, got {cname!r}")
    result = fmap.apply(n, elt)
    data = element_to_json(fmap.target, n, result)
    data["complex"] = target_name
    if args.json:
        print(json_text(data))
    else:
        print(result if not result.is_zero() else "0")
    return 0


def cmd_aw(args):
    return _evaluate_map(args, "aw")


def cmd_ez(args):
    return _evaluate_map(args, "ez")


def cmd_convert(args):
    instance = _load_instance(args)
    if args.pipeline == "koszul-smash":
        reports = pipeline_reports(instance)
        pipe = instance.koszul_pipeline()
        h, d_top = pipe.window
        samples = []
        for n in range(min(2, h) + 1):
            for d in range(min(2, d_top) + 1):
                for g in pipe.X.free_generators(n, d):
                    image = pipe.iota.apply(n, g)
                    samples.append({"degree": n, "generator": str(g),
                                    "iota": str(image), "pi_iota_is_identity":
                                    pipe.pi.apply(n, image) == g})
        cert = {
            "instance": instance.name,
            "pipeline": "koszul-smash",
            "complex": pipe.X.name,
            "koszul_dims": {str(n): pipe.X.C.dim_tilde(n)
                            for n in range(pipe.X.n_max + 1)},
            "generator_images": samples,
            "checks": [r.to_json() for r in reports],
        }
    else:       # bar-identity, the parser's other choice
        maps = instance.bar_maps()
        window = battery_windows(instance).square
        reports = [check_chain_map(f, *window, instance=instance.name)
                   for f in (maps.aw_reduced, maps.ez_reduced)]
        reports.append(check_identity_composition(
            maps.aw_reduced, maps.ez_reduced, *window, instance=instance.name,
            name="AW o EZ = 1"))
        cert = {"instance": instance.name, "pipeline": "bar-identity",
                "checks": [r.to_json() for r in reports]}
    ok = all(r.ok for r in reports)
    if args.json:
        print(json_text(cert))
    else:
        for r in reports:
            print(r.line())
    return 0 if ok else 1


def verify_text(reports):
    """The report text ``verify --json`` prints for ``reports``, without
    print's newline."""
    return json_text({"reports": [r.to_json() for r in reports],
                      "ok": all(r.ok for r in reports)})


def cmd_verify(args):
    names = [args.instance] if args.instance else list(BUILTIN_NAMES)
    all_reports = []
    for name in names:
        all_reports.extend(verify_reports(_load_instance(args, name),
                                          seed=args.seed,
                                          exhaustive=args.exhaustive))
    ok = all(r.ok for r in all_reports)
    if args.json:
        print(verify_text(all_reports))
    else:
        for r in all_reports:
            print(r.line())
        n_bad = sum(1 for r in all_reports if not r.ok)
        print(f"{len(all_reports)} checks, {n_bad} unexpected outcomes")
    return 0 if ok else 1


def _add_globals(parser, suppress=False):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--field", default=default,
                        help="override the scalar field (Q, F3, F5, ...)")
    parser.add_argument("--hdeg", type=int, default=default,
                        help="homological degree budget")
    parser.add_argument("--gdeg", type=int, default=default,
                        help="internal degree budget")
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="machine-readable output")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="twistres",
        description="Exact kernel for twisted tensor products and their "
                    "Alexander-Whitney / Eilenberg-Zilber maps.")
    _add_globals(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_globals(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shuffle", parents=[common],
                       help="list (ell, m)-shuffles with signs")
    p.add_argument("ell", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(fn=cmd_shuffle)

    p = sub.add_parser("build", parents=[common],
                       help="construct named resolutions")
    p.add_argument("--instance", required=True)
    p.add_argument("--complex", dest="complexes", action="append",
                   help="restrict to a named complex (repeatable)")
    p.set_defaults(fn=cmd_build)

    for which in ("aw", "ez"):
        p = sub.add_parser(which, parents=[common],
                           help=f"evaluate the {which.upper()} map on a serialized element")
        p.add_argument("--instance", required=True)
        p.add_argument("--element", required=True,
                       help="path to an element JSON file")
        p.add_argument("--unreduced", action="store_true",
                       help="use the unreduced bar version")
        p.set_defaults(fn=cmd_aw if which == "aw" else cmd_ez)

    p = sub.add_parser("convert", parents=[common],
                       help="run a conversion pipeline")
    p.add_argument("--instance", required=True)
    p.add_argument("--pipeline", default="koszul-smash",
                   choices=("koszul-smash", "bar-identity"))
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification suite")
    p.add_argument("--instance", default=None,
                   help="a built-in name or JSON path (default: all built-ins)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled bimodule coefficients")
    p.add_argument("--exhaustive", action="store_true",
                   help="exhaust coefficient pairs in bimodule checks")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except TwistresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
