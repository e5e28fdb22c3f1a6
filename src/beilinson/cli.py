"""Command-line interface.

Subcommands construct representations, check module-theoretic properties,
compute Jordan types, walk Auslander-Reiten orbits, and compare modules.
Every numeric flag can also be supplied through an environment variable
with the ``BNR_`` prefix (e.g. ``BNR_P=5`` stands in for ``--p 5``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import emod, kronecker, properties, reps
from .linalg import check_modulus

ENV_PREFIX = "BNR_"
FAMILIES = ("projective", "injective", "simple", "m", "w", "x", "e")
FORMATS = ("text", "json")


def _env_default(name: str, unset=None):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), unset)


def _add_int(parser: argparse.ArgumentParser, name: str, required: bool = False,
             default=None, help: str = ""):
    env = _env_default(name)
    if env is not None:
        # argparse converts a string default with type, as if given on the line
        default, required = env, False
    parser.add_argument(f"--{name}", type=int, required=required and default is None,
                        default=default, help=help)


def _format_choice(value: str) -> str:
    """value if it names an output format.  argparse also applies a type
    to a string default such as BNR_FORMAT, which its choices check skips."""
    if value not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(map(repr, FORMATS))})")
    return value


def _parse_coeffs(text: str) -> tuple[int, ...]:
    """The integers of a list such as 1,0,0, as the argparse type of --alpha
    and --lam: an empty or non-integer value is a usage error."""
    try:
        coeffs = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        coeffs = ()
    if not coeffs:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: need comma-separated integers such as 1,0,0")
    return coeffs


def _usage_error(message: str):
    """A missing flag: one stderr line and exit status 2, argparse's usage code."""
    print(f"beilinson: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _invalid(message: str):
    """Invalid input: one stderr line and exit status 3 (a false verdict is 1)."""
    print(f"beilinson: {message}", file=sys.stderr)
    raise SystemExit(3)


def _alpha_from_args(args, p: int, r: int) -> reps.ProjPoint:
    if args.alpha is None:
        _usage_error("an --alpha value such as '1,0,0' is required here")
    raw = ",".join(map(str, args.alpha))
    try:
        point = reps.ProjPoint(p, args.alpha)
    except ValueError as exc:
        _invalid(f"invalid --alpha {raw!r}: {exc}")
    if point.r != r:
        _invalid(f"invalid --alpha {raw!r}: need {r} coordinates")
    return point


def _build_rep(args) -> reps.BeilinsonRep:
    kind = args.family
    if kind is None:
        _usage_error("supply either --rep FILE or a --family with its parameters")
    if args.p is None or args.r is None:
        _usage_error("--p and --r are required when constructing a family member")
    if kind in ("m", "w") and (args.m is None or args.d is None):
        _usage_error(f"--m and --d are required for the {kind} family")
    if kind == "e" and args.lam is None:
        _usage_error("--lam is required for the e family")
    try:
        check_modulus(args.p)  # before ProjPoint reduces an --alpha mod p
        if kind == "projective":
            return reps.projective(args.p, args.n, args.r, args.i)
        if kind == "injective":
            return reps.injective(args.p, args.n, args.r, args.i)
        if kind == "simple":
            return reps.simple(args.p, args.n, args.r, args.i)
        if kind == "m":
            return reps.m_module(args.p, args.n, args.r, args.m, args.d)
        if kind == "w":
            return reps.w_module(args.p, args.n, args.r, args.m, args.d)
        if kind == "x":
            return reps.x_module(args.p, args.n, args.r, _alpha_from_args(args, args.p, args.r),
                                 args.i, args.j)
        return kronecker.e_lambda(args.p, args.r, args.lam)
    except (TypeError, ValueError) as exc:
        _invalid(f"invalid parameters for the {kind} family: {exc}")


def _load_rep(path: str) -> reps.BeilinsonRep:
    """The stored representation, or exit status 3 with one line on stderr
    when the file cannot be read or is not a valid representation (JSON
    nested too deep for the parser raises RecursionError)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        _invalid(f"cannot read {path}: {exc}")
    try:
        return reps.BeilinsonRep.from_json(text)
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        _invalid(f"invalid representation in {path}: {exc}")


def _input_rep(args) -> reps.BeilinsonRep:
    """The representation a subcommand works on: --rep FILE, else a family."""
    return _load_rep(args.rep) if args.rep else _build_rep(args)


def _module(rep: reps.BeilinsonRep) -> emod.ErModule:
    """The group-algebra module of rep, or exit status 3 when it has none."""
    try:
        return emod.forget(rep)
    except ValueError as exc:
        _invalid(str(exc))


def _emit(payload, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if isinstance(payload, dict):
            for key, value in payload.items():
                print(f"{key}: {value}")
        else:
            print(payload)


def _common_rep_flags(parser: argparse.ArgumentParser,
                      require_config: bool = False) -> None:
    _add_int(parser, "p", required=require_config,
             help="prime field characteristic")
    _add_int(parser, "n", default=2, help="number of vertices")
    _add_int(parser, "r", required=require_config,
             help="number of arrows per level")
    _add_int(parser, "m", help="top-degree parameter for the m/w families")
    _add_int(parser, "d", help="length parameter for the m/w families")
    _add_int(parser, "i", default=0, help="vertex index")
    _add_int(parser, "j", default=1, help="power of the linear form")
    parser.add_argument("--alpha", type=_parse_coeffs, default=_env_default("alpha"),
                        help="comma-separated point coordinates, e.g. 1,0,0")
    parser.add_argument("--lam", type=_parse_coeffs, default=_env_default("lam"),
                        help="comma-separated scalars for the e family")


def _format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", type=_format_choice, choices=FORMATS,
                        default=_env_default("format", "text"))


def cmd_construct(args) -> int:
    rep = _build_rep(args)
    text = rep.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out} (dims={rep.dims})")
    else:
        print(text)
    return 0


def cmd_check(args) -> int:
    rep = _input_rep(args)
    checker = {
        "eip": properties.is_eip_def,
        "ekp": properties.is_ekp_def,
        "eip-hom": properties.is_eip_hom,
        "ekp-hom": properties.is_ekp_hom,
        "cjt": properties.constant_jordan_type,
    }[args.property]
    report = checker(rep)
    _emit(json.loads(report.to_json()), args)
    return 0 if report.verdict else 1


def cmd_jordan_type(args) -> int:
    rep = _input_rep(args)
    module = _module(rep)
    if args.all_alpha:
        rows = []
        for point in reps.proj_points(rep.p, rep.r):
            jt = emod.jordan_type(module, point)
            rows.append({"alpha": list(point.coords), "jordan_type": str(jt),
                         "blocks": list(jt.counts)})
        _emit({"p": rep.p, "r": rep.r, "dims": list(rep.dims),
               "points": rows}, args)
    else:
        # without --alpha, the first point of P^{r-1} in enumeration order
        point = (_alpha_from_args(args, rep.p, rep.r) if args.alpha is not None
                 else reps.first_point(rep.p, rep.r))
        jt = emod.jordan_type(module, point)
        _emit({"alpha": list(point.coords), "jordan_type": str(jt),
               "blocks": list(jt.counts)}, args)
    return 0


def cmd_tau_orbit(args) -> int:
    rep = _input_rep(args)
    try:
        info = kronecker.classify(rep)
    except ValueError as exc:  # n != 2, the zero rep
        _invalid(str(exc))
    _emit({"dims": list(rep.dims), "kind": info.kind, "exponent": info.exponent,
           "tits_form": info.tits_value}, args)
    return 0


def cmd_width(args) -> int:
    rep = _input_rep(args)
    try:
        report = kronecker.width(rep, k_max=args.k_max, base_label=args.family or "module")
    except ValueError as exc:  # n != 2, k_max < 0, the zero rep
        _invalid(str(exc))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(report.to_dot())
        print(f"wrote {args.dot}", file=sys.stderr)
    _emit(json.loads(report.to_json()), args)
    return 0


def cmd_end_ring(args) -> int:
    rep = _input_rep(args)
    _, info = emod.end_algebra(_module(rep))
    _emit({"dimension": info.dimension, "commutative": info.commutative,
           "local": info.local, "regime": info.regime}, args)
    return 0


def cmd_iso(args) -> int:
    left = _load_rep(args.left)
    right = _load_rep(args.right)
    if args.as_modules:
        left, right = _module(left), _module(right)
        config, isomorphic = "(p, r)", emod.is_isomorphic
    else:
        config, isomorphic = "(p, n, r)", reps.rep_isomorphic
    if not left.same_config(right):
        _invalid(f"{args.left} and {args.right} are over different {config}")
    verdict = isomorphic(left, right)
    _emit({"verdict": verdict}, args)
    return 0 if verdict == "yes" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beilinson",
        description="Exact arithmetic for Beilinson quiver representations "
                    "and elementary abelian group algebra modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a family member as JSON")
    construct.add_argument("family", choices=FAMILIES)
    _common_rep_flags(construct, require_config=True)
    construct.add_argument("--out", default=None, help="output path (stdout if omitted)")
    construct.set_defaults(func=cmd_construct)

    def module_input(cmd):
        cmd.add_argument("--family", default=None, choices=FAMILIES)
        cmd.add_argument("--rep", default=None,
                         help="path to a representation JSON file")
        _common_rep_flags(cmd)
        _format_flag(cmd)

    check = sub.add_parser("check", help="decide a point-wise module property")
    check.add_argument("property", choices=("eip", "ekp", "eip-hom", "ekp-hom", "cjt"))
    module_input(check)
    check.set_defaults(func=cmd_check)

    jt = sub.add_parser("jordan-type", help="Jordan type at one or all points")
    module_input(jt)
    jt.add_argument("--all-alpha", action="store_true")
    jt.set_defaults(func=cmd_jordan_type)

    orbit = sub.add_parser("tau-orbit", help="classify within the translate orbit")
    module_input(orbit)
    orbit.set_defaults(func=cmd_tau_orbit)

    width_cmd = sub.add_parser("width", help="width invariant of the translate orbit")
    module_input(width_cmd)
    _add_int(width_cmd, "k-max", default=8)
    width_cmd.add_argument("--dot", default=None, help="also write a DOT graph here")
    width_cmd.set_defaults(func=cmd_width)

    end_ring = sub.add_parser("end-ring", help="endomorphism ring structure report")
    module_input(end_ring)
    end_ring.set_defaults(func=cmd_end_ring)

    iso = sub.add_parser("iso", help="compare two stored representations")
    iso.add_argument("left")
    iso.add_argument("right")
    iso.add_argument("--as-modules", action="store_true",
                     help="compare the underlying group algebra modules")
    _format_flag(iso)
    iso.set_defaults(func=cmd_iso)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status: 0 done or true, 1 a
    false verdict, 2 a usage error, 3 invalid input, 4 an internal error
    (its traceback goes to stderr)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
