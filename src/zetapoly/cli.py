"""Command-line interface.

Subcommands: rv-forward, rv-inverse, check, thm2, delta, wspace,
lvalues, roots.  Global flags: --prec <bits>, --tol <dec>, --kmax <int>,
--format json|text, --out <path>.  Exit codes form a stable contract:
0 = all checks pass, 1 = a mathematical check failed (or precision was
unattainable), 2 = input or usage error.

``_read_argv`` reads from ``COMMANDS`` the subcommand, its positionals and exact long
options, as ``--opt VALUE`` (VALUE may be a negative number) or ``--opt=VALUE``, global
flags on either side of the subcommand, the last one winning.  argparse, imported only
for the rest, decides and prints it: help, abbreviations, ``--``, any usage error.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from zetapoly.delta import REFERENCE_EVEN_SCALE, REFERENCE_ODD_SCALE, run_delta
from zetapoly.dyadic import nstr
from zetapoly.errors import InputError, PrecisionError
from zetapoly.lvalues import (
    NewformData,
    critical_lambdas,
    delta_newform,
    l_from_lambda,
    printed_digits,
)
from zetapoly.polyspace import (
    PolyX,
    es1_residual,
    es_residuals,
    fricke_residual,
    rescaled_es1_residual,
    rescaled_es2_residual,
    wspace_basis,
)
from zetapoly.rv import ZetaPoly, rv_forward, rv_inverse
from zetapoly.zeta import K_MAX_DEFAULT, as_tolerance, thm2_residual

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, a non-UTF-8 file, an overlong int
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object, not a {type(data).__name__}")
    return data


def _read_z_or_r(path: str) -> ZetaPoly:
    """Accept either a zeta-polynomial (variable "s") or a period-style
    polynomial, transforming the latter."""
    data = _read_json(path)
    if data.get("variable") == "s":
        return ZetaPoly.from_dict(data)
    return rv_forward(PolyX.from_dict(data))


def _emit(args, payload, text_lines=None) -> None:
    """Write a report (JSON with indent 2 or text lines, per --format), or,
    with no text form, a polynomial file (always JSON with indent 1).  Both
    forms are functions of no arguments; only the one written is called."""
    if text_lines is None:
        out = json.dumps(payload(), indent=1) + "\n"
    elif args.format == "json":
        out = json.dumps(payload(), indent=2) + "\n"
    else:
        out = "\n".join(text_lines()) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------


def _cmd_rv_forward(args) -> int:
    Z = rv_forward(PolyX.from_dict(_read_json(args.input)))
    _emit(args, Z.to_dict)
    return EXIT_OK


def _cmd_rv_inverse(args) -> int:
    R = rv_inverse(ZetaPoly.from_dict(_read_json(args.input)))
    _emit(args, R.to_dict)
    return EXIT_OK


# Names are looked up at call time, so a rebound module attribute takes effect.
_RESIDUALS = {
    "fricke": lambda poly, eps: fricke_residual(poly, eps),
    "res1": lambda poly, eps: rescaled_es1_residual(poly),
    "res2": lambda poly, eps: rescaled_es2_residual(poly),
    "es1": lambda poly, eps: es1_residual(poly),
    "es2": lambda poly, eps: es_residuals(poly)[1],
}


def _cmd_check(args) -> int:
    relation = args.relation
    poly = PolyX.from_dict(_read_json(args.input))
    if relation == "fricke" and args.eps is None:
        raise InputError("relation 'fricke' requires --eps +1 or -1")
    if relation != "fricke" and args.eps is not None:
        raise InputError(f"--eps applies only to relation 'fricke', not {relation!r}")
    residual = _RESIDUALS[relation](poly, args.eps)
    holds = residual.is_zero()
    _emit(
        args,
        lambda: {"relation": relation, "holds": holds, "residual": residual.to_str_pairs()},
        lambda: [f"relation {relation}: {'holds' if holds else 'FAILS'}",
                 "residual: " + residual.to_text()],
    )
    return EXIT_OK if holds else EXIT_CHECK_FAILED


def _parse_n_list(spec: str) -> list[int]:
    try:
        values = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad --n list {spec!r}") from exc
    if not values or any(v < 1 for v in values):
        raise InputError(f"--n must list positive integers, got {spec!r}")
    return values


def _cmd_thm2(args) -> int:
    Z = _read_z_or_r(args.input)
    tol = as_tolerance(args.tol)
    reports = [
        thm2_residual(Z, n, tol=tol, k_max=args.kmax) for n in _parse_n_list(args.n)
    ]
    ok = [rep.converged and rep.total_below(tol) for rep in reports]
    all_ok = all(ok)
    _emit(
        args,
        lambda: {"passed": all_ok, "reports": [rep.to_dict() for rep in reports]},
        lambda: [
            f"n={rep.n}: |total|={nstr(rep.abs_total, 6)} "
            f"k_stop={rep.k_stop} converged={rep.converged} "
            f"residual_bound={nstr(rep.residual_bound, 6)} [{'ok' if rep_ok else 'FAIL'}]"
            for rep, rep_ok in zip(reports, ok)
        ]
        + [f"overall: {'pass' if all_ok else 'FAIL'}"],
    )
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_delta(args) -> int:
    report = run_delta(args.prec)
    d = report.to_dict()
    lines = [
        f"precision: {args.prec} bits",
        f"completed-L symmetry max deviation: {d['lambda_symmetry_max']}",
        f"even scale factor: {d['scale_even']} (reference {REFERENCE_EVEN_SCALE}, ok={d['scale_even_ok']})",
        f"odd scale factor:  {d['scale_odd']} (reference {REFERENCE_ODD_SCALE}, ok={d['scale_odd_ok']})",
        f"coefficient pattern max relative deviation: {d['pattern_max_rel_dev']}",
        "zeta-polynomial coefficients vs reference:",
    ]
    for entry in d["z_coeffs"]:
        lines.append(
            f"  s^{entry['power']}: computed {entry['computed']} "
            f"reference {entry['reference']} ok={entry['ok']}"
        )
    lines += [
        f"exact transform matches golden zeta data: {d['exact_z_match']}",
        f"golden polynomials satisfy all relations: {d['golden_relations_ok']}",
        f"zeta roots on critical line: {d['z_roots_critical_line']['passed']} "
        f"(max dev {d['z_roots_critical_line']['max_deviation']})",
        f"period roots on unit circle: {d['r_roots_unit_circle']['passed']} "
        f"(max dev {d['r_roots_unit_circle']['max_deviation']})",
        f"odd part fails unit circle with deviation: {d['r_minus_circle_deviation']}",
        f"overall: {'pass' if d['passed'] else 'FAIL'}",
    ]
    _emit(args, lambda: d, lambda: lines)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_wspace(args) -> int:
    basis, dim_plus, dim_minus = wspace_basis(args.w)
    _emit(
        args,
        lambda: {"w": args.w, "dim": len(basis), "dim_plus": dim_plus, "dim_minus": dim_minus,
                 "basis": [b.to_str_pairs() for b in basis]},
        lambda: [f"w={args.w}: dim W = {len(basis)}, dim W+ = {dim_plus}, dim W- = {dim_minus}"]
        + ["  basis: " + b.to_text() for b in basis],
    )
    return EXIT_OK


def _cmd_lvalues(args) -> int:
    nf = NewformData.from_dict(_read_json(args.input)) if args.input else delta_newform(args.prec)
    digits = printed_digits(args.prec)
    lams = enumerate(critical_lambdas(nf, args.prec), start=1)
    values = [(s, lam, l_from_lambda(nf, s, lam, args.prec)) for s, lam in lams]
    payload = {
        "label": nf.label,
        "level": nf.level,
        "weight": nf.weight,
        "precision": args.prec,
        "values": [
            {"s": s, "completed": nstr(lam, digits), "l": nstr(lv, digits)}
            for s, lam, lv in values
        ],
    }
    lines = [f"newform {nf.label or '(unnamed)'}, level {nf.level}, weight {nf.weight}"]
    for s, lam, lv in values:
        lines.append(f"  s={s}: Lambda={nstr(lam, digits)} L={nstr(lv, digits)}")
    _emit(args, lambda: payload, lambda: lines)
    return EXIT_OK


def _cmd_roots(args) -> int:
    from zetapoly.rootfind import rh_check, roots  # no other command compiles the root finder

    data = _read_json(args.input)
    poly = ZetaPoly.from_dict(data) if data.get("variable") == "s" else PolyX.from_dict(data)
    if args.mode:
        report = rh_check(poly, args.mode, tol=args.tol, precision=args.prec)
        payload = report.to_dict()
        lines = [
            f"mode {args.mode}: passed={report.passed} "
            f"max deviation {nstr(report.max_deviation, 8)}"
        ]
        for z in report.roots:
            lines.append(f"  {nstr(z, 20)}")
        _emit(args, lambda: payload, lambda: lines)
        return EXIT_OK if report.passed else EXIT_CHECK_FAILED
    rts = roots(poly, precision=args.prec)
    payload = {"roots": [[nstr(x, 20) for x in z] for z in rts]}
    lines = [nstr(z, 20) for z in rts]
    _emit(args, lambda: payload, lambda: lines)
    return EXIT_OK


# ---------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------

_INPUT = ("input", {})
# name -> (help, handler, the command's own arguments as (name, options) pairs).
COMMANDS = {
    "rv-forward": ("transform a period-style polynomial file to a zeta-polynomial",
                   _cmd_rv_forward, [_INPUT]),
    "rv-inverse": ("invert a zeta-polynomial file back to the period side", _cmd_rv_inverse, [_INPUT]),
    "check": ("check a relation on a polynomial file", _cmd_check, [
        ("relation", {"choices": ("fricke", "res1", "res2", "es1", "es2")}), _INPUT,
        ("--eps", {"type": int, "choices": (1, -1), "help": "Fricke eigenvalue"})]),
    "thm2": ("evaluate the convergent series identity at the given n values", _cmd_thm2, [
        ("input", {"help": "zeta-polynomial file, or period-style file to transform first"}),
        ("--n", {"default": "1", "help": "comma-separated positive integers"})]),
    "delta": ("reproduce the weight-12 level-1 example end to end", _cmd_delta, []),
    "wspace": ("basis and parity dimensions of the relation nullspace", _cmd_wspace,
               [("w", {"type": int})]),
    "lvalues": ("critical completed-L and L-values of a newform", _cmd_lvalues, [
        ("input", {"nargs": "?", "help": "newform JSON file (default: built-in weight-12 level-1)"})]),
    "roots": ("roots of a polynomial file, optionally with a line/circle check", _cmd_roots, [
        _INPUT, ("--mode", {"choices": ("critical_line", "unit_circle")})]),
}
# The flags every command takes, on either side of its name, and their values when not given.
_GLOBAL_FLAGS = (
    ("--prec", {"type": int, "help": "working precision in bits (>= 64)"}),
    ("--tol", {"help": "decimal tolerance for numeric checks"}),
    ("--kmax", {"type": int, "help": "series truncation cap"}),
    ("--format", {"choices": ("json", "text")}),
    ("--out", {"help": "write output to this path instead of stdout"}),
)
_GLOBAL_DEFAULTS = {"prec": 128, "tol": "1e-10", "kmax": K_MAX_DEFAULT, "format": "text", "out": None}
# Whether argparse reads an argv entry as an option: it starts with "-" and is no negative number.
_is_option = re.compile(r"-(?!\d+\Z|\d*\.\d+\Z)").match


def _value(options: dict, text: str):
    """``text`` read as argparse reads it for these options; ValueError where it fails."""
    value = options.get("type", str)(text)
    if value not in options.get("choices", (value,)):
        raise ValueError(f"invalid choice {value!r}")
    return value


def _read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, or None for a form not read here."""
    options, given, command, texts = dict(_GLOBAL_FLAGS), {}, None, []
    args = iter(argv)
    try:
        for arg in args:
            if _is_option(arg):
                flag, eq, text = arg.partition("=")
                text = text if eq else next(args, "-")  # a missing value reads as an option
                if flag not in options or text == "--" or not eq and _is_option(text):  # argparse drops "--"
                    return None
                given[flag.lstrip("-")] = _value(options[flag], text)
            elif command is None:
                if arg not in COMMANDS:
                    return None
                command = arg
                options.update(spec for spec in COMMANDS[arg][2] if spec[0][0] == "-")
            else:
                texts.append(arg)
        if command is None:
            return None
        specs = COMMANDS[command][2]
        slots = [(name, opts) for name, opts in specs if name[0] != "-"]
        if not sum(opts.get("nargs") != "?" for _, opts in slots) <= len(texts) <= len(slots):
            return None
        namespace = {**_GLOBAL_DEFAULTS, "command": command}
        namespace.update((name.lstrip("-"), opts.get("default")) for name, opts in specs)
        namespace.update((name, _value(opts, text)) for (name, opts), text in zip(slots, texts))
    except ValueError:
        return None
    return SimpleNamespace(**{**namespace, **given})


def build_parser():
    import argparse  # only help, usage errors and the argv forms _read_argv leaves need it

    # SUPPRESS leaves a flag unset unless given, so a flag on either side of the
    # subcommand is never clobbered; the top-level parser holds the defaults.
    global_flags = [(flag, {**options, "default": argparse.SUPPRESS}) for flag, options in _GLOBAL_FLAGS]

    parser = argparse.ArgumentParser(
        prog="zetapoly",
        description="Zeta-polynomials from period polynomials: transforms, "
        "relation checks, identity verification, and the end-to-end "
        "weight-12 level-1 reproduction.",
    )
    for flag, options in global_flags:
        parser.add_argument(flag, **options)
    parser.set_defaults(**_GLOBAL_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, arguments) in COMMANDS.items():
        subparser = sub.add_parser(command, help=help_text)
        for name, options in arguments + global_flags:  # --help lists its own first
            subparser.add_argument(name, **options)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 2, -1, -1):  # argparse takes "-1e-10" and "-1/3" for options
        if argv[i] == "--tol" and re.match(r"-[\d.]", argv[i + 1]):
            argv[i : i + 2] = [f"--tol={argv[i + 1]}"]
    args = _read_argv(argv) or build_parser().parse_args(argv)
    dropped = [name for name, value in vars(args).items() if isinstance(value, list)]
    if dropped:  # argparse drops the "--" of "--opt=--" and leaves the option an empty list
        build_parser().error(f"argument --{dropped[0]}: expected one argument")
    try:
        if args.prec < 64:
            raise InputError(f"--prec must be at least 64 bits, got {args.prec}")
        as_tolerance(args.tol)
        if args.kmax < 1:
            raise InputError(f"--kmax must be positive, got {args.kmax}")
        return COMMANDS[args.command][1](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
