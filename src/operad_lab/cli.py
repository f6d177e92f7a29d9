"""Command-line front end: one-shot algebra commands plus the verify suites.

Exit codes: 0 success, 1 domain error, 2 verification failure, 64 usage error.
"""

import argparse
import sys

from .assoc import AssocOperad
from .cohomology import DEFAULT_COLUMN_CAP, DIFFERENTIALS, ComplexSpec, betti
from .core import (
    aw_coproduct,
    boundary,
    brace,
    coboundary,
    compose,
    degeneracy,
    dot_product,
    face,
    odot_product,
)
from .elements import Element, OperadError, read_json
from .endo import EndoOperad, load_algebra, multimap_to_element
from .linalg import LinalgError
from .scalars import ScalarError, get_field
from .serialize import dumps, element_from_json, element_to_json, pairs_to_json
from .shift import DEFAULT_MAX_ENTRY, ShiftOperad
from .verify import (
    DEFAULT_FIELD,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    SUITES,
    VerifyUsageError,
    report_to_json,
    run_verify,
)

USAGE_EXIT = 64
DOMAIN_EXIT = 1
VERIFY_FAIL_EXIT = 2

# name -> (help, parameters in call order, operation); ``at`` is an int slot,
# ``args`` the repeatable ``--with`` list, any other parameter one element
ALGEBRA_COMMANDS = {
    "compose": ("partial composition left at slot i with right", ("left", "at", "right"), compose),
    "face": ("compose with the arity-0 point at one slot", ("element", "at"), face),
    "degen": ("compose with the binary product at one slot", ("element", "at"), degeneracy),
    "boundary": ("alternating sum of faces", ("element",), boundary),
    "coboundary": ("Hochschild-style degree +1 differential", ("element",), coboundary),
    "brace": ("right brace element{args...}", ("element", "args"), brace),
    "dot": ("signed gamma product of two elements", ("left", "right"), dot_product),
    "odot": ("signed brace product of two elements", ("left", "right"), odot_product),
    "coproduct": ("prefix/suffix face splitting of an element", ("element",), aw_coproduct),
}


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def make_operad(selector, field, max_entry=DEFAULT_MAX_ENTRY):
    if selector == "assoc":
        return AssocOperad(field)
    if selector == "shift":
        return ShiftOperad(field, max_entry=max_entry)
    if selector.startswith("endo:"):
        return EndoOperad(load_algebra(selector[len("endo:"):], field))
    raise OperadError(
        f"unknown operad {selector!r} (want assoc, shift, or endo:<preset-or-@file>)"
    )


def parse_element(text, operad):
    """Parse an element argument: basis text, inline JSON, or @file.json."""
    s = text.strip()
    if s.startswith(("@", "{")):
        return _element_from_data(read_json(s), operad)
    return Element.basis(operad, operad.parse_basis(s))


def _element_from_data(data, operad):
    if isinstance(data, dict) and "coeffs" in data:
        if not isinstance(operad, EndoOperad):
            raise OperadError("multimap JSON only applies to the endo operad")
        return multimap_to_element(operad, data.get("arity"), data["coeffs"])
    return element_from_json(data, operad)


def bare_basis(operad, key):
    text = operad.format_basis(key)
    if text.startswith("(") and text.endswith(")") and len(text) > 2:
        return text[1:-1]
    return text


def element_text(x):
    if x.is_zero():
        return "0"
    field = x.operad.field
    parts = []
    for key, coeff in x.sorted_terms():
        base = bare_basis(x.operad, key)
        if coeff == field.one:
            parts.append(base)
        else:
            parts.append(f"{field.format(coeff)}*{base}")
    return " + ".join(parts)


def emit_element(x, as_json):
    if as_json:
        print(dumps(element_to_json(x)), end="")
    else:
        print(element_text(x))


def emit_pairs(pairs, as_json):
    if as_json:
        print(dumps(pairs_to_json(pairs)), end="")
    else:
        for left, right in pairs:
            print(f"{element_text(left)} | {element_text(right)}")


def add_common(parser):
    parser.add_argument("--operad", default="assoc",
                        help="assoc, shift, or endo:<k|dual|m2|@file.json>")
    parser.add_argument("--field", default="q", help="q or gfp:<p>")
    parser.add_argument("--max-entry", type=int, default=DEFAULT_MAX_ENTRY,
                        help="entry bound for shift basis enumeration")
    parser.add_argument("--json", action="store_true", help="emit JSON output")


def build_parser():
    parser = CliParser(prog="operad-lab",
                       description="exact operad calculator and identity verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, params, _) in ALGEBRA_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        for param in params:
            if param == "at":
                p.add_argument("--at", type=int, required=True)
            elif param == "args":
                p.add_argument("--with", dest="args", action="append", required=True,
                               metavar="ELEMENT", help="brace argument (repeatable, in order)")
            else:
                p.add_argument(f"--{param}", required=True)

    p = sub.add_parser("cohomology", help="kernel/rank dimensions of a complex")
    add_common(p)
    p.add_argument("--differential", default="hochschild", choices=DIFFERENTIALS)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--column-cap", type=nonnegative_int, default=DEFAULT_COLUMN_CAP)
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("verify", help="run randomized identity suites")
    p.add_argument("--suite", action="append", choices=SUITES + ("all",),
                   help="suite to run (repeatable; default all)")
    p.add_argument("--operad", action="append", dest="operads",
                   help="restrict checks to an operad label (repeatable)")
    p.add_argument("--field", default=DEFAULT_FIELD, help="q or gfp:<p>")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--json", action="store_true", help="emit the JSON report")

    return parser


def command_argument(args, param, operad):
    """One parameter of an ALGEBRA_COMMANDS entry, parsed."""
    value = getattr(args, param)
    if param == "at":
        return value
    if param == "args":
        return [parse_element(t, operad) for t in value]
    return parse_element(value, operad)


def run_algebra_command(args):
    field = get_field(args.field)
    operad = make_operad(args.operad, field, max_entry=args.max_entry)
    if args.command == "cohomology":
        report = betti(ComplexSpec(operad, args.differential, args.lo, args.hi,
                                   column_cap=args.column_cap, allow_large=args.allow_large))
        if args.json:
            print(dumps(report), end="")
        else:
            for degree, dim, rank in zip(report["degrees"], report["dims"], report["ranks"]):
                print(f"degree {degree}: dim {dim} (rank of outgoing map {rank})")
            for warning in report["warnings"]:
                print(f"warning: {warning}")
        return 0
    _, params, operation = ALGEBRA_COMMANDS[args.command]
    result = operation(*[command_argument(args, param, operad) for param in params])
    if args.command == "coproduct":
        emit_pairs(result, args.json)
    else:
        emit_element(result, args.json)
    return 0


def run_verify_command(args):
    suites = None
    if args.suite and "all" not in args.suite:
        suites = args.suite
    try:
        report = run_verify(
            seed=args.seed,
            trials=args.trials,
            field_label=args.field,
            suites=suites,
            operads=args.operads,
        )
    except VerifyUsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    if args.json:
        print(report_to_json(report), end="")
    else:
        for row in report["checks"]:
            line = (
                f"{row['status']:<8} {row['suite']}/{row['check']}"
                f" [{row['operad']}] trials={row['trials']} failures={row['failures']}"
            )
            print(line)
            if "counterexample" in row:
                print(f"         counterexample: {dumps(row['counterexample'])}", end="")
        print(f"status: {report['status']} (seed {report['seed']},"
              f" total failures {report['failures']})")
    return 0 if report["status"] == "ok" else VERIFY_FAIL_EXIT


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify_command(args)
        return run_algebra_command(args)
    except (OperadError, ScalarError, LinalgError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
