"""Command-line front end.

Verbs: mono, upper, betti, compare, witness, charscan, oracle.  ``_VERBS``
lists them, one entry each with the help line, the handler and which of
the shared flags ``--field``, ``--max-degree`` and ``--ceiling`` the verb
takes; ``build_parser`` declares every flag once from it.  The hidden
seeded ``selftest`` verb has a small parser of its own, which ``main`` uses
when it is the first argument.  Identical invocations print byte-identical
output.  Exit codes: 0 success, 1 parse/input error, 2 precondition
violation, 3 internal cross-check failure (always a bug).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import betti as betti_mod
from .engine import (
    DEFAULT_DEGREE_CEILING,
    char_scan,
    mono_oracle,
    mono_upper,
    mono_via_gb,
    mono_via_puv,
)
from .errors import InternalCheckError, MonoError, ParseError, PreconditionError
from .fields import MAX_CHARACTERISTIC, FieldSpec, is_prime
from .monomial import MonomialIdeal
from .parse import parse_source
from .poly import _monomial_str

def _field_arg(value):
    if value in ("QQ", "0"):
        return FieldSpec(0)
    try:
        return FieldSpec(int(value))
    except ValueError:
        raise ParseError(
            f"--field expects QQ or a prime below 2^31, got {value!r}"
        ) from None


def _nonnegative(name, value):
    if not value.isdecimal():
        raise ParseError(f"{name} expects a nonnegative integer, got {value!r}")
    return int(value)


def _instances_arg(value):
    if not value.isdecimal() or not int(value):
        raise ParseError(f"--instances expects a positive integer, got {value!r}")
    return int(value)


def _primes_arg(value):
    primes = [v for v in value.split(",") if v]
    if not all(
        v.isdecimal() and int(v) < MAX_CHARACTERISTIC and is_prime(int(v)) for v in primes
    ):
        raise ParseError(
            f"--primes expects comma-separated primes below 2^31, got {value!r}"
        )
    return [int(v) for v in primes]


def _load_ideal(args):
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    ring, ideals = parse_source(text, field_override=args.field)
    if args.ideal not in ideals:
        raise ParseError(f"no ideal named {args.ideal!r} in {args.input}")
    return ring, ideals[args.ideal]


def _ceiling(args):
    if args.ceiling is not None:
        return args.ceiling
    env = os.environ.get("MONO_DEGREE_CEILING")
    if env:
        return _nonnegative("MONO_DEGREE_CEILING", env)
    return DEFAULT_DEGREE_CEILING


def _gen_strings(ring, M):
    if M.is_zero():
        return ["0"]
    return [_monomial_str(ring, e) or "1" for e in M.sorted_gens()]


def _print_gens(header, ring, M, records):
    if not records:
        print(header)
    for g in _gen_strings(ring, M):
        print(g if records else f"  {g}")


def _require_monomial_ideal(ring, ideal):
    try:
        return MonomialIdeal(ring, ideal.gens)
    except MonoError:
        raise PreconditionError(
            "this verb needs an ideal generated by monomials"
        ) from None


# ------------------------------------------------------------------ verbs


def _cmd_mono(args):
    ring, I = _load_ideal(args)
    if args.method == "gb":
        M = mono_via_gb(I)
    elif args.method == "puv":
        M = mono_via_puv(I, ceiling=_ceiling(args))
    else:
        M = mono_oracle(I, ceiling=_ceiling(args))
    header = f"largest monomial subideal (method {args.method}, field {ring.field}):"
    _print_gens(header, ring, M, args.format == "records")
    return 0


def _cmd_upper(args):
    ring, I = _load_ideal(args)
    records = args.format == "records"
    _print_gens("smallest monomial over-ideal:", ring, mono_upper(I), records)
    return 0


_BETTI_CUT = "Betti table; entries of higher degree were not computed"
_WITNESS_CUT = "witness search; standard monomials of higher degree were not searched"


def _note_cut(args, cut, what):
    """One stderr line when ``--max-degree`` cut what the verb reports."""
    if cut:
        print(f"note: --max-degree {args.max_degree} cuts the {what}", file=sys.stderr)


def _cmd_betti(args):
    _, I = _load_ideal(args)
    table = betti_mod.graded_betti(I, max_degree=args.max_degree)
    _note_cut(args, table.cut, _BETTI_CUT)
    if args.format == "records":
        for line in betti_mod.machine_records(table):
            print(line)
    else:
        print(betti_mod.format_table(table))
    return 0


def _cmd_compare(args):
    ring, I = _load_ideal(args)
    M = mono_via_gb(I)
    t_ideal = betti_mod.graded_betti(I, max_degree=args.max_degree)
    t_mono = betti_mod.graded_betti(M.to_ideal(), max_degree=args.max_degree)
    _note_cut(args, t_ideal.cut or t_mono.cut, _BETTI_CUT)
    records = args.format == "records"
    mono_gens = _gen_strings(ring, M)
    n = ring.n
    top_ok = all(
        t_ideal.beta(n, j) != 0
        for (i, j) in t_mono.entries
        if i == n
    )
    reg_equal = t_ideal.regularity() == t_mono.regularity()
    # The level, socle and top-Betti verdicts read column n of the tables,
    # which is empty unless the quotient is Artinian (as R/M is exactly when
    # R/I is), so they have no answer on non-Artinian input.
    artinian = M.is_artinian()

    def verdict(holds):
        return ("yes" if holds else "no") if artinian else "n/a"

    def socle(table):
        return table.socle_degrees() if artinian else "n/a"

    if records:
        for g in mono_gens:
            print(f"mono {g}")
        for line in betti_mod.machine_records(t_ideal):
            print(f"betti_ideal {line}")
        for line in betti_mod.machine_records(t_mono):
            print(f"betti_mono {line}")
        print(f"regularity_ideal {t_ideal.regularity()}")
        print(f"regularity_mono {t_mono.regularity()}")
        print(f"level_ideal {verdict(t_ideal.is_level())}")
        print(f"level_mono {verdict(t_mono.is_level())}")
        print(f"regularity_equal {'yes' if reg_equal else 'no'}")
        print(f"top_betti_implication {verdict(top_ok)}")
        return 0
    print("largest monomial subideal:")
    for g in mono_gens:
        print(f"  {g}")
    print()
    print("Betti table of the quotient by the ideal:")
    print(betti_mod.format_table(t_ideal))
    print()
    print("Betti table of the quotient by its largest monomial subideal:")
    print(betti_mod.format_table(t_mono))
    print()
    print(f"regularity (ideal): {t_ideal.regularity()}")
    print(f"regularity (monomial subideal): {t_mono.regularity()}")
    print(f"regularity equal: {'yes' if reg_equal else 'no'}")
    print(f"level (ideal): {verdict(t_ideal.is_level())}")
    print(f"level (monomial subideal): {verdict(t_mono.is_level())}")
    print(f"socle degrees (ideal): {socle(t_ideal)}")
    print(f"socle degrees (monomial subideal): {socle(t_mono)}")
    print(f"top-Betti implication holds: {verdict(top_ok)}")
    return 0


def _cmd_witness(args):
    ring, ideal = _load_ideal(args)
    M = _require_monomial_ideal(ring, ideal)
    if M.is_unit():
        raise PreconditionError("the quotient by the unit ideal is zero")
    M._require_artinian("witness search")
    cap = args.max_degree
    classes = M.equal_colon_classes(max_degree=cap)
    # the cap cut the search when a standard monomial lies just above it
    cut = cap is not None and bool(M.standard_monomials(cap + 1))
    _note_cut(args, cut, _WITNESS_CUT)
    records = args.format == "records"
    if records:
        for d, members in classes:
            names = " ".join(_monomial_str(ring, u) or "1" for u in members)
            print(f"class {d} {names}")
    else:
        print("equal-colon classes of standard monomials:")
        if not classes:
            print("  none")
        for d, members in classes:
            names = ", ".join(_monomial_str(ring, u) or "1" for u in members)
            print(f"  degree {d}: {names}")
    gor = M.is_gorenstein()
    has_preimage = not gor
    if records:
        print(f"gorenstein {'yes' if gor else 'no'}")
        print(f"nonmonomial_preimage {'exists' if has_preimage else 'none'}")
    else:
        print(f"Gorenstein: {'yes' if gor else 'no'}")
        if has_preimage:
            print("a non-monomial ideal with this largest monomial subideal exists")
        else:
            print("no non-monomial ideal has this as its largest monomial subideal")
    return 0


def _cmd_charscan(args):
    ring, I = _load_ideal(args)
    scan = char_scan(I, args.primes, include_char_zero=args.qq)
    records = args.format == "records"
    names = {f: str(f).replace("ZZ/", "F") for f in scan.fields}
    if records:
        for f in scan.fields:
            for e in scan.generators[f]:
                print(f"{names[f]} {_monomial_str(ring, e) or '1'}")
        for e, flds in scan.field_dependent():
            where = ",".join(names[f] for f in flds)
            print(f"diff {_monomial_str(ring, e) or '1'} {where}")
        return 0
    print(f"largest monomial subideal of {args.ideal} by ground field:")
    for f in scan.fields:
        gens = ", ".join(_monomial_str(ring, e) or "1" for e in scan.generators[f]) or "0"
        print(f"  {names[f]}: {gens}")
    dep = scan.field_dependent()
    print("field-dependent generators:")
    if not dep:
        print("  none (identical over all requested fields)")
    for e, flds in dep:
        where = ", ".join(names[f] for f in flds)
        print(f"  {_monomial_str(ring, e) or '1'}: only over {where}")
    return 0


def _cmd_selftest(args):
    from .selftest import run_suite

    report = run_suite(args.seed, instances=args.instances)
    print(report.summary())
    for f in report.failures:
        print(f"FAIL {f}")
    return 0 if report.ok else 3


# ------------------------------------------------------------------ plumbing


# verb: (help line, handler, which of the shared flags it takes)
_VERBS = {
    "mono": ("largest monomial subideal", _cmd_mono, ("--field", "--ceiling")),
    "upper": ("smallest monomial over-ideal", _cmd_upper, ("--field",)),
    "betti": ("graded Betti table of the quotient", _cmd_betti, ("--field", "--max-degree")),
    "compare": ("ideal vs largest monomial subideal", _cmd_compare, ("--field", "--max-degree")),
    "witness": ("equal-colon witnesses of a monomial ideal", _cmd_witness, ("--field", "--max-degree")),
    "charscan": ("scan ground fields for monomial content", _cmd_charscan, ()),
    "oracle": ("brute-force largest monomial subideal", _cmd_mono, ("--field", "--ceiling")),
}
VISIBLE_VERBS = tuple(_VERBS)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ParseError (exit 1, one line) in place of
    argparse's usage message and exit 2.  Subparsers inherit the class."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    ap = _ArgumentParser(
        prog="monoideal",
        description=(
            "Monomial companions of polynomial ideals: largest monomial "
            "subideal, smallest monomial over-ideal, graded Betti tables."
        ),
    )
    sub = ap.add_subparsers(dest="verb", metavar="{" + ",".join(VISIBLE_VERBS) + "}")
    sub.required = True
    for verb, (text, func, flags) in _VERBS.items():
        sp = sub.add_parser(verb, help=text)
        sp.add_argument("--in", dest="input", required=True, help="ideal file")
        sp.add_argument("--ideal", required=True, help="name of the ideal")
        sp.add_argument(
            "--format",
            choices=("text", "records"),
            default="text",
            help="human text or line-oriented records",
        )
        if verb == "mono":
            sp.add_argument("--method", choices=("gb", "puv", "oracle"), default="gb")
        if "--field" in flags:
            sp.add_argument(
                "--field",
                type=_field_arg,
                help="override the coefficient field (QQ or a prime)",
            )
        if "--max-degree" in flags:
            sp.add_argument(
                "--max-degree", type=functools.partial(_nonnegative, "--max-degree")
            )
        if "--ceiling" in flags:
            sp.add_argument(
                "--ceiling",
                type=functools.partial(_nonnegative, "--ceiling"),
                help="degree ceiling for searches",
            )
        sp.set_defaults(func=func)
    sub.choices["oracle"].set_defaults(method="oracle")

    sp = sub.choices["charscan"]
    sp.add_argument(
        "--primes", type=_primes_arg, default="2,3,5", help="comma-separated primes"
    )
    qq = sp.add_mutually_exclusive_group()
    qq.add_argument("--qq", dest="qq", action="store_true", default=True)
    qq.add_argument("--no-qq", dest="qq", action="store_false")
    # the scan maps the ideal over QQ into each field, whatever the file declares
    sp.set_defaults(field=FieldSpec(0))
    return ap


@functools.cache
def _parser():
    # parse_args leaves the parser unchanged, so one instance serves every call
    return build_parser()


def _selftest_parser():
    sp = _ArgumentParser(prog="monoideal selftest")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--instances", type=_instances_arg, default=50)
    return sp


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        # selftest is hidden, so the main parser does not know it
        if argv and argv[0] == "selftest":
            return _cmd_selftest(_selftest_parser().parse_args(argv[1:]))
        # a ParseError from a type function is not caught by argparse
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        # an unreadable --in path or file is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
