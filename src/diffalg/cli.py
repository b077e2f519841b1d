"""Command-line interface.

Exit codes: 0 for an affirmative result, 1 for a negative or failed result
(not confluent, inconsistent table, a verdict other than a fully verified
Smooth), 2 for input errors (unknown command, unreadable file, grammar or
admissibility problems).
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from . import templates
from .calculus import differential, verify_automorphisms
from .classify import decompose, identify_family
from .engine import is_pbw, normal_form, normal_form_terms
from .exprs import ExpressionError, format_poly, format_terms, parse_poly
from .presentation import PresentationError, load_presentation, validate_presentation
from .scalars import format_ratio
from .smoothness import NotPbwError, decide_smoothness, verify_witness
from .templates import _fmt_components, _fmt_indices

__all__ = ["main"]


class _CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _load(path):
    try:
        P = load_presentation(path)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except PresentationError as exc:
        raise _CliError(f"{path}: {exc}") from exc
    problems = validate_presentation(P)
    if problems:
        raise _CliError(f"{path}: " + "; ".join(problems))
    return P


def _parse_expr(text: str, n: int):
    try:
        return parse_poly(text, n)
    except ExpressionError as exc:
        raise _CliError(f"bad expression: {exc}") from exc


def format_form(coeffs: dict) -> str:
    parts = []
    for J in sorted(coeffs):
        basis = "^".join(f"dD{a}" for a in J)
        parts.append(f"{basis} * ({format_poly(coeffs[J])})")
    return " + ".join(parts) if parts else "0"


def _print_not_pbw(triple) -> int:
    """Print the first ambiguous triple; the exit code of a non-PBW table."""
    a, b, c = triple
    print("pbw: false")
    print(f"triple: {a} {b} {c}")
    return 1


def _cmd_check_pbw(args) -> int:
    report = is_pbw(_load(args.file))
    if not report.pbw:
        return _print_not_pbw(report.first_failure)
    print("pbw: true")
    return 0


def _cmd_classify(args) -> int:
    P = _load(args.file)
    dec = decompose(P)
    fam = identify_family(P, dec)
    print("\n".join([
        f"n: {P.n}",
        f"I: {_fmt_indices(dec.I)}",
        f"R: {_fmt_indices(dec.R)}",
        f"components: {_fmt_components(dec.R_components)}",
        f"S: {_fmt_indices(dec.S)}",
        f"Tcirc: {_fmt_components(dec.T_circ)}",
        f"Tbullet: {_fmt_components(dec.T_bullet)}",
        f"family: {fam.family}",
        *[f"param {name}: {format_ratio(*ratio)}" for name, ratio in fam.ratios.items()],
        *[f"violation: {violation}" for violation in fam.violations]]))
    return 0 if fam.consistent else 1


_VERDICT_LINE = {"Smooth": "SMOOTH", "NotSmooth": "NOT-SMOOTH",
                 "Undetermined": "UNDETERMINED"}

# Largest --degree-bound accepted.  By default the volume-form identities are
# proved on module generators; an explicit bound samples them on every
# coefficient monomial up to that degree, which grows steeply with the bound.
# Measured 2026-10-18 on a 2-core x86-64 container (Python 3.11), at about half
# of its full speed: the slower three-generator fixture, b1, verifies in about
# 5.5 s at 12 and 27 s at 16; an A_I row with every g = 3/2 takes about 25 s
# at 12.
MAX_DEGREE_BOUND = 12

# Largest --degree-bound accepted for n >= 4 generators: the sampled checks
# also grow steeply with n.  Each cap is the largest bound at which the slowest
# of the Smooth fixtures and one instantiated template row per theorem case
# verified in under 10 s on the same container; one more doubles that time or
# worse.  At n = 7 the bound 2 took about 5 s and 3 about 20 s (2026-10-18, as
# above), so from n = 7 on only --degree-bound <= 2 is accepted.  Re-measured
# once the automorphism and Leibniz checks became integer identities, at full
# speed: at the caps 5.0 s (n = 4), 2.6 s (5), 2.2 s (6) and 1.1-1.4 s (7), and
# one above them 11-15 s, 10-13 s, 10.4 s and 7.1 s.  The caps are kept, so
# that every accepted command prints what it printed before.
_DEGREE_BOUND_CAPS = {4: 7, 5: 5, 6: 3}


def max_degree_bound(n: int) -> int:
    """Largest ``--degree-bound`` that ``smooth``/``verify-calculus`` accept for n."""
    if n <= 3:
        return MAX_DEGREE_BOUND
    return _DEGREE_BOUND_CAPS.get(n, 2)


def _smoothness_report(args) -> int:
    bound = args.degree_bound
    if bound is not None and not 0 <= bound <= MAX_DEGREE_BOUND:
        raise _CliError(f"--degree-bound must be between 0 and "
                        f"{MAX_DEGREE_BOUND}, got {bound}")
    P = _load(args.file)
    cap = max_degree_bound(P.n)
    if bound is not None and bound > cap:
        raise _CliError(f"--degree-bound for {P.n} generators must be at most "
                        f"{cap}, got {bound}")
    try:
        verdict = decide_smoothness(P)
    except NotPbwError as exc:
        return _print_not_pbw(exc.triple)
    dec, fam = verdict.decomposition, verdict.identification
    lines = [
        f"verdict: {_VERDICT_LINE[verdict.verdict]}",
        f"case: {verdict.theorem_case or '-'}",
        f"family: {fam.family}",
        f"I: {_fmt_indices(dec.I)}",
        f"S: {_fmt_indices(dec.S)}",
        f"T: {_fmt_indices(dec.T)}",
        f"gkdim: {P.n}"]
    ob = verdict.obstruction
    if ob is not None:
        lines += [f"obstruction: i={ob.i} t={ob.t}", f"residual: {format_poly(ob.residual)}"]
    lines += [f"note: {note}" for note in verdict.notes]
    if verdict.verdict == "NotSmooth":
        ansatz_ok = verify_automorphisms(ob.family, P)
        lines.append(f"check:ansatz-relations: "
                     f"{'PASS' if ansatz_ok.relations_preserved else 'FAIL'}")
        code = 1
    elif verdict.verdict == "Undetermined":
        code = 1
    else:
        witness_report = verify_witness(P, verdict, degree_bound=args.degree_bound)
        lines += [f"check:{name}: {'PASS' if passed else 'FAIL'}"
                  for name, passed in witness_report.checks]
        code = 0 if witness_report.ok else 1
    print("\n".join(lines))
    return code


def _cmd_reduce(args) -> int:
    P = _load(args.file)
    comb = _parse_expr(args.expr, P.n)
    print(format_terms(normal_form_terms(comb, P)))
    return 0


def _cmd_d(args) -> int:
    P = _load(args.file)
    comb = _parse_expr(args.expr, P.n)
    try:
        verdict = decide_smoothness(P)
    except NotPbwError as exc:
        return _print_not_pbw(exc.triple)
    if verdict.witness is None:
        print(f"verdict: {_VERDICT_LINE[verdict.verdict]}")
        for note in verdict.notes:
            print(f"note: {note}")
        return 1
    form = differential(normal_form(comb, P), verdict.witness, P)
    print(f"d: {format_form(form.coeffs)}")
    return 0


# Largest n that ``tables`` enumerates per mode.  The count is closed-form
# and rows are rendered, written and dropped one at a time; only full mode's
# partition lists grow with n.  Time, 3-6x per generator, sets the caps.
# On a 2-core x86-64 container (Python 3.11, 2026-10-19, a whole process
# without bytecode, output to /dev/null, four runs): paper n = 9 takes
# 0.7-1.2 s at a peak RSS of 18.3-18.4 MiB and n = 10 2.3-3.1 s at 19.4-19.5
# MiB; full n = 7 takes 0.36-0.40 s at 17.6-17.8 MiB and n = 8 1.3-1.7 s at
# 20.9-21.0 MiB.  Raising a cap changes which inputs are refused, so it is a
# change of its own.
MAX_TABLES_N = {"paper": 9, "full": 7}


def _cmd_tables(args) -> int:
    cap = MAX_TABLES_N[args.mode]
    if args.n > cap:
        raise _CliError(f"n must be at most {cap} for --mode {args.mode}, "
                        f"got {args.n}")
    try:
        # looked up when the command runs: only ``tables`` loads ``rows``
        text = templates.tables_text(args.n, args.mode)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    # one row is held at a time: rendered, written, dropped
    sys.stdout.writelines(text)
    return 0


# The commands as plain data: name -> (help, positionals, options, handler).
# A positional is (dest, type), where ``str`` takes the token as given; an
# option is (flag, keyword arguments of ``add_argument``), its dest the flag
# without "--" and with "_" for "-".  ``_plain_args`` reads this table and
# ``_build_parser`` turns it into argparse.
_DEGREE_BOUND = ("--degree-bound", {
    "type": int, "default": None,
    "help": "sample the volume-form identities on every coefficient monomial up "
            f"to this degree (0 to {MAX_DEGREE_BOUND}), as a cross-check of the "
            "default proof on module generators"})

_COMMANDS = {
    "check-pbw": ("test rewriting confluence on all triples",
                  (("file", str),), (), _cmd_check_pbw),
    "classify": ("decompose the index set and identify the family",
                 (("file", str),), (), _cmd_classify),
    "smooth": ("decide differential smoothness and verify the witness",
               (("file", str),), (_DEGREE_BOUND,), _smoothness_report),
    "verify-calculus": ("run every calculus check on the derived witness",
                        (("file", str),), (_DEGREE_BOUND,), _smoothness_report),
    "reduce": ("normal form of a polynomial expression",
               (("file", str), ("expr", str)), (), _cmd_reduce),
    "d": ("differential of a polynomial expression",
          (("file", str), ("expr", str)), (), _cmd_d),
    "tables": ("enumerate relation templates",
               (("n", int),), (("--mode", {"choices": ("paper", "full"), "default": "paper"}),),
               _cmd_tables),
}


@functools.cache
def _build_parser():
    """The argparse parser of ``_COMMANDS``, built on the first argv that is not plain."""
    import argparse  # the one lazy import: a plain argv never loads argparse

    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Ordered-basis checks, classification, and verified "
                    "differential calculi for inhomogeneous quadratic "
                    "exchange algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest, kind in positionals:
            p.add_argument(dest, type=kind)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def _plain_args(argv):
    """The attributes ``parse_args`` gives a plain ``argv``, or None for any other argv.

    ``argv`` is plain when it is a command whose positionals are all taken
    as given (every command but ``tables``), followed by exactly one token
    for each of them, none starting with "-".  Each option takes its default.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, positionals, options, handler = command
    values = argv[1:]
    if (len(values) != len(positionals) or any(kind is not str for _, kind in positionals)
            or any(v.startswith("-") for v in values)):
        return None
    args = SimpleNamespace(command=argv[0], func=handler)
    for (dest, _), value in zip(positionals, values):
        setattr(args, dest, value)
    for flag, keywords in options:
        setattr(args, flag[2:].replace("-", "_"), keywords.get("default"))
    return args


def main(argv=None) -> int:
    # A plain argv, `<command> FILE` or `<command> FILE EXPR` with no token
    # starting with "-", is read off _COMMANDS and never imports argparse:
    # building the parser (8 ArgumentParsers, gettext lookups, a locale
    # import) was most of a process's first op.  Every other argv goes
    # through parse_args, so help, usage and error text come from argparse
    # alone.
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader closed the pipe early: point stdout at devnull so that
        # the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
