"""Command-line interface.

Exit codes: 0 for an affirmative result, 1 for a negative or failed result
(not confluent, inconsistent table, a verdict other than a fully verified
Smooth), 2 for input errors (unknown command, unreadable file, grammar or
admissibility problems).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .calculus import differential, verify_automorphisms
from .classify import decompose, identify_family
from .engine import is_pbw, normal_form
from .exprs import ExpressionError, format_poly, parse_poly
from .presentation import PresentationError, load_presentation, validate_presentation
from .scalars import format_rational
from .smoothness import NotPbwError, decide_smoothness, verify_witness
from .templates import _fmt_components, _fmt_indices, tables_text

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
    print(f"n: {P.n}")
    print(f"I: {_fmt_indices(dec.I)}")
    print(f"R: {_fmt_indices(dec.R)}")
    print(f"components: {_fmt_components(dec.R_components)}")
    print(f"S: {_fmt_indices(dec.S)}")
    print(f"Tcirc: {_fmt_components(dec.T_circ)}")
    print(f"Tbullet: {_fmt_components(dec.T_bullet)}")
    print(f"family: {fam.family}")
    for name, value in fam.params.items():
        print(f"param {name}: {format_rational(value)}")
    for violation in fam.violations:
        print(f"violation: {violation}")
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
    print(f"verdict: {_VERDICT_LINE[verdict.verdict]}")
    print(f"case: {verdict.theorem_case or '-'}")
    print(f"family: {fam.family}")
    print(f"I: {_fmt_indices(dec.I)}")
    print(f"S: {_fmt_indices(dec.S)}")
    print(f"T: {_fmt_indices(dec.T)}")
    print(f"gkdim: {P.n}")
    if verdict.obstruction is not None:
        ob = verdict.obstruction
        print(f"obstruction: i={ob.i} t={ob.t}")
        print(f"residual: {format_poly(ob.residual)}")
    for note in verdict.notes:
        print(f"note: {note}")
    if verdict.verdict == "NotSmooth":
        ansatz_ok = verify_automorphisms(verdict.obstruction.family, P)
        state = "PASS" if ansatz_ok.relations_preserved else "FAIL"
        print(f"check:ansatz-relations: {state}")
        return 1
    if verdict.verdict == "Undetermined":
        return 1
    witness_report = verify_witness(P, verdict, degree_bound=args.degree_bound)
    for name, passed in witness_report.checks:
        print(f"check:{name}: {'PASS' if passed else 'FAIL'}")
    return 0 if witness_report.ok else 1


def _cmd_reduce(args) -> int:
    P = _load(args.file)
    comb = _parse_expr(args.expr, P.n)
    print(format_poly(normal_form(comb, P)))
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
# On a 2-core x86-64 container (Python 3.11, 2026-10-19, output to
# /dev/null): paper n = 9 takes 1.0-1.5 s at a peak RSS of 18.8-19.2 MiB and
# n = 10 3.3-4.7 s at 19.1-19.3 MiB; full n = 7 takes 0.4-0.6 s at 18.4-18.8
# MiB and n = 8 2.4-3.5 s at 21.2-21.5 MiB.  Raising a cap changes which
# inputs are refused, so it is a change of its own.
MAX_TABLES_N = {"paper": 9, "full": 7}


def _cmd_tables(args) -> int:
    cap = MAX_TABLES_N[args.mode]
    if args.n > cap:
        raise _CliError(f"n must be at most {cap} for --mode {args.mode}, "
                        f"got {args.n}")
    try:
        text = tables_text(args.n, args.mode)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    # one row is held at a time: rendered, written, dropped
    sys.stdout.writelines(text)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Ordered-basis checks, classification, and verified "
                    "differential calculi for inhomogeneous quadratic "
                    "exchange algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-pbw", help="test rewriting confluence on all triples")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_pbw)

    p = sub.add_parser("classify", help="decompose the index set and identify the family")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    for name, help_text in (
            ("smooth", "decide differential smoothness and verify the witness"),
            ("verify-calculus", "run every calculus check on the derived witness")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        p.add_argument("--degree-bound", type=int, default=None,
                       help="sample the volume-form identities on every "
                            "coefficient monomial up to this degree "
                            f"(0 to {MAX_DEGREE_BOUND}), as a cross-check of "
                            "the default proof on module generators")
        p.set_defaults(func=_smoothness_report)

    p = sub.add_parser("reduce", help="normal form of a polynomial expression")
    p.add_argument("file")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("d", help="differential of a polynomial expression")
    p.add_argument("file")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_d)

    p = sub.add_parser("tables", help="enumerate relation templates")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=("paper", "full"), default="paper")
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
