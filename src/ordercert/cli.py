"""Command-line interface.

Subcommands::

    verify       check every generator identity, write a relation-report
    epsilon      compute the six-factor product and compare it to b^-36
    prove        build, check, and write the no-left-order derivation
    check-cert   re-check a no-left-order certificate from disk
    eval         apply a word to an exact rational point

Exit codes: 0 success / verified, 1 a checked statement or cited fact is
false, a derivation is invalid or does not state the theorem, 2 unknown or
undecided facts, 3 usage, input, syntax, or I/O errors.  Stdout carries
human-readable text; certificates go only to files.

Commands run with the cyclic garbage collector paused: records are immutable
and acyclic, and argparse's parser, the one cycle a command leaves, is
collected once it resumes (``test_cli::test_commands_leave_no_cyclic_garbage``).
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction

from . import certs
from .exactpl import format_rational
from .orderlogic import derivation as derivation_mod
from .orderlogic.derivation import check_derivation, statement_mismatch
from .orderlogic.scripts import script_theorem_main
from .plane import plane_word, verify_mirrored_relations
from .skew import (
    compute_epsilon,
    epsilon_offsets,
    perturb_generators,
    standard_generators,
    verify_relations,
)
from .wordsyntax import WordSyntaxError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise WordSyntaxError(f"point must be 'x,y', got {text!r}")
    try:
        return (Fraction(parts[0].strip()), Fraction(parts[1].strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise WordSyntaxError(f"bad rational in point {text!r}") from exc


def _format_point(point) -> str:
    return f"{format_rational(point[0])},{format_rational(point[1])}"


def _write_cert(path, kind, payload, timestamp: bool) -> None:
    certificate = certs.make_certificate(kind, payload, timestamp=timestamp)
    certs.write_certificate(path, certificate)


def _exit_code(outcomes) -> int:
    """0 when every outcome holds, 1 when any is false, 2 when some are
    undecided and none is false."""
    outcomes = set(outcomes)
    if False in outcomes:
        return EXIT_FALSE
    return EXIT_UNKNOWN if None in outcomes else EXIT_OK


_MARKS = {True: "ok  ", False: "FAIL", None: "unknown"}
_TOTALS = {EXIT_OK: "all identities hold", EXIT_FALSE: "some identities FAIL",
           EXIT_UNKNOWN: "some identities undecided"}


def cmd_verify(args) -> int:
    try:
        gens = perturb_generators(args.perturb) if args.perturb else standard_generators()
    except WordSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    rows = verify_relations(gens) + verify_mirrored_relations(gens)
    code = _exit_code(outcome for _, _, outcome in rows)
    payload = {
        "facts": [{"id": fid, "description": desc, "holds": holds} for fid, desc, holds in rows],
        "all_hold": code == EXIT_OK,
        "generators": gens,
    }
    if args.format == "json":
        print(certs.canonical_dumps(payload))
    else:
        for fid, desc, outcome in rows:
            print(f"{fid:5s} {_MARKS[outcome]} {desc}")
        print(f"total: {_TOTALS[code]}")
    try:
        _write_cert(args.out, "relation-report", payload, not args.no_timestamp)
    except OSError as exc:
        print(f"error: cannot write certificate: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


def cmd_epsilon(args) -> int:
    gens = standard_generators()
    eps = compute_epsilon(gens)
    offsets = epsilon_offsets(gens)
    target = gens["b"].power(-36)
    conj = gens["c"].conjugate(gens["d"])
    print("epsilon components:")
    print(f"  x_part breakpoints: {conj_pairs(eps.x_part.to_pairs())}")
    print(f"  shift  breakpoints: {conj_pairs(eps.shift.to_pairs())}")
    print(f"offsets on the line x = 0: ({', '.join(format_rational(v) for v in offsets)})")
    print(f"offset sum: {format_rational(sum(offsets))}")
    bps = sorted(conj.breakpoint_xs())
    print(f"breakpoints of c^d: {{{', '.join(format_rational(x) for x in bps)}}}")
    equal = eps == target
    print(f"epsilon == b^-36: {equal}")
    return EXIT_OK if equal else EXIT_FALSE


def conj_pairs(pairs) -> str:
    return " ".join(f"({x}, {y})" for x, y in pairs)


def _verdict_exit_code(verdict) -> int:
    if verdict.is_valid:
        return EXIT_OK
    return EXIT_UNKNOWN if verdict.status == derivation_mod.UNKNOWN_FACTS else EXIT_FALSE


def cmd_prove(args) -> int:
    derivation = script_theorem_main()
    table = derivation.table
    if not table.verify_all():
        outcomes = {fid: table.outcome(fid) for fid in sorted(table.facts)}
        for label, value in (("refuted", False), ("undecided", None)):
            ids = [fid for fid, outcome in outcomes.items() if outcome is value]
            if ids:
                print(f"{label}: {', '.join(ids)}", file=sys.stderr)
        return _exit_code(outcomes.values())
    verdict = check_derivation(derivation)
    print(
        f"derivation '{derivation.name}': {verdict} "
        f"({derivation.count_steps()} steps, {derivation.count_branches()} branches)"
    )
    if not verdict.is_valid:
        return _verdict_exit_code(verdict)
    try:
        _write_cert(args.out, "derivation", certs.serialize_derivation(derivation),
                    not args.no_timestamp)
    except OSError as exc:
        print(f"error: cannot write certificate: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_check_cert(args) -> int:
    try:
        certificate = certs.read_certificate(args.path)
        if certificate["kind"] != "derivation":
            raise certs.CertificateError(
                f"expected a derivation certificate, found {certificate['kind']!r}"
            )
        derivation = certs.parse_derivation(certificate["payload"])
    except certs.CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    mismatch = statement_mismatch(derivation)
    if mismatch:
        print(f"derivation '{derivation.name}': statement mismatch: {mismatch}")
        return EXIT_FALSE
    verdict = check_derivation(derivation)
    print(f"derivation '{derivation.name}': {verdict}")
    return _verdict_exit_code(verdict)


def cmd_eval(args) -> int:
    try:
        word = plane_word(args.word)
        point = _parse_point(args.point)
    except (WordSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(_format_point(word.apply(point)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordercert",
        description="Exact verification and certificates for a plane homeomorphism "
                    "group that admits no left-invariant order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check all generator identities")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--perturb", metavar="SPEC", default=None,
                   help="test hook: replace a generator, e.g. 'd:=d b'")
    p.add_argument("--out", default="relations.cert.json")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("epsilon", help="compute the six-factor product exactly")
    p.set_defaults(func=cmd_epsilon)

    p = sub.add_parser("prove", help="check the no-left-order derivation and write it")
    p.add_argument("--out", default="theorem.cert.json")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check-cert", help="re-check a no-left-order certificate from disk")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_cert)

    p = sub.add_parser("eval", help="apply a word to a point, e.g. eval 'c^d' 0,0")
    p.add_argument("word")
    p.add_argument("point")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # argparse has already printed the usage error
            return EXIT_ERROR
        raise
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
