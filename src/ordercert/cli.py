"""Command-line interface.

The commands, each with its handler, one-line summary, positionals and
options, are the entries of ``COMMANDS``; ``-h`` prints their usage from it.

Exit codes: 0 success / verified, 1 a checked statement or cited fact is
false, a derivation is invalid or does not state the theorem, 2 unknown or
undecided facts, 3 usage, input, syntax, or I/O errors.  Stdout carries
human-readable text; certificates go only to files.

Commands run with the cyclic garbage collector paused: records are immutable
and acyclic, and no command leaves a reference cycle
(``test_cli::test_commands_leave_no_cyclic_garbage``).
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import certs
from .exactpl import PLError, format_rational, rational
from .orderlogic import derivation as derivation_mod
from .orderlogic.derivation import check_derivation
from .orderlogic.scripts import script_theorem_main
from .plane import plane_word, verify_mirrored_relations
from .skew import (
    compute_epsilon,
    epsilon_offsets,
    perturb_generators,
    standard_generators,
    verify_relations,
)
from .wordsyntax import WordSyntaxError, clip

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise WordSyntaxError(f"point must be 'x,y', got {text!r}")
    try:
        return tuple(rational(part.strip()) for part in parts)
    except PLError as exc:
        raise WordSyntaxError(f"bad rational in point {text!r}") from exc


def _format_point(point) -> str:
    return f"{format_rational(point[0])},{format_rational(point[1])}"


def _write_cert(path, kind, payload, timestamp: bool) -> bool:
    """Write the certificate to ``path``; False, with the error on stderr,
    when the file cannot be written."""
    certificate = certs.make_certificate(kind, payload, timestamp=timestamp)
    try:
        certs.write_certificate(path, certificate)
    except OSError as exc:
        print(f"error: cannot write certificate: {exc}", file=sys.stderr)
        return False
    return True


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
    if not _write_cert(args.out, "relation-report", payload, not args.no_timestamp):
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
    if not _write_cert(args.out, "derivation", certs.serialize_derivation(derivation),
                       not args.no_timestamp):
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
    verdict = check_derivation(derivation)
    print(f"derivation '{clip(derivation.name)}': {verdict}")
    return _verdict_exit_code(verdict)


def cmd_eval(args) -> int:
    try:
        word = plane_word(args.word)
        point = _parse_point(args.point)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(_format_point(word.apply(point)))
    return EXIT_OK


# Each command's handler, summary, positional names and options.  An option whose
# default is False is a flag; a tuple default lists its choices, the first the default.
COMMANDS = {
    "verify": (cmd_verify, "check every generator identity, write a relation-report", (),
               {"format": ("text", "json"), "perturb": None, "out": "relations.cert.json",
                "no_timestamp": False}),
    "epsilon": (cmd_epsilon, "compute the six-factor product and compare it to b^-36", (), {}),
    "prove": (cmd_prove, "build, check, and write the no-left-order derivation", (),
              {"out": "theorem.cert.json", "no_timestamp": False}),
    "check-cert": (cmd_check_cert, "re-check a no-left-order certificate from disk",
                   ("path",), {}),
    "eval": (cmd_eval, "apply a word to a point x,y, each coordinate p or p/q in ASCII digits",
             ("word", "point"), {}),
}


class UsageError(ValueError):
    """An argument list that fits no entry of ``COMMANDS``: (command, message)."""


def _usage(command) -> str:
    """The usage line of ``command``, or of the program when it is None."""
    if command is None:
        return "usage: ordercert {" + ",".join(COMMANDS) + "} ..."
    _, _, positional, options = COMMANDS[command]
    words = ["usage: ordercert", command, *map(str.upper, positional)]
    for key, default in options.items():
        option = "--" + key.replace("_", "-")
        if type(default) is tuple:
            option += " {" + ",".join(default) + "}"
        elif default is not False:
            option += " " + key.upper()
        words.append(f"[{option}]")
    return " ".join(words)


def parse_args(argv) -> SimpleNamespace:
    """Read ``argv`` as a command of ``COMMANDS``, its positionals and its
    options, each named in full or by a unique prefix.  Only ``-h`` and words
    that start ``--`` are options, and every word after ``--`` is positional.
    ``-h`` or ``--help`` prints the usage and exits 0; any other misfit raises
    ``UsageError``."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    _, _, positional, options = COMMANDS.get(command, (None, None, ("command",), {}))
    values = {key: default[0] if type(default) is tuple else default
              for key, default in options.items()}
    words, rest = [], iter(argv[command is not None:])
    for arg in rest:
        if arg == "--":
            words += rest
        elif arg == "-h" or arg.startswith("--"):
            name, given, value = arg[2:].partition("=")
            # an empty name would be a prefix of every option
            keys = [key for key in (*options, "help")
                    if name and key.replace("_", "-").startswith(name)]
            if arg == "-h" or keys == ["help"]:
                if given:
                    raise UsageError(command, f"{arg!r} takes no value")
                print(_usage(command), "", *(f"    {name:<12} {entry[1]}" for name, entry
                                             in COMMANDS.items() if command in (None, name)),
                      sep="\n")
                raise SystemExit(0)
            if len(keys) != 1:
                raise UsageError(command, f"unrecognized option {arg!r}")
            default = options[keys[0]]
            if default is False:
                if given:
                    raise UsageError(command, f"{arg!r} takes no value")
                value = True
            elif not given:  # the value is the next word
                value = next(rest, "--")
                if value == "-h" or value.startswith("--"):
                    raise UsageError(command, f"{arg!r} needs a value")
            if type(default) is tuple and value not in default:
                raise UsageError(command, f"invalid choice {value!r} for {arg!r}")
            values[keys[0]] = value
        else:
            words.append(arg)
    if command is None or len(words) != len(positional):
        wanted = " ".join(map(str.upper, positional)) or "no arguments"
        raise UsageError(command, f"expected {wanted}, got {words}")
    return SimpleNamespace(command=command, **dict(zip(positional, words)), **values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        command, message = exc.args
        print(_usage(command), f"ordercert: error: {message}", sep="\n", file=sys.stderr)
        return EXIT_ERROR
    collecting = gc.isenabled()
    gc.disable()
    try:
        return COMMANDS[args.command][0](args)
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
