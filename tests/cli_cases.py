"""One table of command-line cases, and a runner for the installed command.

Each row runs the ``ordercert`` command once: on an edited copy of the
certificate ``prove --no-timestamp`` writes, or on an argv of its own.  It
names the exit code and the text expected on stdout or stderr; ``check``
judges every row, and also requires of every row no traceback on stderr and
under ``OUTPUT_LIMIT`` bytes of output.  ``tests/test_cli.py`` runs each row in
process through ``cli.main``.  Run as a script, this module runs each row
through the ``ordercert`` on ``PATH``, as a subprocess, and names each row
that fails:

    ordercert prove --no-timestamp --out theorem.cert.json
    python tests/cli_cases.py theorem.cert.json

It imports no ``ordercert``, so the script checks the installed command.
"""

import json
import re
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

# argv placeholders: the row's certificate, and a file a command may write
CERT = "{cert}"
OUT = "{out}"
OUTPUT_LIMIT = 1000
TIMEOUT_S = 10


class Whole(str):
    """The stream is exactly this text."""


class Start(str):
    """The stream starts with this text."""


class Line(str):
    """One line of the stream is exactly this text."""


# ``edit`` maps the certificate's bytes to the bytes the row checks (None
# leaves them as they are); ``out`` and ``err`` are each None, one text (a
# plain str is a fragment the stream contains) or a tuple of texts.
Row = namedtuple("Row", "id argv edit code out err")


def cert_row(id, edit, code, out=None, err=None):
    """``check-cert`` on the certificate whose payload ``edit`` changes in place."""
    def edit_bytes(cert):
        data = json.loads(cert)
        edit(data["payload"])
        return json.dumps(data).encode()

    return Row(id, ("check-cert", CERT), edit and edit_bytes, code, out, err)


def text_row(id, old, new, code, out=None, err=None):
    """``check-cert`` on the certificate with the first match of the regex
    ``old`` in its text replaced by ``new``."""
    def edit_bytes(cert):
        text, n = re.subn(old, new, cert.decode(), count=1)
        assert n == 1, old
        return text.encode()

    return Row(id, ("check-cert", CERT), edit_bytes, code, out, err)


def argv_row(id, argv, code, out=None, err=None):
    return Row(id, tuple(argv), None, code, out, err)


def steps(node):
    """The steps of a tree, depth first, each node's own steps first."""
    yield from node["steps"]
    for br in (node["split"] or {}).get("branches", ()):
        yield from steps(br["node"])


def first_step(payload, field=None, rule=None):
    """The first step, or the first whose ``field`` is non-empty, or the
    first of ``rule``."""
    return next(s for s in steps(payload["root"])
                if (field is None or s[field]) and rule in (None, s["rule"]))


def first_branch(payload):
    return payload["root"]["split"]["branches"][0]


def first_split(payload, kind):
    node = payload["root"]
    while node["split"]["kind"] != kind:
        node = node["split"]["branches"][0]["node"]
    return node["split"]


def fact(payload, fid):
    return next(f for f in payload["table"]["facts"] if f["id"] == fid)


def first_conclusion_letter(payload):
    """The first exponent-1 letter of any stated inequality conclusion."""
    return next(letter for s in steps(payload["root"]) if "less" in s["conclusion"]
                for side in s["conclusion"]["less"] for letter in side if letter[1] == 1)


def _first_product_v(payload):
    """The exponent-1 letter of the first product step's v parameter."""
    return next(letter for letter in first_step(payload, rule="product")["params"]["v"]
                if letter[1] == 1)


LEAF = {"steps": [], "split": None}
A1 = [["a", 1]]


def _trichotomy(w1, w2, tag, first, name=None):
    """The split w1 ? w2 in canonical cases, hypotheses {tag}0..{tag}2, with
    ``first`` as the node of the w1 < w2 case and bare leaves elsewhere; each
    branch is named ``name``, or as its hypothesis."""
    cases = [{"less": [w1, w2]}, {"eq": [w1, w2]}, {"less": [w2, w1]}]
    branches = [{"name": name or f"{tag}{i}", "node": first if i == 0 else LEAF,
                 "hypotheses": [{"id": f"{tag}{i}", "judgment": case}]}
                for i, case in enumerate(cases)]
    return {"steps": [], "split": {"kind": "trichotomy", "premises": [],
                                   "params": {"w1": w1, "w2": w2}, "branches": branches}}


def _given_node():
    """A split that assumes one case, a < a, closed by absurdity against itself."""
    close = {"id": "s1", "rule": "absurd", "params": {}, "premises": ["h1", "h1"], "facts": [],
             "conclusion": {"contradiction": True}}
    branch = {"name": "only", "goal": None,
              "hypotheses": [{"id": "h1", "judgment": {"less": [A1, A1]}}],
              "node": {"steps": [close], "split": None}}
    return {"steps": [], "split": {"kind": "given", "params": {}, "premises": [],
                                   "branches": [branch]}}


def _trichotomy_branch_goals(payload):
    """The three canonical cases of 1 ? a, each declaring an empty goal."""
    payload["root"] = _trichotomy([], A1, "case", LEAF)
    for branch in payload["root"]["split"]["branches"]:
        branch["goal"] = []


def _huge_window(n):
    """Three trichotomies that put b^-n < c, c < b^n and 1 < b in scope, then
    a window over [-n, n] with one branch."""
    window = {"steps": [], "split": {
        "kind": "window", "premises": ["x0", "y0", "z0"],
        "params": {"v": [["c", 1]], "t": ["b", 1], "n1": -n, "n2": n},
        "branches": [{"name": "only", "hypotheses": [], "node": LEAF}]}}
    root = _trichotomy([["b", -n]], [["c", 1]], "x", _trichotomy(
        [["c", 1]], [["b", n]], "y", _trichotomy([], [["b", 1]], "z", window)))
    return lambda payload: payload.update(root=root)


def _deep_path_of_long_names(payload):
    # 150 nested trichotomies, each entered by its first branch, whose names
    # of 1,000 letters lead to a bare leaf: the failing path has 150 names
    node = LEAF
    for depth in range(150):
        node = _trichotomy(A1, [["b", 1]], f"h{depth}.", node, name="z" * 1000)
    payload["root"] = node


def _set_algebra(algebra, only=None):
    def edit(payload):
        for name, spec in payload["table"]["atoms"].items():
            if only in (None, name):
                spec["algebra"] = algebra

    return edit


def _set_first_fact(field, value):
    return lambda payload: payload["table"]["facts"][0].__setitem__(field, value)


def _set_atom_word(word):
    return lambda payload: payload["table"]["atoms"]["a"].__setitem__("word", word)


def _base_sign_as_float(payload):
    step = next(s for s in steps(payload["root"]) if "t" in s["params"])
    step["params"]["t"][1] = float(step["params"]["t"][1])


def _fact_exponent_as_string(payload):
    eq = next(f for f in payload["table"]["facts"] if f["kind"] == "identity_eq")
    eq["args"][1][0][1] = str(eq["args"][1][0][1])


def _window_bound_as_float(payload):
    params = first_split(payload, "window")["params"]
    params["n1"] = float(params["n1"])


def _contradiction_marker(value):
    def edit(payload):
        closing = [s for s in steps(payload["root"]) if "contradiction" in s["conclusion"]]
        assert closing
        for step in closing:
            step["conclusion"]["contradiction"] = value

    return edit


_LONG = "z" * 100000


def _long_branch_name_on_the_path(payload):
    # the first "trans" step lies under the root's first branch
    first_branch(payload)["name"] = _LONG
    first_step(payload, rule="trans")["rule"] = _LONG


def _first_conclusion_side(value):
    """The first step's conclusion, whose right side is the empty word, with
    that side replaced by ``value``."""
    return lambda payload: first_step(payload)["conclusion"]["less"].__setitem__(1, value)


MALFORMED = "error: malformed derivation payload: "
MISMATCH = "invalid at <goal>: statement mismatch: the goal is not 'contradiction'"
# Where the theorem's first "trans" step in file order is: the step ids and
# branch names of the theorem's derivation pin it.
FIRST_TRANS = "invalid at s0032 in b_positive/a_positive/mag_a_below_mag_b/c_below_1"
# The first step of each other rule, depth first.
FIRST_STEP_OF = {"invert": "s0008", "product": "s0011", "conjugate_window": "s0030",
                 "flip_bound": "s0019", "lmul": "s0029", "subst": "s0068", "absurd": "s0075",
                 "eq_contra": "s0028"}

ROWS = [
    # Each of the first three forged statements once printed "valid" and
    # exited 0.
    cert_row("forged-statement/empty-goal", lambda payload: payload.update(goal=[], root=LEAF),
             1, out=MISMATCH),
    cert_row("forged-statement/given-root", lambda payload: payload.update(root=_given_node()),
             1, out="invalid at split:given: unknown split kind 'given'"),
    cert_row("forged-statement/trichotomy-branch-goals", _trichotomy_branch_goals, 1,
             out="invalid at split:trichotomy: branch 'case0' declares a goal"),
    cert_row("forged-statement/nested-given",
             lambda payload: payload.update(root=_trichotomy([], A1, "x", _given_node())), 1,
             out="invalid at split:given in x0: unknown split kind 'given'"),
    # the first "trans" renamed "transx" is an unknown rule
    text_row("forged-statement/unknown-rule", '"rule":"trans"', '"rule":"transx"', 1,
             out=FIRST_TRANS + ": unknown rule 'transx'"),

    # Malformed atom tables: each one used to end in a traceback (or, for an
    # unknown algebra on every atom, in "valid").  Atoms are plane words, so
    # the "skew" tag that earlier tables could carry is malformed too.
    *(cert_row(f"malformed-table/{shape}", edit, 3,
               err=Start("error: malformed derivation payload"))
      for shape, edit in [
          ("atoms-not-an-object", lambda payload: payload["table"].update(atoms=[])),
          ("fact-names-unknown-atom", _set_first_fact("args", ["a", "zz"])),
          ("atom-word-syntax", _set_atom_word("a^^")),
          ("atom-word-not-a-string", _set_atom_word(5)),
          ("unknown-algebra-on-one-atom", _set_algebra("weird", only="a")),
          ("unknown-algebra-on-every-atom", _set_algebra("weird")),
          ("two-algebras", _set_algebra("skew", only="a")),
          ("unknown-fact-kind", _set_first_fact("kind", "weird")),
          ("wrong-fact-arity", _set_first_fact("args", ["a"])),
      ]),

    # Each value equals the exponent 1 it replaces once coerced by int(), and
    # each used to check as "valid".
    *(cert_row(f"non-integer-exponent/{site_id}-{value!r}",
               lambda payload, site=site, value=value: site(payload).__setitem__(1, value), 3,
               err="needs a string and an integer")
      for site_id, site in [("param", _first_product_v), ("conclusion", first_conclusion_letter)]
      for value in [1.9, "1", True, 1.0]),
    # the first exponent 1 in the text rewritten as 1.5
    text_row("non-integer-exponent/bad-exponent", '",1]', '",1.5]', 3,
             err="needs a string and an integer"),

    cert_row("non-integer-base-fact-and-window/base-sign", _base_sign_as_float, 3,
             err=Whole(MALFORMED + "a letter needs a string and an integer\n")),
    cert_row("non-integer-base-fact-and-window/fact-exponent", _fact_exponent_as_string, 3,
             err=Start(MALFORMED)),
    cert_row("non-integer-base-fact-and-window/window-bound", _window_bound_as_float, 1,
             out="parameter 'n1' must be an integer"),
    cert_row("non-integer-base-fact-and-window/unedited", None, 0, out="valid"),

    # b^-N < c, c < b^N and 1 < b from three trichotomies, then a window over
    # [-N, N] with one branch, N = 10^9: refused before its cases are built
    cert_row("window-is-bounded/huge-window", _huge_window(10**9), 1, out=Whole(
        "derivation 'no-left-order': invalid at split:window in x0/y0/z0: "
        "window over [-1000000000, 1000000000] needs 3999999999 branches, got 1\n")),
    # n = 10^4300 - 1 is a legal JSON literal, but 2(n2 - n1) - 1 would not
    # print as a str(): exponents stay below 2^63 in magnitude
    cert_row("huge-window-bound/n-of-4300-digits", _huge_window(10**4300 - 1), 3,
             err="exponent of 2**63 or more"),
    # the first "m":0 as a literal of 5,001 digits, beyond what json reads as an int
    text_row("huge-integer-literal/m-of-5001-digits", '"m":0', '"m":1' + "0" * 5000, 3,
             err=Start("error: not a certificate: ")),

    # Each of these edits used to be read through str(), character by
    # character, or not checked at all, and the edited certificate still
    # printed "valid" or reached the checker.
    *(cert_row(f"string-fields/{name}", edit, 3, err=(Start(MALFORMED), message))
      for name, edit, message in [
          ("step-id-integer", lambda payload: first_step(payload).update(id=7),
           "step id must be a string"),
          ("name-integer", lambda payload: payload.update(name=12),
           "derivation name must be a string"),
          ("branch-name-null", lambda payload: first_branch(payload).update(name=None),
           "branch name must be a string"),
          ("description-list", lambda payload: fact(payload, "F1").update(description=["a", "b"]),
           "fact description must be a string"),
          ("premise-id-integer",
           lambda payload: first_step(payload, "premises")["premises"].__setitem__(0, 7),
           "premise id must be a string"),
          ("facts-string", lambda payload: first_step(payload, "facts").update(facts="F1"),
           "fact ids must be a list"),
          ("premises-string",
           lambda payload: first_step(payload, "premises").update(premises="h0004"),
           "premise ids must be a list"),
          ("args-string", lambda payload: fact(payload, "F1").update(args="ab"),
           "fact args must be a list"),
      ]),
    # the same two edits in the text: the first step id as a JSON integer,
    # and the first step's cited facts as the string "F1", not a list
    text_row("string-fields/integer-id", r'"id":"s[0-9]+"', '"id":7', 3,
             err=(Start(MALFORMED), "step id must be a string")),
    text_row("string-fields/string-facts", r'"facts":\["F[0-9a-z]+"\]', '"facts":"F1"', 3,
             err=(Start(MALFORMED), "fact ids must be a list")),

    # Each value is truthy, and a certificate whose closing steps all carried
    # it used to check as "valid".
    *(cert_row(f"contradiction-marker/{value!r}", _contradiction_marker(value), 3,
               err="unknown judgment")
      for value in [1, "yes", [0]]),

    # A verdict quotes each untrusted name, and each word, by a short prefix:
    # a rule name, a branch name and a premise id of 100,000 letters used to
    # print 100,105, 200,095 and 100,116 bytes, and a word of one such letter
    # in an lmul step, a trichotomy and a window 200,151, 100,122 and 100,147
    # bytes.  A path of 150 branch names of 1,000 letters each used to print
    # 10,289 bytes.
    *(cert_row(f"short-prefix/{name}", edit, code, out="z" * 64 + "...")
      for name, edit, code in [
          ("rule", lambda payload: first_step(payload).update(rule=_LONG), 1),
          ("branch-name", _long_branch_name_on_the_path, 1),
          ("premise-id",
           lambda payload: first_step(payload, "premises")["premises"].__setitem__(0, _LONG), 1),
          ("fact-id", lambda payload: first_step(payload, "facts")["facts"].__setitem__(0, _LONG),
           2),
          ("split-kind", lambda payload: payload["root"]["split"].update(kind=_LONG), 1),
          ("derivation-name", lambda payload: payload.update(name=_LONG), 0),
          ("lmul-word",
           lambda payload: first_step(payload, rule="lmul")["params"].update(w=[[_LONG, 1]]), 1),
          ("trichotomy-word",
           lambda payload: first_split(payload, "trichotomy")["params"].update(w1=[[_LONG, 1]]),
           1),
          ("window-word",
           lambda payload: first_split(payload, "window")["params"].update(v=[[_LONG, 1]]), 1),
          ("deep-path", _deep_path_of_long_names, 1),
      ]),
    # the first "trans" in the text renamed by 100,000 letters
    text_row("short-prefix/long-rule", '"rule":"trans"', '"rule":"' + _LONG + '"', 1,
             out="z" * 64 + "..."),
    # the first lmul step's word parameter w as 100,000 letters used to print
    # 400,149 bytes
    cert_row("short-prefix/long-w", lambda payload: first_step(payload, rule="lmul")["params"]
             .update(w=[["a", 1], ["b", 1]] * 50000), 1,
             out="stated conclusion differs from the rule's ('a b a b a b"),

    # A judgment that is not an object of one known key and its operands is
    # malformed input.
    *(cert_row(f"judgment-shape/{judgment!r}", lambda payload, judgment=judgment:
               first_branch(payload)["hypotheses"][0].update(judgment=judgment), 3,
               err=Whole(MALFORMED + "unknown judgment in hypothesis judgment\n"))
      for judgment in ["x", [], {"less": 1}]),

    # The reader builds each record from exactly the keys the writer writes.
    # Each of the first fifteen edits printed "valid" and exited 0 while the
    # reader dropped the keys it did not look for and read any empty value as
    # the empty word.  The goal is read as given, so the last three, each
    # once malformed input, are a statement mismatch whatever their JSON type.
    *(cert_row(f"written-keys/{name}", edit, 3, err=MALFORMED)
      for name, edit in [
          ("payload-key", lambda payload: payload.update(junk=1)),
          ("step-key", lambda payload: first_step(payload).update(junk=1)),
          ("hypothesis-key", lambda payload: first_branch(payload)["hypotheses"][0].update(junk=1)),
          ("branch-key", lambda payload: first_branch(payload).update(junk=1)),
          ("split-key", lambda payload: payload["root"]["split"].update(junk=1)),
          ("node-key", lambda payload: payload["root"].update(junk=1)),
          ("fact-key", lambda payload: fact(payload, "F1").update(junk=1)),
          ("atom-spec-key", lambda payload: payload["table"]["atoms"]["a"].update(junk=1)),
          ("table-key", lambda payload: payload["table"].update(junk=1)),
          ("judgment-key", lambda payload: first_step(payload)["conclusion"].update(junk=1)),
          ("step-without-params", lambda payload: first_step(payload).pop("params")),
          ("step-without-facts", lambda payload: first_step(payload).pop("facts")),
          ("payload-without-name", lambda payload: payload.pop("name")),
          ("word-as-empty-string", _first_conclusion_side("")),
          ("word-as-empty-object", _first_conclusion_side({})),
      ]),
    # a key that is not a field of a step, in the text
    text_row("written-keys/extra-key", '{"conclusion":', '{"junk":1,"conclusion":', 3,
             err=MALFORMED),
    *(cert_row(f"written-keys/goal-{name}", lambda payload, goal=goal: payload.update(goal=goal),
               1, out=MISMATCH)
      for name, goal in [("5", 5), ("x", "x"), ("object", {})]),

    # Each of these edits used to check as "valid" and exit 0.
    *(cert_row(f"unread-parameters/{rule}", lambda payload, rule=rule:
               first_step(payload, rule=rule)["params"].update(junk=[1, 2]), 1,
               out=(f"invalid at {step} in ", "reads only the parameters"))
      for rule, step in FIRST_STEP_OF.items()),
    # "junk" in the params of the first "trans" step in file order
    text_row("unread-parameters/trans", r'"params":\{\}(,"premises":\[[^\]]*\],"rule":"trans")',
             r'"params":{"junk":[1,2]}\1', 1, out=(FIRST_TRANS, "reads only the parameters")),
    *(cert_row(f"unread-parameters/split-{kind}", lambda payload, kind=kind:
               first_split(payload, kind)["params"].update(junk=[1, 2]), 1,
               out=(f"invalid at split:{kind}", "reads only the parameters"))
      for kind in ("trichotomy", "window")),

    # An error names the field and the JSON type, not the untrusted value,
    # and quotes untrusted text by a short prefix: these used to print
    # 150,082, 4,385, 100,058 (an atom word of "a " and 100,000 "?") and
    # 100,064 (a fact naming an atom of 100,000 letters) bytes of stderr.
    *(cert_row(f"unquoted-value/{name}", edit, 3, err=Whole(MALFORMED + message + "\n"))
      for name, edit, message in [
          ("step-id-list", lambda payload: first_step(payload).update(id=list(range(30000))),
           "step id must be a string, got a list"),
          ("huge-window", _huge_window(10**4300 - 1),
           "a letter has an exponent of 2**63 or more in magnitude"),
          ("atom-word", _set_atom_word("a " + "?" * 100000),
           "unknown letter at '" + "?" * 64 + "...'"),
          ("fact-atom-name", _set_first_fact("args", ["a", "z" * 100000]),
           "fact 'F1': unknown atom '" + "z" * 64 + "...'"),
      ]),

    # a table without the fact F6, which a step cites
    cert_row("unknown-fact/F6-stripped", lambda payload: payload["table"].update(
        facts=[f for f in payload["table"]["facts"] if f["id"] != "F6"]), 2),
    # d realized as d b makes the cited fact F5 false
    cert_row("false-fact/d-as-d-b", lambda payload: payload["table"]["atoms"]["d"].update(
        word="d b"), 1, out="invalid at s0021 in b_positive/a_positive/mag_a_below_mag_b: "
                            "fact 'F5': statement is false"),
    # the first step's stated inequality reversed
    cert_row("mutated/first-conclusion-reversed",
             lambda payload: first_step(payload)["conclusion"]["less"].reverse(), 1,
             out="invalid at s0008 in "),
    Row("deeply-nested/payload-of-100000-lists", ("check-cert", CERT),
        lambda cert: b'{"version":"1","kind":"derivation","payload":'
        + b"[" * 100000 + b"]" * 100000 + b"}", 3, None, "not a certificate"),

    # a certificate of another version is refused, not read as version 1
    text_row("console/version-2", '"version":"1"', '"version":"2"', 3,
             err="unsupported certificate version"),
    argv_row("console/verify", ["verify", "--no-timestamp", "--out", OUT], 0,
             out=("F6", "all identities hold")),
    # d := d b breaks the identities F5 and M5
    argv_row("console/verify-perturbed", ["verify", "--perturb", "d:=d b", "--no-timestamp",
                                          "--out", OUT], 1, out=("F5", "FAIL")),
    # b := b d leaves dh^(b^3) == dh^-1 true but undecided: M5 reads unknown
    argv_row("console/verify-undecided", ["verify", "--perturb", "b:=b d", "--no-timestamp",
                                          "--out", OUT], 1,
             out=Line("M5    unknown dh^(b^3) == dh^-1")),
    argv_row("epsilon/runs", ["epsilon"], 0, out=(
        "(3, -1, -2, -3, -2, -1)", "offset sum: -6", "{0, 1/6, 1/2, 5/6}",
        "epsilon == b^-36: True")),
    *(argv_row(f"eval/{name}", ["eval", word, point], 0, out=Whole(image + "\n"))
      for name, word, point, image in [
          ("conjugate", "c^d", "0,0", "0,3"),
          # Greek aliases inside a conjugator: γ^δ is c^d
          ("greek", "γ^δ", "0,0", "0,3"),
          ("empty-word", "", "1/2,1/2", "1/2,1/2"),
          ("ch", "ch", "0,0", "3,0"),
          ("b^-36", "b^-36", "2/3,1/7", "2/3,-41/7"),
      ]),

    argv_row("bad-perturbation/no-assignment", ["verify", "--perturb", "nonsense"], 3),
    argv_row("bad-perturbation/unknown-generator", ["verify", "--perturb", "q:=a"], 3),
    *(argv_row(f"eval-syntax/{name}", ["eval", word, point], 3)
      for name, word, point in [("unknown-letter", "q", "0,0"), ("one-coordinate", "a", "0"),
                                ("letters-as-coordinates", "a", "x,y")]),

    # each of these crashed with int()'s ValueError, exit 1, or read d^٣ as d^3
    *(argv_row(f"malformed-exponent/{name}", argv, 3,
               err=Start("error: exponent is not an integer in token 'd^"))
      for name, argv in [
          ("superscript", ["verify", "--perturb", "d:=d^²"]),
          ("double-sign", ["verify", "--perturb", "d:=d^--3"]),
          ("mixed-signs", ["verify", "--perturb", "d:=d^+-1"]),
          ("arabic-indic", ["verify", "--perturb", "d:=d^٣"]),
          ("eval-superscript", ["eval", "d^²", "0,0"]),
      ]),

    # Fraction(text) read the first four as numbers: a coordinate is ASCII p or p/q
    *(argv_row(f"ascii-rational/{name}", ["eval", "a", point], 3,
               err=Whole(f"error: bad rational in point {point!r}\n"))
      for name, point in [
          ("arabic-indic", "٣,0"), ("exponent", "1e5,0"), ("decimal", "0.5,0"),
          ("underscore", "1_000,0"), ("arabic-indic-denominator", "1/٣,0"),
          ("signed-denominator", "1/-2,0"), ("zero-denominator", "1/0,0"),
      ]),

    *(argv_row(f"usage-error/{name}", argv, 3, err=Start("usage: ordercert"))
      for name, argv in [
          ("retired-command", ["search"]),
          ("unknown-command", ["nosuch"]),
          ("bad-choice", ["verify", "--format", "xml"]),
          ("bad-choice-inline", ["verify", "--format=xml"]),
          ("no-command", []),
          ("missing-value", ["prove", "--out"]),
          ("extra-positional", ["check-cert", "a", "b"]),
          ("missing-positional", ["eval", "a"]),
          ("unknown-option", ["prove", "--bogus"]),
          # an empty option name is a prefix of no option, not of every one (help)
          ("empty-option-name", ["check-cert", "--=1", "foo"]),
          ("empty-option-name-no-options", ["epsilon", "--=x"]),
          ("help-with-value", ["verify", "--help=x"]),
      ]),
]


def _judge(text, want):
    if isinstance(want, Whole):
        return text == want
    if isinstance(want, Start):
        return text.startswith(want)
    if isinstance(want, Line):
        return want in text.splitlines()
    return want in text


def check(row, code, out, err):
    """What ``row`` finds wrong with one run: an empty list when it passes."""
    faults = [] if code == row.code else [f"exit {code}, expected {row.code}"]
    for name, text, want in (("stdout", out, row.out), ("stderr", err, row.err)):
        for fragment in (want,) if isinstance(want, str) else want or ():
            if not _judge(text, fragment):
                faults.append(f"{name} does not match {type(fragment).__name__.lower()} "
                              f"{fragment[:200]!r}: {text[:200]!r}")
    if "Traceback" in err:
        faults.append("a traceback on stderr")
    size = len((out + err).encode())
    if size >= OUTPUT_LIMIT:
        faults.append(f"{size} bytes of output, the limit is {OUTPUT_LIMIT}")
    return faults


def prepare(row, cert, directory):
    """The argv of ``row``, with its certificate written into ``directory``."""
    paths = {CERT: Path(directory) / "row.cert.json", OUT: Path(directory) / "row.out.json"}
    if CERT in row.argv:
        paths[CERT].write_bytes(cert if row.edit is None else row.edit(cert))
    return [str(paths.get(arg, arg)) for arg in row.argv]


def run_installed(cert_path):
    """Run every row through the ``ordercert`` on PATH: each fault of each row."""
    cert = Path(cert_path).read_bytes()
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        for row in ROWS:
            try:
                run = subprocess.run(["ordercert", *prepare(row, cert, directory)],
                                     capture_output=True, encoding="utf-8", errors="replace",
                                     timeout=TIMEOUT_S)
                faults = check(row, run.returncode, run.stdout, run.stderr)
            except subprocess.TimeoutExpired:
                faults = [f"no exit within {TIMEOUT_S} s"]
            failures.extend(f"{row.id}: {fault}" for fault in faults)
    return failures


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} THEOREM_CERT")
    failures = run_installed(sys.argv[1])
    print(*failures, f"{len(ROWS)} rows, {len({f.split(': ')[0] for f in failures})} failed",
          sep="\n")
    sys.exit(1 if failures else 0)
