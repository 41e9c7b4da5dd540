import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordercert
from ordercert import certs, cli, plane
from ordercert.cli import main
from ordercert.orderlogic.derivation import check_derivation
from ordercert.orderlogic.facts import AtomTable
from ordercert.orderlogic.scripts import script_theorem_main


# SHA-256 of the `--no-timestamp` certificates written by `prove` and
# `verify`.  Certificates are canonical JSON, so any byte change -- intended
# or not -- changes these digests.
THEOREM_CERT_SHA256 = "fd16d403f7717b5594f7490180459681f6b531e4a7958c03c316ac0d9292ae9d"
RELATIONS_CERT_SHA256 = "6e1aa08c1c75fc9ac73eef0cda8ad9f64745c0845262dd431aa633c4aa55aa5b"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_prove_certificate_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    assert _sha256(out) == THEOREM_CERT_SHA256


def test_verify_certificate_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    assert main(["verify", "--no-timestamp", "--out", str(out)]) == 0
    assert _sha256(out) == RELATIONS_CERT_SHA256


def test_verify_ok(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    code = main(["verify", "--no-timestamp", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "F6" in captured and "all identities hold" in captured
    cert = certs.read_certificate(out)
    assert cert["kind"] == "relation-report"
    assert cert["payload"]["all_hold"] is True
    ids = [f["id"] for f in cert["payload"]["facts"]]
    assert "F1" in ids and "M6" in ids


def test_verify_perturbed_fails(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    code = main(["verify", "--perturb", "d:=d b", "--no-timestamp", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 1
    assert "F5" in captured and "FAIL" in captured
    cert = certs.read_certificate(out)
    report = {f["id"]: f["holds"] for f in cert["payload"]["facts"]}
    assert report["F3"] is True and report["F5"] is False and report["M5"] is False


def test_verify_reports_an_undecided_identity_as_unknown(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    code = main(["verify", "--perturb", "b:=b d", "--no-timestamp", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert "M5    unknown dh^(b^3) == dh^-1" in lines
    outcomes = {f["id"]: f["holds"] for f in certs.read_certificate(out)["payload"]["facts"]}
    assert outcomes["M5"] is None
    assert [fid for fid, holds in outcomes.items() if holds is False] == [
        "F1", "F2", "F6", "M1", "M4", "M6"]
    assert code == 1


def test_verify_exits_2_when_the_only_open_identity_is_undecided(tmp_path, capsys, monkeypatch):
    decide_equal = plane.decide_equal
    monkeypatch.setattr(plane, "decide_equal",
                        lambda w1, w2: None if w2 == plane.plane_word("dh^-1") else decide_equal(w1, w2))
    out = tmp_path / "rel.cert.json"
    assert main(["verify", "--no-timestamp", "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "ok  " not in line] == [
        "M5    unknown dh^(b^3) == dh^-1", "total: some identities undecided"]
    payload = certs.read_certificate(out)["payload"]
    assert payload["all_hold"] is False
    assert [f["id"] for f in payload["facts"] if f["holds"] is not True] == ["M5"]


def test_verify_perturbed_mirror_fails(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    assert main(["verify", "--perturb", "c:=c a", "--no-timestamp", "--out", str(out)]) == 1
    outcomes = {f["id"]: f["holds"] for f in certs.read_certificate(out)["payload"]["facts"]}
    assert [fid for fid, holds in outcomes.items() if holds is not True] == [
        "F4", "F6", "F6b", "M4", "M6"]
    assert "total: some identities FAIL" in capsys.readouterr().out


def test_verify_bad_perturbation(tmp_path, capsys):
    assert main(["verify", "--perturb", "nonsense"]) == 3
    assert main(["verify", "--perturb", "q:=a"]) == 3


# each of these crashed with int()'s ValueError, exit 1, or read d^٣ as d^3
@pytest.mark.parametrize("argv", [
    ["verify", "--perturb", "d:=d^²"],
    ["verify", "--perturb", "d:=d^--3"],
    ["verify", "--perturb", "d:=d^+-1"],
    ["verify", "--perturb", "d:=d^٣"],
    ["eval", "d^²", "0,0"],
], ids=["superscript", "double-sign", "mixed-signs", "arabic-indic", "eval-superscript"])
def test_malformed_exponents_are_usage_errors(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: exponent is not an integer in token 'd^")
    assert "Traceback" not in err


def test_verify_json_format_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--format", "json", "--no-timestamp", "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--format", "json", "--no-timestamp", "--out", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(first)  # must be valid JSON


def test_verify_unwritable_out(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 3


def test_prove_unwritable_out(tmp_path, capsys):
    assert main(["prove", "--out", str(tmp_path / "no" / "dir" / "x.json")]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write certificate")


def test_epsilon(capsys):
    assert main(["epsilon"]) == 0
    out = capsys.readouterr().out
    assert "(3, -1, -2, -3, -2, -1)" in out
    assert "offset sum: -6" in out
    assert "{0, 1/6, 1/2, 5/6}" in out
    assert "epsilon == b^-36: True" in out


def test_prove_and_check_cert(tmp_path, capsys):
    out = tmp_path / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["check-cert", str(out)]) == 0
    assert "valid" in capsys.readouterr().out


def test_prove_deterministic_bytes(tmp_path):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    assert main(["prove", "--no-timestamp", "--out", str(out1)]) == 0
    assert main(["prove", "--no-timestamp", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_check_cert_rejects_mutated(tmp_path, capsys):
    out = tmp_path / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_bytes())

    def first_steps(node):
        if node["steps"]:
            return node["steps"]
        for br in (node["split"] or {}).get("branches", ()):
            found = first_steps(br["node"])
            if found:
                return found
        return None

    steps = first_steps(data["payload"]["root"])
    target = steps[0]
    lhs, rhs = target["conclusion"]["less"]
    target["conclusion"]["less"] = [rhs, lhs]
    mutated = tmp_path / "bad.cert.json"
    mutated.write_text(json.dumps(data))
    assert main(["check-cert", str(mutated)]) == 1
    message = capsys.readouterr().out
    assert target["id"] in message


def test_check_cert_parse_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["check-cert", str(missing)]) == 3
    truncated = tmp_path / "trunc.json"
    truncated.write_bytes(b'{"version":"1","kind":"derivation"')
    assert main(["check-cert", str(truncated)]) == 3
    wrong_kind = tmp_path / "kind.json"
    certs.write_certificate(
        wrong_kind, certs.make_certificate("relation-report", {"facts": [], "all_hold": True})
    )
    assert main(["check-cert", str(wrong_kind)]) == 3
    capsys.readouterr()
    # a sign-search witness, byte for byte as earlier releases wrote it
    retired_kind = tmp_path / "retired.json"
    retired_kind.write_bytes(
        b'{"kind":"nonlo-witness","metadata":{"toolchain":"ordercert 0.1.0"},'
        b'"payload":{"atoms":"","max_depth":2,"witness":{"entries":['
        b'{"product":[0,0],"signs":[-1]},{"product":[0,0],"signs":[1]}],'
        b'"n_atoms":1,"oracle":"test-z2"}},"version":"1"}'
    )
    assert main(["check-cert", str(retired_kind)]) == 3
    assert capsys.readouterr().err == (
        "error: unknown certificate kind: the kinds are relation-report and derivation\n")


def test_check_cert_unknown_fact(tmp_path, capsys):
    out = tmp_path / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_bytes())
    data["payload"]["table"]["facts"] = [
        f for f in data["payload"]["table"]["facts"] if f["id"] != "F6"
    ]
    stripped = tmp_path / "stripped.cert.json"
    stripped.write_text(json.dumps(data))
    assert main(["check-cert", str(stripped)]) == 2


def _set_algebra(algebra, only=None):
    def edit(table):
        for name, spec in table["atoms"].items():
            if only in (None, name):
                spec["algebra"] = algebra

    return edit


def _set_first_fact(field, value):
    def edit(table):
        table["facts"][0][field] = value

    return edit


def _set_atom_word(word):
    def edit(table):
        table["atoms"]["a"]["word"] = word

    return edit


def _set_atoms(value):
    def edit(table):
        table["atoms"] = value

    return edit


# Malformed atom tables: each one used to end in a traceback (or, for an
# unknown algebra on every atom, in "valid").  Atoms are plane words, so the
# "skew" tag that earlier tables could carry is malformed too.
MALFORMED_TABLES = {
    "atoms-not-an-object": _set_atoms([]),
    "fact-names-unknown-atom": _set_first_fact("args", ["a", "zz"]),
    "atom-word-syntax": _set_atom_word("a^^"),
    "atom-word-not-a-string": _set_atom_word(5),
    "unknown-algebra-on-one-atom": _set_algebra("weird", only="a"),
    "unknown-algebra-on-every-atom": _set_algebra("weird"),
    "two-algebras": _set_algebra("skew", only="a"),
    "unknown-fact-kind": _set_first_fact("kind", "weird"),
    "wrong-fact-arity": _set_first_fact("args", ["a"]),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_TABLES))
def test_check_cert_malformed_table_is_an_input_error(tmp_path, capsys, shape):
    out = tmp_path / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_bytes())
    MALFORMED_TABLES[shape](data["payload"]["table"])
    broken = tmp_path / "broken.cert.json"
    broken.write_text(json.dumps(data))
    assert main(["check-cert", str(broken)]) == 3
    assert capsys.readouterr().err.startswith("error: malformed derivation payload")


def test_check_cert_deeply_nested_input_is_an_input_error(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    depth = 100000
    nested.write_text('{"version":"1","kind":"derivation","payload":'
                      + "[" * depth + "]" * depth + "}")
    assert main(["check-cert", str(nested)]) == 3
    assert "not a certificate" in capsys.readouterr().err


@pytest.fixture(scope="module")
def theorem_cert(tmp_path_factory):
    out = tmp_path_factory.mktemp("cert") / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    return out.read_bytes()


def _steps(node):
    yield from node["steps"]
    for br in (node["split"] or {}).get("branches", ()):
        yield from _steps(br["node"])


def _check_edited(tmp_path, cert_bytes, edit) -> int:
    data = json.loads(cert_bytes)
    edit(data["payload"])
    edited = tmp_path / "edited.cert.json"
    edited.write_text(json.dumps(data))
    return main(["check-cert", str(edited)])


def _first_product_v(payload):
    """The exponent-1 letter of the first product step's v parameter."""
    step = next(s for s in _steps(payload["root"]) if s["rule"] == "product")
    return next(letter for letter in step["params"]["v"] if letter[1] == 1)


def _first_conclusion_letter(payload):
    """The first exponent-1 letter of any stated inequality conclusion."""
    return next(letter for s in _steps(payload["root"]) if "less" in s["conclusion"]
                for side in s["conclusion"]["less"] for letter in side if letter[1] == 1)


# Each value equals the exponent 1 it replaces once coerced by int(), and
# each used to check as "valid".
@pytest.mark.parametrize("value", [1.9, "1", True, 1.0], ids=repr)
@pytest.mark.parametrize("site", [_first_product_v, _first_conclusion_letter],
                         ids=["param", "conclusion"])
def test_check_cert_non_integer_exponent_is_an_input_error(tmp_path, capsys, theorem_cert,
                                                           site, value):
    def edit(payload):
        site(payload)[1] = value

    assert _check_edited(tmp_path, theorem_cert, edit) == 3
    assert "needs a string and an integer" in capsys.readouterr().err


def test_check_cert_non_integer_base_fact_and_window(tmp_path, capsys, theorem_cert):
    def base_sign(payload):
        step = next(s for s in _steps(payload["root"]) if "t" in s["params"])
        step["params"]["t"][1] = float(step["params"]["t"][1])

    def fact_exponent(payload):
        fact = next(f for f in payload["table"]["facts"] if f["kind"] == "identity_eq")
        fact["args"][1][0][1] = str(fact["args"][1][0][1])

    def window_bound(payload):
        node = payload["root"]
        while node["split"]["kind"] != "window":
            node = node["split"]["branches"][0]["node"]
        node["split"]["params"]["n1"] = float(node["split"]["params"]["n1"])

    assert _check_edited(tmp_path, theorem_cert, base_sign) == 3
    assert capsys.readouterr().err == (
        "error: malformed derivation payload: a letter needs a string and an integer\n")
    assert _check_edited(tmp_path, theorem_cert, fact_exponent) == 3
    assert capsys.readouterr().err.startswith("error: malformed derivation payload")
    assert _check_edited(tmp_path, theorem_cert, window_bound) == 1
    assert "parameter 'n1' must be an integer" in capsys.readouterr().out
    assert _check_edited(tmp_path, theorem_cert, lambda payload: None) == 0


A1 = [["a", 1]]


def _forge_empty_goal(payload):
    payload["goal"] = []
    payload["root"] = {"steps": [], "split": None}


def _given_node():
    """A split that assumes one case, a < a, closed by absurdity against itself."""
    close = {"id": "s1", "rule": "absurd", "params": {}, "premises": ["h1", "h1"], "facts": [],
             "conclusion": {"contradiction": True}}
    branch = {"name": "only", "goal": None,
              "hypotheses": [{"id": "h1", "judgment": {"less": [A1, A1]}}],
              "node": {"steps": [close], "split": None}}
    return {"steps": [], "split": {"kind": "given", "params": {}, "premises": [],
                                   "branches": [branch]}}


def _forge_given_root(payload):
    payload["root"] = _given_node()


def _forge_nested_given(payload):
    """The given split as the 1 < a case of the trichotomy 1 ? a."""
    payload["root"] = _trichotomy([], A1, "x", _given_node())


def _forge_unknown_rule(payload):
    """The certificate's first "trans", in file order, renamed "transx"."""
    payload.update(json.loads(json.dumps(payload).replace('"rule": "trans"', '"rule": "transx"', 1)))


def _forge_trichotomy_goals(payload):
    """The three canonical cases of 1 ? a, each declaring an empty goal."""
    cases = [{"less": [[], A1]}, {"eq": [[], A1]}, {"less": [A1, []]}]
    branches = [{"name": f"case{i}", "goal": [],
                 "hypotheses": [{"id": f"h{i}", "judgment": case}],
                 "node": {"steps": [], "split": None}}
                for i, case in enumerate(cases)]
    payload["root"] = {"steps": [], "split": {"kind": "trichotomy", "premises": [],
                                              "params": {"w1": [], "w2": A1},
                                              "branches": branches}}


# Each of the first three forged statements once printed "valid" and exited 0.
@pytest.mark.parametrize("forge, message", [
    (_forge_empty_goal, "invalid at <goal>: statement mismatch: the goal is not 'contradiction'"),
    (_forge_given_root, "invalid at split:given: unknown split kind 'given'"),
    (_forge_trichotomy_goals, "invalid at split:trichotomy: branch 'case0' declares a goal"),
    (_forge_nested_given, "invalid at split:given in x0: unknown split kind 'given'"),
    (_forge_unknown_rule, "invalid at s0032 in b_positive/a_positive/mag_a_below_mag_b/c_below_1: "
                          "unknown rule 'transx'"),
], ids=["empty-goal", "given-root", "trichotomy-branch-goals", "nested-given", "unknown-rule"])
def test_check_cert_rejects_forged_statements(tmp_path, capsys, theorem_cert, forge, message):
    assert _check_edited(tmp_path, theorem_cert, forge) == 1
    captured = capsys.readouterr()
    assert message in captured.out and "Traceback" not in captured.err


def _trichotomy(w1, w2, tag, first):
    """The split w1 ? w2 in canonical cases, hypotheses {tag}0..{tag}2, with
    ``first`` as the node of the w1 < w2 case and bare leaves elsewhere."""
    cases = [{"less": [w1, w2]}, {"eq": [w1, w2]}, {"less": [w2, w1]}]
    branches = [{"name": f"{tag}{i}", "hypotheses": [{"id": f"{tag}{i}", "judgment": case}],
                 "node": first if i == 0 else {"steps": [], "split": None}}
                for i, case in enumerate(cases)]
    return {"steps": [], "split": {"kind": "trichotomy", "premises": [],
                                   "params": {"w1": w1, "w2": w2}, "branches": branches}}


def _huge_window(n):
    """Three trichotomies that put b^-n < c, c < b^n and 1 < b in scope, then
    a window over [-n, n] with one branch."""
    leaf = {"steps": [], "split": None}
    window = {"steps": [], "split": {
        "kind": "window", "premises": ["x0", "y0", "z0"],
        "params": {"v": [["c", 1]], "t": ["b", 1], "n1": -n, "n2": n},
        "branches": [{"name": "only", "hypotheses": [], "node": leaf}]}}
    root = _trichotomy([["b", -n]], [["c", 1]], "x", _trichotomy(
        [["c", 1]], [["b", n]], "y", _trichotomy([], [["b", 1]], "z", window)))
    return lambda payload: payload.update(root=root)


def test_check_cert_window_is_bounded_by_its_branches(tmp_path, capsys, theorem_cert):
    # the window is refused before its cases are built
    assert _check_edited(tmp_path, theorem_cert, _huge_window(10**9)) == 1
    assert capsys.readouterr().out == (
        "derivation 'no-left-order': invalid at split:window in x0/y0/z0: "
        "window over [-1000000000, 1000000000] needs 3999999999 branches, got 1\n")


def test_check_cert_huge_window_bound_is_an_input_error(tmp_path, capsys, theorem_cert):
    # n = 10^4300 - 1 is a legal JSON literal, but 2(n2 - n1) - 1 would not
    # print as a str(): exponents stay below 2^63 in magnitude
    assert _check_edited(tmp_path, theorem_cert, _huge_window(10**4300 - 1)) == 3
    assert "exponent of 2**63 or more" in capsys.readouterr().err


def test_check_cert_huge_integer_literal_is_an_input_error(tmp_path, capsys, theorem_cert):
    # a literal of 5,001 digits is beyond what json reads as an int
    text = theorem_cert.decode()
    assert '"m":0' in text
    edited = tmp_path / "huge-literal.cert.json"
    edited.write_text(text.replace('"m":0', '"m":1' + "0" * 5000, 1))
    assert main(["check-cert", str(edited)]) == 3
    assert capsys.readouterr().err.startswith("error: not a certificate: ")


@pytest.mark.parametrize("goal", [[], None], ids=["empty", "null"])
def test_check_derivation_owns_the_statement_check(tmp_path, capsys, theorem_cert, goal):
    payload = json.loads(theorem_cert)["payload"]
    payload["goal"] = goal
    verdict = check_derivation(certs.parse_derivation(payload))
    assert not verdict.is_valid
    assert "statement mismatch: the goal is not 'contradiction'" in verdict.reason
    assert _check_edited(tmp_path, theorem_cert, lambda payload: payload.update(goal=goal)) == 1
    assert capsys.readouterr().out == (
        "derivation 'no-left-order': invalid at <goal>: "
        "statement mismatch: the goal is not 'contradiction'\n")


def _first_step(payload):
    return next(_steps(payload["root"]))


def _first_branch(payload):
    return payload["root"]["split"]["branches"][0]


def _fact(payload, fid):
    return next(f for f in payload["table"]["facts"] if f["id"] == fid)


# Each of these edits used to be read through str(), character by character,
# or not checked at all, and the edited certificate still printed "valid" or
# reached the checker.
@pytest.mark.parametrize("edit, message", [
    (lambda payload: _first_step(payload).update(id=7), "step id must be a string"),
    (lambda payload: payload.update(name=12), "derivation name must be a string"),
    (lambda payload: _first_branch(payload).update(name=None), "branch name must be a string"),
    (lambda payload: _fact(payload, "F1").update(description=["a", "b"]),
     "fact description must be a string"),
    (lambda payload: next(s for s in _steps(payload["root"]) if s["premises"])["premises"]
     .__setitem__(0, 7), "premise id must be a string"),
    (lambda payload: next(s for s in _steps(payload["root"]) if s["facts"]).update(facts="F1"),
     "fact ids must be a list"),
    (lambda payload: next(s for s in _steps(payload["root"]) if s["premises"])
     .update(premises="h0004"), "premise ids must be a list"),
    (lambda payload: _fact(payload, "F1").update(args="ab"), "fact args must be a list"),
], ids=["step-id-integer", "name-integer", "branch-name-null", "description-list",
        "premise-id-integer", "facts-string", "premises-string", "args-string"])
def test_check_cert_string_fields_are_strict(tmp_path, capsys, theorem_cert, edit, message):
    assert _check_edited(tmp_path, theorem_cert, edit) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed derivation payload") and message in err


# Each value is truthy, and a certificate whose closing steps all carried it
# used to check as "valid".
@pytest.mark.parametrize("value", [1, "yes", [0]], ids=repr)
def test_check_cert_contradiction_marker_is_strict(tmp_path, capsys, theorem_cert, value):
    def edit(payload):
        closing = [s for s in _steps(payload["root"]) if "contradiction" in s["conclusion"]]
        assert closing
        for step in closing:
            step["conclusion"]["contradiction"] = value

    assert _check_edited(tmp_path, theorem_cert, edit) == 3
    assert "unknown judgment" in capsys.readouterr().err


_LONG = "z" * 100000


def _first_with(payload, field):
    return next(s for s in _steps(payload["root"]) if s[field])


def _long_branch_name_on_the_path(payload):
    # the first "trans" step lies under the root's first branch
    _first_branch(payload)["name"] = _LONG
    next(s for s in _steps(payload["root"]) if s["rule"] == "trans")["rule"] = _LONG


def _first_rule(payload, rule):
    return next(s for s in _steps(payload["root"]) if s["rule"] == rule)


def _deep_path_of_long_names(payload):
    # 150 nested trichotomies, each entered by its first branch, whose names
    # of 1,000 letters lead to a bare leaf: the failing path has 150 names
    leaf = {"steps": [], "split": None}
    w1, w2 = [["a", 1]], [["b", 1]]
    cases = [{"less": [w1, w2]}, {"eq": [w1, w2]}, {"less": [w2, w1]}]
    node = leaf
    for depth in range(150):
        node = {"steps": [], "split": {
            "kind": "trichotomy", "premises": [], "params": {"w1": w1, "w2": w2},
            "branches": [{"name": "z" * 1000, "node": node if i == 0 else leaf,
                          "hypotheses": [{"id": f"h{depth}.{i}", "judgment": case}]}
                         for i, case in enumerate(cases)]}}
    payload["root"] = node


# A verdict quotes each untrusted name, and each word, by a short prefix: a
# rule name, a branch name and a premise id of 100,000 letters used to print
# 100,105, 200,095 and 100,116 bytes, and a word of one such letter in an
# lmul step, a trichotomy and a window 200,151, 100,122 and 100,147 bytes.
# A path of 150 branch names of 1,000 letters each used to print 10,289 bytes.
@pytest.mark.parametrize("edit, code", [
    (lambda payload: _first_step(payload).update(rule=_LONG), 1),
    (_long_branch_name_on_the_path, 1),
    (lambda payload: _first_with(payload, "premises")["premises"].__setitem__(0, _LONG), 1),
    (lambda payload: _first_with(payload, "facts")["facts"].__setitem__(0, _LONG), 2),
    (lambda payload: payload["root"]["split"].update(kind=_LONG), 1),
    (lambda payload: payload.update(name=_LONG), 0),
    (lambda payload: _first_rule(payload, "lmul")["params"].update(w=[[_LONG, 1]]), 1),
    (lambda payload: _first_split_of(payload, "trichotomy")["params"].update(w1=[[_LONG, 1]]), 1),
    (lambda payload: _first_split_of(payload, "window")["params"].update(v=[[_LONG, 1]]), 1),
    (_deep_path_of_long_names, 1),
], ids=["rule", "branch-name", "premise-id", "fact-id", "split-kind", "derivation-name",
        "lmul-word", "trichotomy-word", "window-word", "deep-path"])
def test_check_cert_verdicts_quote_a_short_prefix(tmp_path, capsys, theorem_cert, edit, code):
    assert _check_edited(tmp_path, theorem_cert, edit) == code
    out = capsys.readouterr().out
    assert len(out.encode()) < 1000 and "z" * 64 + "..." in out, out


# A judgment that is not an object of one known key and its operands is
# malformed input, refused without a traceback.
@pytest.mark.parametrize("judgment", ["x", [], {"less": 1}], ids=repr)
def test_check_cert_refuses_a_judgment_of_another_shape(tmp_path, capsys, theorem_cert, judgment):
    def edit(payload):
        _first_branch(payload)["hypotheses"][0]["judgment"] = judgment

    assert _check_edited(tmp_path, theorem_cert, edit) == 3
    assert capsys.readouterr().err == MALFORMED + "unknown judgment in hypothesis judgment\n"


def _first_split_of(payload, kind):
    node = payload["root"]
    while node["split"]["kind"] != kind:
        node = node["split"]["branches"][0]["node"]
    return node["split"]


def _first_conclusion_side(value):
    """The first step's conclusion, whose right side is the empty word, with
    that side replaced by ``value``."""
    return lambda payload: _first_step(payload)["conclusion"]["less"].__setitem__(1, value)


MALFORMED = "error: malformed derivation payload: "
MISMATCH = "invalid at <goal>: statement mismatch: the goal is not 'contradiction'"


# The reader builds each record from exactly the keys the writer writes.
# Each of the first fifteen edits printed "valid" and exited 0 while the
# reader dropped the keys it did not look for and read any empty value as the
# empty word.  The goal is read as given, so the last three, each once
# malformed input, are a statement mismatch whatever their JSON type.
@pytest.mark.parametrize("edit, code, message", [
    (lambda payload: payload.update(junk=1), 3, MALFORMED),
    (lambda payload: _first_step(payload).update(junk=1), 3, MALFORMED),
    (lambda payload: _first_branch(payload)["hypotheses"][0].update(junk=1), 3, MALFORMED),
    (lambda payload: _first_branch(payload).update(junk=1), 3, MALFORMED),
    (lambda payload: payload["root"]["split"].update(junk=1), 3, MALFORMED),
    (lambda payload: payload["root"].update(junk=1), 3, MALFORMED),
    (lambda payload: _fact(payload, "F1").update(junk=1), 3, MALFORMED),
    (lambda payload: payload["table"]["atoms"]["a"].update(junk=1), 3, MALFORMED),
    (lambda payload: payload["table"].update(junk=1), 3, MALFORMED),
    (lambda payload: _first_step(payload)["conclusion"].update(junk=1), 3, MALFORMED),
    (lambda payload: _first_step(payload).pop("params"), 3, MALFORMED),
    (lambda payload: _first_step(payload).pop("facts"), 3, MALFORMED),
    (lambda payload: payload.pop("name"), 3, MALFORMED),
    (_first_conclusion_side(""), 3, MALFORMED),
    (_first_conclusion_side({}), 3, MALFORMED),
    (lambda payload: payload.update(goal=5), 1, MISMATCH),
    (lambda payload: payload.update(goal="x"), 1, MISMATCH),
    (lambda payload: payload.update(goal={}), 1, MISMATCH),
], ids=["payload-key", "step-key", "hypothesis-key", "branch-key", "split-key", "node-key",
        "fact-key", "atom-spec-key", "table-key", "judgment-key", "step-without-params",
        "step-without-facts", "payload-without-name", "word-as-empty-string",
        "word-as-empty-object", "goal-5", "goal-x", "goal-object"])
def test_check_cert_reads_exactly_the_written_keys(tmp_path, capsys, theorem_cert, edit, code,
                                                   message):
    assert _check_edited(tmp_path, theorem_cert, edit) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err and "Traceback" not in captured.err


def _junk_step_params(rule):
    def edit(payload):
        step = next(s for s in _steps(payload["root"]) if s["rule"] == rule)
        step["params"]["junk"] = [1, 2]
        return step["id"]

    return edit


def _junk_split_params(kind):
    def edit(payload):
        _first_split_of(payload, kind)["params"]["junk"] = [1, 2]
        return f"split:{kind}"

    return edit


RULE_NAMES = ["invert", "product", "conjugate_window", "flip_bound", "trans", "lmul", "subst",
              "absurd", "eq_contra"]


# Each of these edits used to check as "valid" and exit 0.
@pytest.mark.parametrize("edit", [_junk_step_params(rule) for rule in RULE_NAMES]
                         + [_junk_split_params(kind) for kind in ("trichotomy", "window")],
                         ids=RULE_NAMES + ["split-trichotomy", "split-window"])
def test_check_cert_refuses_parameters_the_checker_does_not_read(tmp_path, capsys,
                                                                 theorem_cert, edit):
    where = []
    assert _check_edited(tmp_path, theorem_cert, lambda payload: where.append(edit(payload))) == 1
    out = capsys.readouterr().out
    assert f"invalid at {where[0]}" in out and "reads only the parameters" in out


# An error names the field and the JSON type, not the untrusted value, and
# quotes untrusted text by a short prefix: these used to print 150,082,
# 4,385, 100,058 (an atom word of "a " and 100,000 "?") and 100,064 (a fact
# naming an atom of 100,000 letters) bytes of stderr.
@pytest.mark.parametrize("edit", [
    lambda payload: _first_step(payload).update(id=list(range(30000))),
    _huge_window(10**4300 - 1),
    lambda payload: _set_atom_word("a " + "?" * 100000)(payload["table"]),
    lambda payload: _set_first_fact("args", ["a", "z" * 100000])(payload["table"]),
], ids=["step-id-list", "huge-window", "atom-word", "fact-atom-name"])
def test_check_cert_errors_do_not_quote_the_value(tmp_path, capsys, theorem_cert, edit):
    assert _check_edited(tmp_path, theorem_cert, edit) == 3
    err = capsys.readouterr().err
    assert len(err.encode()) < 200 and "Traceback" not in err


_FUZZ_VALUES = [None, True, False, 0, -1, 1.5, "", [], {}, 10**6, [["a", 1]],
                {"less": [[], [["a", 1]]]}]


def _paths(tree, path=()):
    """The key path of every value in a JSON tree, in document order."""
    for key in (tree.keys() if isinstance(tree, dict) else range(len(tree))):
        yield path + (key,)
        if isinstance(tree[key], (dict, list)):
            yield from _paths(tree[key], path + (key,))


@pytest.fixture(scope="module")
def theorem_cert_paths(theorem_cert):
    return list(_paths(json.loads(theorem_cert)))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_check_cert_survives_single_edits(tmp_path_factory, theorem_cert, theorem_cert_paths,
                                          data):
    """One JSON-level edit of the shipped certificate -- a value replaced,
    a key deleted or a list element dropped -- never raises out of check-cert."""
    cert = json.loads(theorem_cert)
    *route, key = data.draw(st.sampled_from(theorem_cert_paths))
    container = cert
    for step in route:
        container = container[step]
    if data.draw(st.booleans()):
        container[key] = data.draw(st.sampled_from(_FUZZ_VALUES))
    else:
        del container[key]
    path = tmp_path_factory.mktemp("fuzz") / "edited.cert.json"
    path.write_text(json.dumps(cert))
    assert main(["check-cert", str(path)]) in (0, 1, 2, 3)


def test_check_cert_false_fact_is_invalid(tmp_path, capsys, theorem_cert):
    def realize_d_as_d_b(payload):
        payload["table"]["atoms"]["d"]["word"] = "d b"

    assert _check_edited(tmp_path, theorem_cert, realize_d_as_d_b) == 1
    assert ("invalid at s0021 in b_positive/a_positive/mag_a_below_mag_b: fact 'F5': "
            "statement is false") in capsys.readouterr().out


def test_prove_with_a_false_fact_exits_1(tmp_path, capsys, monkeypatch):
    def perturbed():
        derivation = script_theorem_main()
        table = AtomTable({**derivation.table.atoms, "d": "d b"}, derivation.table.facts.values())
        return derivation._replace(table=table)

    monkeypatch.setattr(cli, "script_theorem_main", perturbed)
    out = tmp_path / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "refuted: F5\n"
    assert not out.exists()


def test_prove_with_an_undecided_fact_exits_2(tmp_path, capsys, monkeypatch):
    verify_fact = AtomTable.verify_fact
    monkeypatch.setattr(AtomTable, "verify_fact",
                        lambda table, fact: None if fact.id == "F8" else verify_fact(table, fact))
    out = tmp_path / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "undecided: F8\n"
    assert not out.exists()


def _count_decisions(monkeypatch):
    """Record the id of each fact any table decides."""
    decided = []
    verify_fact = AtomTable.verify_fact
    monkeypatch.setattr(AtomTable, "verify_fact",
                        lambda table, fact: decided.append(fact.id) or verify_fact(table, fact))
    return decided


def test_prove_decides_each_fact_once(tmp_path, capsys, monkeypatch):
    built = []

    def build():
        built.append(script_theorem_main())
        return built[-1]

    monkeypatch.setattr(cli, "script_theorem_main", build)
    decided = _count_decisions(monkeypatch)
    assert main(["prove", "--no-timestamp", "--out", str(tmp_path / "thm.cert.json")]) == 0
    # re-checking the same derivation decides nothing again
    derivation, = built
    assert derivation.table.verify_all() and check_derivation(derivation).is_valid
    assert sorted(decided) == sorted(derivation.table.facts)


def test_check_cert_decides_only_cited_facts(tmp_path, capsys, monkeypatch, theorem_cert):
    decided = _count_decisions(monkeypatch)
    assert _check_edited(tmp_path, theorem_cert, lambda payload: None) == 0
    # no step of the theorem cites F7d or M7d
    facts = [f["id"] for f in json.loads(theorem_cert)["payload"]["table"]["facts"]]
    assert sorted(decided) == sorted(set(facts) - {"F7d", "M7d"})


def test_eval(capsys):
    assert main(["eval", "c^d", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "0,3"
    assert main(["eval", "", "1/2,1/2"]) == 0
    assert capsys.readouterr().out.strip() == "1/2,1/2"
    assert main(["eval", "ch", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "3,0"
    assert main(["eval", "b^-36", "2/3,1/7"]) == 0
    assert capsys.readouterr().out.strip() == "2/3,-41/7"


def test_eval_syntax_errors(capsys):
    assert main(["eval", "q", "0,0"]) == 3
    assert main(["eval", "a", "0"]) == 3
    assert main(["eval", "a", "x,y"]) == 3


# Fraction(text) read the first four as numbers: a coordinate is ASCII p or p/q
@pytest.mark.parametrize(
    "point", ["٣,0", "1e5,0", "0.5,0", "1_000,0", "1/٣,0", "1/-2,0", "1/0,0"],
    ids=["arabic-indic", "exponent", "decimal", "underscore",
         "arabic-indic-denominator", "signed-denominator", "zero-denominator"])
def test_eval_reads_only_ascii_rationals(capsys, point):
    assert main(["eval", "a", point]) == 3
    assert capsys.readouterr().err == f"error: bad rational in point {point!r}\n"


def test_eval_takes_a_point_with_a_negative_coordinate(capsys):
    # only "-h" and words starting "--" are options, so a point such as
    # -1/2,0 is a positional (argparse read it as an option: exit 3)
    assert main(["eval", "a", "-1/2,0"]) == 0
    assert capsys.readouterr().out == "-1/3,0\n"
    assert main(["eval", "--", "b^-1", "0,-1/6"]) == 0
    assert capsys.readouterr().out == "0,-1/3\n"


USAGE_ERRORS = {
    "retired-command": ["search"],
    "unknown-command": ["nosuch"],
    "bad-choice": ["verify", "--format", "xml"],
    "bad-choice-inline": ["verify", "--format=xml"],
    "no-command": [],
    "missing-value": ["prove", "--out"],
    "extra-positional": ["check-cert", "a", "b"],
    "missing-positional": ["eval", "a"],
    "unknown-option": ["prove", "--bogus"],
    # an empty option name is a prefix of no option, not of every one (help)
    "empty-option-name": ["check-cert", "--=1", "foo"],
    "empty-option-name-no-options": ["epsilon", "--=x"],
    "help-with-value": ["verify", "--help=x"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_are_input_errors(capsys, case):
    assert main(USAGE_ERRORS[case]) == 3
    assert capsys.readouterr().err.startswith("usage: ordercert")


@pytest.mark.parametrize("argv", [
    ["verify", "--format=json", "--no-timestamp", "--out", "{out}"],
    ["verify", "--form", "json", "--no-t", "--out", "{out}"],
], ids=["inline-value", "prefixes"])
def test_option_spellings(tmp_path, capsys, argv):
    out = tmp_path / "rel.cert.json"
    assert main([arg.format(out=out) for arg in argv]) == 0
    assert json.loads(capsys.readouterr().out)["all_hold"] is True
    assert _sha256(out) == RELATIONS_CERT_SHA256


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ordercert")


def test_help_lists_the_commands_of_the_docstring(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "usage: ordercert {verify,epsilon,prove,check-cert,eval} ..."
    assert [line.split()[0] for line in lines[2:]] == list(cli.COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines() == [
        "usage: ordercert verify [--format {text,json}] [--perturb PERTURB] [--out OUT]"
        " [--no-timestamp]",
        "",
        "    verify       check every generator identity, write a relation-report",
    ]


def test_commands_pause_the_cyclic_collector(monkeypatch):
    seen = []

    def spy(args):
        seen.append(gc.isenabled())
        if args.word == "raise":
            raise RuntimeError("spy")
        return 0

    monkeypatch.setattr(cli, "cmd_eval", spy)
    assert gc.isenabled()
    assert main(["eval", "a", "0,0"]) == 0
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="spy"):
        main(["eval", "raise", "0,0"])
    assert gc.isenabled()
    gc.disable()
    try:
        assert main(["eval", "a", "0,0"]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False, False]


def _cyclic_garbage(argv):
    """Run ``main(argv)`` and return its exit code and the objects the
    cyclic collector then finds unreachable."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        gc.collect()
        return code, list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def _swap_first_inequality(payload):
    step = next(s for s in _steps(payload["root"]) if "less" in s["conclusion"])
    step["conclusion"]["less"].reverse()


def _fractional_exponent(payload):
    _first_conclusion_letter(payload)[1] = 1.5


# Commands run with the collector paused (cli.main), which is sound only while
# no object a command makes, its argument namespace included, is ever part of a
# reference cycle: the collector must find nothing at all afterwards.
@pytest.mark.parametrize("argv, edit, expected", [
    (["check-cert", "{cert}"], None, 0),
    (["check-cert", "{cert}"], _swap_first_inequality, 1),
    (["check-cert", "{cert}"], _fractional_exponent, 3),
    (["prove", "--no-timestamp", "--out", "{out}"], None, 0),
    (["verify", "--no-timestamp", "--out", "{out}"], None, 0),
    (["verify", "--perturb", "d:=d b", "--no-timestamp", "--out", "{out}"], None, 1),
], ids=["check-cert", "check-cert-mutant", "check-cert-fractional-exponent", "prove", "verify",
        "verify-perturbed"])
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, theorem_cert, argv, edit, expected):
    cert = tmp_path / "in.cert.json"
    if edit is None:
        cert.write_bytes(theorem_cert)
    else:
        data = json.loads(theorem_cert)
        edit(data["payload"])
        cert.write_text(json.dumps(data))
    argv = [arg.format(cert=cert, out=tmp_path / "out.cert.json") for arg in argv]
    code, garbage = _cyclic_garbage(argv)
    assert code == expected
    assert not garbage, sorted({type(obj).__qualname__ for obj in garbage})


def _fresh_python(code, *args):
    """A new interpreter running ``code`` on this checkout's ``ordercert``,
    started and not waited for.  It runs without ``site`` (``-S``), so no
    start-up hook of the installation loads modules before ``code`` runs."""
    src = str(Path(ordercert.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-S", "-c", code, *args], stdout=subprocess.PIPE,
                            text=True, env={**os.environ, "PYTHONPATH": src})


def _output(run):
    stdout, _ = run.communicate(timeout=60)
    assert run.returncode == 0
    return stdout


# No command runs these, so none loads them: typing, which only annotations
# would name; datetime, for a timestamp, and random, for the witness search's
# random points, each loaded by the one function that uses it; argparse, with
# the gettext and locale its first message lookup imports, since the command
# line is read from cli.COMMANDS; and dataclasses, with the inspect, ast and
# dis it pulls in, since records are built on exactpl.Record.
UNLOADED = ("typing", "datetime", "random", "argparse", "gettext", "locale", "dataclasses",
            "inspect", "ast", "dis")


@pytest.mark.parametrize("argv", [
    [],
    ["verify", "--no-timestamp", "--out", "{out}"],
    ["prove", "--no-timestamp", "--out", "{out}"],
    ["check-cert", "{cert}"],
    ["eval", "c^d", "0,0"],
], ids=["import", "verify", "prove", "check-cert", "eval"])
def test_commands_load_only_what_they_run(tmp_path, theorem_cert, argv):
    # this process has most of them loaded already, so a fresh one is asked
    cert = tmp_path / "thm.cert.json"
    cert.write_bytes(theorem_cert)
    argv = [arg.format(cert=cert, out=tmp_path / "out.cert.json") for arg in argv]
    code = ("import sys, ordercert.cli; "
            "code = ordercert.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            f"print(code, sorted(set({UNLOADED!r}) & set(sys.modules)))")
    assert _output(_fresh_python(code, *argv)).splitlines()[-1] == "0 []"


_CORE = {"ordercert.exactpl", "ordercert.wordsyntax", "ordercert.skew"}
_CHECKER = _CORE | {"ordercert.plane", "ordercert.orderlogic", "ordercert.orderlogic.words",
                    "ordercert.orderlogic.facts", "ordercert.orderlogic.rules",
                    "ordercert.orderlogic.derivation"}
# the ordercert modules each module may load: its own layer and those below
LAYERS = {
    "ordercert.exactpl": {"ordercert.exactpl"},
    "ordercert.wordsyntax": {"ordercert.wordsyntax"},
    "ordercert.skew": _CORE,
    "ordercert.orderlogic.derivation": _CHECKER,
    "ordercert.certs": _CHECKER | {"ordercert.certs"},
}


def test_modules_load_only_their_layer():
    # the package files define no names, so a module loads only what it
    # imports: skew loads no plane, and the reader and the checker load no
    # prover (orderlogic.scripts); each import gets a fresh interpreter
    code = ("import importlib, sys; importlib.import_module(sys.argv[1]); "
            "print(*(name for name in sys.modules if name.startswith('ordercert.')))")
    runs = {name: _fresh_python(code, name) for name in LAYERS}
    loaded = {name: set(_output(run).split()) for name, run in runs.items()}
    for name, modules in loaded.items():
        assert name in modules and modules <= LAYERS[name], (name, sorted(modules - LAYERS[name]))
