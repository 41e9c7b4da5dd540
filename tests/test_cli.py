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

import cli_cases


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


# The exit codes and printed text of these three runs are rows of the
# table in cli_cases.py (console/verify, verify-perturbed, verify-undecided):
# these tests read the certificates they write.
def test_verify_ok(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    main(["verify", "--no-timestamp", "--out", str(out)])
    cert = certs.read_certificate(out)
    assert cert["kind"] == "relation-report"
    assert cert["payload"]["all_hold"] is True
    ids = [f["id"] for f in cert["payload"]["facts"]]
    assert "F1" in ids and "M6" in ids


def test_verify_perturbed_fails(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    main(["verify", "--perturb", "d:=d b", "--no-timestamp", "--out", str(out)])
    cert = certs.read_certificate(out)
    report = {f["id"]: f["holds"] for f in cert["payload"]["facts"]}
    assert report["F3"] is True and report["F5"] is False and report["M5"] is False


def test_verify_reports_an_undecided_identity_as_unknown(tmp_path, capsys):
    out = tmp_path / "rel.cert.json"
    main(["verify", "--perturb", "b:=b d", "--no-timestamp", "--out", str(out)])
    outcomes = {f["id"]: f["holds"] for f in certs.read_certificate(out)["payload"]["facts"]}
    assert outcomes["M5"] is None
    assert [fid for fid, holds in outcomes.items() if holds is False] == [
        "F1", "F2", "F6", "M1", "M4", "M6"]


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


@pytest.fixture(scope="module")
def theorem_cert(tmp_path_factory):
    out = tmp_path_factory.mktemp("cert") / "thm.cert.json"
    assert main(["prove", "--no-timestamp", "--out", str(out)]) == 0
    return out.read_bytes()


def _check_edited(tmp_path, cert_bytes, edit) -> int:
    data = json.loads(cert_bytes)
    edit(data["payload"])
    edited = tmp_path / "edited.cert.json"
    edited.write_text(json.dumps(data))
    return main(["check-cert", str(edited)])


def _run_row(row, cert, directory, capsys):
    code = main(cli_cases.prepare(row, cert, directory))
    captured = capsys.readouterr()
    faults = cli_cases.check(row, code, captured.out, captured.err)
    assert not faults, (row.id, faults)


_NAMED_GROUPS = set()


def _table_test(group, one=False):
    """A test of the rows of the table in cli_cases.py whose ids start
    ``group/``, one test per row named by the rest of its id, or with ``one``
    a single test of them all.  The group None is every row of a group that
    no earlier call named, one test per row named by its whole id."""
    _NAMED_GROUPS.add(group)
    rows = [row for row in cli_cases.ROWS if row.id.split("/")[0] == group
            or group is None and row.id.split("/")[0] not in _NAMED_GROUPS]
    assert rows, group
    if one:
        def test(tmp_path, capsys, theorem_cert):
            for row in rows:
                _run_row(row, theorem_cert, tmp_path, capsys)

        return test

    @pytest.mark.parametrize("row", rows, ids=[
        row.id if group is None else row.id.split("/", 1)[1] for row in rows])
    def test(tmp_path, capsys, theorem_cert, row):
        _run_row(row, theorem_cert, tmp_path, capsys)

    return test


# Each group of rows runs as the test it replaced, under that test's name.
test_check_cert_rejects_forged_statements = _table_test("forged-statement")
test_check_cert_malformed_table_is_an_input_error = _table_test("malformed-table")
test_check_cert_non_integer_exponent_is_an_input_error = _table_test("non-integer-exponent")
test_check_cert_non_integer_base_fact_and_window = _table_test(
    "non-integer-base-fact-and-window", one=True)
test_check_cert_window_is_bounded_by_its_branches = _table_test("window-is-bounded", one=True)
test_check_cert_huge_window_bound_is_an_input_error = _table_test("huge-window-bound", one=True)
test_check_cert_huge_integer_literal_is_an_input_error = _table_test(
    "huge-integer-literal", one=True)
test_check_cert_string_fields_are_strict = _table_test("string-fields")
test_check_cert_contradiction_marker_is_strict = _table_test("contradiction-marker")
test_check_cert_verdicts_quote_a_short_prefix = _table_test("short-prefix")
test_check_cert_refuses_a_judgment_of_another_shape = _table_test("judgment-shape")
test_check_cert_reads_exactly_the_written_keys = _table_test("written-keys")
test_check_cert_refuses_parameters_the_checker_does_not_read = _table_test("unread-parameters")
test_check_cert_errors_do_not_quote_the_value = _table_test("unquoted-value")
test_check_cert_unknown_fact = _table_test("unknown-fact", one=True)
test_check_cert_false_fact_is_invalid = _table_test("false-fact", one=True)
test_check_cert_rejects_mutated = _table_test("mutated", one=True)
test_check_cert_deeply_nested_input_is_an_input_error = _table_test("deeply-nested", one=True)
test_verify_bad_perturbation = _table_test("bad-perturbation", one=True)
test_eval_syntax_errors = _table_test("eval-syntax", one=True)
test_epsilon = _table_test("epsilon", one=True)
test_eval = _table_test("eval", one=True)
test_malformed_exponents_are_usage_errors = _table_test("malformed-exponent")
test_eval_reads_only_ascii_rationals = _table_test("ascii-rational")
test_usage_errors_are_input_errors = _table_test("usage-error")
# every other row, a new group's included, runs here
test_cli_case = _table_test(None)


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


def test_eval_takes_a_point_with_a_negative_coordinate(capsys):
    # only "-h" and words starting "--" are options, so a point such as
    # -1/2,0 is a positional (argparse read it as an option: exit 3)
    assert main(["eval", "a", "-1/2,0"]) == 0
    assert capsys.readouterr().out == "-1/3,0\n"
    assert main(["eval", "--", "b^-1", "0,-1/6"]) == 0
    assert capsys.readouterr().out == "0,-1/3\n"


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
    step = next(s for s in cli_cases.steps(payload["root"]) if "less" in s["conclusion"])
    step["conclusion"]["less"].reverse()


def _fractional_exponent(payload):
    cli_cases.first_conclusion_letter(payload)[1] = 1.5


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
