import json

import pytest

from ordercert import certs
from ordercert.cli import main
from ordercert.orderlogic.derivation import check_derivation
from ordercert.orderlogic.scripts import script_theorem_main
from ordercert.skew import word_to_element


def test_canonical_formatting():
    blob = certs.canonical_dumps({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert blob == '{"a":[2,{"c":4,"d":3}],"b":1}'


def test_envelope_fields_and_timestamp_toggle():
    cert = certs.make_certificate("relation-report", {"x": 1})
    assert cert["version"] == certs.CERT_VERSION
    assert "timestamp" in cert["metadata"]
    bare = certs.make_certificate("relation-report", {"x": 1}, timestamp=False)
    assert "timestamp" not in bare["metadata"]
    with pytest.raises(certs.CertificateError):
        certs.make_certificate("no-such-kind", {})


def test_derivation_round_trip_byte_identical(tmp_path):
    derivation = script_theorem_main()
    payload = certs.serialize_derivation(derivation)
    cert = certs.make_certificate("derivation", payload, timestamp=False)
    path = tmp_path / "thm.cert.json"
    certs.write_certificate(path, cert)
    raw = path.read_bytes()

    parsed = certs.read_certificate(path)
    reparsed = certs.parse_derivation(parsed["payload"])
    again = certs.canonical_dumps(
        certs.make_certificate("derivation", certs.serialize_derivation(reparsed),
                               timestamp=False)
    ).encode("utf-8")
    assert again == raw


def test_theorem_round_trip_checks(tmp_path):
    derivation = script_theorem_main()
    path = tmp_path / "thm.cert.json"
    certs.write_certificate(
        path,
        certs.make_certificate("derivation", certs.serialize_derivation(derivation),
                               timestamp=False),
    )
    reparsed = certs.parse_derivation(certs.read_certificate(path)["payload"])
    assert check_derivation(reparsed).is_valid


def test_parse_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(certs.CertificateError):
        certs.read_certificate(missing)

    truncated = tmp_path / "broken.json"
    truncated.write_bytes(b'{"version":"1","kind":"derivation","payload":{')
    with pytest.raises(certs.CertificateError):
        certs.read_certificate(truncated)

    not_object = tmp_path / "arr.json"
    not_object.write_bytes(b"[1,2,3]")
    with pytest.raises(certs.CertificateError):
        certs.read_certificate(not_object)

    bad_kind = tmp_path / "kind.json"
    bad_kind.write_bytes(b'{"version":"1","kind":"weird","payload":{}}')
    with pytest.raises(certs.CertificateError):
        certs.read_certificate(bad_kind)

    # each of these used to be read as version 1
    for version in (b'"2"', b'"99"', b"null", b"1"):
        bad_version = tmp_path / "version.json"
        bad_version.write_bytes(b'{"version":' + version + b',"kind":"derivation","payload":{}}')
        with pytest.raises(certs.CertificateError, match="unsupported certificate version"):
            certs.read_certificate(bad_version)

    with pytest.raises(certs.CertificateError):
        certs.parse_derivation({"root": {"steps": []}})


def test_encoder_writes_record_fields_and_refuses_other_values():
    with pytest.raises(TypeError, match="cannot write object"):
        certs.canonical_dumps({"x": object()})
    element = word_to_element("c d")
    assert element.invert().invert() == element
    assert element._inv is not None  # a memo slot, never written
    assert certs.canonical_dumps(element) == certs.canonical_dumps(
        {"shift": element.shift.to_pairs(), "x_part": element.x_part.to_pairs()})


def test_relation_report_payload_uses_lowest_term_strings(tmp_path, capsys):
    assert main(["verify", "--format", "json", "--no-timestamp",
                 "--out", str(tmp_path / "rel.cert.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_hold"] is True
    a_map = payload["generators"]["a"]["x_part"]
    assert a_map == [["0", "1/6"]]
    blob = certs.canonical_dumps(payload)
    assert json.loads(blob) == payload

