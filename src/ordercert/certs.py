"""Certificate files: canonical JSON envelopes around checkable payloads.

Two kinds exist: ``relation-report`` (the rows of ``skew.verify_relations``
and ``plane.verify_mirrored_relations`` plus the generators they were
computed on) and ``derivation`` (an inequality-calculus derivation plus its
atom table).  The records are the schema: ``_encode`` writes each record as
an object keyed by its field names.  Formatting is canonical -- sorted keys,
no insignificant whitespace, UTF-8, rationals as lowest-term "p/q" strings
-- so a certificate round-trips byte-identically through parse and
serialize.  Timestamps are the one non-reproducible field and can be
omitted.  The reader is explicit and strict: a certificate is untrusted.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from . import __version__
from .exactpl import PLCocycle, PLMap, Record
from .orderlogic.derivation import (
    CONTRADICTION_GOAL,
    Branch,
    Derivation,
    Hypothesis,
    Node,
    Split,
    Step,
)
from .orderlogic.facts import IDENTITY_EQ, AtomTable, Fact
from .orderlogic.words import CONTRADICTION, Less, WordEq, letter_pair

CERT_VERSION = "1"
TOOLCHAIN = f"ordercert {__version__}"

KINDS = ("relation-report", "derivation")

# the algebra tag every atom carries
PLANE = "plane"


class CertificateError(ValueError):
    """Raised when a certificate file cannot be parsed or is malformed."""


def _encode(value):
    """The JSON form of a value ``json`` cannot write itself."""
    kind = type(value)
    if kind is Less:
        return {"less": [value.lhs, value.rhs]}
    if kind is WordEq:
        return {"eq": [value.lhs, value.rhs]}
    if value is CONTRADICTION:
        return {"contradiction": True}
    if isinstance(value, Record):
        return dict(zip(value._fields, value._values()))
    if kind is AtomTable:
        return {"atoms": {name: {"algebra": PLANE, "word": word}
                          for name, word in value.atoms.items()},
                "facts": list(value.facts.values())}
    if kind is PLMap or kind is PLCocycle:
        return value.to_pairs()
    raise TypeError(f"cannot write {kind.__name__} to a certificate")


def canonical_dumps(obj) -> str:
    # records are trees -- a value never contains itself -- so skip the check
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      check_circular=False, default=_encode)


def make_certificate(kind: str, payload: dict, timestamp: bool = True) -> dict:
    if kind not in KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    metadata = {"toolchain": TOOLCHAIN}
    if timestamp:
        metadata["timestamp"] = datetime.now(timezone.utc).isoformat()
    return {"version": CERT_VERSION, "kind": kind, "metadata": metadata, "payload": payload}


def write_certificate(path, certificate: dict) -> None:
    data = canonical_dumps(certificate).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)


def read_certificate(path) -> dict:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CertificateError(f"cannot read {path}: {exc}") from exc
    try:
        cert = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # decoding, syntax, or an int over 4300 digits
        raise CertificateError(f"not a certificate: {exc}") from exc
    if not isinstance(cert, dict):
        raise CertificateError("certificate must be a JSON object")
    for field in ("version", "kind", "payload"):
        if field not in cert:
            raise CertificateError(f"certificate lacks the {field!r} field")
    if cert["version"] != CERT_VERSION:
        raise CertificateError(f"unsupported certificate version {cert['version']!r}")
    if cert["kind"] not in KINDS:
        raise CertificateError(f"unknown certificate kind {cert['kind']!r}")
    return cert


# -- strict fields ----------------------------------------------------------

def strict_str(item, field: str) -> str:
    """A string of untrusted data, strictly typed: not a number, null or
    list, which str() would coerce.  Raises ValueError naming ``field``."""
    if type(item) is not str:
        raise ValueError(f"{field} must be a string, got {item!r}")
    return item


def strict_list(item, field: str) -> list:
    """A JSON list, not a string or object, which iterating would read item
    by item.  Raises ValueError naming ``field``."""
    if type(item) is not list:
        raise ValueError(f"{field} must be a list, got {item!r}")
    return item


def _ids(raw, field: str) -> tuple[str, ...]:
    return tuple(strict_str(item, field) for item in strict_list(raw, f"{field}s"))


# -- words and judgments ----------------------------------------------------

def _load_word(raw):
    try:
        return tuple(map(letter_pair, raw))
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"malformed word {raw!r}: {exc}") from exc


def _load_judgment(raw):
    if not isinstance(raw, dict):
        raise CertificateError(f"malformed judgment {raw!r}")
    if raw.get("contradiction") is True:
        return CONTRADICTION
    if "less" in raw:
        lhs, rhs = raw["less"]
        return Less(_load_word(lhs), _load_word(rhs))
    if "eq" in raw:
        lhs, rhs = raw["eq"]
        return WordEq(_load_word(lhs), _load_word(rhs))
    raise CertificateError(f"unknown judgment {raw!r}")


_WORD_PARAMS = ("u", "v", "w", "w1", "w2")


def _load_params(raw: dict):
    params = {}
    for key, value in raw.items():
        if key in _WORD_PARAMS:
            params[key] = _load_word(value)
        elif key == "t":
            try:
                params[key] = letter_pair(value)
            except ValueError as exc:
                raise CertificateError(f"malformed base {value!r}") from exc
        else:
            params[key] = value
    return params


def _load_goal(raw):
    if raw is None:
        return None
    if raw == CONTRADICTION_GOAL:
        return CONTRADICTION_GOAL
    if isinstance(raw, list):
        return tuple(_load_judgment(j) for j in raw)
    raise CertificateError(f"malformed goal {raw!r}")


# -- atom tables ------------------------------------------------------------

def _load_args(kind, raw):
    if kind == IDENTITY_EQ:
        return tuple(tuple(map(letter_pair, strict_list(side, "fact args")))
                     for side in strict_list(raw, "fact args"))
    return tuple(strict_list(raw, "fact args"))


def _load_table(raw) -> AtomTable:
    atoms = {}
    for name, spec in raw["atoms"].items():
        if spec["algebra"] != PLANE:
            raise ValueError(f"atom {name!r}: algebra must be {PLANE!r}")
        atoms[name] = spec["word"]
    facts = [Fact(strict_str(item["id"], "fact id"), item["kind"],
                  _load_args(item["kind"], item["args"]),
                  strict_str(item.get("description", ""), "fact description"))
             for item in raw["facts"]]
    return AtomTable(atoms, facts)


# -- derivations ------------------------------------------------------------

def _load_node(raw) -> Node:
    # an id, name or kind that is not a string raises ValueError, which
    # parse_derivation reports
    try:
        steps = tuple(
            Step(
                strict_str(item["id"], "step id"),
                strict_str(item["rule"], "rule"),
                _load_params(item.get("params", {})),
                _ids(item.get("premises", []), "premise id"),
                _ids(item.get("facts", []), "fact id"),
                _load_judgment(item["conclusion"]),
            )
            for item in raw["steps"]
        )
        raw_split = raw.get("split")
        split = None
        if raw_split is not None:
            branches = tuple(
                Branch(
                    strict_str(br["name"], "branch name"),
                    tuple(Hypothesis(strict_str(h["id"], "hypothesis id"),
                                     _load_judgment(h["judgment"]))
                          for h in br.get("hypotheses", ())),
                    _load_node(br["node"]),
                    goal=_load_goal(br.get("goal")),
                )
                for br in raw_split["branches"]
            )
            split = Split(
                strict_str(raw_split["kind"], "split kind"),
                _load_params(raw_split.get("params", {})),
                _ids(raw_split.get("premises", []), "premise id"),
                branches,
            )
    except (KeyError, TypeError) as exc:
        raise CertificateError(f"malformed derivation node: {exc!r}") from exc
    return Node(steps=steps, split=split)


def serialize_derivation(derivation: Derivation) -> dict:
    return _encode(derivation)


def parse_derivation(payload: dict) -> Derivation:
    try:
        table = _load_table(payload["table"])
        name = strict_str(payload.get("name", "derivation"), "derivation name")
        goal = _load_goal(payload.get("goal"))
        root = _load_node(payload["root"])
    except CertificateError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed derivation payload: {exc!r}") from exc
    return Derivation(name, table, goal, root)
