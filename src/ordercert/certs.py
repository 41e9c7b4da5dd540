"""Certificate files: canonical JSON envelopes around checkable payloads.

Two kinds exist: ``relation-report`` (the rows of ``skew.verify_relations``
and ``plane.verify_mirrored_relations`` plus the generators they were
computed on) and ``derivation`` (an inequality-calculus derivation plus its
atom table).  The records are the schema: ``_encode`` writes each record as
an object keyed by its field names, and the reader builds each record from
exactly those keys, each read by the reader of its field.  Formatting is
canonical -- sorted keys, no insignificant whitespace, UTF-8, rationals as
lowest-term "p/q" strings -- so a certificate round-trips byte-identically
through parse and serialize.  Timestamps are the one non-reproducible field
and can be omitted.  A certificate is untrusted, so the reader is strict: a
key that is not a field, a key left out where its record has no default, and
a value of another JSON type are malformed input, reported by the field and
the JSON type, never by the value.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import repeat

from . import __version__
from .exactpl import PLCocycle, PLMap, Record
from .orderlogic.derivation import Branch, Derivation, Hypothesis, Node, Split, Step
from .orderlogic.facts import AtomTable, Fact
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
        from datetime import datetime, timezone  # only a timestamp loads it
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
        raise CertificateError(f"unsupported certificate version: only {CERT_VERSION!r} is read")
    if cert["kind"] not in KINDS:
        raise CertificateError(f"unknown certificate kind: the kinds are {' and '.join(KINDS)}")
    return cert


# -- the reader: each raises ValueError or TypeError, which parse_derivation reports

_JSON_TYPES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def typed(item, field: str, kind: type = str):
    """``item`` if its type is exactly ``kind`` (a bool is no number, a string no
    list), else ValueError naming ``field`` and both JSON types, never the value."""
    if type(item) is not kind:
        raise ValueError(f"{field} must be {_JSON_TYPES[kind]}, got "
                         f"{_JSON_TYPES.get(type(item), 'an unknown type')}")
    return item


def _load(cls, raw, field: str):
    """The record ``cls`` built from exactly the keys ``_encode`` writes for it: a
    key may be left out only where ``cls`` has a default, else it raises TypeError."""
    keys, readers = _SCHEMA[cls]
    if type(raw) is not dict or not raw.keys() <= keys:
        typed(raw, field, dict)
        raise ValueError(f"{field}: a {cls.__name__} has a key that is not one of its fields")
    values = {}
    for name, read, label in readers:  # a loop, not a comprehension: one frame per record
        if name in raw:
            values[name] = read(raw[name], label)
    return cls(**values)


def _ids(raw, field: str) -> tuple[str, ...]:
    for item in typed(raw, field, list):
        if type(item) is not str:
            typed(item, field[:-1])  # "premise ids" holds premise ids
    return tuple(raw)


def _word(raw, field: str):
    if type(raw) is not list:
        typed(raw, f"a word in {field}", list)
    return tuple(map(letter_pair, raw))


_JUDGMENTS = {"less": Less, "eq": WordEq}


def _judgment(raw, field: str):
    if type(raw) is dict and len(raw) == 1:
        ((key, sides),) = raw.items()
        judgment = _JUDGMENTS.get(key)
        if judgment is not None and type(sides) is list and len(sides) == 2:
            return judgment(_word(sides[0], field), _word(sides[1], field))
        if key == "contradiction" and sides is True:
            return CONTRADICTION
    raise ValueError(f"unknown judgment in {field}")


def _params(raw, field: str) -> dict:
    params = {}
    for key, value in typed(raw, field, dict).items():
        if key in ("u", "v", "w", "w1", "w2"):
            value = _word(value, field)
        elif key == "t":
            value = letter_pair(value)
        params[key] = value
    return params


def _args(raw, field: str) -> tuple:
    """Atom names, or the two words of an identity; ``AtomTable`` checks which."""
    return tuple([item if type(item) is str else _word(item, field)
                  for item in typed(raw, field, list)])


def _load_table(raw, field: str) -> AtomTable:
    if typed(raw, field, dict).keys() != {"atoms", "facts"}:
        raise ValueError(f"{field} must hold exactly 'atoms' and 'facts'")
    atoms = {}
    for name, spec in typed(raw["atoms"], "table atoms", dict).items():
        if typed(spec, "atom spec", dict).keys() != {"algebra", "word"} or spec["algebra"] != PLANE:
            raise ValueError(f"atom spec keys are 'word' and 'algebra'; algebra must be {PLANE!r}")
        atoms[name] = typed(spec["word"], "atom word")
    return AtomTable(atoms, _records(Fact)(raw["facts"], "table facts"))


def _records(cls):
    return lambda raw, field: tuple(map(partial(_load, cls), typed(raw, field, list), repeat(field)))


# the reader of each field, by the field's name
_READERS = {
    "id": typed, "name": typed, "rule": typed, "kind": typed, "description": typed,
    "params": _params, "premises": _ids, "facts": _ids,
    "conclusion": _judgment, "judgment": _judgment, "args": _args, "table": _load_table,
    "goal": lambda raw, field: raw,  # as given: check_derivation refuses all but one goal
    "root": partial(_load, Node), "node": partial(_load, Node),
    "split": lambda raw, field: None if raw is None else _load(Split, raw, field),
    "steps": _records(Step), "hypotheses": _records(Hypothesis), "branches": _records(Branch),
}
_ID_LABELS = {"premises": "premise ids", "facts": "fact ids"}
_SCHEMA = {cls: (frozenset(cls._fields), tuple(
    (name, _READERS[name], _ID_LABELS.get(name, f"{cls.__name__.lower()} {name}"))
    for name in cls._fields)) for cls in (Derivation, Node, Step, Split, Branch, Hypothesis, Fact)}


def serialize_derivation(derivation: Derivation) -> dict:
    return _encode(derivation)


def parse_derivation(payload: dict) -> Derivation:
    try:
        return _load(Derivation, payload, "derivation payload")
    except (TypeError, ValueError, RecursionError) as exc:
        raise CertificateError(f"malformed derivation payload: {exc}") from exc
