"""Certificate files: canonical JSON envelopes around checkable payloads.

Two kinds exist: ``relation-report`` (the generator identity checks, whose
payload ``cli`` builds from the rows of ``skew.verify_relations`` and
``plane.verify_mirrored_relations``) and ``derivation`` (a full
inequality-calculus derivation plus its atom table).

Formatting is canonical -- sorted keys, no insignificant whitespace, UTF-8,
rationals as lowest-term "p/q" strings -- so a certificate round-trips
byte-identically through parse and serialize, and independent tooling can
diff or re-check the files.  Timestamps are the one non-reproducible field
and can be omitted.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

from .orderlogic.derivation import (
    CONTRADICTION_GOAL,
    Branch,
    Derivation,
    Hypothesis,
    Node,
    Split,
    Step,
)
from .orderlogic.facts import AtomTable
from .orderlogic.words import CONTRADICTION, Less, WordEq, letter_pair, strict_list, strict_str

CERT_VERSION = "1"
TOOLCHAIN = "ordercert 0.1.0"

KINDS = ("relation-report", "derivation")


class CertificateError(ValueError):
    """Raised when a certificate file cannot be parsed or is malformed."""


def canonical_dumps(obj) -> str:
    # payloads are trees the serializers build, never cyclic: skip the check
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      check_circular=False)


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CertificateError(f"not a certificate: {exc}") from exc
    if not isinstance(cert, dict):
        raise CertificateError("certificate must be a JSON object")
    for field in ("version", "kind", "payload"):
        if field not in cert:
            raise CertificateError(f"certificate lacks the {field!r} field")
    if cert["kind"] not in KINDS:
        raise CertificateError(f"unknown certificate kind {cert['kind']!r}")
    return cert


# -- words and judgments ----------------------------------------------------

def _load_word(raw):
    try:
        return tuple(map(letter_pair, raw))
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"malformed word {raw!r}: {exc}") from exc


def _dump_judgment(judgment):
    if judgment is CONTRADICTION:
        return {"contradiction": True}
    if isinstance(judgment, Less):
        return {"less": [judgment.lhs, judgment.rhs]}
    if isinstance(judgment, WordEq):
        return {"eq": [judgment.lhs, judgment.rhs]}
    raise CertificateError(f"unknown judgment {judgment!r}")


def _load_judgment(raw):
    if not isinstance(raw, dict):
        raise CertificateError(f"malformed judgment {raw!r}")
    if raw.get("contradiction"):
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


def _dump_goal(goal):
    if goal is None:
        return None
    if goal == CONTRADICTION_GOAL:
        return CONTRADICTION_GOAL
    return [_dump_judgment(j) for j in goal]


def _load_goal(raw):
    if raw is None:
        return None
    if raw == CONTRADICTION_GOAL:
        return CONTRADICTION_GOAL
    if isinstance(raw, list):
        return tuple(_load_judgment(j) for j in raw)
    raise CertificateError(f"malformed goal {raw!r}")


# -- derivations ------------------------------------------------------------

def _dump_node(node: Node):
    out = {
        "steps": [
            {
                "id": step.id,
                "rule": step.rule,
                "params": dict(step.params),
                "premises": list(step.premises),
                "facts": list(step.facts),
                "conclusion": _dump_judgment(step.conclusion),
            }
            for step in node.steps
        ]
    }
    if node.split is None:
        out["split"] = None
    else:
        out["split"] = {
            "kind": node.split.kind,
            "params": dict(node.split.params),
            "premises": list(node.split.premises),
            "branches": [
                {
                    "name": br.name,
                    "hypotheses": [
                        {"id": h.id, "judgment": _dump_judgment(h.judgment)}
                        for h in br.hypotheses
                    ],
                    "goal": _dump_goal(br.goal),
                    "node": _dump_node(br.node),
                }
                for br in node.split.branches
            ],
        }
    return out


def _ids(raw, field: str) -> tuple[str, ...]:
    return tuple(strict_str(item, field) for item in strict_list(raw, f"{field}s"))


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
    return {
        "name": derivation.name,
        "table": derivation.table.serialize(),
        "goal": _dump_goal(derivation.goal),
        "root": _dump_node(derivation.root),
    }


def parse_derivation(payload: dict) -> Derivation:
    try:
        table = AtomTable.deserialize(payload["table"])
        name = strict_str(payload.get("name", "derivation"), "derivation name")
        goal = _load_goal(payload.get("goal"))
        root = _load_node(payload["root"])
    except CertificateError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed derivation payload: {exc!r}") from exc
    return Derivation(name, table, goal, root)

