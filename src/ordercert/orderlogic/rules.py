"""The inference rules of the left-order inequality calculus.

``apply_rule`` is the single source of truth: script builders call it to
construct conclusions and the certificate checker calls it again to validate
them, so a stored conclusion is accepted only if it is exactly what the rule
instance produces.

Both pass their atom table's ``conclusions`` dict as a memo, so each distinct
instance is worked out once per table.  The memo stores only ``apply_rule``'s
own successful outputs, never a stated conclusion, keyed by the rule, the
parameters with each top-level value's type (``True`` and ``1.0`` equal ``1``
but are not integers), the premises and the cited ``Fact`` values.

Core rules (u, v words commuting with the signed base t = (atom, sign)):

  invert            u < t^m              ==>  t^-m < u^-1        (and the > form)
  product           u < t^m, v < t^n     ==>  u v < t^(m+n)      (and the > form)
  conjugate_window  t^(m-1) < u < t^m,
                    t^n1 < v < t^n2      ==>  t^(m-2) < u^v < t^(m+1)
  flip_bound        u^v = u^-1 (fact),
                    t^n1 < v < t^n2, 1 < t ==> t^-1 < u < t

Structural rules: transitivity, left multiplication, substitution of a
verified word equality, and the two contradiction closers (crossing
inequalities; an equality hypothesis against a non-identity / distinctness
fact).  Case splitting lives in the derivation tree, not here.
"""

from __future__ import annotations

from .facts import COMMUTE, IDENTITY_EQ, NON_IDENTITY, NOT_IN_SET, Fact
from .words import (CONTRADICTION, EMPTY, Judgment, Less, Word, WordEq, atom_pow, letter_pair,
                    t_pow, w_format, w_inv, w_mul, w_reduce)


class RuleError(ValueError):
    """A step is not a correct instance of its rule."""


def read_word(params, key) -> Word:
    """The word parameter ``key``, its letters read by ``letter_pair``."""
    try:
        return w_reduce(tuple(map(letter_pair, params[key])))
    except (KeyError, TypeError, ValueError) as exc:
        raise RuleError(f"malformed word parameter {key!r}") from exc


def read_base(params) -> tuple[str, int]:
    """The signed base parameter ``t`` = (atom, +1 or -1)."""
    try:
        name, sign = letter_pair(params["t"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RuleError("malformed base parameter 't'") from exc
    if sign not in (1, -1):
        raise RuleError("base sign must be +1 or -1")
    return name, sign


def read_int(params, key) -> int:
    value = params.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise RuleError(f"parameter {key!r} must be an integer")
    return value


def _expect(premises, index, expected: Judgment, label: str):
    if index >= len(premises):
        raise RuleError(f"missing premise #{index + 1} ({label})")
    if premises[index] != expected:
        raise RuleError(
            f"premise #{index + 1} must be '{expected}' (got '{premises[index]}')"
        )


def _need_commute(word: Word, t: tuple[str, int], cited: list[Fact], label: str):
    """The closure rule: a word commutes with t when each of its letters is t
    itself or is tied to t by a cited commute fact."""
    covered = {t[0]}
    for f in cited:
        if f.kind == COMMUTE and t[0] in f.args:
            covered.update(f.args)
    if any(name not in covered for name, _ in word):
        raise RuleError(f"commutation of {label} ({w_format(word)}) with {t[0]} is not covered by cited facts")


def apply_rule(rule: str, params: dict, premises: list[Judgment], cited: list[Fact],
               memo: dict | None = None) -> Judgment:
    """Return the unique conclusion of this rule instance, or raise RuleError.

    ``memo`` maps instances already applied to their conclusions."""
    if memo is None:
        return _apply(rule, params, premises, cited)
    key = (rule, tuple(params.items()), tuple(map(type, params.values())),
           tuple(premises), tuple(cited))
    try:
        conclusion = memo.get(key)
    except TypeError:  # an unhashable parameter: no memo
        return _apply(rule, params, premises, cited)
    if conclusion is None:
        conclusion = memo[key] = _apply(rule, params, premises, cited)
    return conclusion


def _apply(rule, params, premises, cited) -> Judgment:
    """Run the rule's checker from ``_RULES``, at the end of this module."""
    check = _RULES.get(rule) if isinstance(rule, str) else None
    if check is None:
        raise RuleError(f"unknown rule {rule!r}")
    return check(params, premises, cited)


def _rule_invert(params, premises, cited):
    u = read_word(params, "u")
    t = read_base(params)
    m = read_int(params, "m")
    direction = params.get("direction", "lt")
    _need_commute(u, t, cited, "u")
    if direction == "lt":
        _expect(premises, 0, Less(u, t_pow(t, m)), "u < t^m")
        return Less(t_pow(t, -m), w_inv(u))
    if direction == "gt":
        _expect(premises, 0, Less(t_pow(t, m), u), "t^m < u")
        return Less(w_inv(u), t_pow(t, -m))
    raise RuleError("direction must be 'lt' or 'gt'")


def _rule_product(params, premises, cited):
    u = read_word(params, "u")
    v = read_word(params, "v")
    t = read_base(params)
    m = read_int(params, "m")
    n = read_int(params, "n")
    direction = params.get("direction", "lt")
    _need_commute(u, t, cited, "u")
    _need_commute(v, t, cited, "v")
    if direction == "lt":
        _expect(premises, 0, Less(u, t_pow(t, m)), "u < t^m")
        _expect(premises, 1, Less(v, t_pow(t, n)), "v < t^n")
        return Less(w_mul(u, v), t_pow(t, m + n))
    if direction == "gt":
        _expect(premises, 0, Less(t_pow(t, m), u), "t^m < u")
        _expect(premises, 1, Less(t_pow(t, n), v), "t^n < v")
        return Less(t_pow(t, m + n), w_mul(u, v))
    raise RuleError("direction must be 'lt' or 'gt'")


def _rule_conjugate_window(params, premises, cited):
    u = read_word(params, "u")
    v = read_word(params, "v")
    t = read_base(params)
    m = read_int(params, "m")
    n1 = read_int(params, "n1")
    n2 = read_int(params, "n2")
    part = params.get("part")
    if n1 >= n2:
        raise RuleError("conjugator window needs n1 < n2")
    _need_commute(u, t, cited, "u")
    _need_commute(v, t, cited, "v")
    _expect(premises, 0, Less(t_pow(t, m - 1), u), "t^(m-1) < u")
    _expect(premises, 1, Less(u, t_pow(t, m)), "u < t^m")
    _expect(premises, 2, Less(t_pow(t, n1), v), "t^n1 < v")
    _expect(premises, 3, Less(v, t_pow(t, n2)), "v < t^n2")
    conj = w_mul(w_inv(v), u, v)
    if part == "lower":
        return Less(t_pow(t, m - 2), conj)
    if part == "upper":
        return Less(conj, t_pow(t, m + 1))
    raise RuleError("part must be 'lower' or 'upper'")


def _rule_flip_bound(params, premises, cited):
    u = read_word(params, "u")
    v = read_word(params, "v")
    t = read_base(params)
    n1 = read_int(params, "n1")
    n2 = read_int(params, "n2")
    part = params.get("part")
    if n1 >= n2:
        raise RuleError("conjugator window needs n1 < n2")
    _need_commute(u, t, cited, "u")
    _need_commute(v, t, cited, "v")
    _expect(premises, 0, Less(t_pow(t, n1), v), "t^n1 < v")
    _expect(premises, 1, Less(v, t_pow(t, n2)), "v < t^n2")
    _expect(premises, 2, Less(EMPTY, t_pow(t, 1)), "1 < t")
    conj = w_mul(w_inv(v), u, v)
    flipped = w_inv(u)
    for f in cited:
        if f.kind == IDENTITY_EQ and (
            f.args == (conj, flipped) or f.args == (flipped, conj)
        ):
            break
    else:
        raise RuleError(
            f"no cited fact states {w_format(conj)} == {w_format(flipped)}"
        )
    if part == "lower":
        return Less(t_pow(t, -1), u)
    if part == "upper":
        return Less(u, t_pow(t, 1))
    raise RuleError("part must be 'lower' or 'upper'")


def _rule_trans(_params, premises, _cited):
    if len(premises) < 2:
        raise RuleError("transitivity needs two premises")
    p1, p2 = premises[0], premises[1]
    if not isinstance(p1, Less) or not isinstance(p2, Less):
        raise RuleError("transitivity premises must be inequalities")
    if p1.rhs != p2.lhs:
        raise RuleError(
            f"middle words differ: '{w_format(p1.rhs)}' vs '{w_format(p2.lhs)}'"
        )
    return Less(p1.lhs, p2.rhs)


def _rule_lmul(params, premises, _cited):
    w = read_word(params, "w")
    if len(premises) < 1 or not isinstance(premises[0], Less):
        raise RuleError("left multiplication needs one inequality premise")
    p = premises[0]
    return Less(w_mul(w, p.lhs), w_mul(w, p.rhs))


def _rule_subst(params, premises, cited):
    side = params.get("side")
    pos = read_int(params, "pos")
    direction = params.get("dir", "lr")
    if side not in ("lhs", "rhs"):
        raise RuleError("side must be 'lhs' or 'rhs'")
    if len(premises) < 1 or not isinstance(premises[0], Less):
        raise RuleError("substitution needs one inequality premise")
    eq = None
    for f in cited:
        if f.kind == IDENTITY_EQ:
            eq = f
            break
    if eq is None:
        raise RuleError("substitution needs a cited word-equality fact")
    pattern, replacement = eq.args if direction == "lr" else (eq.args[1], eq.args[0])
    p = premises[0]
    target = p.lhs if side == "lhs" else p.rhs
    if pos < 0 or pos + len(pattern) > len(target):
        raise RuleError("substitution slice out of range")
    if target[pos: pos + len(pattern)] != pattern:
        raise RuleError(
            f"premise {side} does not contain '{w_format(pattern)}' at position {pos}"
        )
    new_word = w_mul(target[:pos], replacement, target[pos + len(pattern):])
    if side == "lhs":
        return Less(new_word, p.rhs)
    return Less(p.lhs, new_word)


def _rule_absurd(_params, premises, _cited):
    if len(premises) == 1:
        p = premises[0]
        if isinstance(p, Less) and p.lhs == p.rhs:
            return CONTRADICTION
        raise RuleError("single-premise absurdity needs w < w")
    if len(premises) >= 2:
        p1, p2 = premises[0], premises[1]
        if (
            isinstance(p1, Less)
            and isinstance(p2, Less)
            and p1.lhs == p2.rhs
            and p1.rhs == p2.lhs
        ):
            return CONTRADICTION
        raise RuleError("absurdity needs crossing inequalities x < y and y < x")
    raise RuleError("absurdity needs premises")


def _equation_forms(eq: WordEq):
    w1, w2 = eq.lhs, eq.rhs
    return {
        w_mul(w1, w_inv(w2)),
        w_mul(w_inv(w2), w1),
        w_mul(w2, w_inv(w1)),
        w_mul(w_inv(w1), w2),
    }


def _rule_eq_contra(_params, premises, cited):
    if len(premises) < 1 or not isinstance(premises[0], WordEq):
        raise RuleError("needs an equality hypothesis premise")
    forms = _equation_forms(premises[0])
    for f in cited:
        if f.kind == NON_IDENTITY:
            x = f.args[0]
            if atom_pow(x, 1) in forms or atom_pow(x, -1) in forms:
                return CONTRADICTION
        if f.kind == NOT_IN_SET:
            x, y = f.args
            for e in (1, -1):
                patterns = (
                    w_mul(atom_pow(x, 1), atom_pow(y, e)),
                    w_mul(atom_pow(y, e), atom_pow(x, 1)),
                    w_mul(atom_pow(x, -1), atom_pow(y, e)),
                    w_mul(atom_pow(y, e), atom_pow(x, -1)),
                )
                if any(p in forms for p in patterns):
                    return CONTRADICTION
    raise RuleError("equality hypothesis is not refuted by any cited fact")


_RULES = {
    "invert": _rule_invert, "product": _rule_product,
    "conjugate_window": _rule_conjugate_window, "flip_bound": _rule_flip_bound,
    "trans": _rule_trans, "lmul": _rule_lmul, "subst": _rule_subst,
    "absurd": _rule_absurd, "eq_contra": _rule_eq_contra,
}
