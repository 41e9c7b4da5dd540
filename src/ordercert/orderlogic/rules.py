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

Each rule takes exactly the premises shown, in order, and the parameters it
reads, and accepts only these forms, the ones the shipped derivation uses.
t = (atom, sign) is a signed base, and u, v commute with it: each of their
letters is t's atom or is tied to it by a cited commute fact.

  invert            direction lt:  u < t^m  ==>  t^-m < u^-1
  product           direction lt:  u < t^m, v < t^n  ==>  u v < t^(m+n)
                    direction gt:  t^m < u, t^n < v  ==>  t^(m+n) < u v
  conjugate_window  t^(m-1) < u, u < t^m, t^n1 < v, v < t^n2, n1 < n2  ==>
                    part lower: t^(m-2) < u^v;  part upper: u^v < t^(m+1)
  flip_bound        t^n1 < v, v < t^n2, 1 < t, n1 < n2, a cited identity
                    u^v = u^-1  ==>  part lower: t^-1 < u;  part upper: u < t

Structural rules, with why each holds in any left-ordered group:

  trans      x < y, y < z  ==>  x < z: an order is transitive.
  lmul       x < y  ==>  w x < w y: the order is left-invariant.
  subst      dir lr, x < y  ==>  x < y with a cited identity p = q applied:
             p at ``pos`` of ``side`` (lhs or rhs) replaced by q, which names
             the same element.
  absurd     x < y, y < x  ==>  contradiction: together they give x < x.
  eq_contra  an equation with sides x^±1 and 1 citing x != 1, or x^±1 and
             y^±1 citing x not in {y, y^-1}, in either order  ==>  contradiction:
             x^s = 1 gives x = 1, and x^s = y^e with s, e = ±1 gives x = y^(se).

Case splitting lives in the derivation tree, not here.
"""

from __future__ import annotations

from ..wordsyntax import clip
from .facts import COMMUTE, IDENTITY_EQ, NON_IDENTITY, NOT_IN_SET, Fact
from .words import (CONTRADICTION, EMPTY, INT_BITS, Judgment, Less, Word, WordEq, atom_pow,
                    letter_pair, t_pow, w_format, w_inv, w_mul, w_reduce)


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
    if value.bit_length() > INT_BITS:
        raise RuleError(f"parameter {key!r} is 2**{INT_BITS} or more in magnitude")
    return value


def check_params(params: dict, names, what: str, name: str):
    """Refuse any parameter outside the set ``names``, the ones the rule or
    split kind (``what``) called ``name`` reads."""
    if not params.keys() <= names:
        raise RuleError(f"{what} {name!r} reads only the parameters [{', '.join(sorted(names))}]")


def window_premises(v: Word, t: tuple[str, int], n1: int, n2: int) -> tuple[Less, Less, Less]:
    """t^n1 < v, v < t^n2 and 1 < t: the premises of a window over v, in the
    order ``flip_bound`` and the window split cite them; ``conjugate_window``
    cites the first two."""
    return Less(t_pow(t, n1), v), Less(v, t_pow(t, n2)), Less(EMPTY, t_pow(t, 1))


def _expect(premises, *expected: Judgment):
    if tuple(premises) != expected:
        i = next(i for i, (got, want) in enumerate(zip(premises, expected)) if got != want)
        raise RuleError(f"premise #{i + 1} must be '{expected[i]}' (got '{premises[i]}')")


def _need_commute(word: Word, t: tuple[str, int], cited: list[Fact], label: str):
    """The closure rule: a word commutes with t when each of its letters is t
    itself or is tied to t by a cited commute fact."""
    covered = {t[0]}
    for f in cited:
        if f.kind == COMMUTE and t[0] in f.args:
            covered.update(f.args)
    if any(name not in covered for name, _ in word):
        raise RuleError(f"commutation of {label} ({w_format(word)}) with {clip(t[0])} "
                        "is not covered by cited facts")


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
    """Run the rule's checker from ``_RULES``, at the end of this module, on
    exactly as many premises as the rule takes and no parameter it does not read."""
    if not isinstance(rule, str):
        raise RuleError("a rule is named by a string")
    if rule not in _RULES:
        raise RuleError(f"unknown rule {clip(rule)!r}")
    count, check, names = _RULES[rule]
    if len(premises) != count:
        raise RuleError(f"rule {rule!r} takes {count} premise(s), got {len(premises)}")
    check_params(params, names, "rule", rule)
    return check(params, premises, cited)


def _rule_invert(params, premises, cited):
    u = read_word(params, "u")
    t = read_base(params)
    m = read_int(params, "m")
    if params.get("direction") != "lt":
        raise RuleError("direction must be 'lt'")
    _need_commute(u, t, cited, "u")
    _expect(premises, Less(u, t_pow(t, m)))
    return Less(t_pow(t, -m), w_inv(u))


def _oriented(params):
    """The inequality of a word and a power of t that ``direction`` selects:
    the word below the power for 'lt', above it for 'gt'."""
    direction = params.get("direction")
    if direction == "lt":
        return Less
    if direction == "gt":
        return lambda word, power: Less(power, word)
    raise RuleError("direction must be 'lt' or 'gt'")


def _rule_product(params, premises, cited):
    u = read_word(params, "u")
    v = read_word(params, "v")
    t = read_base(params)
    m = read_int(params, "m")
    n = read_int(params, "n")
    bound = _oriented(params)
    _need_commute(u, t, cited, "u")
    _need_commute(v, t, cited, "v")
    _expect(premises, bound(u, t_pow(t, m)), bound(v, t_pow(t, n)))
    return bound(w_mul(u, v), t_pow(t, m + n))


def _window(params, cited):
    """u, v, t and the ``window_premises`` of a conjugator window, with
    n1 < n2 and u and v commuting with t."""
    u = read_word(params, "u")
    v = read_word(params, "v")
    t = read_base(params)
    n1 = read_int(params, "n1")
    n2 = read_int(params, "n2")
    if n1 >= n2:
        raise RuleError("conjugator window needs n1 < n2")
    _need_commute(u, t, cited, "u")
    _need_commute(v, t, cited, "v")
    return u, v, t, window_premises(v, t, n1, n2)


def _lower(params) -> bool:
    """Whether ``part`` selects the lower bound; else it selects the upper."""
    part = params.get("part")
    if part not in ("lower", "upper"):
        raise RuleError("part must be 'lower' or 'upper'")
    return part == "lower"


def _rule_conjugate_window(params, premises, cited):
    u, v, t, window = _window(params, cited)
    m = read_int(params, "m")
    _expect(premises, Less(t_pow(t, m - 1), u), Less(u, t_pow(t, m)), *window[:2])
    conj = w_mul(w_inv(v), u, v)
    return Less(t_pow(t, m - 2), conj) if _lower(params) else Less(conj, t_pow(t, m + 1))


def _rule_flip_bound(params, premises, cited):
    u, v, t, window = _window(params, cited)
    _expect(premises, *window)
    conj = w_mul(w_inv(v), u, v)
    flipped = w_inv(u)
    if not any(f.kind == IDENTITY_EQ and f.args == (conj, flipped) for f in cited):
        raise RuleError(f"no cited fact states {w_format(conj)} == {w_format(flipped)}")
    return Less(t_pow(t, -1), u) if _lower(params) else Less(u, t_pow(t, 1))


def _rule_trans(_params, premises, _cited):
    p1, p2 = premises
    if not isinstance(p1, Less) or not isinstance(p2, Less):
        raise RuleError("transitivity premises must be inequalities")
    if p1.rhs != p2.lhs:
        raise RuleError(f"middle words differ: '{w_format(p1.rhs)}' vs '{w_format(p2.lhs)}'")
    return Less(p1.lhs, p2.rhs)


def _rule_lmul(params, premises, _cited):
    w = read_word(params, "w")
    (p,) = premises
    if not isinstance(p, Less):
        raise RuleError("left multiplication needs one inequality premise")
    return Less(w_mul(w, p.lhs), w_mul(w, p.rhs))


def _rule_subst(params, premises, cited):
    side = params.get("side")
    pos = read_int(params, "pos")
    if side not in ("lhs", "rhs"):
        raise RuleError("side must be 'lhs' or 'rhs'")
    if params.get("dir") != "lr":
        raise RuleError("dir must be 'lr'")
    (p,) = premises
    if not isinstance(p, Less):
        raise RuleError("substitution needs one inequality premise")
    eq = next((f for f in cited if f.kind == IDENTITY_EQ), None)
    if eq is None:
        raise RuleError("substitution needs a cited word-equality fact")
    pattern, replacement = eq.args
    target = getattr(p, side)
    if pos < 0 or pos + len(pattern) > len(target):
        raise RuleError("substitution slice out of range")
    if target[pos: pos + len(pattern)] != pattern:
        raise RuleError(f"premise {side} does not contain '{w_format(pattern)}' at position {pos}")
    return p._replace(**{side: w_mul(target[:pos], replacement, target[pos + len(pattern):])})


def _rule_absurd(_params, premises, _cited):
    p1, p2 = premises
    if isinstance(p1, Less) and isinstance(p2, Less) and (p1.lhs, p1.rhs) == (p2.rhs, p2.lhs):
        return CONTRADICTION
    raise RuleError("absurdity needs crossing inequalities x < y and y < x")


def _unit_powers(name) -> tuple[Word, Word]:
    return atom_pow(name, 1), atom_pow(name, -1)


def _rule_eq_contra(_params, premises, cited):
    (eq,) = premises
    if not isinstance(eq, WordEq):
        raise RuleError("needs an equality hypothesis premise")
    sides = {(eq.lhs, eq.rhs), (eq.rhs, eq.lhs)}
    for f in cited:
        if f.kind == NON_IDENTITY:
            others = (EMPTY,)
        elif f.kind == NOT_IN_SET:
            others = _unit_powers(f.args[1])
        else:
            continue
        if any((x, y) in sides for x in _unit_powers(f.args[0]) for y in others):
            return CONTRADICTION
    raise RuleError("equality hypothesis is not refuted by any cited fact")


# each rule's premise count, checker and the parameters it reads
_RULES = {rule: (count, check, frozenset(names.split())) for rule, (count, check, names) in {
    "invert": (1, _rule_invert, "u t m direction"),
    "product": (2, _rule_product, "u v t m n direction"),
    "conjugate_window": (4, _rule_conjugate_window, "u v t m n1 n2 part"),
    "flip_bound": (3, _rule_flip_bound, "u v t n1 n2 part"),
    "trans": (2, _rule_trans, ""), "lmul": (1, _rule_lmul, "w"),
    "subst": (1, _rule_subst, "side pos dir"),
    "absurd": (2, _rule_absurd, ""), "eq_contra": (1, _rule_eq_contra, ""),
}.items()}
