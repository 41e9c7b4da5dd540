"""Formal words over named atoms, plus the two judgment shapes.

A word is a freely reduced tuple of (atom, exponent) pairs; the empty tuple
is the identity.  Judgments are either a strict inequality between two words
(relative to one assumed left-invariant order) or the bare contradiction
marker that closes a derivation branch.
"""

from __future__ import annotations

from ..exactpl import Record
from ..wordsyntax import clip, format_word, reduce_letters

Word = tuple[tuple[str, int], ...]

EMPTY: Word = ()
INT_BITS = 63  # untrusted integers stay below 2**INT_BITS in magnitude, so sums of them print


def w_reduce(pairs) -> Word:
    """``pairs`` freely reduced: one pass returns a word with no zero exponent
    and no letter next to itself; others go through ``reduce_letters``."""
    word = tuple(pairs)
    prev = None
    for sym, exp in word:
        if not exp or sym == prev:
            return tuple(reduce_letters(word))
        prev = sym
    return word


def w_mul(*words: Word) -> Word:
    return w_reduce(sum(words, EMPTY))


def letter_pair(item) -> tuple[str, int]:
    """One [letter, exponent] pair of untrusted data such as JSON, strictly
    typed: a string and an integer below 2**INT_BITS in magnitude -- not a
    bool, float or numeric string, which int() would coerce.  Raises
    ValueError, whose message never quotes the untrusted value."""
    try:
        sym, exp = item
    except (TypeError, ValueError):
        raise ValueError("a letter must be a pair [atom, exponent]") from None
    if type(sym) is not str or type(exp) is not int:
        raise ValueError("a letter needs a string and an integer")
    if exp.bit_length() > INT_BITS:
        raise ValueError(f"a letter has an exponent of 2**{INT_BITS} or more in magnitude")
    return sym, exp


def w_inv(word: Word) -> Word:
    return tuple((sym, -exp) for sym, exp in reversed(word))


def atom_pow(name: str, exp: int) -> Word:
    return ((name, exp),) if exp else EMPTY


def t_pow(t: tuple[str, int], m: int) -> Word:
    """Power of a signed base: t = (atom, +1/-1), so t^m = atom^(sign*m)."""
    name, sign = t
    return atom_pow(name, sign * m)


def w_format(word: Word) -> str:
    """``word`` as every reason quotes it: "1" if empty, a long word by its ``clip`` prefix."""
    return clip(format_word(word) or "1")


class Less(Record):
    """lhs < rhs in the assumed left-order."""

    __slots__ = ("lhs", "rhs")

    def __str__(self):
        return f"{w_format(self.lhs)} < {w_format(self.rhs)}"


class WordEq(Record):
    """Branch hypothesis lhs = rhs (middle case of a trichotomy)."""

    __slots__ = ("lhs", "rhs")

    def __str__(self):
        return f"{w_format(self.lhs)} = {w_format(self.rhs)}"


class _Contradiction:
    def __reduce__(self):
        # copies stay the one marker, which the checker tests by identity
        return "CONTRADICTION"

    def __repr__(self):
        return "CONTRADICTION"

    def __str__(self):
        return "contradiction"


CONTRADICTION = _Contradiction()

Judgment = object  # Less | WordEq | CONTRADICTION
