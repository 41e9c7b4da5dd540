"""Atom tables: atoms named by plane words, and the facts verified about them.

Each atom is a word over the plane group's generators a, b, c, d, ch, dh,
and every fact a derivation cites must carry a verification that was
actually computed in that one exact algebra (:mod:`ordercert.plane`).  A
table is read-only, and it decides each fact once, when a step first cites
it.
"""

from __future__ import annotations

from types import MappingProxyType

from ..exactpl import Frozen, Record
from ..plane import PLANE_GENERATOR_NAMES, PlaneWord, decide_equal, plane_word
from ..wordsyntax import clip, parse_word
from .words import EMPTY, Word, w_format, w_reduce

COMMUTE = "commute"
IDENTITY_EQ = "identity_eq"
NON_IDENTITY = "non_identity"
NOT_IN_SET = "not_in_set"

ARITY = {COMMUTE: 2, IDENTITY_EQ: 2, NON_IDENTITY: 1, NOT_IN_SET: 2}


class Fact(Record):
    """A citable statement about atoms, with a stable identifier.

    kinds and args:
      commute:       args = (x, y)          -- atoms x and y commute
      identity_eq:   args = (lhs, rhs)      -- two words equal in the group
      non_identity:  args = (x,)            -- atom x is not the identity
      not_in_set:    args = (x, y)          -- x is neither y nor y^-1
    """

    __slots__ = ("id", "kind", "args", "description")
    _defaults = ("",)

    def __str__(self):
        if self.kind == COMMUTE:
            return f"{self.args[0]} {self.args[1]} == {self.args[1]} {self.args[0]}"
        if self.kind == IDENTITY_EQ:
            return f"{w_format(self.args[0])} == {w_format(self.args[1])}"
        if self.kind == NON_IDENTITY:
            return f"{self.args[0]} != 1"
        if self.kind == NOT_IN_SET:
            return f"{self.args[0]} is neither {self.args[1]} nor {self.args[1]}^-1"
        return f"{self.kind}{self.args}"


def commute_fact(fid, x, y):
    return Fact(fid, COMMUTE, (x, y))


def identity_eq_fact(fid, lhs: Word, rhs: Word):
    return Fact(fid, IDENTITY_EQ, (w_reduce(lhs), w_reduce(rhs)))


def non_identity_fact(fid, x):
    return Fact(fid, NON_IDENTITY, (x,))


def not_in_set_fact(fid, x, y):
    return Fact(fid, NOT_IN_SET, (x, y))


class AtomTable(Frozen):
    """Atoms bound to plane words plus the fact base grounded in them: a value.

    Built tables are well formed (else ``ValueError``): there is at least one
    atom, every atom's word parses over the plane generators, and every fact
    has a known kind and arity, relates words if it is an identity, and names
    only atoms of the table.  ``atoms`` and ``facts`` are read-only, so a copy
    is the table itself, and each fact is decided once, the first time
    ``outcome`` asks for it.  ``conclusions`` is the memo of rule instances
    that ``apply_rule`` fills (see ``rules``).  A pickled table keeps neither
    memo.
    """

    __slots__ = ("atoms", "facts", "conclusions", "_outcomes", "_plane_cache")

    def __init__(self, atoms: dict[str, str], facts: list[Fact]):
        by_id: dict[str, Fact] = {}
        for f in facts:
            if f.id in by_id:
                raise ValueError(f"duplicate fact id {clip(f.id)}")
            by_id[f.id] = f
        object.__setattr__(self, "atoms", MappingProxyType(dict(atoms)))
        object.__setattr__(self, "facts", MappingProxyType(by_id))
        self._validate()
        object.__setattr__(self, "conclusions", {})
        object.__setattr__(self, "_outcomes", {})
        object.__setattr__(self, "_plane_cache", {})

    def __reduce__(self):
        return (AtomTable, (dict(self.atoms), list(self.facts.values())))

    def _validate(self) -> None:
        if not self.atoms:
            raise ValueError("an atom table needs at least one atom")
        for word in self.atoms.values():
            parse_word(word, PLANE_GENERATOR_NAMES)
        for f in self.facts.values():
            if ARITY.get(f.kind) != len(f.args):
                raise ValueError(f"fact {clip(f.id)!r}: unknown kind or wrong arity")
            if f.kind == IDENTITY_EQ:
                if str in map(type, f.args):
                    raise ValueError(f"fact {clip(f.id)!r}: an identity relates two words")
                names = [sym for side in f.args for sym, _ in side]
            else:
                names = f.args
            for name in names:
                if name not in self.atoms:
                    raise ValueError(f"fact {clip(f.id)!r}: unknown atom {clip(str(name))!r}")

    # -- realization ------------------------------------------------------

    def realize_plane(self, word: Word) -> PlaneWord:
        for name, _ in word:
            if name not in self._plane_cache:
                self._plane_cache[name] = plane_word(self.atoms[name])
        return plane_word(word, self._plane_cache)

    # -- verification -----------------------------------------------------

    def _verify_equal(self, lhs: Word, rhs: Word) -> bool | None:
        """True/False when decided, None when the algebra cannot decide."""
        return decide_equal(self.realize_plane(lhs), self.realize_plane(rhs))

    def _differs_from_all(self, atom: str, words: list) -> bool | None:
        decided = [self._verify_equal(((atom, 1),), w) for w in words]
        return None if None in decided else not any(decided)

    def verify_fact(self, fact: Fact) -> bool | None:
        """True when the fact holds, False when refuted, None when undecided."""
        args = fact.args
        if fact.kind == COMMUTE:
            x, y = ((args[0], 1),), ((args[1], 1),)
            return self._verify_equal(x + y, y + x)
        if fact.kind == IDENTITY_EQ:
            return self._verify_equal(*args)
        if fact.kind == NON_IDENTITY:
            return self._differs_from_all(args[0], [EMPTY])
        if fact.kind == NOT_IN_SET:
            return self._differs_from_all(args[0], [((args[1], 1),), ((args[1], -1),)])
        raise ValueError(f"unknown fact kind {fact.kind}")

    def outcome(self, fid: str) -> bool | None:
        """The outcome of ``verify_fact`` on the fact ``fid``, computed the
        first time it is asked for."""
        if fid not in self._outcomes:
            self._outcomes[fid] = self.verify_fact(self.facts[fid])
        return self._outcomes[fid]

    def verify_all(self) -> bool:
        """Decide every fact, not only those up to the first that fails."""
        return all([self.outcome(fid) for fid in self.facts])
