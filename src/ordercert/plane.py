"""Words mixing vertical-skew and horizontal-skew plane homeomorphisms.

A ``V`` letter holds a :class:`~ordercert.skew.SkewElement` g acting as
(x, y) -> (f(x), y + p(x)).  An ``H`` letter holds the swap-conjugated copy
of g, acting as (x, y) -> (x + p(y), f(y)).  The coordinate swap itself is
never a letter; it only appears as the bijection between the two kinds.

Words are kept in a simplified form: adjacent letters of the same kind merge
by exact composition, identity letters vanish, and pure translations -- which
live in both copies -- are absorbed into either neighbour, in its copy, and
stored V-first when they stand alone.  Letters with zero shift, (f(x), y) and
(x, g(y)), commute, so such a pair is reordered until each merges with a
same-kind neighbour; a lone pair of them is stored V-first.  Structural
equality of simplified words therefore decides every equality this package
needs, ``d dh == dh d`` included; a bounded witness search handles inequality,
and anything else is honestly reported as unknown.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain
from math import gcd

from .exactpl import PLCocycle, PLMap, Record, _fraction, rational
from .skew import (
    GENERATOR_NAMES,
    SkewElement,
    reference_apply,
    standard_generators,
)
from .wordsyntax import epsilon_letters, word_letters

Point = tuple

PLANE_GENERATOR_NAMES = ("a", "b", "c", "d", "ch", "dh")

DEFAULT_SEED = 7302016


class Letter(Record):
    """One word letter: kind "V" or "H" plus the underlying skew element."""

    __slots__ = ("kind", "elem")

    def invert(self) -> "Letter":
        return Letter(self.kind, self.elem.invert())

    def as_kind(self, kind: str) -> "Letter":
        """Re-express a pure translation in the other copy: (x + u, y + v)
        there is (x + v, y + u), so the two one-corner pairs swap."""
        if kind == self.kind:
            return self
        if not self.elem.is_translation:
            raise ValueError("only pure translations live in both copies")
        _, _, un, ud, _, _ = self.elem.x_part.corners[0]
        _, _, vn, vd, _, _ = self.elem.shift.corners[0]
        return Letter(kind, SkewElement(PLMap._one_corner(vn, vd), PLCocycle._one_corner(un, ud)))


def _walk(letters: Iterable[Letter], xn: int, xd: int, yn: int, yd: int) -> tuple:
    """Move (xn/xd, yn/yd) through ``letters`` in order, H letters on the
    swapped coordinates; each image is reduced, denominators positive."""
    for letter in letters:
        if letter.kind == "V":
            xn, xd, yn, yd = letter.elem._apply_ints(xn, xd, yn, yd)
        else:
            yn, yd, xn, xd = letter.elem._apply_ints(yn, yd, xn, xd)
    return xn, xd, yn, yd


def _merge(left: Letter, right: Letter) -> Letter:
    return Letter(left.kind, left.elem.compose(right.elem))


def _push(stack: list[Letter], letter: Letter) -> None:
    while True:
        translation = letter.elem.is_translation
        if translation and letter.elem.is_identity:
            return
        if not stack:
            # a translation lives in both copies: one alone is stored V
            stack.append(letter.as_kind("V") if translation else letter)
            return
        top = stack[-1]
        if top.kind == letter.kind or translation:
            stack.pop()
            letter = _merge(top, letter.as_kind(top.kind))
        elif top.elem.is_translation:
            stack.pop()
            letter = _merge(top.as_kind(letter.kind), letter)
        elif (letter.elem.shift.is_zero and top.elem.shift.is_zero
              and (len(stack) > 1 or letter.kind == "V")):
            # (f(x), y) and (x, g(y)) commute: sink the letter past the top to
            # merge below it; a lone bottom pair is kept V first, or it would
            # swap forever
            stack.pop()
            _push(stack, letter)
            letter = top
        else:
            stack.append(letter)
            return


def _pushed(stack: list[Letter], letters: Iterable[Letter]) -> "PlaneWord":
    """Push ``letters`` onto ``stack`` and wrap the finished stack as a word."""
    for letter in letters:
        _push(stack, letter)
    word = object.__new__(PlaneWord)
    object.__setattr__(word, "letters", tuple(stack))
    return word


def _power_letters(word: "PlaneWord", n: int) -> Iterable[Letter]:
    """The letters of ``word.power(n)``.  One letter's is its element's power;
    a longer word's power is a word of its own, since the stack walk's result
    depends on what lies below on the stack."""
    if len(word.letters) != 1:
        return word.power(n).letters
    (letter,) = word.letters
    return (letter if n == 1 else Letter(letter.kind, letter.elem.power(n)),)


class PlaneWord(Record):
    """A simplified word of V and H letters; immutable.  Pickling re-simplifies
    ``letters``, which leaves a simplified word unchanged."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _pushed([], letters).letters)

    def __repr__(self):
        kinds = "".join(l.kind for l in self.letters) or "1"
        return f"PlaneWord<{kinds}>"

    @property
    def is_identity_word(self) -> bool:
        return not self.letters

    def concat(self, other: "PlaneWord") -> "PlaneWord":
        # self.letters is a finished stack: push only other's letters onto it
        return _pushed(list(self.letters), other.letters)

    def invert(self) -> "PlaneWord":
        return PlaneWord(tuple(l.invert() for l in reversed(self.letters)))

    def power(self, n: int) -> "PlaneWord":
        if len(self.letters) == 1:
            return _pushed([], _power_letters(self, n))
        if n < 0:
            return self.invert().power(-n)
        return _pushed([], self.letters * n)

    def apply(self, point: Point) -> Point:
        x, y = rational(point[0]), rational(point[1])
        xn, xd, yn, yd = _walk(self.letters, x.numerator, x.denominator, y.numerator, y.denominator)
        return (_fraction(xn, xd), _fraction(yn, yd))


def _plane_generators(skew_gens) -> dict[str, PlaneWord]:
    gens = {name: PlaneWord((Letter("V", skew_gens[name]),)) for name in GENERATOR_NAMES}
    gens["ch"] = PlaneWord((Letter("H", skew_gens["c"]),))
    gens["dh"] = PlaneWord((Letter("H", skew_gens["d"]),))
    return gens


# One-letter words over the shared standard generators, built once.
_PLANE_GENERATORS = _plane_generators(standard_generators())


def plane_word(text_or_letters, gens: dict[str, PlaneWord] | None = None) -> PlaneWord:
    """Build a word from a string ("a c^-1 ch^2") or (letter, exp) pairs."""
    gens = gens or _PLANE_GENERATORS
    return _pushed([], chain.from_iterable(
        _power_letters(gens[sym], exp)
        for sym, exp in word_letters(text_or_letters, PLANE_GENERATOR_NAMES)))


def stepwise_apply_plane(text_or_letters, point: Point,
                         gens: dict[str, PlaneWord] | None = None) -> Point:
    """Apply a word one generator at a time, letter by letter through
    ``skew.reference_apply``: the independent route to ``PlaneWord.apply``."""
    gens = gens or _PLANE_GENERATORS
    x, y = rational(point[0]), rational(point[1])
    for sym, exp in word_letters(text_or_letters, PLANE_GENERATOR_NAMES):
        g = gens[sym] if exp > 0 else gens[sym].invert()
        for _ in range(abs(exp)):
            for letter in g.letters:
                if letter.kind == "V":
                    x, y = reference_apply(letter.elem, x, y)
                else:
                    y, x = reference_apply(letter.elem, y, x)
    return x, y


EQUAL = "equal"
DISTINCT = "distinct"
UNKNOWN = "unknown"


class EqualityVerdict(Record):
    __slots__ = ("status", "witness")  # witness: the separating point when DISTINCT
    _defaults = (None,)


class WitnessSearchConfig(Record):
    """Seeded random points, then a deterministic grid, all tried before
    giving up; exact throughout.  ``equal_or_unknown`` says why in that order."""

    __slots__ = ("max_denominator", "coord_bound", "random_count", "random_max_denominator", "seed")
    _defaults = (24, 2, 64, 1000, DEFAULT_SEED)


def _grid_points(config: WitnessSearchConfig):
    """(i/q, j/q) with gcd(i, j, q) = 1 as reduced (xn, xd, yn, yd) tuples."""
    bound = config.coord_bound
    for q in range(1, config.max_denominator + 1):
        row = [(i, i // gcd(i, q), q // gcd(i, q)) for i in range(-bound * q, bound * q + 1)]
        for i, xn, xd in row:
            for j, yn, yd in row:
                if gcd(i, j, q) == 1:
                    yield (xn, xd, yn, yd)


def _random_points(config: WitnessSearchConfig):
    import random  # only a search that gets this far loads it
    rng = random.Random(config.seed)
    qmax = config.random_max_denominator
    for _ in range(config.random_count):
        q = rng.randint(1, qmax)
        i, j = rng.randint(-2 * q, 2 * q), rng.randint(-2 * q, 2 * q)
        yield (i // gcd(i, q), q // gcd(i, q), j // gcd(j, q), q // gcd(j, q))


def _corner_points(l1: tuple, l2: tuple):
    """For two words' letters, at most one each, all of one kind: the points
    over the sorted corner xs of those letters (the empty word's one corner is
    at 0), on the x axis for V letters and on the y axis for H ones.  Distinct
    canonical skew elements differ at one of the union of their components'
    corners, so one of these points separates such words."""
    if len(l1) > 1 or len(l2) > 1:
        return
    letters = l1 + l2
    kinds = {l.kind for l in letters}
    if len(kinds) > 1:
        return
    xs = {0} if len(letters) < 2 else set()
    for l in letters:
        xs.update(l.elem.x_part.xs, l.elem.shift.xs)
    on_x = "H" not in kinds
    for x in sorted(xs):
        yield (x.numerator, x.denominator, 0, 1) if on_x else (0, 1, x.numerator, x.denominator)


def _common_length(u: tuple, v: tuple) -> int:
    return next((k for k, (a, b) in enumerate(zip(u, v)) if a != b), min(len(u), len(v)))


def equal_or_unknown(w1: PlaneWord, w2: PlaneWord,
                     config: WitnessSearchConfig | None = None) -> EqualityVerdict:
    """Decide equality structurally; otherwise hunt for a rational witness.

    ``equal`` only ever comes from identical simplified forms, never from
    sampling.  ``distinct`` always carries a point where the images differ.
    Equal words whose simplified forms differ end ``unknown``: a translation
    absorbed on different sides (``b d dh`` vs ``b dh d``), or a relator the
    stack walk cannot cancel.

    The search tries the exact ``_corner_points`` of one-letter words first,
    then ``config``'s seeded random points, then its grid: two distinct PL
    maps differ on an open set, so a generic point separates them at once,
    while grid points of small denominator may all lie where they agree.  It
    walks integer points through P and then only the middles of
    w1 = P M1 S and w2 = P M2 S (P, S the longest common prefix and suffix).
    S is a bijection, so S(M1(P(p))) and S(M2(P(p))) differ exactly when
    M1(P(p)) and M2(P(p)) do: the first separating point, the witness, stays.
    """
    if w1.letters == w2.letters:
        return EqualityVerdict(EQUAL)
    config = config or WitnessSearchConfig()
    l1, l2 = w1.letters, w2.letters
    n = _common_length(l1, l2)
    m = _common_length(l1[n:][::-1], l2[n:][::-1])
    prefix, mid1, mid2 = l1[:n], l1[n:len(l1) - m], l2[n:len(l2) - m]
    for point in chain(_corner_points(l1, l2), _random_points(config), _grid_points(config)):
        xn, xd, yn, yd = _walk(prefix, *point)
        if _walk(mid1, xn, xd, yn, yd) != _walk(mid2, xn, xd, yn, yd):
            xn, xd, yn, yd = point
            return EqualityVerdict(DISTINCT, (_fraction(xn, xd), _fraction(yn, yd)))
    return EqualityVerdict(UNKNOWN)


_OUTCOMES = {EQUAL: True, DISTINCT: False, UNKNOWN: None}


def decide_equal(w1: PlaneWord, w2: PlaneWord) -> bool | None:
    """``equal_or_unknown`` on the default search as an outcome: True when
    equal, False when distinct, None when undecided."""
    return _OUTCOMES[equal_or_unknown(w1, w2).status]


def verify_mirrored_relations(
    skew_gens: dict[str, SkewElement] | None = None,
) -> list[tuple[str, str, bool | None]]:
    """The swapped copies of the defining identities as ordered (id,
    description, outcome) rows, checked inside the horizontal-skew copy by
    plane-word algebra, never inferred from the vertical rows by symmetry.
    ``decide_equal`` decides M1-M6, so an undecided one is None, not False;
    M7ch, M7dh and M8 compare one-letter words, which is exact.
    """
    gens = _plane_generators(skew_gens) if skew_gens else _PLANE_GENERATORS
    a, b, ch, dh = gens["a"], gens["b"], gens["ch"], gens["dh"]
    b3 = b.power(3)
    eps_mirror = plane_word(epsilon_letters("b", "ch", "dh"), gens)
    return [
        ("M1", "b a == a b", decide_equal(b.concat(a), a.concat(b))),
        ("M2", "a ch == ch a", decide_equal(a.concat(ch), ch.concat(a))),
        ("M3", "a dh == dh a", decide_equal(a.concat(dh), dh.concat(a))),
        ("M4", "ch^(b^3) == ch^-1", decide_equal(b3.invert().concat(ch).concat(b3), ch.invert())),
        ("M5", "dh^(b^3) == dh^-1", decide_equal(b3.invert().concat(dh).concat(b3), dh.invert())),
        ("M6", "ch^dh ch^(dh b) ... ch^(dh b^5) == a^-36", decide_equal(eps_mirror, a.power(-36))),
        ("M7ch", "ch is non-identity", not ch.is_identity_word),
        ("M7dh", "dh is non-identity", not dh.is_identity_word),
        ("M8", "b is neither a nor a^-1", b != a and b != a.invert()),
    ]
