"""Seeded input generation for the benchmark workloads.

Everything here is plain Python over ``random.Random(seed)``; nothing imports
``ordercert``, so the same seed gives the same inputs whatever the library
under test does, and the program only ever sees the generated text words,
points and pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction

SKEW_LETTERS = ("a", "b", "c", "d")
PLANE_LETTERS = ("a", "b", "c", "d", "ch", "dh")

# Relators inserted into "equal" pairs, each with the alphabet of the words
# it goes into: F4 (c^(a^3) c == 1) and its inverse into words over the
# vertical generators, the mirror M4 (ch^(b^3) ch == 1) and its inverse into
# words over the horizontal ones and the translations.  Inserted into mixed
# words, about 4 % of them are not simplified away (see the README), and a
# class that is sometimes decided and sometimes searched to exhaustion has no
# steady median or tail.
RELATORS = (
    (("a^-3 c a^3 c", "c^-1 a^-3 c^-1 a^3"), ("a", "b", "c", "d")),
    (("b^-3 ch b^3 ch", "ch^-1 b^-3 ch^-1 b^3"), ("a", "b", "ch", "dh")),
)

# Generator pairs that commute.  a moves x by a constant; ch moves x by an
# amount that depends on y only; b moves y by a constant; c moves y by an
# amount that depends on x only; d changes only x and dh only y.  So a
# commutes with b, ch and dh, b with c and d, and d with dh; no other pair of
# different generators commutes.
COMMUTING = frozenset(frozenset(p) for p in (
    ("a", "b"), ("a", "ch"), ("a", "dh"), ("b", "c"), ("b", "d"), ("d", "dh")))
NON_COMMUTING = tuple(
    (x, y) for i, x in enumerate(PLANE_LETTERS) for y in PLANE_LETTERS[i + 1:]
    if frozenset((x, y)) not in COMMUTING)

# Equality pair classes.  The truth of every class but "random" is known
# from its construction.
PAIR_CLASSES = ("equal", "random", "distinct_swap", "commuting_swap")
TRUTH = {"equal": "equal", "random": None, "distinct_swap": "distinct",
         "commuting_swap": "equal"}


def format_letters(letters) -> str:
    return " ".join(sym if exp == 1 else f"{sym}^{exp}" for sym, exp in letters)


def random_letters(rng: random.Random, length: int, alphabet) -> list[tuple[str, int]]:
    """A freely reduced word of exactly ``length`` letters with exponents +-1."""
    out: list[tuple[str, int]] = []
    while len(out) < length:
        sym = rng.choice(alphabet)
        exp = rng.choice((1, -1))
        if out and out[-1] == (sym, -exp):
            continue
        out.append((sym, exp))
    return out


def random_point(rng: random.Random, max_den: int = 12, bound: int = 3):
    def coordinate():
        q = rng.randint(1, max_den)
        return Fraction(rng.randint(-bound * q, bound * q), q)

    return (coordinate(), coordinate())


def skew_word(rng: random.Random, length: int) -> str:
    """A skew word over a, b, c, d (algebra workload)."""
    return format_letters(random_letters(rng, length, SKEW_LETTERS))


def _reduced(letters) -> bool:
    return all(x[0] != y[0] or x[1] != -y[1] for x, y in zip(letters, letters[1:]))


def _with_adjacent(rng: random.Random, length: int, x: str, y: str) -> tuple[list, int]:
    """A reduced word of ``length`` letters with x^+-1 y^+-1 (in either
    order) at a random position i, i + 1."""
    while True:
        letters = random_letters(rng, length - 2, PLANE_LETTERS)
        i = rng.randint(0, len(letters))
        pair = [(x, rng.choice((1, -1))), (y, rng.choice((1, -1)))]
        rng.shuffle(pair)
        letters[i:i] = pair
        if _reduced(letters):
            return letters, i


def plane_pair(rng: random.Random, kind: str, length: int, index: int) -> tuple[str, str]:
    """The ``index``-th equality pair of the given class over a, b, c, d, ch,
    dh, built from a word of ``length`` letters.

    equal           w against w with ``x x^-1`` and an F4 or M4 relator
                    inserted; w uses only the letters of the relator's side
    random          w against an independent random word of the same length
    distinct_swap   w against w with two adjacent non-commuting letters
                    swapped; the pair of letters goes round NON_COMMUTING
    commuting_swap  w against w with an adjacent ``d``, ``dh`` pair swapped
    """
    if kind == "equal":
        relators, alphabet = rng.choice(RELATORS)
        letters = random_letters(rng, length, alphabet)
        sym, exp = rng.choice(PLANE_LETTERS), rng.choice((1, -1))
        tokens = [format_letters([x]) for x in letters]
        tokens.insert(rng.randint(0, len(tokens)), format_letters([(sym, exp), (sym, -exp)]))
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(relators))
        return format_letters(letters), " ".join(tokens)
    if kind == "random":
        return (format_letters(random_letters(rng, length, PLANE_LETTERS)),
                format_letters(random_letters(rng, length, PLANE_LETTERS)))
    if kind == "distinct_swap":
        letters, i = _with_adjacent(rng, length, *NON_COMMUTING[index % len(NON_COMMUTING)])
    elif kind == "commuting_swap":
        letters, i = _with_adjacent(rng, length, "d", "dh")
    else:
        raise ValueError(f"unknown pair class {kind!r}")
    other = list(letters)
    other[i], other[i + 1] = other[i + 1], other[i]
    return format_letters(letters), format_letters(other)
