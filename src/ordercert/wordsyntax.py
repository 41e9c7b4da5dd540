"""Parser for the little word language used on the command line and in tests.

A word is whitespace-separated tokens.  Each token is a letter, optionally
followed by ``^`` and either a (signed) integer exponent or a conjugator --
a run of letters with optional integer exponents, written without spaces.
``x^w`` expands to ``w^-1 x w``.  Examples over the letters a, b, c, d, ch, dh::

    a^3          -> a a a
    c^d          -> d^-1 c d
    c^da2        -> a^-2 d^-1 c d a^2

Greek aliases are accepted on input (alpha/beta/gamma/delta and the
eta-conjugated pair); ASCII names are always used on output.
"""

from __future__ import annotations

GREEK_ALIASES = {
    "α": "a",  # alpha
    "β": "b",  # beta
    "γ": "c",  # gamma
    "δ": "d",  # delta
    "γη": "ch",  # gamma^eta
    "δη": "dh",  # delta^eta
}


class WordSyntaxError(ValueError):
    """Raised for malformed word or point strings."""


CLIP_CHARS = 64


def clip(text: str) -> str:
    """``text`` as a message quotes it: whole up to CLIP_CHARS characters,
    else its first CLIP_CHARS and '...', so untrusted input cannot make a
    message as long as itself."""
    return text if len(text) <= CLIP_CHARS else text[:CLIP_CHARS] + "..."


def reduce_letters(letters) -> list[tuple[str, int]]:
    """Freely reduce (letter, exponent) pairs: merge equal neighbours, drop zeros."""
    out: list[list] = []
    for sym, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == sym:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([sym, int(exp)])
    return [(sym, exp) for sym, exp in out]


def _take_letter(text, pos, spellings):
    for spelling, name in spellings:
        if text.startswith(spelling, pos):
            return name, pos + len(spelling)
    raise WordSyntaxError(f"unknown letter at {clip(text[pos:])!r}")


def _int_end(text, pos):
    """Where the integer [+-]?[0-9]+ starting at ``pos`` ends, or ``pos`` if
    none starts there.  Only ASCII digits count: str.isdigit() and int() also
    take digits such as '²' or '٣'."""
    end = digits = pos + (text[pos:pos + 1] in ("+", "-"))
    while end < len(text) and text[end] in "0123456789":
        end += 1
    return end if end > digits else pos


def _parse_conjugator(text, spellings):
    pos = 0
    letters = []
    while pos < len(text):
        sym, pos = _take_letter(text, pos, spellings)
        exp = 1
        if pos < len(text) and (text[pos].isdigit() or text[pos] in "+-"):
            end = _int_end(text, pos)
            if end == pos:
                raise WordSyntaxError(f"expected integer at {clip(text[pos:])!r}")
            exp, pos = int(text[pos:end]), end
        letters.append((sym, exp))
    if not letters:
        raise WordSyntaxError("empty conjugator")
    return letters


def parse_word(text: str, alphabet) -> list[tuple[str, int]]:
    """Parse a word string into a reduced list of (letter, exponent) pairs."""
    # each letter's spellings, its name and its Greek aliases, sorted once:
    # longest first so "ch"/"dh" win over "c"/"d"
    names = {name: name for name in alphabet}
    names.update({greek: name for greek, name in GREEK_ALIASES.items() if name in names})
    spellings = [(spelling, names[spelling]) for spelling in sorted(names, key=len, reverse=True)]
    letters: list[tuple[str, int]] = []
    for token in text.split():
        sym, pos = _take_letter(token, 0, spellings)
        if pos == len(token):
            letters.append((sym, 1))
            continue
        if token[pos] != "^":
            raise WordSyntaxError(f"unexpected suffix in token {clip(token)!r}")
        suffix = token[pos + 1:]
        if not suffix:
            raise WordSyntaxError(f"dangling '^' in token {clip(token)!r}")
        if suffix[0] in "+-" or suffix[0].isdigit():
            if _int_end(suffix, 0) != len(suffix):
                raise WordSyntaxError(f"exponent is not an integer in token {clip(token)!r}")
            letters.append((sym, int(suffix)))
        else:
            conj = _parse_conjugator(suffix, spellings)
            letters.extend((s, -e) for s, e in reversed(conj))
            letters.append((sym, 1))
            letters.extend(conj)
    return reduce_letters(letters)


def word_letters(word, alphabet):
    """``word`` as (letter, exponent) pairs: a word string is parsed over
    ``alphabet``; anything else is taken to be such pairs already."""
    return parse_word(word, alphabet) if isinstance(word, str) else word


def epsilon_letters(a: str, c: str, d: str) -> list[tuple[str, int]]:
    """The reduced product c^d c^(d a) ... c^(d a^5).

    The epsilon word for (a, c, d); its image under the swap for (b, ch, dh).
    """
    letters = []
    for k in range(6):
        letters += [(a, -k), (d, -1), (c, 1), (d, 1), (a, k)]
    return reduce_letters(letters)


def format_word(letters) -> str:
    return " ".join(sym if exp == 1 else f"{sym}^{exp}" for sym, exp in letters)
