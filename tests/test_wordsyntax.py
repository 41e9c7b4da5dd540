import pytest

from ordercert import wordsyntax
from ordercert.wordsyntax import CLIP_CHARS, WordSyntaxError, clip, format_word, parse_word

ABCD = ("a", "b", "c", "d")
FULL = ("a", "b", "c", "d", "ch", "dh")


def test_plain_letters_and_powers():
    assert parse_word("a b a^-1 b^-1", ABCD) == [("a", 1), ("b", 1), ("a", -1), ("b", -1)]
    assert parse_word("a^3", ABCD) == [("a", 3)]
    assert parse_word("", ABCD) == []
    assert parse_word("a a", ABCD) == [("a", 2)]
    assert parse_word("a a^-1", ABCD) == []


def test_conjugation_suffix():
    assert parse_word("c^d", ABCD) == [("d", -1), ("c", 1), ("d", 1)]
    assert parse_word("c^da2", ABCD) == [
        ("a", -2), ("d", -1), ("c", 1), ("d", 1), ("a", 2)
    ]
    assert parse_word("c^da-1", ABCD) == [
        ("a", 1), ("d", -1), ("c", 1), ("d", 1), ("a", -1)
    ]


def test_two_character_letters_win():
    assert parse_word("ch", FULL) == [("ch", 1)]
    assert parse_word("ch^dhb2", FULL) == [
        ("b", -2), ("dh", -1), ("ch", 1), ("dh", 1), ("b", 2)
    ]


def test_greek_aliases():
    assert parse_word("α β^-1", ABCD) == [("a", 1), ("b", -1)]
    assert parse_word("γη", FULL) == [("ch", 1)]


def test_alphabet_is_sorted_once_per_word(monkeypatch):
    calls = []

    def counting_sorted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(wordsyntax, "sorted", counting_sorted, raising=False)
    # Greek aliases inside a conjugator, and the longest match: γη before γ
    assert parse_word("γ^δα2", ABCD) == [("a", -2), ("d", -1), ("c", 1), ("d", 1), ("a", 2)]
    assert parse_word("γη γ^γηδ", FULL) == [("ch", 1), ("d", -1), ("ch", -1), ("c", 1), ("ch", 1), ("d", 1)]
    assert len(calls) == 2


def test_errors():
    with pytest.raises(WordSyntaxError):
        parse_word("x", ABCD)
    with pytest.raises(WordSyntaxError):
        parse_word("a^", ABCD)
    with pytest.raises(WordSyntaxError):
        parse_word("a^x2y", ABCD)
    with pytest.raises(WordSyntaxError):
        parse_word("ch", ABCD)  # not in this alphabet
    with pytest.raises(WordSyntaxError):
        parse_word("a!", ABCD)


# str.isdigit() passes '²' and '٣', int() refuses '²' and '--3' but reads
# '٣' as 3: an exponent is ASCII [+-]?[0-9]+, anything else a syntax error
@pytest.mark.parametrize("text", ["d^²", "d^٣", "d^--3", "d^+-1", "d^-", "d^3x",
                                  "c^d²", "c^d٣", "c^d+-1", "c^d-"])
def test_exponents_are_ascii_integers(text):
    with pytest.raises(WordSyntaxError, match="token 'd\\^|expected integer"):
        parse_word(text, ABCD)


def test_signed_exponents():
    assert parse_word("d^+2 c^-1 a^007", ABCD) == [("d", 2), ("c", -1), ("a", 7)]
    assert parse_word("c^d+2", ABCD) == [("d", -2), ("c", 1), ("d", 2)]


def test_format_round_trip():
    text = "a^2 d^-1 c d ch^3"
    assert format_word(parse_word(text, FULL)) == text


def test_clip_keeps_short_text_and_cuts_long_text_to_a_prefix():
    assert clip("") == ""
    assert clip("x" * CLIP_CHARS) == "x" * CLIP_CHARS
    assert clip("x" * (CLIP_CHARS + 1)) == "x" * CLIP_CHARS + "..."


# these messages used to quote the whole rest of the word
@pytest.mark.parametrize("text", ["a " + "?" * 100000, "a^" + "2" * 50000 + "x" * 50000,
                                  "a" + "!" * 100000, "c^d" + "?" * 100000,
                                  "c^d+" + "x" * 100000])
def test_errors_quote_a_short_prefix_of_the_word(text):
    with pytest.raises(WordSyntaxError) as info:
        parse_word(text, ABCD)
    assert len(str(info.value)) < 2 * CLIP_CHARS
