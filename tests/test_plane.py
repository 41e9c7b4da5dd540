import pickle
import random
from fractions import Fraction as F
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordercert.exactpl import PLCocycle, PLMap
from ordercert.orderlogic.facts import AtomTable
from ordercert.plane import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    EqualityVerdict,
    Letter,
    PlaneWord,
    WitnessSearchConfig,
    _push,
    _pushed,
    equal_or_unknown,
    plane_word,
    stepwise_apply_plane,
    verify_mirrored_relations,
)
from ordercert.skew import (
    SkewElement,
    perturb_generators,
    reference_apply,
    standard_generators,
    stepwise_apply,
    word_to_element,
)

from util import random_point

GENS = {name: plane_word(name) for name in ("a", "b", "c", "d", "ch", "dh")}


def apply_letter(letter, point):
    """``PlaneWord.apply`` on ``letter`` as it stands: the word
    ``PlaneWord((letter,))`` would store an H translation as V."""
    return _pushed([letter], ()).apply(point)


def random_plane_word(rng, max_len=8):
    length = rng.randint(0, max_len)
    word = PlaneWord()
    letters = []
    for _ in range(length):
        sym = rng.choice(("a", "b", "c", "d", "ch", "dh"))
        exp = rng.choice((1, -1))
        word = word.concat(GENS[sym].power(exp))
        letters.append((sym, exp))
    return word, letters


# -- generators ---------------------------------------------------------------

def test_six_generators():
    assert plane_word("ch").apply((0, 0)) == (3, 0)
    assert plane_word("a").apply((0, 0)) == (F(1, 6), 0)
    assert plane_word("dh").apply((5, F(1, 3))) == (5, F(1, 6))
    assert plane_word("γη") == plane_word("ch")
    with pytest.raises(ValueError):
        plane_word("q")


def test_translations_canonicalize_to_vertical_kind():
    b = plane_word("b")
    assert len(b.letters) == 1 and b.letters[0].kind == "V"
    # a horizontal-letter translation collapses onto the same canonical form
    as_h = PlaneWord((Letter("H", standard_generators()["b"]),))
    assert as_h == plane_word("a")


def test_one_letter_power_matches_repeated_concatenation():
    for gen in GENS.values():
        for g in (gen, gen.invert()):
            for n in range(-7, 8):
                factor = g if n >= 0 else g.invert()
                linear = PlaneWord()
                for _ in range(abs(n)):
                    linear = linear.concat(factor)
                assert g.power(n) == linear
    assert plane_word("d^256").letters == (Letter("V", standard_generators()["d"].power(256)),)


# -- the coordinate-swap conjugation -------------------------------------------

def _swap(word: PlaneWord) -> PlaneWord:
    """Conjugation by the coordinate swap: V and H letters trade places."""
    return PlaneWord(Letter("H" if l.kind == "V" else "V", l.elem) for l in word.letters)


def test_swap_exchanges_the_two_translations():
    assert _swap(plane_word("a")) == plane_word("b")
    assert _swap(plane_word("b")) == plane_word("a")
    assert _swap(plane_word("ch")) == plane_word("c")


def test_swap_is_involution_and_homomorphism():
    rng = random.Random(51)
    for _ in range(60):
        w, _ = random_plane_word(rng)
        v, _ = random_plane_word(rng)
        assert _swap(_swap(w)) == w
        assert _swap(w.concat(v)) == _swap(w).concat(_swap(v))


def test_horizontal_letter_is_swapped_vertical_action():
    rng = random.Random(52)
    for sym in ("c", "d"):
        g = standard_generators()[sym]
        letter = Letter("H", g)
        for _ in range(25):
            x, y = random_point(rng)
            fx, fy = g.apply((y, x))
            assert apply_letter(letter, (x, y)) == (fy, fx)


# -- evaluation -----------------------------------------------------------------

def test_eval_examples():
    p = (F(3, 7), F(-2, 5))
    assert plane_word("ch ch^-1").apply(p) == p
    assert plane_word("a ch").apply((0, 0)) == (F(19, 6), 0)
    mirror_eps = plane_word("ch^dh ch^dhb ch^dhb2 ch^dhb3 ch^dhb4 ch^dhb5")
    x = F(22, 7)
    assert mirror_eps.apply((x, 0)) == (x - 6, 0)
    assert mirror_eps == plane_word("a^-36")


def test_letterwise_vs_merged_evaluation():
    rng = random.Random(53)
    for _ in range(60):
        word, letters = random_plane_word(rng)
        p = random_point(rng)
        assert word.apply(p) == stepwise_apply_plane(letters, p, GENS)


def test_simplified_form_invariants():
    rng = random.Random(54)
    for _ in range(60):
        word, _ = random_plane_word(rng)
        kinds = [l.kind for l in word.letters]
        for k1, k2 in zip(kinds, kinds[1:]):
            assert k1 != k2
        for letter in word.letters:
            assert not letter.elem.is_identity
            # inner translations may only survive as single canonical V letters
            if letter.elem.is_translation:
                assert len(word.letters) == 1 and letter.kind == "V"


# -- equality decisions -----------------------------------------------------------

def test_equal_verdicts_are_structural():
    v = equal_or_unknown(plane_word("a b a^-1"), plane_word("b"))
    assert v.status == EQUAL and v.witness is None
    assert equal_or_unknown(PlaneWord(), PlaneWord()).status == EQUAL
    # commuting vertical pairs resolve by merging
    assert equal_or_unknown(plane_word("b c"), plane_word("c b")).status == EQUAL
    # zero-shift letters (f(x), y) and (x, g(y)) commute, alone or inside words
    assert equal_or_unknown(plane_word("d dh"), plane_word("dh d")).status == EQUAL
    assert equal_or_unknown(plane_word("c d dh ch"), plane_word("c dh d ch")).status == EQUAL
    # a moves into the H copy to merge with ch and back again: a commutes with ch (M2)
    assert plane_word("a ch a^-1") == plane_word("ch")


def test_distinct_carries_checkable_witness():
    # c and ch have corners, but on different axes: the witness is the first
    # searched point that separates them
    w1, w2 = plane_word("c"), plane_word("ch")
    v = equal_or_unknown(w1, w2)
    assert v.status == DISTINCT
    assert w1.apply(v.witness) != w2.apply(v.witness)
    assert v.witness == next(p for p in reference_points(WitnessSearchConfig())
                             if fraction_walk(w1, p) != fraction_walk(w2, p))
    # same-kind single letters are separated at their corners, before any searched point
    v2 = equal_or_unknown(plane_word("c"), plane_word("c^-1"))
    assert v2.status == DISTINCT
    assert plane_word("c").apply(v2.witness) != plane_word("c^-1").apply(v2.witness)


def test_mixed_letters_distinct():
    # c and ch shift; a reordering that ignored the shift would call these equal
    for u, v in (("c ch", "ch c"), ("c dh", "dh c"), ("d ch", "ch d")):
        w1, w2 = plane_word(u), plane_word(v)
        verdict = equal_or_unknown(w1, w2)
        assert verdict.status == DISTINCT, (u, v)
        assert w1.apply(verdict.witness) != w2.apply(verdict.witness)


# moves x strictly inside (0, 1/6) mod 1 only
BUMP = SkewElement(
    PLMap.from_points([(0, 0), (F(1, 24), F(1, 12)), (F(1, 6), F(1, 6))]),
    PLCocycle.zero(),
)


def test_single_letters_never_need_search():
    # the bump is still separated exactly, with no dependence on the search grid
    word = PlaneWord((Letter("V", BUMP),))
    config = WitnessSearchConfig(max_denominator=1, random_count=0, random_max_denominator=1, seed=1)
    v = equal_or_unknown(word, PlaneWord(), config)
    assert v.status == DISTINCT
    assert word.apply(v.witness) != v.witness


def corner_witness(w1, w2):
    """The exact route for one-letter words of one kind, in Fractions: the
    first corner x, in order, of either element where ``SkewElement.apply``
    tells them apart, on the axis of their kind; None for other words, or
    when no corner separates them."""
    kinds = {l.kind for l in w1.letters + w2.letters}
    if len(w1.letters) > 1 or len(w2.letters) > 1 or len(kinds) != 1:
        return None
    e1, e2 = (w.letters[0].elem if w.letters else SkewElement.identity() for w in (w1, w2))
    xs = sorted({*e1.x_part.xs, *e2.x_part.xs, *e1.shift.xs, *e2.shift.xs})
    x = next((x for x in xs if e1.apply((x, F(0))) != e2.apply((x, F(0)))), None)
    if x is None:
        return None
    return (x, F(0)) if kinds == {"V"} else (F(0), x)


# neither component has a corner at 0, and the map moves (0, 0): the empty
# word's corner at 0 is the first that separates it from the identity
OFF_ZERO = SkewElement(PLMap.from_points([(F(1, 3), F(1, 6)), (F(2, 3), F(5, 6))]),
                       PLCocycle.from_points([(F(1, 4), 1), (F(1, 2), -1)]))


@pytest.mark.parametrize("u, v", [
    (plane_word("c"), plane_word("c^-1")),
    (PlaneWord((Letter("V", BUMP),)), PlaneWord()),
    (PlaneWord((Letter("V", OFF_ZERO),)), PlaneWord()),
    (plane_word("ch"), plane_word("ch^-1")),
    (plane_word("dh"), PlaneWord()),
    (PlaneWord((Letter("H", OFF_ZERO),)), PlaneWord()),
], ids=["c", "bump", "off-zero", "ch", "dh", "off-zero-h"])
def test_one_letter_witness_is_the_first_differing_corner(u, v):
    for w1, w2 in ((u, v), (v, u)):
        assert equal_or_unknown(w1, w2) == EqualityVerdict(DISTINCT, corner_witness(w1, w2))


def test_unknown_when_search_is_exhausted():
    # mixed words whose difference hides strictly inside (0, 1/6): a coarse
    # grid cannot separate them, and the verdict stays honest
    w1 = PlaneWord((Letter("V", BUMP), Letter("H", standard_generators()["c"])))
    w2 = plane_word("ch")
    config = WitnessSearchConfig(max_denominator=3, random_count=8, random_max_denominator=3, seed=1)
    v = equal_or_unknown(w1, w2, config)
    assert v.status == UNKNOWN and v.witness is None
    # the default configuration does separate them
    v2 = equal_or_unknown(w1, w2)
    assert v2.status == DISTINCT
    assert w1.apply(v2.witness) != w2.apply(v2.witness)


def test_search_walks_the_shared_prefix():
    # both words start with an H letter that moves every integer point into
    # the bump's support; the bump alone fixes every integer point
    shear = SkewElement(PLMap.identity(), PLCocycle.from_points([(0, F(1, 12)), (F(1, 2), 0)]))
    w1 = PlaneWord((Letter("H", shear), Letter("V", BUMP)))
    w2 = PlaneWord((Letter("H", shear),))
    config = WitnessSearchConfig(max_denominator=1, coord_bound=1, random_count=0, seed=1)
    v = equal_or_unknown(w1, w2, config)
    assert v == EqualityVerdict(DISTINCT, (F(-1), F(-1)))
    assert w1.apply(v.witness) != w2.apply(v.witness)


# -- the mirrored relation report ---------------------------------------------------

def test_mirrored_relations_all_hold():
    rows = verify_mirrored_relations()
    assert all(holds is True for _, _, holds in rows)
    ids = [fid for fid, _, _ in rows]
    assert ids == ["M1", "M2", "M3", "M4", "M5", "M6", "M7ch", "M7dh", "M8"]


def test_mirrored_flip_pointwise():
    lhs = plane_word("b^-3 ch b^3")
    rhs = plane_word("ch^-1")
    assert lhs.apply((0, 0)) == rhs.apply((0, 0)) == (-3, 0)
    assert lhs == rhs


def test_mirrored_relations_see_perturbations():
    outcomes = {fid: holds for fid, _, holds in verify_mirrored_relations(perturb_generators("d:=d b"))}
    assert outcomes["M5"] is False
    assert outcomes["M2"] is True


def test_mirrored_identity_that_still_holds_is_undecided_not_false():
    # b' = b d = (d0(x), y + 1/6): the x-part cancels in b'^-3 dh b'^3, which
    # is still dh^-1, but the simplified forms differ
    skew_gens = perturb_generators("b:=b d")
    outcomes = {fid: holds for fid, _, holds in verify_mirrored_relations(skew_gens)}
    assert outcomes["M5"] is None
    gens = {"b": PlaneWord((Letter("V", skew_gens["b"]),)),
            "dh": PlaneWord((Letter("H", skew_gens["d"]),))}
    rng = random.Random(5)
    points = [(F(0), F(0)), (F(1, 3), F(-1, 2))] + [random_point(rng) for _ in range(10)]
    for p in points:
        assert stepwise_apply_plane("b^-3 dh b^3", p, gens) == stepwise_apply_plane("dh^-1", p, gens)


def test_pickle_round_trip():
    rng = random.Random(311)
    points = [random_point(rng) for _ in range(20)]
    for text in ("a c^-1 ch^2 dh", "b^-3 ch b^3", "d dh", "a b"):
        word = plane_word(text)
        copy = pickle.loads(pickle.dumps(word))
        assert copy == word
        assert [copy.apply(p) for p in points] == [word.apply(p) for p in points]


small_coordinates = st.builds(F, st.integers(-36, 36), st.integers(1, 12))
commuting_dense = st.lists(
    st.tuples(st.sampled_from(("d", "dh", "d", "dh", "a", "b")), st.sampled_from((1, -1))),
    max_size=12,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(commuting_dense, small_coordinates, small_coordinates)
def test_commuting_letters_keep_words_exact(letters, x, y):
    word = plane_word(letters)
    assert word.apply((x, y)) == stepwise_apply_plane(letters, (x, y))
    assert PlaneWord(word.letters).letters == word.letters
    copy = pickle.loads(pickle.dumps(word))
    assert copy.letters == word.letters and copy.apply((x, y)) == word.apply((x, y))


# -- integer evaluation and the witness search against the Fraction route ----------

def fraction_walk(word, point):
    """``word.apply`` letter by letter through the kernel's Fraction ``_at``."""
    x, y = F(point[0]), F(point[1])
    for letter in word.letters:
        e = letter.elem
        if letter.kind == "V":
            x, y = e.x_part._at(x), y + e.shift._at(x)
        else:
            x, y = x + e.shift._at(y), e.x_part._at(y)
    return x, y


far_coordinates = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 2**32), far_coordinates, far_coordinates)
def test_integer_evaluation_matches_fraction_walk(seed, x, y):
    word, _ = random_plane_word(random.Random(seed), max_len=10)
    assert word.apply((x, y)) == fraction_walk(word, (x, y))
    for letter in word.letters:
        assert apply_letter(letter, (x, y)) == fraction_walk(PlaneWord((letter,)), (x, y))
        fx, fy = fraction_walk(PlaneWord((Letter("V", letter.elem),)), (x, y))
        assert letter.elem.apply((x, y)) == (fx, fy)


def reference_points(config):
    """The search order, in Fractions: the seeded random points, then the
    grid (i/q, j/q) with gcd(i, j, q) = 1 for q = 1, 2, ..."""
    rng = random.Random(config.seed)
    for _ in range(config.random_count):
        q = rng.randint(1, config.random_max_denominator)
        yield F(rng.randint(-2 * q, 2 * q), q), F(rng.randint(-2 * q, 2 * q), q)
    bound = config.coord_bound
    for q in range(1, config.max_denominator + 1):
        for i in range(-bound * q, bound * q + 1):
            for j in range(-bound * q, bound * q + 1):
                if gcd(gcd(i, j), q) == 1:
                    yield F(i, q), F(j, q)


def reference_search(w1, w2, config):
    """``equal_or_unknown`` spelled out in Fractions: the exact corners of
    ``corner_witness``, then the search over ``fraction_walk``, whole words."""
    if w1.letters == w2.letters:
        return EqualityVerdict(EQUAL)
    witness = corner_witness(w1, w2)
    if witness is not None:
        return EqualityVerdict(DISTINCT, witness)
    for point in reference_points(config):
        if fraction_walk(w1, point) != fraction_walk(w2, point):
            return EqualityVerdict(DISTINCT, point)
    return EqualityVerdict(UNKNOWN)


PLANE_LETTERS = ("a", "b", "c", "d", "ch", "dh")
COMMUTING = {frozenset(p) for p in (("a", "b"), ("a", "ch"), ("a", "dh"),
                                    ("b", "c"), ("b", "d"), ("d", "dh"))}
RELATORS = (  # c^(a^3) c and its swap image, each with the letters of its side
    ([("a", -3), ("c", 1), ("a", 3), ("c", 1)], ("a", "b", "c", "d")),
    ([("b", -3), ("ch", 1), ("b", 3), ("ch", 1)], ("a", "b", "ch", "dh")),
)


def random_letters(rng, length, alphabet=PLANE_LETTERS):
    letters = []
    while len(letters) < length:
        sym = rng.choice(alphabet)
        if not letters or letters[-1][0] != sym:
            letters.append((sym, rng.choice((1, -1))))
    return letters


def search_pair(rng, kind, length):
    """Two letter lists whose words are equal, random, distinct by a swap of
    non-commuting neighbours, or equal by a swap of d and dh."""
    if kind == "equal":
        relator, alphabet = rng.choice(RELATORS)
        u = random_letters(rng, length, alphabet)
        v = list(u)
        x = rng.choice(alphabet)
        for inserted in ([(x, 1), (x, -1)], relator):
            i = rng.randint(0, len(v))
            v[i:i] = inserted
        return u, v
    if kind == "random":
        return random_letters(rng, length), random_letters(rng, length)
    if kind == "distinct_swap":
        while True:
            u = random_letters(rng, length)
            spots = [i for i in range(len(u) - 1)
                     if frozenset((u[i][0], u[i + 1][0])) not in COMMUTING]
            if spots:
                i = rng.choice(spots)
                return u, u[:i] + [u[i + 1], u[i]] + u[i + 2:]
    u = random_letters(rng, length)
    i = rng.randint(0, len(u))
    pair = [("d", rng.choice((1, -1))), ("dh", rng.choice((1, -1)))]
    return u[:i] + pair + u[i:], u[:i] + pair[::-1] + u[i:]


# Equal pairs whose simplified forms differ: a translation absorbed on
# different sides of a d/dh pair, and an F4 relator the stack walk keeps.
UNDECIDED_PAIRS = (("b d dh", "b dh d"), ("dh c", "dh a^-3 c a^3 c c"))


@pytest.mark.parametrize("seed", [5, 7, 11])
def test_search_matches_fraction_reference(seed):
    rng = random.Random(seed)
    config = WitnessSearchConfig(max_denominator=3, coord_bound=2, random_count=16, seed=seed)
    statuses = set()
    generated = (search_pair(rng, kind, length)
                 for kind in ("equal", "random", "distinct_swap", "commuting_swap")
                 for length in range(2, 9))
    for u, v in chain(generated, UNDECIDED_PAIRS):
        w1, w2 = plane_word(u), plane_word(v)
        verdict = equal_or_unknown(w1, w2, config)
        assert verdict == reference_search(w1, w2, config), (u, v)
        statuses.add(verdict.status)
    assert statuses == {EQUAL, DISTINCT, UNKNOWN}


def test_generic_points_come_before_the_grid():
    # these swaps agree on the grid's first small-denominator points; the
    # first seeded point already separates them
    first = next(reference_points(WitnessSearchConfig()))
    assert first == (F(236, 419), F(-58, 419))  # the default seed's first point
    for u, v in (("c ch", "ch c"), ("c dh", "dh c"), ("d ch", "ch d")):
        assert equal_or_unknown(plane_word(u), plane_word(v)) == EqualityVerdict(DISTINCT, first)
        assert equal_or_unknown(plane_word(v), plane_word(u)) == EqualityVerdict(DISTINCT, first)
        assert stepwise_apply_plane(u, first) != stepwise_apply_plane(v, first)


letter_lists = st.lists(
    st.tuples(st.sampled_from(PLANE_LETTERS), st.sampled_from((1, -1))), max_size=4)
STRIP_CONFIG = WitnessSearchConfig(max_denominator=2, coord_bound=2, random_count=8, seed=3)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(letter_lists, letter_lists, letter_lists, letter_lists,
       small_coordinates, small_coordinates)
@example([("c", 1), ("ch", 1)], [], [("c", 1), ("ch", 1)], [], F(1, 3), F(-1, 2))  # u a prefix of v
@example([], [], [("c", 1)], [("ch", 1), ("c", 1)], F(0), F(5, 4))  # u a suffix of v
@example([("c", 1)], [("ch", 1)], [("dh", 1), ("c", 1)], [("b", -1), ("ch", 1)], F(2), F(1, 7))
def test_search_over_differing_letters_matches_whole_words(prefix, x, y, suffix, px, py):
    # u = P X S and v = P Y S: the search walks only the middles, the
    # reference walks both whole words in Fractions
    u, v = prefix + x + suffix, prefix + y + suffix
    w1, w2 = plane_word(u), plane_word(v)
    verdict = equal_or_unknown(w1, w2, STRIP_CONFIG)
    assert verdict == reference_search(w1, w2, STRIP_CONFIG)
    if verdict.status == DISTINCT:
        assert stepwise_apply_plane(u, verdict.witness) != stepwise_apply_plane(v, verdict.witness)
    for letters, word in ((u, w1), (v, w2)):
        assert word.apply((px, py)) == stepwise_apply_plane(letters, (px, py))


# -- results built straight from reduced pairs -------------------------------------
#
# Every evaluation hands back its reduced integer pairs through
# ``exactpl._fraction``, which skips Fraction's checks and gcd.  A pair it was
# handed unreduced would make a value unequal to its own Fraction, so each
# result is checked against a freshly normalised one and against the
# Fraction-arithmetic references.

def test_results_are_built_without_fraction_normalisation(monkeypatch):
    e = word_to_element("c^d d^5")
    letter, word = Letter("H", e), plane_word("c^d dh^-2 a")
    swaps = plane_word("c ch"), plane_word("ch c")
    x, y = F(1, 7), F(-2, 3)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a result went through Fraction.__new__")

    monkeypatch.setattr(F, "__new__", refuse)
    results = (e.x_part(x), e.shift(x), e.apply((x, y)), apply_letter(letter, (x, y)),
               word.apply((x, y)), equal_or_unknown(*swaps))
    monkeypatch.undo()
    ry, rx = reference_apply(e, y, x)
    assert results[:5] == (e.x_part._at(x), e.shift._at(x), stepwise_apply("c^d d^5", (x, y)),
                           (rx, ry), stepwise_apply_plane("c^d dh^-2 a", (x, y)))
    verdict = results[5]
    assert verdict.status == DISTINCT
    image1, image2 = (stepwise_apply_plane(u, verdict.witness) for u in ("c ch", "ch c"))
    assert image1 != image2


SKEW_WORDS = ("c^d", "b^-36", "c^d d^5", "a^-7 c d^-3", "d^256")
PLANE_WORDS = ("c ch", "c^d dh^-2 a", "dh^-3 b c^-1", "dh^256 c")
ELEMENTS = {w: word_to_element(w) for w in SKEW_WORDS}
WIDE_X = max(ELEMENTS["d^256"].x_part.xs, key=lambda x: x.denominator)  # 258 bits
CORNERS = sorted({x for e in ELEMENTS.values() for x in (*e.x_part.xs, *e.shift.xs)})
coordinates = st.one_of(
    st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6)),  # far points
    st.builds(lambda x, n: x + n, st.sampled_from(CORNERS), st.integers(-10**6, 10**6)),
)


def assert_canonical_result(q, expected):
    assert q.denominator > 0 and gcd(q.numerator, q.denominator) == 1
    rebuilt = F(q.numerator, q.denominator)
    assert q == rebuilt and hash(q) == hash(rebuilt) and str(q) == str(rebuilt)
    assert q == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.sampled_from(SKEW_WORDS), st.sampled_from(PLANE_WORDS), coordinates, coordinates)
@example("c^d", "c ch", F(0), F(0))  # integer results: (0, 3) and (3, 3)
@example("b^-36", "dh^-3 b c^-1", F(2, 3), F(1, 7))  # a negative one: 2/3, -41/7
@example("d^256", "dh^256 c", WIDE_X, 5 - WIDE_X)
@example("c^d d^5", "c^d dh^-2 a", F(1, 7), F(-2, 3))
@example("c^d d^5", "c ch", WIDE_X, -WIDE_X)
def test_evaluation_results_are_canonical_fractions(skew, plane, x, y):
    assert WIDE_X.denominator.bit_length() == 258
    e = ELEMENTS[skew]
    ry, rx = reference_apply(e, y, x)
    w = plane_word(plane)
    for q, expected in ((e.x_part(x), e.x_part._at(x)), (e.shift(x), e.shift._at(x)),
                        *zip(e.apply((x, y)), stepwise_apply(skew, (x, y))),
                        *zip(apply_letter(Letter("H", e), (x, y)), (rx, ry)),
                        *zip(w.apply((x, y)), stepwise_apply_plane(plane, (x, y)))):
        assert_canonical_result(q, expected)


# -- word building ---------------------------------------------------------------

def _power_letters(sym, exp):
    return list(GENS[sym].power(exp).letters)


def _translation_letter(kind, u, v):
    return [Letter(kind, SkewElement(PLMap.translation(u), PLCocycle.constant(v)))]


def _zero_shift_pair(e1, e2, dh_first):
    pair = _power_letters("d", e1) + _power_letters("dh", e2)
    return pair[::-1] if dh_first else pair


# raw letter lists: generator powers, translations of either kind (an H one
# is re-expressed as V when pushed), and adjacent d/dh pairs that commute
pushed_letters = st.lists(
    st.one_of(
        st.builds(_power_letters, st.sampled_from(PLANE_LETTERS), st.sampled_from((-3, -2, -1, 1, 2, 3))),
        st.builds(_translation_letter, st.sampled_from("VH"), small_coordinates, small_coordinates),
        st.builds(_zero_shift_pair, st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.booleans()),
    ),
    max_size=6,
).map(lambda chunks: [letter for chunk in chunks for letter in chunk])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pushed_letters, pushed_letters, small_coordinates, small_coordinates)
def test_concat_pushes_only_the_new_letters(u, v, x, y):
    a, b = PlaneWord(u), PlaneWord(v)
    ab = a.concat(b)
    assert ab.letters == PlaneWord(a.letters + b.letters).letters
    assert ab.apply((x, y)) == b.apply(a.apply((x, y)))
    assert a.power(3).letters == PlaneWord(a.letters * 3).letters


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pushed_letters)
def test_pushing_a_simplified_word_again_changes_nothing(u):
    word = PlaneWord(u)
    assert PlaneWord(word.letters).letters == word.letters
    for k in range(len(word.letters) + 1):
        prefix = PlaneWord(word.letters[:k])
        assert prefix.letters == word.letters[:k]
        assert prefix.concat(PlaneWord(word.letters[k:])).letters == word.letters


# -- translations in either copy ---------------------------------------------------

# zero, small of either sign, and wide: numerator and denominator up to 10^30
translation_amounts = st.one_of(
    st.just(F(0)),
    small_coordinates,
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)
# words whose simplified form ends in an H letter that is not a translation
H_TOPPED = ("ch", "dh^-2", "c dh", "a d ch^3", "c^d dh^-1", "d dh b^2 ch")


def _translation(kind, u, v):
    return Letter(kind, SkewElement(PLMap.translation(u), PLCocycle.constant(v)))


def _reference_letter(letter, x, y):
    """``letter``'s action on (x, y) through ``skew.reference_apply``."""
    if letter.kind == "V":
        return reference_apply(letter.elem, x, y)
    y, x = reference_apply(letter.elem, y, x)
    return x, y


def _refuse_fraction(cls, *args, **kwargs):
    raise AssertionError("built through Fraction.__new__")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from("VH"), translation_amounts, translation_amounts,
       translation_amounts, translation_amounts)
@example("H", F(-7, 4), F(0), F(1, 3), F(-2))
@example("V", F(0), F(0), F(0), F(0))
def test_as_kind_swaps_a_translation_between_the_copies(kind, u, v, x, y):
    letter = _translation(kind, u, v)
    other_kind = "H" if kind == "V" else "V"
    # the two one-corner pairs swap as integers: no Fraction is built
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "__new__", _refuse_fraction)
        other = letter.as_kind(other_kind)
        back = other.as_kind(kind)
    assert other.kind == other_kind and other.elem.is_translation
    assert back == letter and letter.as_kind(kind) is letter
    image = (x + u, y + v) if kind == "V" else (x + v, y + u)
    assert apply_letter(letter, (x, y)) == apply_letter(other, (x, y)) == image
    assert _reference_letter(letter, x, y) == _reference_letter(other, x, y) == image


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(H_TOPPED), translation_amounts, translation_amounts, small_coordinates,
       small_coordinates)
def test_an_h_translation_merges_into_an_h_top_as_its_v_form_does(word, u, v, x, y):
    below = plane_word(word).letters
    assert below[-1].kind == "H" and not below[-1].elem.is_translation
    h = _translation("H", u, v)
    via_h, via_v = list(below), list(below)
    _push(via_h, h)
    _push(via_v, h.as_kind("V"))
    assert via_h == via_v
    assert PlaneWord(via_h).apply((x, y)) == apply_letter(h, plane_word(word).apply((x, y)))


def test_as_kind_refuses_a_letter_that_is_not_a_translation():
    for word in ("c", "dh", "a c"):
        (letter, *_) = plane_word(word).letters
        with pytest.raises(ValueError):
            letter.as_kind("H" if letter.kind == "V" else "V")


# -- one-stack building against the concat fold -----------------------------------

def _reference_power(word, n):
    """word^n as |n| concatenations of the word or of its inverse."""
    factor = word if n >= 0 else word.invert()
    result = PlaneWord()
    for _ in range(abs(n)):
        result = result.concat(factor)
    return result


def _reference_word(letters, gens):
    result = PlaneWord()
    for sym, exp in letters:
        result = result.concat(_reference_power(gens[sym], exp))
    return result


generator_powers = st.lists(
    st.tuples(st.sampled_from(PLANE_LETTERS), st.integers(-4, 4)), max_size=10)
# a table over the six names whose words have zero to three letters
custom_gens = st.lists(
    st.lists(st.tuples(st.sampled_from(PLANE_LETTERS), st.sampled_from((-2, -1, 1, 2))), max_size=3),
    min_size=6, max_size=6,
).map(lambda words: {sym: plane_word(w) for sym, w in zip(PLANE_LETTERS, words)})


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(generator_powers)
def test_plane_word_matches_the_concat_fold(letters):
    assert plane_word(letters).letters == _reference_word(letters, GENS).letters


ATOM_WORDS = {"x": "c ch", "y": "d ch^-1 c", "z": "d dh", "w": "a", "v": "dh^b d^-1 c"}
MULTI_LETTER_GENS = dict(zip(PLANE_LETTERS, map(plane_word, ("a", *ATOM_WORDS.values()))))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(custom_gens, generator_powers)
@example(MULTI_LETTER_GENS, [("b", 2), ("a", 1), ("c", -3), ("dh", -1), ("b", -1), ("ch", 4)])
# pushing three raw copies of d dh after (b d dh)^-1, instead of the word
# (d dh)^3, would leave other letters
@example(dict(GENS, c=plane_word("d dh"), ch=plane_word("b d dh")), [("ch", -1), ("c", 3)])
def test_plane_word_over_multi_letter_generators_matches_the_concat_fold(gens, letters):
    assert plane_word(letters, gens).letters == _reference_word(letters, gens).letters


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(custom_gens)
@example(MULTI_LETTER_GENS)
def test_multi_letter_power_matches_the_concat_fold(gens):
    for word in gens.values():
        for n in range(-3, 4):
            assert word.power(n).letters == _reference_power(word, n).letters


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(sorted(ATOM_WORDS)), st.integers(-3, 3)), max_size=8))
def test_realize_plane_matches_the_concat_fold(word):
    table = AtomTable(ATOM_WORDS, [])
    gens = {name: plane_word(text) for name, text in ATOM_WORDS.items()}
    assert table.realize_plane(tuple(word)).letters == _reference_word(word, gens).letters


def test_words_are_built_on_one_stack(monkeypatch):
    # plane_word builds no one-letter word per letter, and a generator's
    # first power is the generator, its minus first the memoized inverse
    expected = plane_word("a^-3 c a^3 c d dh")

    def refuse(*args, **kwargs):
        raise AssertionError("built through PlaneWord.__init__ or SkewElement.compose")

    monkeypatch.setattr(PlaneWord, "__init__", refuse)
    assert plane_word("a^-3 c a^3 c d dh").letters == expected.letters
    # F4 and its mirror M4 cancel to no letters
    assert not plane_word("a^-3 c a^3 c").letters and not plane_word("b^-3 ch b^3 ch").letters
    d = standard_generators()["d"]
    monkeypatch.setattr(SkewElement, "compose", refuse)
    assert d.power(1) is d
    assert d.power(-1) is d.invert()
