import pickle
import random
from fractions import Fraction as F

import pytest

from ordercert.exactpl import PLCocycle, PLMap
from ordercert.plane import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    Letter,
    PlaneWord,
    WitnessSearchConfig,
    equal_or_unknown,
    h_generator,
    plane_word,
    stepwise_apply_plane,
    verify_mirrored_relations,
)
from ordercert.skew import SkewElement, perturb_generators, standard_generators

from util import random_point

GENS = {name: h_generator(name) for name in ("a", "b", "c", "d", "ch", "dh")}


def random_plane_word(rng, max_len=8):
    length = rng.randint(0, max_len)
    word = PlaneWord.identity()
    letters = []
    for _ in range(length):
        sym = rng.choice(("a", "b", "c", "d", "ch", "dh"))
        exp = rng.choice((1, -1))
        word = word.concat(GENS[sym].power(exp))
        letters.append((sym, exp))
    return word, letters


# -- generators ---------------------------------------------------------------

def test_six_generators():
    assert h_generator("ch").apply((0, 0)) == (3, 0)
    assert h_generator("a").apply((0, 0)) == (F(1, 6), 0)
    assert h_generator("dh").apply((5, F(1, 3))) == (5, F(1, 6))
    assert h_generator("γη") == h_generator("ch")
    with pytest.raises(ValueError):
        h_generator("q")


def test_translations_canonicalize_to_vertical_kind():
    b = h_generator("b")
    assert len(b) == 1 and b.letters[0].kind == "V"
    # a horizontal-letter translation collapses onto the same canonical form
    as_h = PlaneWord((Letter("H", standard_generators()["b"]),))
    assert as_h == h_generator("a")


# -- the coordinate-swap conjugation -------------------------------------------

def test_swap_exchanges_the_two_translations():
    assert h_generator("a").eta_conjugate() == h_generator("b")
    assert h_generator("b").eta_conjugate() == h_generator("a")
    assert h_generator("ch").eta_conjugate() == h_generator("c")


def test_swap_is_involution_and_homomorphism():
    rng = random.Random(51)
    for _ in range(60):
        w, _ = random_plane_word(rng)
        v, _ = random_plane_word(rng)
        assert w.eta_conjugate().eta_conjugate() == w
        assert w.concat(v).eta_conjugate() == w.eta_conjugate().concat(v.eta_conjugate())


def test_horizontal_letter_is_swapped_vertical_action():
    rng = random.Random(52)
    for sym in ("c", "d"):
        g = standard_generators()[sym]
        letter = Letter("H", g)
        for _ in range(25):
            x, y = random_point(rng)
            fx, fy = g.apply((y, x))
            assert letter.apply((x, y)) == (fy, fx)


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
            assert not letter.is_identity
            # inner translations may only survive as single canonical V letters
            if letter.is_translation:
                assert len(word) == 1 and letter.kind == "V"


# -- equality decisions -----------------------------------------------------------

def test_equal_verdicts_are_structural():
    v = equal_or_unknown(plane_word("a b a^-1"), plane_word("b"))
    assert v.status == EQUAL and v.witness is None
    assert equal_or_unknown(PlaneWord.identity(), PlaneWord.identity()).status == EQUAL
    # commuting vertical pairs resolve by merging
    assert equal_or_unknown(plane_word("b c"), plane_word("c b")).status == EQUAL


def test_distinct_carries_checkable_witness():
    w1, w2 = plane_word("c"), plane_word("ch")
    v = equal_or_unknown(w1, w2)
    assert v.status == DISTINCT
    assert w1.apply(v.witness) != w2.apply(v.witness)
    # same-kind single letters are separated without any search
    v2 = equal_or_unknown(plane_word("c"), plane_word("c^-1"))
    assert v2.status == DISTINCT
    assert plane_word("c").apply(v2.witness) != plane_word("c^-1").apply(v2.witness)


def test_mixed_letters_distinct():
    w1 = plane_word("c ch")
    w2 = plane_word("ch c")
    v = equal_or_unknown(w1, w2)
    assert v.status == DISTINCT
    assert w1.apply(v.witness) != w2.apply(v.witness)


def test_single_letters_never_need_search():
    # a bump supported strictly inside (0, 1/6) is still separated exactly,
    # with no dependence on the search grid
    bump = SkewElement(
        PLMap.from_points([(0, 0), (F(1, 24), F(1, 12)), (F(1, 6), F(1, 6))]),
        PLCocycle.zero(),
    )
    word = PlaneWord((Letter("V", bump),))
    config = WitnessSearchConfig(max_denominator=1, random_count=0, random_max_denominator=1, seed=1)
    v = equal_or_unknown(word, PlaneWord.identity(), config)
    assert v.status == DISTINCT
    assert word.apply(v.witness) != v.witness


def test_unknown_when_search_is_exhausted():
    # mixed words whose difference hides strictly inside (0, 1/6): a coarse
    # grid cannot separate them, and the verdict stays honest
    bump = SkewElement(
        PLMap.from_points([(0, 0), (F(1, 24), F(1, 12)), (F(1, 6), F(1, 6))]),
        PLCocycle.zero(),
    )
    w1 = PlaneWord((Letter("V", bump), Letter("H", standard_generators()["c"])))
    w2 = plane_word("ch")
    config = WitnessSearchConfig(max_denominator=3, random_count=8, random_max_denominator=3, seed=1)
    v = equal_or_unknown(w1, w2, config)
    assert v.status == UNKNOWN and v.witness is None
    # the default configuration does separate them
    v2 = equal_or_unknown(w1, w2)
    assert v2.status == DISTINCT
    assert w1.apply(v2.witness) != w2.apply(v2.witness)


# -- the mirrored relation report ---------------------------------------------------

def test_mirrored_relations_all_hold():
    report = verify_mirrored_relations()
    assert report.all_hold
    ids = [f.id for f in report]
    assert ids == ["M1", "M2", "M3", "M4", "M5", "M6", "M7ch", "M7dh", "M8"]


def test_mirrored_flip_pointwise():
    lhs = plane_word("b^-3 ch b^3")
    rhs = plane_word("ch^-1")
    assert lhs.apply((0, 0)) == rhs.apply((0, 0)) == (-3, 0)
    assert lhs == rhs


def test_mirrored_relations_see_perturbations():
    report = verify_mirrored_relations(perturb_generators("d:=d b"))
    assert not report["M5"].holds
    assert report["M2"].holds


def test_search_seed_env_override(monkeypatch):
    from ordercert.plane import DEFAULT_SEED, search_seed

    monkeypatch.delenv("ORDERCERT_SEED", raising=False)
    assert search_seed() == DEFAULT_SEED
    monkeypatch.setenv("ORDERCERT_SEED", "12345")
    assert search_seed() == 12345


def test_pickle_round_trip():
    rng = random.Random(311)
    points = [random_point(rng) for _ in range(20)]
    for text in ("a c^-1 ch^2 dh", "b^-3 ch b^3", "d dh", "a b"):
        word = plane_word(text)
        copy = pickle.loads(pickle.dumps(word))
        assert copy == word
        assert [copy.apply(p) for p in points] == [word.apply(p) for p in points]
