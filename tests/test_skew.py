import pickle
import random
from fractions import Fraction as F

import pytest

from ordercert import exactpl
from ordercert.exactpl import PLMap
from ordercert.skew import (
    SkewElement,
    compute_epsilon,
    epsilon_offsets,
    perturb_generators,
    standard_generators,
    stepwise_apply,
    verify_relations,
    word_to_element,
)

from util import random_point, random_skew_word

GENS = standard_generators()
A, B, C, D = GENS["a"], GENS["b"], GENS["c"], GENS["d"]


# -- generators and the point action ------------------------------------------

def test_generator_actions():
    assert C.apply((0, 0)) == (0, 3)
    assert B.apply((F(3, 7), F(-1, 5))) == (F(3, 7), F(-1, 5) + F(1, 6))
    assert D.apply((F(1, 3), 5)) == (F(1, 6), 5)
    assert A.apply((0, 0)) == (F(1, 6), 0)
    assert word_to_element("γ") == C
    with pytest.raises(ValueError):
        word_to_element("x")


def test_identity_and_equality():
    assert SkewElement.identity().apply((F(5, 7), F(2, 9))) == (F(5, 7), F(2, 9))
    assert A.compose(A.invert()) == SkewElement.identity()
    assert A != B


# -- group operations ----------------------------------------------------------

def test_flip_conjugations():
    a3 = A.power(3)
    assert C.conjugate(a3) == C.invert()
    assert D.conjugate(a3) == D.invert()


def test_power_translation():
    moved = B.power(-36).apply((F(2, 3), F(1, 7)))
    assert moved == (F(2, 3), F(1, 7) - 6)
    assert A.power(0) == SkewElement.identity()
    assert A.power(6).apply((0, 0)) == (1, 0)


def test_conjugate_of_c_by_d_on_vertical_lines():
    cd = C.conjugate(D)
    y = F(9, 4)
    assert cd.apply((0, y)) == (0, y + 3)
    assert cd.apply((F(1, 6), y)) == (F(1, 6), y - 1)
    assert cd.apply((F(1, 2), y)) == (F(1, 2), y - 3)
    assert cd.apply((F(5, 6), y)) == (F(5, 6), y - 1)


def test_conjugate_by_da_powers():
    y = F(0)
    expected = [3, -1, -2, -3, -2, -1]
    for k in range(6):
        g = C.conjugate(D.compose(A.power(k)))
        assert g.apply((0, y)) == (0, y + expected[k])


@pytest.mark.parametrize("n", [1, 2, 64])
def test_conjugate_by_a_pure_shift(n):
    h = D.power(n)
    conjugate = C.conjugate(h)
    assert conjugate.x_part.is_identity
    # the same conjugate through an equal inverse that is not h's memo, so
    # the x-parts cancel in the merge walk
    h_inv = h.invert()
    unmemoized = SkewElement(PLMap._make(h_inv.x_part.corners), h_inv.shift)
    assert unmemoized.compose(C).compose(h) == conjugate
    rng = random.Random(35)
    for _ in range(3):
        p = random_point(rng)
        assert conjugate.apply(p) == stepwise_apply(f"d^-{n} c d^{n}", p, GENS)


def test_conjugating_a_pure_shift_walks_once(monkeypatch):
    # c^(d^64) walks c's 2 corners against the 128 of d^-64; d^-64 then d^64
    # cancel through the inverse memoized on d^64's x-part, with no walk
    h = D.power(64)
    walks = []
    through = exactpl._through

    def counting(outer, phi):
        walks.append((len(outer.corners), len(phi.corners)))
        return through(outer, phi)

    monkeypatch.setattr(exactpl, "_through", counting)
    C.conjugate(h)
    assert walks == [(2, 128)]
    # the other order: d^64's x-part composed with the inverse memoized on it
    assert h.compose(h.invert()) == SkewElement.identity()
    assert walks == [(2, 128)]


def test_words():
    assert word_to_element("a b a^-1 b^-1") == SkewElement.identity()
    assert word_to_element("") == SkewElement.identity()
    assert word_to_element("d^-1 c d").apply((F(5, 6), 0)) == (F(5, 6), -1)
    assert word_to_element("c^d") == C.conjugate(D)


def test_commutation():
    assert B.commutes(C)
    assert C.commutes(C)
    assert not A.commutes(C)
    # the witnessing point: the two orders move (0, 0) differently
    assert A.compose(C).apply((0, 0)) == (F(1, 6), 1)
    assert C.compose(A).apply((0, 0)) == (F(1, 6), 3)


def test_breakpoints():
    assert C.conjugate(D).breakpoint_xs() == {0, F(1, 6), F(1, 2), F(5, 6)}
    assert SkewElement.identity().breakpoint_xs() == frozenset()
    assert D.breakpoint_xs() == {F(1, 3), F(2, 3)}


# -- the epsilon computation ----------------------------------------------------

def test_epsilon_equals_big_negative_power():
    eps = compute_epsilon()
    assert eps == B.power(-36)
    y = F(13, 11)
    assert eps.apply((0, y)) == (0, y - 6)
    assert eps.commutes(A)


def test_epsilon_offsets():
    offsets = epsilon_offsets()
    assert offsets == [3, -1, -2, -3, -2, -1]
    assert sum(offsets) == -6


def test_sixfold_conjugation_closes_up():
    assert C.conjugate(D.compose(A.power(6))) == C.conjugate(D)


def test_breakpoints_stay_on_sixth_lattice():
    rng = random.Random(31)
    conjugates = [C.conjugate(D.compose(A.power(k))) for k in range(6)]
    for _ in range(50):
        g = SkewElement.identity()
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:
                g = g.compose(rng.choice(conjugates))
            else:
                g = g.compose(A.power(rng.randint(-3, 3)))
        for x in g.breakpoint_xs():
            assert (6 * x).denominator == 1


# -- relation report -------------------------------------------------------------

def test_relations_all_hold():
    rows = verify_relations()
    assert all(holds is True for _, _, holds in rows)
    assert [fid for fid, _, _ in rows][:6] == ["F1", "F2", "F3", "F4", "F5", "F6"]


def test_perturbed_generator_breaks_the_right_facts():
    outcomes = {fid: holds for fid, _, holds in verify_relations(perturb_generators("d:=d b"))}
    assert outcomes["F3"] is True
    assert outcomes["F5"] is False
    assert not all(outcomes.values())


def test_distinctness_witness():
    assert A.apply((0, 0)) == (F(1, 6), 0)
    assert B.apply((0, 0)) == (0, F(1, 6))
    assert B.invert().apply((0, 0)) == (0, F(-1, 6))


# -- randomized properties --------------------------------------------------------

def test_composed_vs_stepwise_evaluation():
    rng = random.Random(32)
    for _ in range(60):
        word = random_skew_word(rng, max_len=12)
        elem = word_to_element(word, GENS)
        for _ in range(10):
            p = random_point(rng)
            assert elem.apply(p) == stepwise_apply(word, p, GENS)


def test_vertical_lines_go_to_vertical_lines():
    rng = random.Random(33)
    for _ in range(40):
        g = word_to_element(random_skew_word(rng, max_len=8), GENS)
        x = random_point(rng)[0]
        y1, y2 = random_point(rng)
        img1 = g.apply((x, y1))
        img2 = g.apply((x, y2))
        assert img1[0] == img2[0]
        assert img1[1] - y1 == img2[1] - y2  # translation on the fibre


def test_power_addition():
    rng = random.Random(34)
    for _ in range(40):
        g = word_to_element(random_skew_word(rng, max_len=6), GENS)
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        assert g.power(m + n) == g.power(m).compose(g.power(n))
        assert g.compose(g.invert()) == SkewElement.identity()


def test_shared_generators_hand_out_fresh_tables():
    table = standard_generators()
    table["d"] = B
    assert standard_generators()["d"] == D
    assert word_to_element("d") is standard_generators()["d"]


def test_identity_operand_returns_the_other():
    assert SkewElement.identity().compose(D) is D
    assert D.compose(SkewElement.identity()) is D
    assert D.power(1) is D


def test_pickle_round_trip():
    rng = random.Random(212)
    points = [random_point(rng) for _ in range(20)]
    for element in (A, D, word_to_element("c^d a^-2 d"), SkewElement.identity()):
        copy = pickle.loads(pickle.dumps(element))
        assert copy == element
        assert [copy.apply(p) for p in points] == [element.apply(p) for p in points]
