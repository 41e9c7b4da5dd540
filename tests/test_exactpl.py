import copy
import gc
import pickle
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordercert import exactpl
from ordercert.exactpl import (
    PLCocycle,
    PLError,
    PLMap,
    format_rational,
    rational,
)
from ordercert.skew import (
    SkewElement,
    base_cocycle,
    base_plmap,
    standard_generators,
    word_to_element,
)

from util import random_cocycle, random_plmap, random_rational, random_skew_word


def d0():
    return base_plmap()


def c0():
    return base_cocycle()


# -- construction and evaluation ---------------------------------------------

def test_defining_rule_values():
    assert d0()(F(1, 3)) == F(1, 6)
    assert d0()(F(2, 3)) == F(5, 6)
    assert c0()(0) == 3
    assert c0()(F(1, 2)) == -3


def test_interpolated_values():
    # midpoint of the extended segment (-1/3, -1/6) -- (1/3, 1/6)
    assert d0()(0) == 0
    # slope-2 segment between the two defining points
    assert d0()(F(1, 2)) == F(1, 2)
    assert c0()(F(1, 4)) == 0
    # segment (-1/2, -3) -- (0, 3) has slope 12
    assert c0()(F(-1, 3)) == -1


def test_identity_and_translation():
    ident = PLMap.from_points([(0, 0)])
    assert ident(F(7, 5)) == F(7, 5)
    assert ident.is_identity
    # a single breakpoint anywhere means a translation, pinned at x = 0
    assert PLMap.from_points([(F(1, 2), F(3, 4))]) == PLMap.from_points([(0, F(1, 4))])
    assert PLMap.from_points([(F(1, 2), F(3, 4))]).ys == (F(1, 4),)


def test_extension_rules():
    assert d0()(F(4, 3)) == F(7, 6)
    assert d0()(F(-2, 3)) == F(-5, 6)
    assert d0()(F(-1, 3)) == F(-1, 6)
    assert c0()(5) == 3
    assert c0()(F(-7, 2)) == -3


def test_points_normalized_mod_one():
    rebuilt = PLMap.from_points([(F(4, 3), F(7, 6)), (F(2, 3), F(5, 6))])
    assert rebuilt == d0()
    cocycle = PLCocycle.from_points([(F(3, 2), -3), (1, 3)])
    assert cocycle == c0()


def test_collinear_points_removed():
    redundant = PLMap.from_points([(F(1, 3), F(1, 6)), (F(1, 2), F(1, 2)), (F(2, 3), F(5, 6))])
    assert redundant == d0()
    assert redundant.breakpoints() == d0().breakpoints()
    const = PLCocycle.from_points([(0, 5), (F(1, 3), 5), (F(2, 3), 5)])
    assert const == PLCocycle.constant(5)


def test_bad_inputs_rejected():
    with pytest.raises(PLError):
        PLMap.from_points([])
    with pytest.raises(PLError):
        PLMap.from_points([(0, 0), (F(1, 2), F(-1, 4))])  # y not increasing
    with pytest.raises(PLError):
        PLMap.from_points([(0, 0), (F(1, 2), F(3, 2))])  # wrap segment would fall
    with pytest.raises(PLError):
        PLMap.from_points([(F(1, 3), 0), (F(4, 3), F(1, 2))])  # same x mod 1, clashing y
    with pytest.raises(PLError):
        PLCocycle.from_points([(0, 1), (1, 2)])  # duplicate x mod 1 with different values
    with pytest.raises(PLError):
        rational(0.5)
    with pytest.raises(PLError):
        PLMap.from_points([(0.5, 0.1)])  # floats
    # from_points is the one constructor from points: PLMap(pairs) would skip
    # its checks and build these silently
    for cls, pairs in ((PLMap, [(0, 0)]), (PLMap, [(0.5, 0.1)]),
                       (PLMap, [(0, 0), (F(1, 2), F(-1, 4))]), (PLCocycle, [(0, 1), (F(1, 2), 2)])):
        with pytest.raises(TypeError):
            cls(pairs)
    # consistent duplicates are fine
    assert PLMap.from_points([(F(1, 3), F(1, 6)), (F(4, 3), F(7, 6)), (F(2, 3), F(5, 6))]) == d0()



# Fraction(text) reads all of these as numbers: a literal is ASCII p or p/q
@pytest.mark.parametrize("text", ["٣", "1e5", "0.5", "1_000", "1/-2", "1/0", " 3", "3/", ""])
def test_rational_reads_only_ascii_literals(text):
    with pytest.raises(PLError, match="bad rational literal"):
        rational(text)


def test_rational_literals():
    assert rational("-3/4") == F(-3, 4)
    assert rational("+6/8") == F(3, 4) and rational("007") == 7
    with pytest.raises(PLError):
        PLMap.translation("2e3")

def test_compose_invert_values():
    assert d0().compose(d0())(F(1, 3)) == F(1, 12)
    assert d0().compose(d0().invert()) == PLMap.identity()
    t = PLMap.translation(F(1, 6))
    assert t.compose(t) == PLMap.translation(F(1, 3))
    inv = d0().invert()
    assert inv(F(1, 6)) == F(1, 3)
    assert inv(F(-1, 3)) == F(-5, 12)
    assert PLMap.identity().invert() == PLMap.identity()


def test_equality_is_canonical_not_syntactic():
    assert c0() != c0().negate()
    assert PLCocycle.from_points([(0, 3), (F(1, 4), 0), (F(1, 2), -3)]) == c0()
    assert d0() != PLMap.identity()


def test_cocycle_arithmetic():
    assert c0().add(c0().negate()) == PLCocycle.zero()
    assert c0().pullback(PLMap.identity()) == c0()
    # d0^-1 sends 1/6 to 1/3 where the tent has value -1
    assert c0().pullback(d0().invert())(F(1, 6)) == -1
    # shifting the tent by half a period flips its sign
    assert c0().pullback(PLMap.translation(F(1, 2))) == c0().negate()


def test_serialization_pairs():
    assert d0().to_pairs() == [["1/3", "1/6"], ["2/3", "5/6"]]
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-5, 12)) == "-5/12"


def test_breakpoint_xs():
    assert d0().breakpoint_xs() == {F(1, 3), F(2, 3)}
    assert PLMap.identity().breakpoint_xs() == frozenset()
    assert PLCocycle.constant(7).breakpoint_xs() == frozenset()


# -- randomized properties ----------------------------------------------------

N = 300


def test_compose_matches_pointwise_eval():
    rng = random.Random(101)
    for _ in range(N):
        f, g = random_plmap(rng), random_plmap(rng)
        x = random_rational(rng)
        assert f.compose(g)(x) == g(f(x))


def test_compose_associative():
    rng = random.Random(102)
    for _ in range(N):
        f, g, h = random_plmap(rng), random_plmap(rng), random_plmap(rng)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_inverses():
    rng = random.Random(103)
    for _ in range(N):
        f, g = random_plmap(rng), random_plmap(rng)
        assert f.compose(f.invert()) == PLMap.identity()
        assert f.compose(g).invert() == g.invert().compose(f.invert())


def test_equivariance():
    rng = random.Random(104)
    for _ in range(N):
        f = random_plmap(rng)
        p = random_cocycle(rng)
        x = random_rational(rng)
        assert f(x + 1) == f(x) + 1
        assert p(x + 1) == p(x)


def test_canonicalization_idempotent():
    rng = random.Random(105)
    for _ in range(N):
        f = random_plmap(rng)
        assert PLMap.from_points(f.breakpoints()) == f
        p = random_cocycle(rng)
        assert PLCocycle.from_points(p.breakpoints()) == p


def test_pullback_matches_pointwise_eval():
    rng = random.Random(106)
    for _ in range(N):
        p = random_cocycle(rng)
        f = random_plmap(rng)
        x = random_rational(rng)
        assert p.pullback(f)(x) == p(f(x))


def test_cocycle_add_negate_pointwise():
    rng = random.Random(107)
    for _ in range(N):
        p, q = random_cocycle(rng), random_cocycle(rng)
        x = random_rational(rng)
        assert p.add(q)(x) == p(x) + q(x)
        assert p.negate()(x) == -p(x)


# -- kernel against a point-by-point oracle ------------------------------------
#
# Each oracle builds the result the direct way: the full candidate breakpoint
# set, every value computed through the Fraction reference evaluator ``_at``,
# then ``from_points``.  ``__call__`` and the kernel both run on integer pairs,
# so ``_at`` keeps the oracle independent of them.  The inverse is the swapped
# breakpoint list.

KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=100)

unit_xs = st.builds(lambda p, q: F(p % q, q), st.integers(0, 11), st.integers(1, 12))
values = st.builds(F, st.integers(-36, 36), st.integers(1, 12))


@st.composite
def plmaps(draw, max_points=5):
    xs = sorted(draw(st.sets(unit_xs, min_size=1, max_size=max_points)))
    y0 = draw(values)
    # the inner segments and the wrap segment share one unit of rise
    rises = draw(st.lists(st.integers(1, 6), min_size=len(xs), max_size=len(xs)))
    ys = [y0]
    for r in rises[:-1]:
        ys.append(ys[-1] + F(r, sum(rises)))
    return PLMap.from_points(zip(xs, ys))


@st.composite
def cocycles(draw, max_points=5):
    xs = draw(st.sets(unit_xs, min_size=1, max_size=max_points))
    return PLCocycle.from_points((x, draw(values)) for x in xs)


def oracle_invert(f):
    return PLMap.from_points((y, x) for x, y in f.breakpoints())


def oracle_through(outer, phi):
    """Breakpoints of x -> outer(phi(x)), the way the kernel used to find them."""
    inv = oracle_invert(phi)
    cands = set(phi.xs) | {inv._at(x) % 1 for x in outer.xs}
    return [(x, outer._at(phi._at(x))) for x in cands]


def oracle_compose(f, g):
    return PLMap.from_points(oracle_through(g, f))


def oracle_pullback(p, phi):
    return PLCocycle.from_points(oracle_through(p, phi))


def oracle_add(p, q):
    return PLCocycle.from_points((x, p._at(x) + q._at(x)) for x in set(p.xs) | set(q.xs))


def oracle_negate(p):
    return PLCocycle.from_points((x, -p._at(x)) for x in p.xs)


def assert_same(result, expected):
    assert type(result) is type(expected)
    # the expected corners carry the slopes that ``from_points`` derives from
    # the points, so a wrong carried slope shows here, not only in evaluation
    assert result.corners == expected.corners


def d_power(n):
    return word_to_element("d").power(n).x_part


CROSSING = PLMap.from_points([(0, F(5, 6)), (F(1, 2), F(7, 6))])  # ys cross 1
TRANSLATION = PLMap.translation(F(-7, 4))
CONSTANT = PLCocycle.constant(F(5, 2))
CORNER_AT_ZERO = PLCocycle.from_points([(0, 1), (F(1, 3), -2), (F(3, 4), 0)])

# shapes the merge walk treats apart; base_plmap() has corners at 1/3 and 2/3
ON_CORNER = PLMap.from_points([(0, F(-2, 3)), (F(1, 2), F(-1, 2))])  # ys[0] = 1/3 - 1
MEETS_CORNER = PLMap.from_points([(0, 0), (F(1, 4), F(2, 3))])  # ys[1] = 2/3
NEGATIVE = PLMap.from_points([(F(1, 8), F(-11, 4)), (F(1, 2), F(-5, 2))])
ABOVE_TWO = PLMap.from_points([(F(1, 4), F(9, 4)), (F(3, 4), F(5, 2))])
# x -> CROSSING^-1(x) - 7/4, so that CROSSING followed by it is a translation
UNDOES_CROSSING = oracle_compose(oracle_invert(CROSSING), TRANSLATION)
# 5/2 minus CORNER_AT_ZERO, so that the two add up to a constant
COMPLEMENT = PLCocycle.from_points((x, F(5, 2) - y) for x, y in CORNER_AT_ZERO.breakpoints())
WIDE_TENT = c0().pullback(d_power(256))


@KERNEL
@given(plmaps(), plmaps())
@example(CROSSING, base_plmap())
@example(TRANSLATION, CROSSING)
@example(CROSSING, TRANSLATION)
@example(TRANSLATION, TRANSLATION)
@example(ON_CORNER, base_plmap())
@example(MEETS_CORNER, base_plmap())
@example(NEGATIVE, CROSSING)
@example(ABOVE_TWO, CROSSING)
@example(CROSSING, NEGATIVE)
@example(TRANSLATION, base_plmap())
@example(base_plmap(), TRANSLATION)
@example(CROSSING, UNDOES_CROSSING)
@example(base_plmap(), oracle_invert(base_plmap()))
def test_compose_matches_oracle(f, g):
    assert_same(f.compose(g), oracle_compose(f, g))


@KERNEL
@given(plmaps())
@example(CROSSING)
@example(TRANSLATION)
@example(PLMap.identity())
def test_invert_matches_oracle(f):
    assert_same(f.invert(), oracle_invert(f))


@KERNEL
@given(plmaps(), st.integers(0, 4), st.integers(-3, 3), st.lists(values, max_size=4))
@example(TRANSLATION, 0, 2, [F(1, 3)])
@example(CROSSING, 1, 1, [F(1, 2)])
@example(base_plmap(), 0, 0, [])
def test_invert_undoes_the_map_on_an_integer(f, i, k, points):
    # shift corner i onto the integer k, where the rotation wraps; a map
    # with one corner is a translation
    f = f.compose(PLMap.translation(k - f.ys[i % len(f.ys)]))
    inv = f.invert()
    assert_same(inv, oracle_invert(f))
    for x in (*f.xs, *f.ys, *points):
        assert inv._at(f._at(x)) == x
        assert f._at(inv._at(x)) == x


@KERNEL
@given(cocycles(), plmaps())
@example(CORNER_AT_ZERO, CROSSING)
@example(CONSTANT, CROSSING)
@example(CORNER_AT_ZERO, TRANSLATION)
@example(CORNER_AT_ZERO, PLMap.identity())
@example(base_cocycle(), ON_CORNER)
@example(base_cocycle(), MEETS_CORNER)
@example(CORNER_AT_ZERO, NEGATIVE)
@example(CORNER_AT_ZERO, ABOVE_TWO)
def test_pullback_matches_oracle(p, phi):
    assert_same(p.pullback(phi), oracle_pullback(p, phi))


@KERNEL
@given(cocycles(), cocycles())
@example(CORNER_AT_ZERO, base_cocycle())
@example(CORNER_AT_ZERO, CONSTANT)
@example(CONSTANT, CORNER_AT_ZERO)
@example(CONSTANT, PLCocycle.zero())
@example(CORNER_AT_ZERO, CORNER_AT_ZERO.negate())
@example(CORNER_AT_ZERO, COMPLEMENT)
@example(WIDE_TENT, WIDE_TENT.negate())
def test_add_matches_oracle(p, q):
    assert_same(p.add(q), oracle_add(p, q))


@KERNEL
@given(cocycles())
@example(CONSTANT)
@example(CORNER_AT_ZERO)
def test_negate_matches_oracle(p):
    assert_same(p.negate(), oracle_negate(p))


def test_wide_operands_match_oracle():
    d256 = d_power(256)
    assert len(d256.xs) == 512
    assert_same(d256.invert(), oracle_invert(d256))
    assert_same(d256.compose(d0()), oracle_compose(d256, d0()))
    assert_same(d0().compose(d256), oracle_compose(d0(), d256))
    assert_same(d256.compose(CROSSING), oracle_compose(d256, CROSSING))
    wide = c0().pullback(d256)
    assert_same(wide, oracle_pullback(c0(), d256))
    assert_same(wide.add(CORNER_AT_ZERO), oracle_add(wide, CORNER_AT_ZERO))
    assert_same(wide.negate(), oracle_negate(wide))


# -- canonical corners ------------------------------------------------------------
#
# The kernel keeps each function as reduced integer corners; ``==`` compares
# them, so it decides equality of functions only while every result is in the
# one canonical form checked here.

def assert_canonical(f):
    corners = f.corners
    assert type(corners) is tuple and all(type(c) is tuple and len(c) == 6 for c in corners)
    for xn, xd, yn, yd, sn, sd in corners:
        assert xd > 0 and yd > 0 and sd > 0
        assert gcd(xn, xd) == gcd(yn, yd) == gcd(sn, sd) == 1
    xs = [F(xn, xd) for xn, xd, *_ in corners]
    assert 0 <= xs[0] and xs[-1] < 1 and all(u < v for u, v in zip(xs, xs[1:]))
    if len(corners) > 1:
        # a corner with the slope of its cyclic predecessor would be collinear
        assert all(prev[4:] != c[4:] for prev, c in zip(corners[-1:] + corners[:-1], corners))
    assert f.xs == tuple(xs)
    assert f.ys == tuple(F(yn, yd) for _, _, yn, yd, _, _ in corners)
    assert type(f).from_points(f.breakpoints()).corners == corners


@st.composite
def kernel_results(draw):
    op = draw(st.sampled_from(("compose", "pullback", "add", "invert", "negate")))
    if op == "compose":
        return draw(plmaps()).compose(draw(plmaps()))
    if op == "pullback":
        return draw(cocycles()).pullback(draw(plmaps()))
    if op == "add":
        return draw(cocycles()).add(draw(cocycles()))
    if op == "invert":
        return draw(plmaps()).invert()
    return draw(cocycles()).negate()


@KERNEL
@given(kernel_results())
@example(CROSSING.compose(UNDOES_CROSSING))  # a translation
@example(CROSSING.compose(TRANSLATION))
@example(CORNER_AT_ZERO.add(COMPLEMENT))  # a constant
@example(CORNER_AT_ZERO.add(CONSTANT))
@example(CONSTANT.negate())
@example(TRANSLATION.invert())
@example(ABOVE_TWO.invert())
@example(CORNER_AT_ZERO.pullback(NEGATIVE))
@example(WIDE_TENT.add(CORNER_AT_ZERO))
def test_kernel_results_are_canonical_corners(f):
    assert_canonical(f)


class _NoFraction:
    def __new__(cls, *args, **kwargs):
        raise AssertionError("the kernel built a Fraction")


def test_kernel_operations_build_no_fraction(monkeypatch):
    gens = standard_generators()
    c, d = gens["c"], gens["d"]
    phi, p, q = base_plmap(), base_cocycle(), CORNER_AT_ZERO
    monkeypatch.setattr(exactpl, "Fraction", _NoFraction)
    d256 = d.power(256)
    wide = c.conjugate(d256)
    pulled = p.pullback(d256.x_part)
    pulled.add(q).negate()
    phi.invert()
    assert d256.x_part.invert().compose(d256.x_part) == PLMap.identity()
    assert wide.shift.add(wide.shift.negate()) == PLCocycle.zero()
    monkeypatch.undo()
    assert len(d256.x_part.corners) == 512
    assert_same(pulled, oracle_pullback(p, d256.x_part))


# -- integer point evaluation against the Fraction route ------------------------
#
# ``__call__`` and ``_eval`` run on the integer table; the kernel's own ``_at``
# stays on Fraction arithmetic and is the oracle here.

WIDE = d_power(256)  # 512 corners, 258-bit denominators
FIXED = (TRANSLATION, CONSTANT, PLMap.identity(), PLCocycle.zero(), CROSSING,
         CORNER_AT_ZERO, base_plmap(), base_cocycle(), WIDE, WIDE_TENT)

far_points = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6))
shifts = st.integers(-10**6, 10**6)


def assert_integer_route(f, x):
    expected = f._at(x)
    assert f._eval(x.numerator, x.denominator) == (expected.numerator, expected.denominator)
    assert f(x) == expected


@st.composite
def points_of(draw, f):
    """A far point, a corner, or a point of the wrap segment before xs[0],
    each moved by a whole number of periods."""
    kind = draw(st.sampled_from(("far", "corner", "wrap")))
    if kind == "far":
        return draw(far_points)
    n = draw(shifts)
    if kind == "corner":
        return draw(st.sampled_from(f.xs)) + n
    # xs[0] - t for t in (0, 1 - (xs[-1] - xs[0])]: left of the first corner,
    # right of the last corner of the previous period
    gap = 1 - (f.xs[-1] - f.xs[0])
    t = gap * F(draw(st.integers(1, 10**6)), 10**6)
    return f.xs[0] - t + n


@KERNEL
@given(st.one_of(plmaps(), cocycles(), st.sampled_from(FIXED)), st.data())
def test_integer_evaluation_matches_fraction_route(f, data):
    for x in data.draw(st.lists(points_of(f), min_size=1, max_size=8)):
        assert_integer_route(f, x)


def test_integer_evaluation_on_wide_and_flat_operands():
    rng = random.Random(111)
    for f in FIXED:
        for x in f.xs:
            for n in (0, 1, -1, 10**6, -10**6):
                assert_integer_route(f, x + n)
        for _ in range(50):
            q = rng.randint(1, 10**6)
            assert_integer_route(f, F(rng.randint(-10**6 * q, 10**6 * q), q))
        assert_integer_route(f, f.xs[0] - F(1, 10**6))
    assert len(WIDE.xs) == 512 and max(x.denominator for x in WIDE.xs).bit_length() == 258
    assert_canonical(WIDE)  # its breakpoints rebuild the same corners


def test_integer_table_is_built_once():
    f = d_power(4)
    f(F(1, 7))
    table = f._table
    f(F(-3, 5))
    assert f._table is table
    assert pickle.dumps(f) == pickle.dumps(d_power(4))


# -- the inverse memo ----------------------------------------------------------

def test_inverse_is_memoized_one_way():
    rng = random.Random(108)
    for _ in range(50):
        f = random_plmap(rng)
        inv = f.invert()
        assert f.invert() is inv
        assert inv.invert() == f


def test_realizing_words_leaves_no_reference_cycles():
    rng = random.Random(109)
    words = [random_skew_word(rng) for _ in range(12)]
    gc.collect()
    gc.disable()
    try:
        elements = [word_to_element(w) for w in words]
        for e in elements:
            e.invert()
        del elements
        assert gc.collect() == 0
    finally:
        gc.enable()


@KERNEL
@given(plmaps(), cocycles())
@example(base_plmap(), base_cocycle())
@example(TRANSLATION, CONSTANT)
def test_skew_inverse_is_memoized_one_way(f, p):
    e = SkewElement(f, p)
    fresh = pickle.dumps(e)
    inv = e.invert()
    assert e.invert() is inv
    assert inv.invert() == e
    # the memo is not state: pickling drops it, copying shares the element
    assert pickle.dumps(e) == fresh
    clone = pickle.loads(pickle.dumps(e))
    assert clone == e and clone.invert() == inv
    assert copy.copy(e) is e and copy.deepcopy(e) is e
    for element in (e, clone):
        with pytest.raises(AttributeError):
            element._inv = None
        with pytest.raises(AttributeError):
            element.x_part = f
    assert e.invert() is inv


# -- one-corner constructors -------------------------------------------------------

@KERNEL
@given(values)
@example(F(0))
def test_one_corner_constructors_match_from_points(v):
    for literal in (v, format_rational(v)):
        assert_same(PLMap.translation(literal), PLMap.from_points([(0, v)]))
        assert_same(PLCocycle.constant(literal), PLCocycle.from_points([(0, v)]))
    assert_same(PLMap.identity(), PLMap.from_points([(0, 0)]))
    assert_same(PLCocycle.zero(), PLCocycle.from_points([(0, 0)]))
    assert PLMap.translation(v).corners[0][4:] == (1, 1)
    assert PLCocycle.constant(v).corners[0][4:] == (0, 1)


# -- pickling --------------------------------------------------------------------

def test_pickle_round_trip():
    rng = random.Random(110)
    points = [random_rational(rng) for _ in range(20)]
    for value in (d0(), c0(), TRANSLATION, CONSTANT, PLMap.identity(), PLCocycle.zero(),
                  d_power(8), c0().pullback(d_power(8)), d_power(256)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy.corners == value.corners
        assert [copy(x) for x in points] == [value(x) for x in points]
    assert len(d_power(256).corners) == 512


def test_pickle_leaves_the_inverse_memo_behind():
    fresh = pickle.dumps(d_power(4))
    f = d_power(4)
    f.invert()
    assert pickle.dumps(f) == fresh
