"""Vertical-line-preserving plane homeomorphisms (x, y) -> (f(x), y + p(x)).

The group carries a *right* action throughout: ``compose(g, h)`` moves a
point first by ``g`` and then by ``h``, and ``conjugate(g, h)`` is
``h^-1 g h`` (written ``g^h``).  The four standard generators are named by
ASCII letters:

    a : (x, y) -> (x + 1/6, y)
    b : (x, y) -> (x, y + 1/6)
    c : (x, y) -> (x, y + c0(x))     c0 period 1, c0(0) = 3, c0(1/2) = -3
    d : (x, y) -> (d0(x), y)         d0(n + 1/3) = n + 1/6, d0(n + 2/3) = n + 5/6

Everything is exact and immutable.
"""

from __future__ import annotations

from functools import reduce
from fractions import Fraction
from math import gcd

from .exactpl import PLCocycle, PLMap, Rational, Record, _fraction, rational
from .wordsyntax import GREEK_ALIASES, WordSyntaxError, word_letters

Point = tuple

GENERATOR_NAMES = ("a", "b", "c", "d")


def base_cocycle() -> PLCocycle:
    """The period-1 tent c0 with value 3 at integers and -3 at half-integers."""
    return PLCocycle.from_points([(Fraction(0), Fraction(3)), (Fraction(1, 2), Fraction(-3))])


def base_plmap() -> PLMap:
    """The equivariant bijection d0 interpolating 1/3 -> 1/6 and 2/3 -> 5/6."""
    return PLMap.from_points(
        [(Fraction(1, 3), Fraction(1, 6)), (Fraction(2, 3), Fraction(5, 6))]
    )


class SkewElement(Record):
    """An exact pair (x_part, shift) acting as (x, y) -> (x_part(x), y + shift(x)).

    Each vertical line x = t is carried onto the vertical line x = x_part(t)
    by the translation y -> y + shift(t).  The inverse is memoized in
    ``_inv``, one way only, as on ``PLMap``.
    """

    __slots__ = ("x_part", "shift", "_inv")

    @staticmethod
    def identity() -> "SkewElement":
        return _IDENTITY

    @property
    def is_identity(self) -> bool:
        x, s = self.x_part.corners, self.shift.corners
        return len(x) == 1 == len(s) and x[0][2] == 0 == s[0][2]

    @property
    def is_translation(self) -> bool:
        """True when the plane map is (x, y) -> (x + u, y + v)."""
        return len(self.x_part.corners) == 1 == len(self.shift.corners)

    def apply(self, point: Point) -> Point:
        x = rational(point[0])
        y = rational(point[1])
        fx, fxd, fy, fyd = self._apply_ints(x.numerator, x.denominator, y.numerator, y.denominator)
        return (_fraction(fx, fxd), _fraction(fy, fyd))

    def _apply_ints(self, x: int, xd: int, y: int, yd: int) -> tuple[int, int, int, int]:
        """``apply`` on the point (x/xd, y/yd), denominators positive, giving
        the image as reduced numerator/denominator pairs."""
        fx, fxd = self.x_part._eval(x, xd)
        s, sd = self.shift._eval(x, xd)
        num = y * sd + s * yd
        den = yd * sd
        g = gcd(num, den)
        return fx, fxd, num // g, den // g

    def compose(self, other: "SkewElement") -> "SkewElement":
        """Right action: ``p -> other(self(p))``."""
        if self.is_identity:
            return other
        if other.is_identity:
            return self
        return SkewElement(
            self.x_part.compose(other.x_part),
            self.shift.add(other.shift.pullback(self.x_part)),
        )

    def invert(self) -> "SkewElement":
        inv = getattr(self, "_inv", None)
        if inv is None:
            x_inv = self.x_part.invert()
            inv = SkewElement(x_inv, self.shift.pullback(x_inv).negate())
            object.__setattr__(self, "_inv", inv)
        return inv

    def power(self, n: int) -> "SkewElement":
        if n < 0:
            return self.invert().power(-n)
        if n == 1:
            return self
        result = SkewElement.identity()
        square = self
        while n:
            if n & 1:
                result = result.compose(square)
            n >>= 1
            if n:
                square = square.compose(square)
        return result

    def conjugate(self, h: "SkewElement") -> "SkewElement":
        """``h^-1 * self * h``, the element written ``self^h``."""
        return h.invert().compose(self).compose(h)

    def commutes(self, other: "SkewElement") -> bool:
        return self.compose(other) == other.compose(self)

    def breakpoint_xs(self) -> frozenset[Rational]:
        """x-coordinates (mod 1) where the map fails to be differentiable."""
        return self.x_part.breakpoint_xs() | self.shift.breakpoint_xs()


_IDENTITY = SkewElement(PLMap.identity(), PLCocycle.zero())

# Built once per process and shared: the values are immutable, and an
# inverse memoized on d's x_part then serves every later word.
_STANDARD = {
    "a": SkewElement(PLMap.translation(Fraction(1, 6)), PLCocycle.zero()),
    "b": SkewElement(PLMap.identity(), PLCocycle.constant(Fraction(1, 6))),
    "c": SkewElement(PLMap.identity(), base_cocycle()),
    "d": SkewElement(base_plmap(), PLCocycle.zero()),
}


def standard_generators() -> dict[str, SkewElement]:
    """A fresh table over the shared generators; callers may reassign entries."""
    return dict(_STANDARD)


def word_to_element(word, gens: dict[str, SkewElement] | None = None) -> SkewElement:
    """Exact product of generator powers, applied left to right.

    ``word`` may be a word string or an iterable of (letter, exponent) pairs.
    """
    gens = gens or _STANDARD
    result = SkewElement.identity()
    for sym, exp in word_letters(word, GENERATOR_NAMES):
        result = result.compose(gens[sym].power(exp))
    return result


def reference_apply(element: SkewElement, x: Rational, y: Rational) -> Point:
    """``element.apply((x, y))`` in ``Fraction`` arithmetic, through the
    reference evaluator ``_at`` rather than the integer tables."""
    return element.x_part._at(x), y + element.shift._at(x)


def stepwise_apply(word, point: Point, gens: dict[str, SkewElement] | None = None) -> Point:
    """Apply a word one generator at a time through ``reference_apply``: the
    independent route, sharing neither the composed element nor the integer
    evaluator with ``word_to_element(word).apply``."""
    gens = gens or _STANDARD
    x, y = rational(point[0]), rational(point[1])
    for sym, exp in word_letters(word, GENERATOR_NAMES):
        g = gens[sym] if exp > 0 else gens[sym].invert()
        for _ in range(abs(exp)):
            x, y = reference_apply(g, x, y)
    return x, y


def _epsilon_factors(gens: dict[str, SkewElement]) -> list[SkewElement]:
    """The six factors c^(d a^k), k = 0..5, of epsilon."""
    a, c, d = gens["a"], gens["c"], gens["d"]
    return [c.conjugate(d.compose(a.power(k))) for k in range(6)]


def compute_epsilon(gens: dict[str, SkewElement] | None = None) -> SkewElement:
    """The product c^d c^(da) c^(da^2) c^(da^3) c^(da^4) c^(da^5), exactly."""
    return reduce(SkewElement.compose, _epsilon_factors(gens or _STANDARD))


def epsilon_offsets(gens: dict[str, SkewElement] | None = None) -> list[Rational]:
    """Vertical displacement of each factor of epsilon on the line x = 0."""
    zero = Fraction(0)
    return [g.apply((zero, zero))[1] for g in _epsilon_factors(gens or _STANDARD)]


def verify_relations(gens: dict[str, SkewElement] | None = None) -> list[tuple[str, str, bool]]:
    """Exact (id, description, holds) rows for the identities among a, b, c, d.

    All facts hold for the standard generators; perturbed generator maps can
    be passed in to see which facts break.
    """
    gens = gens or _STANDARD
    a, b, c, d = (gens[n] for n in GENERATOR_NAMES)
    a3 = a.power(3)
    conjugates = _epsilon_factors(gens)
    eps = reduce(SkewElement.compose, conjugates)

    pairwise = all(
        conjugates[i].commutes(conjugates[j])
        for i in range(6)
        for j in range(i + 1, 6)
    )
    return [
        ("F1", "a b == b a", a.commutes(b)),
        ("F2", "b c == c b", b.commutes(c)),
        ("F3", "b d == d b", b.commutes(d)),
        ("F4", "c^(a^3) == c^-1", c.conjugate(a3) == c.invert()),
        ("F5", "d^(a^3) == d^-1", d.conjugate(a3) == d.invert()),
        ("F6", "c^d c^(da) ... c^(da^5) == b^-36", eps == b.power(-36)),
        ("F6a", "c^(da^6) == c^d", c.conjugate(d.compose(a.power(6))) == c.conjugate(d)),
        ("F6b", "the six conjugates pairwise commute", pairwise),
        ("F7", "a, b, c, d are all non-identity", all(not g.is_identity for g in (a, b, c, d))),
        ("F8", "a is neither b nor b^-1", a != b and a != b.invert()),
    ]


def perturb_generators(spec: str) -> dict[str, SkewElement]:
    """Test hook: ``"d:=d b"`` replaces generator d by the product d*b."""
    if ":=" not in spec:
        raise WordSyntaxError("perturbation must look like NAME:=WORD")
    name, _, word_text = spec.partition(":=")
    name = name.strip()
    name = GREEK_ALIASES.get(name, name)
    if name not in GENERATOR_NAMES:
        raise WordSyntaxError(f"cannot perturb unknown generator {name!r}")
    gens = standard_generators()
    gens[name] = word_to_element(word_text.strip())
    return gens
