"""Exact piecewise-linear functions on the line, stored one period at a time.

Two families cover everything this package needs:

* ``PLMap`` -- strictly increasing PL bijections f with f(x+1) = f(x)+1,
  determined by their breakpoints on [0, 1).
* ``PLCocycle`` -- continuous PL functions p with p(x+1) = p(x), likewise
  stored on [0, 1).

All coordinates are ``fractions.Fraction``; there is no floating point
anywhere.  Both classes keep a unique canonical breakpoint list (collinear
points removed, translations/constants pinned at x = 0), so ``==`` decides
equality of the represented functions.

The operations evaluate each operand breakpoint at most once -- a composite's
value at a preimage of an outer corner is that corner's stored value -- and
carry kept slopes into the result instead of recomputing them.

Point evaluation for callers (``__call__``, ``_eval``) runs on ``int`` pairs
through an integer affine table built on first use; the operations above keep
``Fraction`` evaluation (``_at``), because most of their operands are
short-lived and would not repay building a table.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence, Tuple

Rational = Fraction
Pair = Tuple[Rational, Rational]

_first = itemgetter(0)


class PLError(ValueError):
    """Raised for inputs that do not describe a valid PL function."""


def rational(value) -> Rational:
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise PLError(f"bad rational literal {value!r}") from exc
    raise PLError(f"cannot interpret {value!r} as a rational (floats are rejected)")


def format_rational(q: Rational) -> str:
    """Render in lowest terms as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _floor(q: Rational) -> int:
    return q.numerator // q.denominator


def _prepare(points: Iterable[Pair], wrap_rise: int) -> list[Pair]:
    """Normalize points into the fundamental domain and validate x-distinctness.

    ``wrap_rise`` is 1 for equivariant maps ((x, y) -> (x mod 1, y - floor(x)))
    and 0 for periodic cocycles (y kept as given).
    """
    seen: dict[Rational, Rational] = {}
    for raw_x, raw_y in points:
        x = rational(raw_x)
        y = rational(raw_y)
        n = _floor(x)
        x -= n
        if wrap_rise:
            y -= n
        if x in seen:
            if seen[x] != y:
                raise PLError(
                    f"duplicate x = {format_rational(x)} (mod 1) with conflicting values "
                    f"{format_rational(seen[x])} and {format_rational(y)}"
                )
        else:
            seen[x] = y
    if not seen:
        raise PLError("at least one breakpoint is required")
    return sorted(seen.items())


def _essential(pairs: Sequence[Pair], wrap_rise: int):
    """Drop breakpoints that are linear interpolants of their cyclic neighbours.

    ``pairs`` are sorted with distinct xs in [0, 1).  Returns the kept
    ``(xs, ys, slopes)``, each slope that of the segment leaving its point.
    """
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pairs, pairs[1:])]
    (x0, y0), (x1, y1) = pairs[0], pairs[-1]
    slopes.append((y0 + wrap_rise - y1) / (x0 + 1 - x1))
    kept = [i for i in range(len(pairs)) if slopes[i - 1] != slopes[i]]
    if not kept:
        # every point collinear: a translation (maps) or a constant (cocycles)
        x0, y0 = pairs[0]
        return (Fraction(0),), (y0 - wrap_rise * x0,), (Fraction(wrap_rise),)
    return (tuple(pairs[i][0] for i in kept), tuple(pairs[i][1] for i in kept),
            tuple(slopes[i] for i in kept))


def _unique_sorted(pairs: list[Pair]) -> list[Pair]:
    """Sort candidates by x, dropping repeats: two routes to one exact point."""
    pairs.sort(key=_first)
    out = [pairs[0]]
    for pair in pairs:
        if pair[0] != out[-1][0]:
            out.append(pair)
    return out


def _composite_pairs(outer: "_PLBase", phi: "PLMap") -> list[Pair]:
    """Candidate breakpoints of x -> outer(phi(x)) with their values: phi's
    corners, where outer is evaluated once, and the phi-preimages t - n of
    outer's corners c, where the value outer(c) - n * rise is already stored.
    """
    at = outer._at
    pairs = [(x, at(y)) for x, y in zip(phi.xs, phi.ys)]
    at, rise = phi.invert()._at, outer._wrap_rise
    for c, value in zip(outer.xs, outer.ys):
        t = at(c)
        n = _floor(t)
        pairs.append((t - n, value - n * rise) if n else (t, value))
    return _unique_sorted(pairs)


def _integer_table(xs, ys, slopes, rise: int):
    """The affine pieces of one period, scaled to integers.

    Row j + 1 is the segment leaving ``xs[j]``, x -> s x + (y - s x); row 0 is
    the wrap segment left of ``xs[0]``, which is the last row moved one period
    on: its intercept gains s - rise.  Each row (a, b) stands for
    x -> (a x + b) / c, and the xs are given as integers over their common
    denominator d.  Built from numerators and denominators alone: a common
    multiple of every y's and every s x's denominator serves as c.
    """
    xq = [(x.numerator, x.denominator) for x in xs]
    yq = [(y.numerator, y.denominator) for y in ys]
    sq = [(s.numerator, s.denominator) for s in slopes]
    c = lcm(*(yd for _, yd in yq), *(sd * xd for (_, xd), (_, sd) in zip(xq, sq)))
    rows = [(sn * (c // sd), yn * (c // yd) - sn * xn * (c // (sd * xd)))
            for (xn, xd), (yn, yd), (sn, sd) in zip(xq, yq, sq)]
    a, b = rows[-1]
    rows.insert(0, (a, b + a - rise * c))
    d = lcm(*(xd for _, xd in xq))
    return tuple(xn * (d // xd) for xn, xd in xq), d, tuple(rows), c, rise * c


class _PLBase:
    """Shared storage and evaluation for one-period PL data."""

    __slots__ = ("xs", "ys", "_slopes", "_table")

    _wrap_rise = 0  # vertical rise across one period of the extension

    def __new__(cls, pairs: Sequence[Pair]):
        """Canonical form of ``pairs``, sorted with distinct xs in [0, 1)."""
        return cls._make(*_essential(pairs, cls._wrap_rise))

    @classmethod
    def _make(cls, xs, ys, slopes):
        """Build from canonical breakpoints whose slopes are already known."""
        self = object.__new__(cls)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "_slopes", slopes)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (type(self), (self.breakpoints(),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.xs == other.xs and self.ys == other.ys

    def __hash__(self):
        return hash((type(self).__name__, self.xs, self.ys))

    def __call__(self, x) -> Rational:
        x = rational(x)
        return Fraction(*self._eval(x.numerator, x.denominator))

    def _eval(self, p: int, q: int) -> tuple[int, int]:
        """Value at p/q (q > 0) as a reduced (numerator, denominator) pair.

        The integer table is memoized in ``_table`` like the inverse in
        ``_inv``.  With p/q = n + r/q and 0 <= r < q, an integer corner X/d
        lies at or left of r/q exactly when X <= floor(r d / q).
        """
        try:
            corners, d, rows, c, rc = self._table
        except AttributeError:
            table = _integer_table(self.xs, self.ys, self._slopes, self._wrap_rise)
            object.__setattr__(self, "_table", table)
            corners, d, rows, c, rc = table
        n = p // q
        r = p - n * q
        a, b = rows[bisect_right(corners, r * d // q)]
        num = a * r + (b + rc * n) * q
        den = c * q
        g = gcd(num, den)
        return num // g, den // g

    def _at(self, x: Rational) -> Rational:
        """Value at an exact Fraction ``x``."""
        n = _floor(x)
        r = x - n if n else x
        xs = self.xs
        i = bisect_right(xs, r) - 1
        if i < 0:
            # wrap segment entering from (xs[-1] - 1, ys[-1] - rise)
            value = self.ys[-1] - self._wrap_rise + self._slopes[-1] * (r - xs[-1] + 1)
        else:
            value = self.ys[i] + self._slopes[i] * (r - xs[i])
        if n and self._wrap_rise:
            return value + n
        return value

    def breakpoints(self) -> tuple[Pair, ...]:
        return tuple(zip(self.xs, self.ys))

    def breakpoint_xs(self) -> frozenset[Rational]:
        # a single breakpoint is a translation or a constant: no corner anywhere
        return frozenset(self.xs) if len(self.xs) > 1 else frozenset()

    def to_pairs(self) -> list[list[str]]:
        """Serializable form: ordered [x, y] pairs of "p/q" strings."""
        return [[format_rational(x), format_rational(y)] for x, y in self.breakpoints()]

    @classmethod
    def from_pairs(cls, pairs):
        return cls.from_points([(rational(x), rational(y)) for x, y in pairs])

    def __repr__(self):
        pts = ", ".join(f"({format_rational(x)}, {format_rational(y)})" for x, y in self.breakpoints())
        return f"{type(self).__name__}[{pts}]"


class PLMap(_PLBase):
    """Increasing PL bijection of the line commuting with the unit translation.

    The extension rule f(x+1) = f(x)+1 makes one period of breakpoints
    determine the whole function.  A single stored breakpoint means the map is
    a translation, canonically pinned at x = 0.  The inverse is memoized in
    ``_inv``, one way only: it does not point back, so no reference cycle forms.
    """

    __slots__ = ("_inv",)
    _wrap_rise = 1

    @classmethod
    def from_points(cls, points: Iterable[Pair]) -> "PLMap":
        pairs = _prepare(points, wrap_rise=1)
        ys = [y for _, y in pairs]
        for i in range(len(ys) - 1):
            if not ys[i] < ys[i + 1]:
                raise PLError("y-values must increase strictly; not a bijection")
        if len(pairs) > 1 and not ys[-1] < ys[0] + 1:
            raise PLError("wrap segment must rise: need last y < first y + 1")
        return cls(pairs)

    @classmethod
    def identity(cls) -> "PLMap":
        return cls(((Fraction(0), Fraction(0)),))

    @classmethod
    def translation(cls, amount) -> "PLMap":
        return cls(((Fraction(0), rational(amount)),))

    @property
    def is_translation(self) -> bool:
        return len(self.xs) == 1

    @property
    def is_identity(self) -> bool:
        return self.is_translation and self.ys[0] == 0

    @property
    def translation_amount(self) -> Rational:
        if not self.is_translation:
            raise PLError("not a translation")
        return self.ys[0]

    def compose(self, other: "PLMap") -> "PLMap":
        """Left-to-right composite x -> other(self(x))."""
        return PLMap(_composite_pairs(other, self))

    def invert(self) -> "PLMap":
        inv = getattr(self, "_inv", None)
        if inv is not None:
            return inv
        if len(self.xs) == 1:
            inv = PLMap._make(self.xs, (-self.ys[0],), self._slopes)
        else:
            # corners map to corners, and each slope to its reciprocal
            rows = []
            for x, y, s in zip(self.xs, self.ys, self._slopes):
                n = _floor(y)
                rows.append((y - n, x - n, 1 / s) if n else (y, x, 1 / s))
            rows.sort(key=_first)
            inv = PLMap._make(*map(tuple, zip(*rows)))
        object.__setattr__(self, "_inv", inv)
        return inv


class PLCocycle(_PLBase):
    """Continuous PL function with period 1, stored on [0, 1).

    A single stored breakpoint means the function is constant, canonically
    pinned at x = 0.
    """

    __slots__ = ()
    _wrap_rise = 0

    @classmethod
    def from_points(cls, points: Iterable[Pair]) -> "PLCocycle":
        return cls(_prepare(points, wrap_rise=0))

    @classmethod
    def zero(cls) -> "PLCocycle":
        return cls(((Fraction(0), Fraction(0)),))

    @classmethod
    def constant(cls, value) -> "PLCocycle":
        return cls(((Fraction(0), rational(value)),))

    @property
    def is_constant(self) -> bool:
        return len(self.xs) == 1

    @property
    def is_zero(self) -> bool:
        return self.is_constant and self.ys[0] == 0

    @property
    def constant_value(self) -> Rational:
        if not self.is_constant:
            raise PLError("not constant")
        return self.ys[0]

    def add(self, other: "PLCocycle") -> "PLCocycle":
        if len(self.xs) == 1:
            self, other = other, self
        if len(other.xs) == 1:  # a constant moves no corner and changes no slope
            c = other.ys[0]
            return PLCocycle._make(self.xs, tuple(y + c for y in self.ys), self._slopes) if c else self
        pairs = [(x, y + other._at(x)) for x, y in zip(self.xs, self.ys)]
        pairs += [(x, self._at(x) + y) for x, y in zip(other.xs, other.ys)]
        return PLCocycle(_unique_sorted(pairs))

    def negate(self) -> "PLCocycle":
        return PLCocycle._make(self.xs, tuple(-y for y in self.ys), tuple(-s for s in self._slopes))

    def pullback(self, phi: PLMap) -> "PLCocycle":
        """The cocycle x -> self(phi(x)); exact, with breakpoints at phi's
        corners and at phi-preimages of self's corners."""
        if len(self.xs) == 1:
            return self  # a constant pulls back to itself
        return PLCocycle(_composite_pairs(self, phi))


def make_plmap(points) -> PLMap:
    return PLMap.from_points(points)


def make_cocycle(points) -> PLCocycle:
    return PLCocycle.from_points(points)
