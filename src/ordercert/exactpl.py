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

``compose``, ``pullback`` and ``add`` are one merge walk over the two
operands' sorted corner lists, in reduced ``int`` pairs: each segment of the
result carries the product (or sum) of the two slopes over it, a point is kept
only where that slope changes, and a ``Fraction`` is built only for what is
kept.  A composite's value at a preimage of an outer corner is that corner's
stored value; elsewhere a value is read off the current segment.

Point evaluation for callers (``__call__``, ``_eval``) runs on ``int`` pairs
through an integer affine table built on first use.  ``_at`` evaluates in
``Fraction`` arithmetic and is kept only as the independent reference.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Tuple

Rational = Fraction
Pair = Tuple[Rational, Rational]
# x and slope of a one-corner function by rise; shared, as Fractions are immutable
_AT_ZERO, _FLAT_SLOPE = (Fraction(0),), {0: (Fraction(0),), 1: (Fraction(1),)}


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
    """Canonical ``(xs, ys, slopes)`` of ``pairs``, sorted with distinct xs in
    [0, 1): each point goes to ``_canonical`` in reduced integer pairs, with
    the slope of the segment to its cyclic successor."""
    points = [(*x.as_integer_ratio(), *y.as_integer_ratio()) for x, y in pairs]
    xn, xd, yn, yd = points[0]
    ends = points[1:] + [(xn + xd, xd, yn + wrap_rise * yd, yd)]
    # each run is positive, so the slope's pair takes the sign of its rise
    return _canonical([(xn, xd, yn, yd, _reduced((vn * yd - yn * vd) * ud * xd,
                                                  (un * xd - xn * ud) * vd * yd))
                       for (xn, xd, yn, yd), (un, ud, vn, vd) in zip(points, ends)],
                      wrap_rise)


def _corners(f: "_PLBase") -> list[tuple[int, ...]]:
    """f's corners as ``(xn, xd, yn, yd, sn, sd)``: the point (xn/xd, yn/yd)
    and the slope sn/sd of the segment leaving it, in reduced integer pairs."""
    return [(*x.as_integer_ratio(), *y.as_integer_ratio(), *s.as_integer_ratio())
            for x, y, s in zip(f.xs, f.ys, f._slopes)]


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


def _on(corner, xn: int, xd: int) -> tuple[int, int]:
    """The value at xn/xd on the segment leaving ``corner``: y + s (x - c)."""
    cn, cd, yn, yd, sn, sd = corner
    return _reduced(yn * sd * xd * cd + yd * sn * (xn * cd - cn * xd), yd * sd * xd * cd)


def _shift(corner, k: int, rise: int) -> tuple[int, ...]:
    """``corner`` moved k periods along a function that rises by ``rise``."""
    xn, xd, yn, yd, sn, sd = corner
    return xn + k * xd, xd, yn + k * rise * yd, yd, sn, sd


def _merge(a, b, rise_a: int, rise_b: int):
    """Walk two corner lists (as from ``_corners``) in step, each sorted over
    the same window of unit length.

    Yields ``(xn, xd, a(x), b(x), ca, cb)`` at each corner x of either list,
    where ``ca`` and ``cb`` are the corners of each at or left of x: their
    segments hold up to the next corner.  Left of its first corner, a list's
    last corner one period down holds.
    """
    ca, cb = _shift(a[-1], -1, rise_a), _shift(b[-1], -1, rise_b)
    m, n = len(a), len(b)
    # each list closes with its first corner one period on, past the window
    a, b = a + [_shift(a[0], 1, rise_a)], b + [_shift(b[0], 1, rise_b)]
    i = j = 0
    while i < m or j < n:
        order = a[i][0] * b[j][1] - b[j][0] * a[i][1]
        if order <= 0:
            ca = a[i]
            i += 1
        if order >= 0:
            cb = b[j]
            j += 1
        xn, xd = (ca if order <= 0 else cb)[:2]
        yield (xn, xd, ca[2:4] if order <= 0 else _on(ca, xn, xd),
               cb[2:4] if order >= 0 else _on(cb, xn, xd), ca, cb)


def _canonical(events, rise: int):
    """Canonical ``(xs, ys, slopes)`` from one period of merge-walk events.

    ``events`` are ``(xn, xd, yn, yd, slope)`` in x order over [0, 1): the
    point (xn/xd, yn/yd) and the reduced pair of the slope leaving it.  A
    point is kept only where the slope changes, cyclically, and a Fraction is
    built only for what is kept.
    """
    kept = [e for prev, e in zip(events[-1:] + events[:-1], events) if prev[4] != e[4]]
    if not kept:
        # one slope throughout: a translation (maps) or a constant (cocycles)
        xn, xd, yn, yd, _ = events[0]
        return (Fraction(0),), (Fraction(yn, yd) - Fraction(rise * xn, xd),), (Fraction(rise),)
    xn, xd, yn, yd, slopes = zip(*kept)
    distinct = {s: Fraction(*s) for s in set(slopes)}  # few: one Fraction each
    return (tuple(map(Fraction, xn, xd)), tuple(map(Fraction, yn, yd)),
            tuple(map(distinct.get, slopes)))


def _through(outer: "_PLBase", phi: "PLMap"):
    """Canonical ``(xs, ys, slopes)`` of x -> outer(phi(x)), in one merge walk.

    The walk runs over phi's image [phi.ys[0], phi.ys[0] + 1) of one period,
    merging outer's corners with those of phi's inverse, whose values there
    are the x of the result.  Each segment's slope is outer's slope times
    phi's.  Points past x = 1 move one period down to the front, so nothing is
    sorted.
    """
    rise = outer._wrap_rise
    inverse = [(yn, yd, xn, xd, sd, sn) for xn, xd, yn, yd, sn, sd in _corners(phi)]
    p, q = inverse[0][:2]
    n, r = divmod(p, q)
    # outer's corners in the window: those at or right of r/q moved to the
    # period of n, then the rest moved to the next one
    ws = _corners(outer)
    j = sum(un * q < r * ud for un, ud, *_ in ws)
    ws = [_shift(c, n, rise) for c in ws[j:]] + [_shift(c, n + 1, rise) for c in ws[:j]]
    events, head = [], []
    for _, _, (vn, vd), (xn, xd), cw, cp in _merge(ws, inverse, rise, 1):
        slope = _reduced(cw[4] * cp[5], cw[5] * cp[4])
        if xn < xd:
            events.append((xn, xd, vn, vd, slope))
        else:
            head.append((xn - xd, xd, vn - rise * vd, vd, slope))
    return _canonical(head + events, rise)


def _sum(f: "PLCocycle", g: "PLCocycle"):
    """Canonical ``(xs, ys, slopes)`` of x -> f(x) + g(x), in one merge walk
    over the two corner lists; each segment's slope is the sum of the two."""
    return _canonical([(xn, xd, *_reduced(yn * vd + vn * yd, yd * vd),
                        _reduced(cf[4] * cg[5] + cg[4] * cf[5], cf[5] * cg[5]))
                       for xn, xd, (yn, yd), (vn, vd), cf, cg
                       in _merge(_corners(f), _corners(g), 0, 0)], 0)


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


class Frozen:
    """Base of immutable values: a subclass sets its attributes once, with
    ``object.__setattr__``, and a copy of a value is the value itself."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Record(Frozen):
    """An immutable value made of named fields: its ``__slots__`` that do not
    start with ``_``, in order; underscore slots are memos, neither compared
    nor pickled.  ``_defaults`` holds the trailing fields' defaults.  Records
    are equal when their classes are the same and their fields equal, so
    ``Less(u, v) != WordEq(u, v)``."""

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # generated per class, as namedtuple does, to cost what hand-written code
        # costs; slot names are identifiers, checked by Python, so this is safe
        source = f"def _values(self): return ({''.join(f'self.{name}, ' for name in fields)})"
        if "__init__" not in cls.__dict__:
            source += (f"\ndef __init__(self, {', '.join(fields)}):"
                       + "".join(f"\n _set(self, {name!r}, {name})" for name in fields))
        namespace = {"_set": object.__setattr__, "__name__": cls.__module__}
        exec(source, namespace)
        cls._values = namespace["_values"]
        if "__init__" in namespace:
            cls.__init__ = namespace["__init__"]
            cls.__init__.__defaults__ = cls._defaults
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())

    def _replace(self, **changes):
        """A copy with the named fields changed; an unknown field is a TypeError."""
        values = {name: changes.pop(name, value) for name, value in zip(self._fields, self._values())}
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(changes))!r}")
        return type(self)(**values)


class _PLBase(Frozen):
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

    @classmethod
    def _one_corner(cls, value):
        """A translation (maps) or constant (cocycles), canonical as built."""
        return cls._make(_AT_ZERO, (rational(value),), _FLAT_SLOPE[cls._wrap_rise])

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
        """Value at an exact Fraction ``x``, in ``Fraction`` arithmetic.

        The reference evaluator, used by nothing in this module: the stepwise
        routes (``skew.stepwise_apply``, ``plane.stepwise_apply_plane``) and
        the tests go through it to check the integer table and the kernel
        independently.
        """
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
        return cls._one_corner(0)

    @classmethod
    def translation(cls, amount) -> "PLMap":
        return cls._one_corner(amount)

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
        if len(other.xs) == 1:  # a translation moves no corner and changes no slope
            t = other.ys[0]
            return PLMap._make(self.xs, tuple(y + t for y in self.ys), self._slopes) if t else self
        if self.is_identity:
            return other
        return PLMap._make(*_through(other, self))

    def invert(self) -> "PLMap":
        inv = getattr(self, "_inv", None)
        if inv is not None:
            return inv
        if len(self.xs) == 1:
            inv = PLMap._make(self.xs, (-self.ys[0],), self._slopes)
        else:
            # corners map to corners, and each slope to its reciprocal (from
            # its integer pair, no division); the ys span [ys[0], ys[0] + 1),
            # so those past the next integer wrap to the front
            rows, head, top = [], [], _floor(self.ys[0]) + 1
            for x, y, s in zip(self.xs, self.ys, self._slopes):
                n = _floor(y)
                r = Fraction(s.denominator, s.numerator)
                row = (y - n, x - n, r) if n else (y, x, r)
                (head if n == top else rows).append(row)
            inv = PLMap._make(*map(tuple, zip(*head, *rows)))
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
        return cls._one_corner(0)

    @classmethod
    def constant(cls, value) -> "PLCocycle":
        return cls._one_corner(value)

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
        return PLCocycle._make(*_sum(self, other))

    def negate(self) -> "PLCocycle":
        return PLCocycle._make(self.xs, tuple(-y for y in self.ys), tuple(-s for s in self._slopes))

    def pullback(self, phi: PLMap) -> "PLCocycle":
        """The cocycle x -> self(phi(x)); exact, with breakpoints at phi's
        corners and at phi-preimages of self's corners."""
        if len(self.xs) == 1 or phi.is_identity:
            return self  # a constant, or any cocycle through the identity
        return PLCocycle._make(*_through(self, phi))
