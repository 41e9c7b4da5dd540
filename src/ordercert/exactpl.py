"""Exact piecewise-linear functions on the line, stored one period at a time.

Two families cover everything this package needs:

* ``PLMap`` -- strictly increasing PL bijections f with f(x+1) = f(x)+1,
  determined by their breakpoints on [0, 1).
* ``PLCocycle`` -- continuous PL functions p with p(x+1) = p(x), likewise
  stored on [0, 1).

Each is stored as its ``corners``, one ``(xn, xd, yn, yd, sn, sd)`` per
breakpoint: the point (xn/xd, yn/yd) and the slope sn/sd leaving it, each pair
reduced with a positive denominator, the xs increasing strictly in [0, 1).  A
corner is kept only where the slope changes, and a translation or constant is
one corner at x = 0, so ``==`` on corners decides equality of the functions.

``compose``, ``pullback`` and ``add`` are one merge walk over the two
operands' corners: each segment of the result carries the product (or sum) of
the two slopes over it.  A composite's value at a preimage of an outer corner
is that corner's stored value; elsewhere it is read off the current segment.
``compose`` reads ``_inv``: a map and its memoized inverse give the identity.
These, ``invert`` and ``negate`` read and write ``int`` pairs only; ``xs`` and
``ys`` are ``Fraction`` views built on first read for callers.  Point
evaluation (``__call__``, ``_eval``) runs on an integer affine table built on
first use, and its result skips re-normalisation (``_fraction``); ``_at``
evaluates in ``Fraction`` arithmetic, as the reference.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

Rational = Fraction
Pair = tuple[Rational, Rational]


class PLError(ValueError):
    """Raised for inputs that do not describe a valid PL function."""


# ASCII p or p/q: Fraction(text) also reads '٣', '0.5', '1_000' and '1e5'
_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational(value) -> Rational:
    """Coerce ints, Fractions and ASCII "p" or "p/q" strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_LITERAL.fullmatch(value)
        if match is None:
            raise PLError(f"bad rational literal {value!r}")
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:  # past int's digit limit, or q = 0
            raise PLError(f"bad rational literal {value!r}") from exc
    raise PLError(f"cannot interpret {value!r} as a rational (floats are rejected)")


def format_rational(q: Rational) -> str:
    """Render in lowest terms as "p/q", or "p" when the denominator is 1."""
    return _format(q.numerator, q.denominator)


def _fraction(num: int, den: int) -> Rational:
    """The Fraction num/den, built as Python 3.12's ``Fraction._from_coprime_ints``
    builds it: no type checks, no gcd.  num/den must be reduced with den > 0."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _format(num: int, den: int) -> str:  # num/den reduced, den > 0
    return str(num) if den == 1 else f"{num}/{den}"


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
    """Canonical corners of ``pairs``, sorted with distinct xs in [0, 1): each
    point goes to ``_canonical`` in reduced integer pairs, with the slope of
    the segment to its cyclic successor."""
    points = [(*x.as_integer_ratio(), *y.as_integer_ratio()) for x, y in pairs]
    xn, xd, yn, yd = points[0]
    ends = points[1:] + [(xn + xd, xd, yn + wrap_rise * yd, yd)]
    # each run is positive, so the slope's pair takes the sign of its rise
    return _canonical([(xn, xd, yn, yd, *_reduced((vn * yd - yn * vd) * ud * xd,
                                                   (un * xd - xn * ud) * vd * yd))
                       for (xn, xd, yn, yd), (un, ud, vn, vd) in zip(points, ends)],
                      wrap_rise)


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
    """Walk two corner sequences in step, each sorted over the same window of
    unit length.

    Yields ``(xn, xd, a(x), b(x), ca, cb)`` at each corner x of either list,
    where ``ca`` and ``cb`` are the corners of each at or left of x: their
    segments hold up to the next corner.  Left of its first corner, a list's
    last corner one period down holds.
    """
    ca, cb = _shift(a[-1], -1, rise_a), _shift(b[-1], -1, rise_b)
    m, n = len(a), len(b)
    # each list closes with its first corner one period on, past the window
    a, b = (*a, _shift(a[0], 1, rise_a)), (*b, _shift(b[0], 1, rise_b))
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


def _canonical(events, rise: int) -> tuple[tuple[int, ...], ...]:
    """Canonical corners from one period of merge-walk events.

    ``events`` are corners ``(xn, xd, yn, yd, sn, sd)`` in x order over
    [0, 1), reduced, where a slope may repeat.  A point is kept only where the
    slope changes, cyclically.
    """
    kept = tuple(e for prev, e in zip(events[-1:] + events[:-1], events)
                 if prev[4] != e[4] or prev[5] != e[5])
    if kept:
        return kept
    # one slope throughout: a translation (maps) or a constant (cocycles)
    xn, xd, yn, yd, _, _ = events[0]
    return ((0, 1, *_reduced(yn * xd - rise * xn * yd, yd * xd), rise, 1),)


def _raised(corners, tn: int, td: int) -> tuple[tuple[int, ...], ...]:
    """``corners`` with every value raised by tn/td: no corner moves and no
    slope changes."""
    return tuple((xn, xd, *_reduced(yn * td + tn * yd, yd * td), sn, sd)
                 for xn, xd, yn, yd, sn, sd in corners)


def _through(outer: "_PLBase", phi: "PLMap"):
    """Canonical corners of x -> outer(phi(x)), in one merge walk.

    The walk runs over phi's image [phi.ys[0], phi.ys[0] + 1) of one period,
    merging outer's corners with those of phi's inverse, whose values there
    are the x of the result.  Each segment's slope is outer's slope times
    phi's.  Points past x = 1 move one period down to the front, so nothing is
    sorted.
    """
    rise = outer._wrap_rise
    inverse = [(yn, yd, xn, xd, sd, sn) for xn, xd, yn, yd, sn, sd in phi.corners]
    p, q = inverse[0][:2]
    n, r = divmod(p, q)
    # outer's corners in the window: those at or right of r/q moved to the
    # period of n, then the rest moved to the next one
    ws = outer.corners
    j = sum(un * q < r * ud for un, ud, *_ in ws)
    ws = [_shift(c, n, rise) for c in ws[j:]] + [_shift(c, n + 1, rise) for c in ws[:j]]
    events, head = [], []
    for _, _, (vn, vd), (xn, xd), cw, cp in _merge(ws, inverse, rise, 1):
        sn, sd = _reduced(cw[4] * cp[5], cw[5] * cp[4])
        if xn < xd:
            events.append((xn, xd, vn, vd, sn, sd))
        else:
            head.append((xn - xd, xd, vn - rise * vd, vd, sn, sd))
    return _canonical(head + events, rise)


def _sum(f: "PLCocycle", g: "PLCocycle"):
    """Canonical corners of x -> f(x) + g(x), in one merge walk over the two
    corner sequences; each segment's slope is the sum of the two."""
    return _canonical([(xn, xd, *_reduced(yn * vd + vn * yd, yd * vd),
                        *_reduced(cf[4] * cg[5] + cg[4] * cf[5], cf[5] * cg[5]))
                       for xn, xd, (yn, yd), (vn, vd), cf, cg
                       in _merge(f.corners, g.corners, 0, 0)], 0)


def _integer_table(corners, rise: int):
    """The affine pieces of one period, scaled to integers.

    Row j + 1 is the segment leaving corner j, x -> s x + (y - s x); row 0 is
    the wrap segment left of ``xs[0]``, which is the last row moved one period
    on: its intercept gains s - rise.  Each row (a, b) stands for
    x -> (a x + b) / c, and the xs are given as integers over their common
    denominator d.  Built from numerators and denominators alone: a common
    multiple of every y's and every s x's denominator serves as c.
    """
    c = lcm(*(yd for _, _, _, yd, _, _ in corners), *(sd * xd for _, xd, _, _, _, sd in corners))
    rows = [(sn * (c // sd), yn * (c // yd) - sn * xn * (c // (sd * xd)))
            for xn, xd, yn, yd, sn, sd in corners]
    a, b = rows[-1]
    rows.insert(0, (a, b + a - rise * c))
    d = lcm(*(xd for _, xd, *_ in corners))
    return tuple(xn * (d // xd) for xn, xd, *_ in corners), d, tuple(rows), c, rise * c


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

    __slots__ = ("corners", "_xs", "_ys", "_table")

    _wrap_rise = 0  # vertical rise across one period of the extension

    @classmethod
    def _make(cls, corners):
        """Build from canonical corners; ``from_points`` validates points."""
        self = object.__new__(cls)
        object.__setattr__(self, "corners", corners)
        return self

    @classmethod
    def _one_corner(cls, yn: int, yd: int):
        """The translation (maps) or constant (cocycles) yn/yd, reduced."""
        return cls._make(((0, 1, yn, yd, cls._wrap_rise, 1),))

    def __reduce__(self):
        return (type(self).from_points, (self.breakpoints(),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.corners == other.corners

    def __hash__(self):
        return hash((type(self).__name__, self.corners))

    xs = property(lambda self: self._view("_xs", 0), doc="The corners' xs as Fractions.")
    ys = property(lambda self: self._view("_ys", 2), doc="The corners' values as Fractions.")

    def _view(self, slot: str, i: int) -> tuple[Rational, ...]:
        """The Fractions of each corner's pair at ``i``, built on first read."""
        try:
            return getattr(self, slot)
        except AttributeError:
            view = tuple(Fraction(c[i], c[i + 1]) for c in self.corners)
            object.__setattr__(self, slot, view)
            return view

    def __call__(self, x) -> Rational:
        x = rational(x)
        return _fraction(*self._eval(x.numerator, x.denominator))

    def _eval(self, p: int, q: int) -> tuple[int, int]:
        """Value at p/q (q > 0) as a reduced (numerator, denominator) pair.

        The integer table is memoized in ``_table`` like the inverse in
        ``_inv``.  With p/q = n + r/q and 0 <= r < q, an integer corner X/d
        lies at or left of r/q exactly when X <= floor(r d / q).
        """
        try:
            corners, d, rows, c, rc = self._table
        except AttributeError:
            table = _integer_table(self.corners, self._wrap_rise)
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
        i = bisect_right(self.xs, r) - 1
        # i = -1: the wrap segment, entering from the last corner one period down
        wrap = i < 0
        slope = Fraction(*self.corners[i][4:])
        value = self.ys[i] - wrap * self._wrap_rise + slope * (r - self.xs[i] + wrap)
        if n and self._wrap_rise:
            return value + n
        return value

    def breakpoints(self) -> tuple[Pair, ...]:
        return tuple(zip(self.xs, self.ys))

    def breakpoint_xs(self) -> frozenset[Rational]:
        # a single breakpoint is a translation or a constant: no corner anywhere
        return frozenset(self.xs) if len(self.corners) > 1 else frozenset()

    def to_pairs(self) -> list[list[str]]:
        """Serializable form: ordered [x, y] pairs of "p/q" strings."""
        return [[_format(xn, xd), _format(yn, yd)] for xn, xd, yn, yd, _, _ in self.corners]

    def __repr__(self):
        pts = ", ".join(f"({x}, {y})" for x, y in self.to_pairs())
        return f"{type(self).__name__}[{pts}]"


class PLMap(_PLBase):
    """Increasing PL bijection of the line commuting with the unit translation.

    The extension rule f(x+1) = f(x)+1 makes one period of breakpoints
    determine the whole function.  A single stored breakpoint means the map is
    a translation, canonically pinned at x = 0.  The inverse is memoized in
    ``_inv``, one way only, so no reference cycle forms; ``compose`` reads it.
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
        return cls._make(_essential(pairs, 1))

    @classmethod
    def identity(cls) -> "PLMap":
        return cls._one_corner(0, 1)

    @classmethod
    def translation(cls, amount) -> "PLMap":
        return cls._one_corner(*rational(amount).as_integer_ratio())

    @property
    def is_identity(self) -> bool:
        return len(self.corners) == 1 and self.corners[0][2] == 0

    def compose(self, other: "PLMap") -> "PLMap":
        """Left-to-right composite x -> other(self(x))."""
        if len(other.corners) == 1:  # a translation moves no corner and changes no slope
            _, _, tn, td, _, _ = other.corners[0]
            return PLMap._make(_raised(self.corners, tn, td)) if tn else self
        if self.is_identity:
            return other
        if getattr(self, "_inv", None) is other or getattr(other, "_inv", None) is self:
            return PLMap.identity()  # ``invert`` memoizes only the exact inverse
        return PLMap._make(_through(other, self))

    def invert(self) -> "PLMap":
        inv = getattr(self, "_inv", None)
        if inv is not None:
            return inv
        corners = self.corners
        if len(corners) == 1:
            inv = PLMap._one_corner(-corners[0][2], corners[0][3])
        else:
            # corners map to corners, x and y swapped, and each slope to its
            # reciprocal; the ys span [ys[0], ys[0] + 1), so each moves down
            # by its floor, and those past the next integer wrap to the front
            rows, head, top = [], [], corners[0][2] // corners[0][3] + 1
            for xn, xd, yn, yd, sn, sd in corners:
                n = yn // yd
                (head if n == top else rows).append((yn - n * yd, yd, xn - n * xd, xd, sd, sn))
            inv = PLMap._make((*head, *rows))
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
        return cls._make(_essential(_prepare(points, wrap_rise=0), 0))

    @classmethod
    def zero(cls) -> "PLCocycle":
        return cls._one_corner(0, 1)

    @classmethod
    def constant(cls, value) -> "PLCocycle":
        return cls._one_corner(*rational(value).as_integer_ratio())

    @property
    def is_zero(self) -> bool:
        return len(self.corners) == 1 and self.corners[0][2] == 0

    def add(self, other: "PLCocycle") -> "PLCocycle":
        if len(self.corners) == 1:
            self, other = other, self
        if len(other.corners) == 1:  # a constant moves no corner and changes no slope
            _, _, cn, cd, _, _ = other.corners[0]
            return PLCocycle._make(_raised(self.corners, cn, cd)) if cn else self
        return PLCocycle._make(_sum(self, other))

    def negate(self) -> "PLCocycle":
        return PLCocycle._make(tuple((xn, xd, -yn, yd, -sn, sd)
                                     for xn, xd, yn, yd, sn, sd in self.corners))

    def pullback(self, phi: PLMap) -> "PLCocycle":
        """The cocycle x -> self(phi(x)); exact, with breakpoints at phi's
        corners and at phi-preimages of self's corners."""
        if len(self.corners) == 1 or phi.is_identity:
            return self  # a constant, or any cocycle through the identity
        return PLCocycle._make(_through(self, phi))
