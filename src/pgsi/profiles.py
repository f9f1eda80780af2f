"""Color-profile arithmetic and the total order on play values.

A finite color profile counts, per color, how many times that color occurs
along a finite play.  The two infinities stand for the extreme play values:
``-inf`` for plays player 0 has already lost, ``+inf`` for plays player 0
keeps winning forever.  Profiles of the same dimension are ordered by the
highest color at which they differ: more visits to an even color is better
for player 0, more visits to an odd color is worse.

Encoding.  A finite profile of dimension d is stored as one int, its key,
written in base 2^b with signed digits: digit c is the count of color c,
negated when c is odd, and the highest color takes the most significant
digit::

    key = f_0 + f_1 * 2^b + ... + f_(d-1) * 2^(b(d-1))

While every digit stays below 2^(b-1) in magnitude, two digits differ by
at most 2^b - 2, so everything below the highest differing digit adds up
to less than one unit of that digit.  The key therefore determines the
digits, keys order like the game order, and adding or subtracting two
profiles is adding or subtracting their keys.  The arithmetic does not
check that bound; the width b is chosen so that it holds.

Width.  The width is part of a profile.  ``ColorProfile.finite``,
``zero_profile``, ``unit_profile`` and ``path_value`` use 64-bit digits,
so their sums stay exact up to counts of 2^63.  The solver takes its zero
and unit profiles from a :class:`ProfileBasis` built once per arena, at
``digit_width(n)`` bits for an arena of n nodes (the sink not counted).
That width covers every digit the two valuation routes form:

- a fixpoint value is the profile of a simple path into the sink, so each
  digit is at most n;
- the Dijkstra update forms weights unit[v] + old[t] - old[v] and, along
  any path, candidates that telescope to unit[s] + new[v] - old[s], so its
  digits are at most 2n + 1;
- Bellman-Ford on an unreasonable strategy makes at most (n + 1) * n
  in-place updates before it raises, each one unit plus another node's
  value, so no digit passes n(n + 1).

n(n + 2) bounds all three for n >= 1, and ``digit_width`` keeps one spare
bit above it.  This is the bounded finite profile space that the paper's
termination argument rests on, read as a size: it fixes how many bits a
count can need.

An operation on two profiles of different widths re-encodes the narrower
one at the wider width first: exact, but slower.  All values are
immutable and safe to share.

Code that does many additions and comparisons on one arena's values, such
as the Dijkstra update, may work on the keys themselves:
``ProfileBasis.key`` and ``ProfileBasis.keys`` give a profile's key at the
basis width, re-encoding exactly a profile of another width, and
``ProfileBasis.from_key`` turns a key back into a profile.  Keys add,
subtract and compare like the profiles they encode; the zero profile's
key is 0.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, ProfileArithmeticError

# Digit width of the profiles the public constructors build.
_WIDE_DIGITS = 64

_new = object.__new__


def digit_width(n: int) -> int:
    """Bits per digit that fit every value the solver forms on an arena of
    n nodes (see the module docstring)."""
    return (n * (n + 2)).bit_length() + 2


def _bias(d: int, b: int) -> int:
    # the key whose d digits are all 2^(b-1)
    return int(("1" + "0" * (b - 1)) * d, 2)


def _pack(digits: Sequence[int], b: int) -> int:
    """Key of signed digits given highest color first."""
    half = 1 << (b - 1)
    for f in digits:
        if not -half < f < half:
            raise DimensionError(
                "count %d does not fit a %d-bit digit" % (abs(f), b))
    spec = "0%db" % b
    return int("".join([format(f + half, spec) for f in digits]), 2) \
        - _bias(len(digits), b)


def _unpack(key: int, d: int, b: int) -> tuple[int, ...]:
    """Signed digits of a key, highest color first."""
    half = 1 << (b - 1)
    bits = format(key + _bias(d, b), "0%db" % (b * d))
    return tuple([int(bits[i:i + b], 2) - half for i in range(0, b * d, b)])


class ColorProfile:
    """An element of the play-value domain: a d-dimensional count vector or
    one of the two infinities.

    Instances compare with the usual rich operators; ``<`` is the strict
    game order.  Addition is componentwise, an infinity absorbs any finite
    summand, and adding opposite infinities raises
    :class:`ProfileArithmeticError`.  Subtraction is defined for finite
    profiles only.
    """

    # A finite profile holds its key and its form, the pair (dimension,
    # digit width); profiles made together share one form object, which
    # is what the fast paths test.  An infinity has form None and its
    # sign, +1 or -1, as key.
    __slots__ = ("_key", "_form")

    def __init__(self, key: int, form: tuple[int, int] | None):
        # Internal: use finite()/zero_profile()/unit_profile(), a
        # ProfileBasis or the two module-level infinity constants instead.
        self._key = key
        self._form = form

    @classmethod
    def finite(cls, counts: Sequence[int]) -> "ColorProfile":
        """Build a finite profile from per-color counts, lowest color first.

        Raises DimensionError for an empty sequence and for a count of
        2^63 or more in magnitude."""
        counts = tuple(counts)
        if not counts:
            raise DimensionError("a finite profile needs at least one color")
        d = len(counts)
        digits = [counts[k] if k % 2 == 0 else -counts[k]
                  for k in range(d - 1, -1, -1)]
        return cls(_pack(digits, _WIDE_DIGITS), (d, _WIDE_DIGITS))

    @property
    def is_finite(self) -> bool:
        return self._form is not None

    @property
    def dimension(self) -> int | None:
        """Number of colors, or None for an infinity."""
        return self._form[0] if self._form is not None else None

    def _digits(self) -> tuple[int, ...]:
        return _unpack(self._key, *self._form)

    @property
    def counts(self) -> tuple[int, ...]:
        """Per-color counts, lowest color first.  Finite profiles only."""
        if self._form is None:
            raise ProfileArithmeticError("an infinite profile has no counts")
        digits = self._digits()
        d = len(digits)
        return tuple(digits[d - 1 - k] if k % 2 == 0 else -digits[d - 1 - k]
                     for k in range(d))

    def _aligned(self, other: "ColorProfile") -> tuple[int, int, tuple]:
        """Keys of two finite profiles of one dimension at a common width,
        and the form of that width."""
        a, b = self._form, other._form
        if a[0] != b[0]:
            raise DimensionError(
                "profile dimensions differ: %d vs %d" % (a[0], b[0]))
        if a[1] == b[1]:
            return self._key, other._key, a
        if a[1] > b[1]:
            return self._key, _pack(other._digits(), a[1]), a
        return _pack(self._digits(), b[1]), other._key, b

    def __eq__(self, other) -> bool:
        form = self._form
        try:
            if form is other._form:
                return self._key == other._key
        except AttributeError:
            return NotImplemented
        if form is None or other._form is None \
                or form[0] != other._form[0]:
            return False
        a, b, _ = self._aligned(other)
        return a == b

    def __hash__(self) -> int:
        if self._form is None:
            return hash(self._key)
        return hash(self._digits())

    def __lt__(self, other: "ColorProfile") -> bool:
        form = self._form
        try:
            if form is other._form and form is not None:
                return self._key < other._key
        except AttributeError:
            return NotImplemented
        if form is None or other._form is None:
            # an infinity's key is its sign; a finite profile sits at 0
            return ((0 if form else self._key)
                    < (0 if other._form else other._key))
        a, b, _ = self._aligned(other)
        return a < b

    def __le__(self, other: "ColorProfile") -> bool:
        if not isinstance(other, ColorProfile):
            return NotImplemented
        return not other < self

    def __gt__(self, other: "ColorProfile") -> bool:
        return other.__lt__(self)

    def __ge__(self, other: "ColorProfile") -> bool:
        return other.__le__(self)

    def __add__(self, other: "ColorProfile") -> "ColorProfile":
        form = self._form
        try:
            if form is other._form and form is not None:
                out = _new(ColorProfile)
                out._key = self._key + other._key
                out._form = form
                return out
        except AttributeError:
            return NotImplemented
        if form is None or other._form is None:
            if form is None and other._form is None \
                    and self._key != other._key:
                raise ProfileArithmeticError("+inf plus -inf is undefined")
            return self if form is None else other
        a, b, form = self._aligned(other)
        return ColorProfile(a + b, form)

    def __sub__(self, other: "ColorProfile") -> "ColorProfile":
        form = self._form
        try:
            if form is other._form and form is not None:
                out = _new(ColorProfile)
                out._key = self._key - other._key
                out._form = form
                return out
        except AttributeError:
            return NotImplemented
        if form is None or other._form is None:
            raise ProfileArithmeticError("subtraction needs two finite profiles")
        a, b, form = self._aligned(other)
        return ColorProfile(a - b, form)

    def __str__(self) -> str:
        if self._form is None:
            return "+inf" if self._key > 0 else "-inf"
        return "(%s)" % ",".join(str(c) for c in self.counts)

    def __repr__(self) -> str:
        return "ColorProfile(%s)" % self


NEG_INFINITY = ColorProfile(-1, None)
POS_INFINITY = ColorProfile(1, None)


class ProfileBasis:
    """The zero profile and the unit profiles of one d-color arena of n
    nodes, all at ``digit_width(n)`` bits and sharing one form, so the
    values built from them take the fast paths."""

    __slots__ = ("zero", "_form", "_units")

    def __init__(self, d: int, n: int):
        if d < 1:
            raise DimensionError("dimension must be at least 1, got %d" % d)
        self._form = (d, digit_width(n))
        self.zero = ColorProfile(0, self._form)
        self._units: dict[int, ColorProfile] = {}

    def key(self, value: ColorProfile) -> int | None:
        """The key of `value` at this basis's width, or None for an
        infinity.  A finite profile of another width is re-encoded exactly;
        DimensionError if its dimension differs or a count does not fit
        the width."""
        form = value._form
        if form is self._form:
            return value._key
        if form is None:
            return None
        d, b = self._form
        if form[0] != d:
            raise DimensionError(
                "profile dimensions differ: %d vs %d" % (form[0], d))
        if form[1] == b:
            return value._key
        return _pack(value._digits(), b)

    def keys(self, values: Mapping[int, ColorProfile]) -> dict[int, int | None]:
        """:meth:`key` of every value of a mapping, under the same keys."""
        form, key = self._form, self.key
        return {v: p._key if p._form is form else key(p)
                for v, p in values.items()}

    def from_key(self, key: int) -> ColorProfile:
        """The finite profile of this basis's form with the given key."""
        out = _new(ColorProfile)
        out._key = key
        out._form = self._form
        return out

    def unit(self, color: int) -> ColorProfile:
        """The profile of a single visit to `color`."""
        found = self._units.get(color)
        if found is None:
            d, b = self._form
            if not 0 <= color < d:
                raise DimensionError("color %d outside [0, %d)" % (color, d))
            step = 1 << (b * color)
            found = ColorProfile(-step if color % 2 else step, self._form)
            self._units[color] = found
        return found


def zero_profile(d: int) -> ColorProfile:
    """The all-zero profile of dimension d: the value of the empty play."""
    if d < 1:
        raise DimensionError("dimension must be at least 1, got %d" % d)
    return ColorProfile(0, (d, _WIDE_DIGITS))


def unit_profile(color: int, d: int) -> ColorProfile:
    """The profile of a single visit to `color` in a d-color game."""
    if d < 1:
        raise DimensionError("dimension must be at least 1, got %d" % d)
    if not 0 <= color < d:
        raise DimensionError("color %d outside [0, %d)" % (color, d))
    counts = [0] * d
    counts[color] = 1
    return ColorProfile.finite(counts)


def path_value(colors: Iterable[int], d: int) -> ColorProfile:
    """Sum of unit profiles over a color sequence (the value of a finite path)."""
    if d < 1:
        raise DimensionError("dimension must be at least 1, got %d" % d)
    counts = [0] * d
    for c in colors:
        if not 0 <= c < d:
            raise DimensionError("color %d outside [0, %d)" % (c, d))
        counts[c] += 1
    return ColorProfile.finite(counts)
