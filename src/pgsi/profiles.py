"""Color-profile arithmetic and the total order on play values.

A finite color profile counts, per color, how many times that color occurs
along a finite play.  The two infinities stand for the extreme play values:
``-inf`` for plays player 0 has already lost, ``+inf`` for plays player 0
keeps winning forever.  Profiles of the same dimension are ordered by the
highest color at which they differ: more visits to an even color is better
for player 0, more visits to an odd color is worse.

Digits.  A finite profile is its dimension d and its signed digits: the
digit of color c is its count, negated when c is odd, so that a greater
digit is always better for player 0.  Profiles are ordered by the digit
of the highest color at which they differ, and a color with count 0
never decides anything, so a profile made by ``ColorProfile.finite``,
``zero_profile``, ``unit_profile``, ``path_value`` or an operation keeps
only its nonzero ``(color, digit)`` pairs, highest color first.  ``+``
and ``-`` merge the pairs, ``<`` reads the sign of the top pair of the
difference, and ``==`` and ``hash`` compare the pairs.  Counts have no
size limit, and the operations cost what the profiles count rather
than d: a game with a color of 10^12 has profiles that compare, add and
hash.  ``counts`` and ``str`` spell out all d colors.  All values are
immutable and safe to share.

Keys.  Inside ``solve`` a value is not a profile but one int, its key,
in the encoding of the arena's :class:`ProfileBasis`: base 2^b with one
signed digit per color some arena node carries, ascending, the highest
color most significant.  With all d colors counted that is::

    key = f_0 + f_1 * 2^b + ... + f_(d-1) * 2^(b(d-1))

While every digit stays below 2^(b-1) in magnitude, two digits differ by
at most 2^b - 2, so everything below the highest differing digit adds up
to less than one unit of that digit.  The key therefore determines the
digits, keys order like the game order, and adding or subtracting two
profiles is adding or subtracting their keys.  The arithmetic does not
check that bound; the width b is chosen so that it holds.

Width.  A basis over an arena of n nodes (the sink not counted) writes
its digits at ``digit_width(n)`` bits.  That width covers every digit
the solver forms:

- a fixpoint value is the profile of a simple path into the sink, so each
  digit is at most n;
- the Dijkstra update forms weights unit[v] + old[t] - old[v] and, along
  any path, candidates that telescope to unit[s] + new[v] - old[s], so its
  digits are at most 2n + 1;
- Bellman-Ford on an unreasonable strategy makes at most (n + 1) * n
  in-place updates before it raises, each one unit plus another node's
  value, so no digit passes n(n + 1);
- the edge classifications compare a target's value with a node's value
  minus its unit, whose digits are at most n + 1.

n(n + 2) bounds all three for n >= 1, and ``digit_width`` keeps one spare
bit above it.  This is the bounded finite profile space that the paper's
termination argument rests on, read as a size: it fixes how many bits a
count can need.

A valuation inside ``solve`` is a list of keys indexed by node id, the
escape sink last, with :data:`INF_KEY` standing for +inf.  Every
valuation route, check and classification adds and compares these ints
directly; ``ProfileBasis.key`` and ``ProfileBasis.from_key`` translate
between keys and profiles at the edges (the result's valuation and the
hooks).  ``from_key`` only wraps the key: two profiles of one basis add
and compare as ints, and the basis decodes a key's pairs only when an
operation with another profile, ``counts``, ``hash`` or ``str`` needs
them, and then only the digits up to the highest nonzero one.
``INF_KEY`` is the float infinity: Python compares an int with it
exactly whatever the int's size, so ``<``, ``==``, ``min`` and ``max``
treat it as the top value, and the solver never adds anything to it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from .errors import DimensionError, ProfileArithmeticError

_new = object.__new__


def digit_width(n: int) -> int:
    """Bits per digit that fit every value the solver forms on an arena of
    n nodes (see the module docstring)."""
    return (n * (n + 2)).bit_length() + 2


class ColorProfile:
    """An element of the play-value domain: a d-dimensional count vector or
    one of the two infinities.

    Instances compare with the usual rich operators; ``<`` is the strict
    game order.  Addition is componentwise, an infinity absorbs any finite
    summand, and adding opposite infinities raises
    :class:`ProfileArithmeticError`.  Subtraction is defined for finite
    profiles only.
    """

    # A finite profile holds its dimension and its nonzero (color, signed
    # digit) pairs, highest color first.  A profile of a ProfileBasis also
    # holds its key and that basis, and its pairs are None until the basis
    # decodes them.  An infinity has dimension None and its sign, +1 or
    # -1, as key.
    __slots__ = ("_d", "_pairs", "_key", "_basis")

    def __init__(self, d: int | None, pairs: tuple | None, key=None):
        # Internal: use finite()/zero_profile()/unit_profile(), a
        # ProfileBasis or the two module-level infinity constants instead.
        self._d = d
        self._pairs = pairs
        self._key = key
        self._basis = None

    @classmethod
    def finite(cls, counts: Sequence[int]) -> "ColorProfile":
        """Build a finite profile from per-color counts, lowest color first.
        Counts may be of any size.  Raises DimensionError for an empty
        sequence."""
        counts = tuple(counts)
        if not counts:
            raise DimensionError("a finite profile needs at least one color")
        return cls(len(counts), tuple(
            (c, -counts[c] if c % 2 else counts[c])
            for c in range(len(counts) - 1, -1, -1) if counts[c]))

    @property
    def is_finite(self) -> bool:
        return self._d is not None

    @property
    def dimension(self) -> int | None:
        """Number of colors, or None for an infinity."""
        return self._d

    def _nonzero(self) -> tuple:
        """The (color, signed digit) pairs of a finite profile's nonzero
        counts, highest color first."""
        if self._pairs is None:
            self._pairs = self._basis._decode(self._key)
        return self._pairs

    def _merge(self, other: "ColorProfile", sign: int) -> tuple:
        """The pairs of self + sign * other, two finite profiles."""
        if self._d != other._d:
            raise DimensionError(
                "profile dimensions differ: %d vs %d" % (self._d, other._d))
        digits = dict(self._nonzero())
        for c, f in other._nonzero():
            digits[c] = digits.get(c, 0) + sign * f
        return tuple(sorted(((c, f) for c, f in digits.items() if f),
                            reverse=True))

    @property
    def counts(self) -> tuple[int, ...]:
        """Per-color counts, lowest color first.  Finite profiles only."""
        if self._d is None:
            raise ProfileArithmeticError("an infinite profile has no counts")
        counts = [0] * self._d
        for c, f in self._nonzero():
            counts[c] = -f if c % 2 else f
        return tuple(counts)

    def __eq__(self, other) -> bool:
        basis = self._basis
        try:
            if basis is other._basis and basis is not None:
                return self._key == other._key
        except AttributeError:
            return NotImplemented
        if self._d is None or other._d is None:
            return self._d is other._d and self._key == other._key
        return self._d == other._d and self._nonzero() == other._nonzero()

    def __hash__(self) -> int:
        if self._d is None:
            return hash(self._key)
        return hash(self._nonzero())

    def __lt__(self, other: "ColorProfile") -> bool:
        basis = self._basis
        try:
            if basis is other._basis and basis is not None:
                return self._key < other._key
        except AttributeError:
            return NotImplemented
        if self._d is None or other._d is None:
            # an infinity's key is its sign; a finite profile sits at 0
            return ((self._key if self._d is None else 0)
                    < (other._key if other._d is None else 0))
        diff = self._merge(other, -1)
        return bool(diff) and diff[0][1] < 0

    def __le__(self, other: "ColorProfile") -> bool:
        if not isinstance(other, ColorProfile):
            return NotImplemented
        return not other < self

    def __gt__(self, other: "ColorProfile") -> bool:
        return other.__lt__(self)

    def __ge__(self, other: "ColorProfile") -> bool:
        return other.__le__(self)

    def __add__(self, other: "ColorProfile") -> "ColorProfile":
        basis = self._basis
        try:
            if basis is other._basis and basis is not None:
                out = _new(ColorProfile)
                out._d, out._pairs, out._key, out._basis = \
                    self._d, None, self._key + other._key, basis
                return out
        except AttributeError:
            return NotImplemented
        if self._d is None or other._d is None:
            if self._d is other._d and self._key != other._key:
                raise ProfileArithmeticError("+inf plus -inf is undefined")
            return self if self._d is None else other
        return ColorProfile(self._d, self._merge(other, 1))

    def __sub__(self, other: "ColorProfile") -> "ColorProfile":
        basis = self._basis
        try:
            if basis is other._basis and basis is not None:
                out = _new(ColorProfile)
                out._d, out._pairs, out._key, out._basis = \
                    self._d, None, self._key - other._key, basis
                return out
        except AttributeError:
            return NotImplemented
        if self._d is None or other._d is None:
            raise ProfileArithmeticError("subtraction needs two finite profiles")
        return ColorProfile(self._d, self._merge(other, -1))

    def __str__(self) -> str:
        if self._d is None:
            return "+inf" if self._key > 0 else "-inf"
        return "(%s)" % ",".join(str(c) for c in self.counts)

    def __repr__(self) -> str:
        return "ColorProfile(%s)" % self


NEG_INFINITY = ColorProfile(None, None, -1)
POS_INFINITY = ColorProfile(None, None, 1)

# The key of POS_INFINITY in a valuation's key list (see the module
# docstring); -INF_KEY is the key of NEG_INFINITY.
INF_KEY = math.inf


class ProfileBasis:
    """The key encoding of an n-node arena of a d-color game whose nodes
    carry `colors` (repeats allowed): every key is written at
    ``digit_width(n)`` bits, and digit i counts the i-th color in use in
    ascending order, so the keys of one arena's values add and compare
    like the profiles they stand for.  An arena's values count only the
    colors its nodes carry; ``ProfileBasis(d, range(d), n)`` counts
    every color of the game.  The solver works on these keys and turns them into profiles,
    of dimension d, only at its edges."""

    __slots__ = ("_d", "_b", "_colors", "_units")

    def __init__(self, d: int, colors: Iterable[int], n: int):
        # every unit key is made here, so unit_key only looks one up
        colors = tuple(sorted(set(colors)))
        if d < 1:
            raise DimensionError("dimension must be at least 1, got %d" % d)
        if colors and not 0 <= colors[0] <= colors[-1] < d:
            raise DimensionError("colors outside [0, %d): %r" % (d, colors))
        self._d = d
        self._b = b = digit_width(n)
        self._colors = colors
        self._units = {c: -(1 << b * i) if c % 2 else 1 << b * i
                       for i, c in enumerate(colors)}

    @property
    def colors(self) -> Sequence[int]:
        """The game colors the digits count, ascending: digit i counts
        ``colors[i]``."""
        return self._colors

    def key(self, value: ColorProfile) -> int | float:
        """The key of `value` in this basis, or +-INF_KEY for an
        infinity.  DimensionError if its dimension differs, a count does
        not fit the width or it counts a visit to a color the basis does
        not count."""
        if value._basis is self:
            return value._key
        if value._d is None:
            return INF_KEY if value._key > 0 else -INF_KEY
        if value._d != self._d:
            raise DimensionError(
                "profile dimensions differ: %d vs %d" % (value._d, self._d))
        half = 1 << (self._b - 1)
        key = 0
        for c, f in value._nonzero():
            if not -half < f < half:
                raise DimensionError("count %d does not fit a %d-bit digit"
                                     % (abs(f), self._b))
            key += f * abs(self.unit_key(c))
        return key

    def from_key(self, key: int | float) -> ColorProfile:
        """The profile of this basis with the given key; +-INF_KEY gives
        the infinities."""
        if key == INF_KEY:
            return POS_INFINITY
        if key == -INF_KEY:
            return NEG_INFINITY
        out = _new(ColorProfile)
        out._d, out._pairs, out._key, out._basis = self._d, None, key, self
        return out

    def _decode(self, key: int) -> tuple:
        """The (color, signed digit) pairs of a key's nonzero digits,
        highest color first.  Reads digits from the lowest up and stops
        at the highest nonzero one."""
        b = self._b
        mask, half = (1 << b) - 1, 1 << (b - 1)
        pairs = []
        for c in self._colors:
            if not key:
                break
            f = key & mask
            if f >= half:
                f -= 1 << b
            if f:
                pairs.append((c, f))
            key = (key - f) >> b
        pairs.reverse()
        return tuple(pairs)

    def unit_key(self, color: int) -> int:
        """The key of a single visit to the game color `color`: one int
        per color, shared by every node of that color.  DimensionError if
        the basis does not count `color`."""
        try:
            return self._units[color]
        except KeyError:
            raise DimensionError("color %r is not counted by the basis"
                                 % (color,)) from None


def zero_profile(d: int) -> ColorProfile:
    """The all-zero profile of dimension d: the value of the empty play."""
    if d < 1:
        raise DimensionError("dimension must be at least 1, got %d" % d)
    return ColorProfile(d, ())


def unit_profile(color: int, d: int) -> ColorProfile:
    """The profile of a single visit to `color` in a d-color game."""
    return path_value((color,), d)


def path_value(colors: Iterable[int], d: int) -> ColorProfile:
    """Sum of unit profiles over a color sequence (the value of a finite path)."""
    if d < 1:
        raise DimensionError("dimension must be at least 1, got %d" % d)
    visits = Counter(colors)
    for c in visits:
        if not 0 <= c < d:
            raise DimensionError("color %d outside [0, %d)" % (c, d))
    return ColorProfile(d, tuple((c, -k if c % 2 else k)
                                 for c, k in sorted(visits.items(),
                                                    reverse=True)))
