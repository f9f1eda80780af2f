"""Color-profile arithmetic and the total order on play values.

A finite color profile counts, per color, how many times that color occurs
along a finite play.  The two infinities stand for the extreme play values:
``-inf`` for plays player 0 has already lost, ``+inf`` for plays player 0
keeps winning forever.  Profiles of the same dimension are ordered by the
highest color at which they differ: more visits to an even color is better
for player 0, more visits to an odd color is worse.

Encoding.  A finite profile of dimension d is stored as one int, its key,
written in base 2^b with signed digits over the colors the profile's form
counts, ascending: digit i is the count of the i-th of those colors,
negated when that color is odd, and the highest of them takes the most
significant digit.  With all d colors counted that is::

    key = f_0 + f_1 * 2^b + ... + f_(d-1) * 2^(b(d-1))

A color the form does not count has count 0.  Profiles are ordered by
the highest color at which they differ, and two profiles with count 0 at
a color never differ there, so leaving it out keeps the order: the
solver's keys count only the colors its arena's nodes carry.

While every digit stays below 2^(b-1) in magnitude, two digits differ by
at most 2^b - 2, so everything below the highest differing digit adds up
to less than one unit of that digit.  The key therefore determines the
digits, keys order like the game order, and adding or subtracting two
profiles is adding or subtracting their keys.  The arithmetic does not
check that bound; the width b is chosen so that it holds.

Width.  The width is part of a profile.  ``ColorProfile.finite``,
``zero_profile``, ``unit_profile`` and ``path_value`` use 64-bit digits
over every color, so their sums stay exact up to counts of 2^63.  The
solver takes its unit keys from a :class:`ProfileBasis` built once per
arena, over the colors the arena's nodes carry, at ``digit_width(n)``
bits for an arena of n nodes (the sink not counted).  That width covers
every digit the solver forms:

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

An operation on two profiles of different forms first re-encodes both,
at the wider width, over the colors at which either has a nonzero count:
exact, but slower.  Whatever its form, a profile speaks the game's
colors: its dimension is the game's d, and ``counts`` and ``str`` read
every color, a color the form does not count as 0.  One decoder reads
the digits of a key for ``counts``, ``hash`` and every operation
between forms, and it decodes only the digits up to the highest
nonzero one, so the last two cost what the profiles count rather than
d: a game with a color of 10^12 has profiles that compare, add and
hash.
All values are immutable and safe to share.

Inside ``solve`` a valuation is not a mapping of profiles but a list of
keys indexed by node id, the escape sink last, all in the form of the
arena's :class:`ProfileBasis`, with :data:`INF_KEY` standing for +inf.
Every valuation route, check and classification adds and compares these
ints directly; ``ProfileBasis.key`` and ``ProfileBasis.from_key``
translate between keys and profiles at the edges (the result's
valuation and the hooks); ``from_key`` only wraps the key, so a profile
spells out its counts over all d colors only when asked.  ``INF_KEY`` is
the float infinity: Python compares an int with it exactly whatever the
int's size, so ``<``, ``==``, ``min`` and ``max`` treat it as the top
value, and the solver never adds anything to it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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
    if not digits:
        return 0
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
    if not d:
        return ()
    half = 1 << (b - 1)
    bits = format(key + _bias(d, b), "0%db" % (b * d))
    return tuple([int(bits[i:i + b], 2) - half for i in range(0, b * d, b)])


def _encode(value: "ColorProfile", form: tuple) -> int:
    """Key of a finite profile in another form of its dimension.
    DimensionError if a count does not fit the form's width or the
    profile counts a visit to a color the form does not count."""
    _, b, colors = form
    counted = dict(value._nonzero_digits())
    digits = [counted.pop(c, 0) for c in reversed(colors)]
    for c, f in counted.items():
        raise DimensionError(
            "count %d at color %d, which the form does not count"
            % (-f if c % 2 else f, c))
    return _pack(digits, b)


class ColorProfile:
    """An element of the play-value domain: a d-dimensional count vector or
    one of the two infinities.

    Instances compare with the usual rich operators; ``<`` is the strict
    game order.  Addition is componentwise, an infinity absorbs any finite
    summand, and adding opposite infinities raises
    :class:`ProfileArithmeticError`.  Subtraction is defined for finite
    profiles only.
    """

    # A finite profile holds its key and its form, the triple (dimension,
    # digit width, colors its digits count): range(d) for every color, or
    # an ascending tuple.  Profiles made together share one form object,
    # which is what the fast paths test.  An infinity has form None and
    # its sign, +1 or -1, as key.
    __slots__ = ("_key", "_form")

    def __init__(self, key: int, form: tuple[int, int, Sequence[int]] | None):
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
        return cls(_pack(digits, _WIDE_DIGITS), (d, _WIDE_DIGITS, range(d)))

    @property
    def is_finite(self) -> bool:
        return self._form is not None

    @property
    def dimension(self) -> int | None:
        """Number of colors, or None for an infinity."""
        return self._form[0] if self._form is not None else None

    def _nonzero_digits(self) -> list[tuple[int, int]]:
        """(color, signed digit) of every nonzero digit, lowest color
        first.  Only the low digits the key's bits reach are decoded: a
        digit is below 2^(b-1) in magnitude, so a key whose highest
        nonzero digit is digit i has at least b*i bits."""
        _, b, colors = self._form
        k = min(len(colors), abs(self._key).bit_length() // b + 1)
        return [(c, f) for c, f in zip(colors[:k],
                                       reversed(_unpack(self._key, k, b)))
                if f]

    @property
    def counts(self) -> tuple[int, ...]:
        """Per-color counts, lowest color first.  Finite profiles only."""
        if self._form is None:
            raise ProfileArithmeticError("an infinite profile has no counts")
        counts = [0] * self._form[0]
        for c, f in self._nonzero_digits():
            counts[c] = -f if c % 2 else f
        return tuple(counts)

    def _aligned(self, other: "ColorProfile") -> tuple[int, int, tuple]:
        """Keys of two finite profiles of one dimension in a common form,
        and that form: the wider width, over the colors at which either
        has a nonzero count, so that no operation spells out a color
        both leave at 0."""
        a, b = self._form, other._form
        if a[0] != b[0]:
            raise DimensionError(
                "profile dimensions differ: %d vs %d" % (a[0], b[0]))
        colors = {c for c, _ in self._nonzero_digits()}
        colors.update(c for c, _ in other._nonzero_digits())
        form = (a[0], max(a[1], b[1]), tuple(sorted(colors)))
        return _encode(self, form), _encode(other, form), form

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
        # the nonzero digits with their colors, whatever the form
        return hash(tuple(self._nonzero_digits()))

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

# The key of POS_INFINITY in a valuation's key list (see the module
# docstring); -INF_KEY is the key of NEG_INFINITY.
INF_KEY = math.inf


class ProfileBasis:
    """The key encoding of one arena of n nodes in a d-color game: every
    key is written at ``digit_width(n)`` bits, one digit per color the
    basis counts, so the keys of one arena's values add and compare like
    the profiles they stand for.  ``ProfileBasis(d, n)`` counts the
    colors 0..d-1; :meth:`over` counts only the colors an arena's nodes
    carry, which is all any of its values can count.  The solver works
    on these keys and turns them into profiles, of dimension d, only at
    its edges."""

    __slots__ = ("_form", "_units")

    def __init__(self, d: int, n: int):
        self._count(d, range(d), n)

    @classmethod
    def over(cls, d: int, colors: Iterable[int], n: int) -> "ProfileBasis":
        """The basis of an n-node arena of a d-color game whose nodes
        carry `colors` (repeats allowed): digit i counts the i-th of them
        in ascending order."""
        basis = _new(cls)
        basis._count(d, sorted(set(colors)), n)
        return basis

    def _count(self, d: int, colors: Sequence[int], n: int) -> None:
        # digit i counts colors[i], which ascend; every unit key is made
        # here, so unit_key only looks one up
        if d < 1:
            raise DimensionError("dimension must be at least 1, got %d" % d)
        if colors and not 0 <= colors[0] <= colors[-1] < d:
            raise DimensionError("colors outside [0, %d): %r" % (d, colors))
        b = digit_width(n)
        self._form = (d, b, range(d) if len(colors) == d else tuple(colors))
        self._units = units = {}
        shift = 0
        for c in colors:
            units[c] = -(1 << shift) if c % 2 else 1 << shift
            shift += b

    @property
    def colors(self) -> Sequence[int]:
        """The game colors the digits count, ascending: digit i counts
        ``colors[i]``."""
        return self._form[2]

    def key(self, value: ColorProfile) -> int | float:
        """The key of `value` in this basis, or +-INF_KEY for an
        infinity.  A finite profile of another form is re-encoded
        exactly; DimensionError if its dimension differs, a count does
        not fit the width or it counts a visit to a color the basis does
        not count."""
        form = value._form
        if form is self._form:
            return value._key
        if form is None:
            return INF_KEY if value._key > 0 else -INF_KEY
        d = self._form[0]
        if form[0] != d:
            raise DimensionError(
                "profile dimensions differ: %d vs %d" % (form[0], d))
        return _encode(value, self._form)

    def from_key(self, key: int | float) -> ColorProfile:
        """The profile of this basis's form with the given key; +-INF_KEY
        gives the infinities."""
        if key == INF_KEY:
            return POS_INFINITY
        if key == -INF_KEY:
            return NEG_INFINITY
        out = _new(ColorProfile)
        out._key = key
        out._form = self._form
        return out

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
    return ColorProfile(0, (d, _WIDE_DIGITS, range(d)))


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
