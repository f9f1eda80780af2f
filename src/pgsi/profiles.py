"""Play values: color profiles, their total order, and their keys.

A finite play value is a color profile: per color, how many times that
color occurs along a finite play.  ``+inf`` stands for the plays player
0 keeps winning forever.  Profiles of the same dimension are ordered by
the highest color at which they differ: more visits to an even color is
better for player 0, more visits to an odd color is worse.

Digits.  The digit of color c is its count, negated when c is odd, so
that a greater digit is always better for player 0.  Profiles are
ordered by the digit of the highest color at which they differ, and a
color with count 0 never decides anything.

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
directly.  Only at the solver's edges, the result's valuation and the
hooks, does ``ProfileBasis.from_key`` turn a key into a
:class:`ColorProfile`, and it only wraps the key: the basis decodes a
key's digits when ``counts``, ``str``, ``hash`` or an ``==`` with a value
of another basis needs them, and then only up to the highest nonzero
one.  ``INF_KEY`` is the float infinity: Python compares an int with it
exactly whatever the int's size, so ``<``, ``==``, ``min`` and ``max``
treat it as the top value, and the solver never adds anything to it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DimensionError, ProfileArithmeticError

_new = object.__new__


def digit_width(n: int) -> int:
    """Bits per digit that fit every value the solver forms on an arena of
    n nodes (see the module docstring)."""
    return (n * (n + 2)).bit_length() + 2


class ColorProfile:
    """A play value as the solver hands it out: the decoded key of one
    arena's :class:`ProfileBasis`, or :data:`POS_INFINITY`.

    ``counts`` spells out a finite value's per-color counts, lowest color
    first.  ``==`` and ``hash`` compare the counts, so the values of two
    solves, each with its own basis, are equal when they count the same
    visits.  ``<``, ``<=``, ``>`` and ``>=`` are the strict and weak game
    order between values of one basis and against +inf, ``>`` and ``>=``
    through the reflected ``<`` and ``<=``; between two bases they raise
    :class:`DimensionError`.  ``+`` and ``-`` add and
    subtract the keys of two finite values of one basis, and raise
    :class:`ProfileArithmeticError` on any other pair.
    """

    # A finite profile holds its dimension, its key, its basis and its
    # (color, signed digit) pairs, highest color first, which stay None
    # until the basis decodes them.  POS_INFINITY alone has no basis; its
    # dimension is None and its key INF_KEY.
    __slots__ = ("_d", "_pairs", "_key", "_basis")

    @property
    def is_finite(self) -> bool:
        return self._d is not None

    @property
    def dimension(self) -> int | None:
        """Number of colors, or None for +inf."""
        return self._d

    def _nonzero(self) -> tuple:
        """The (color, signed digit) pairs of a finite profile's nonzero
        counts, highest color first."""
        if self._pairs is None:
            self._pairs = self._basis._decode(self._key)
        return self._pairs

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
            if basis is other._basis:
                return self._key == other._key
        except AttributeError:
            return NotImplemented
        # +inf is the one profile without a basis, and has no dimension
        return self._d == other._d and self._nonzero() == other._nonzero()

    def __hash__(self) -> int:
        return hash(self._key if self._d is None else self._nonzero())

    def __lt__(self, other: "ColorProfile") -> bool:
        basis = self._basis
        try:
            if basis is other._basis or basis is None or other._basis is None:
                return self._key < other._key
        except AttributeError:
            return NotImplemented
        raise DimensionError("profiles of two bases are not ordered")

    def __le__(self, other: "ColorProfile") -> bool:
        if not isinstance(other, ColorProfile):
            return NotImplemented
        return not other < self

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
        raise ProfileArithmeticError("+/- needs finite profiles of one basis")

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
        raise ProfileArithmeticError("+/- needs finite profiles of one basis")

    def __str__(self) -> str:
        if self._d is None:
            return "+inf"
        return "(%s)" % ",".join(str(c) for c in self.counts)

    def __repr__(self) -> str:
        return "ColorProfile(%s)" % self


# The key of POS_INFINITY in a valuation's key list (see the module
# docstring).
INF_KEY = math.inf

POS_INFINITY = _new(ColorProfile)
POS_INFINITY._d = POS_INFINITY._pairs = POS_INFINITY._basis = None
POS_INFINITY._key = INF_KEY


class ProfileBasis:
    """The key encoding of an n-node arena of a d-color game whose nodes
    carry `colors` (repeats allowed): every key is written at
    ``digit_width(n)`` bits, and digit i counts the i-th color in use in
    ascending order, so the keys of one arena's values add and compare
    like the profiles they stand for.  An arena's values count only the
    colors its nodes carry; ``ProfileBasis(d, range(d), n)`` counts
    every color of the game.  The solver works on these keys and turns
    them into profiles, of dimension d, only at its edges."""

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

    def from_key(self, key: int | float) -> ColorProfile:
        """The profile of this basis with the given key; INF_KEY gives
        POS_INFINITY."""
        if key == INF_KEY:
            return POS_INFINITY
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
