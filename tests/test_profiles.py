"""Color-profile arithmetic and ordering."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pgsi
from pgsi import NEG_INFINITY, POS_INFINITY, ColorProfile
from pgsi.errors import DimensionError, ProfileArithmeticError
from pgsi.profiles import (INF_KEY, ProfileBasis, digit_width, path_value,
                           unit_profile, zero_profile)


def fin(*counts):
    return ColorProfile.finite(counts)


def reference_compare(a: tuple, b: tuple) -> int:
    # order definition, written independently of the folded-key encoding:
    # decide at the highest index where the counts differ, preferring
    # fewer occurrences of an odd color and more of an even one
    assert len(a) == len(b)
    for k in reversed(range(len(a))):
        if a[k] == b[k]:
            continue
        if k % 2 == 0:
            return -1 if a[k] < b[k] else 1
        return -1 if a[k] > b[k] else 1
    return 0


finite_counts = st.lists(st.integers(-50, 50), min_size=3, max_size=3)
profiles3 = st.one_of(
    st.just(NEG_INFINITY), st.just(POS_INFINITY),
    finite_counts.map(lambda c: fin(*c)))


# ---------------------------------------------------------------- ordering

def test_compare_decides_at_even_index():
    assert fin(0, 0, 0) < fin(1, 0, 0)


def test_compare_decides_at_odd_index_reversed():
    assert fin(0, 1, 0) < fin(0, 0, 0)


def test_negative_infinity_below_everything():
    assert NEG_INFINITY < fin(-5, -5, -5)
    assert NEG_INFINITY < POS_INFINITY


def test_equal_profiles():
    assert fin(2, 7, 1) == fin(2, 7, 1)
    a, b = fin(2, 7, 1), fin(2, 7, 1)
    assert (a > b) - (a < b) == 0


def test_compare_mismatched_dimensions_rejected():
    with pytest.raises(DimensionError):
        fin(1, 2) < fin(1, 2, 3)


@given(finite_counts, finite_counts)
def test_order_matches_reference(a, b):
    pa, pb = fin(*a), fin(*b)
    assert (pa > pb) - (pa < pb) == reference_compare(tuple(a), tuple(b))


@given(profiles3, profiles3, profiles3)
def test_total_order_axioms(a, b, c):
    assert ((a > b) - (a < b) == 0) == (a == b)
    assert (a > b) - (a < b) == -((b > a) - (b < a))
    if a <= b and b <= c:
        assert a <= c
    assert a < b or b < a or a == b


# -------------------------------------------------------------- arithmetic

def test_add_componentwise():
    assert fin(1, 0, 2) + fin(0, 3, 0) == fin(1, 3, 2)


def test_add_zero_is_identity():
    p = fin(4, -1, 7)
    assert zero_profile(3) + p == p


def test_add_absorbs_infinity():
    assert POS_INFINITY + fin(5, 5, 5) == POS_INFINITY
    assert fin(5, 5, 5) + NEG_INFINITY == NEG_INFINITY


def test_add_opposite_infinities_undefined():
    with pytest.raises(ProfileArithmeticError):
        POS_INFINITY + NEG_INFINITY


def test_subtract_componentwise():
    assert fin(2, 1, 0) - fin(1, 1, 0) == fin(1, 0, 0)


def test_subtract_self_is_zero():
    p = fin(3, 9, -2)
    assert p - p == zero_profile(3)


def test_subtract_crossing_zero():
    diff = fin(0, 1, 0) - fin(0, 0, 1)
    assert diff == fin(0, 1, -1)
    assert diff < zero_profile(3)  # decided at index 2 (even), -1 < 0


def test_subtract_rejects_infinities():
    with pytest.raises(ProfileArithmeticError):
        POS_INFINITY - fin(0, 0, 0)
    with pytest.raises(ProfileArithmeticError):
        fin(0, 0, 0) - NEG_INFINITY


@given(finite_counts, finite_counts)
def test_subtract_inverts_add(a, b):
    assert (fin(*a) + fin(*b)) - fin(*b) == fin(*a)


@given(finite_counts, finite_counts, finite_counts)
def test_addition_monotone(a, b, c):
    pa, pb, pc = fin(*a), fin(*b), fin(*c)
    if pa < pb:
        assert pa + pc < pb + pc


# ------------------------------------------------- units, paths and cycles

def test_unit_profile_examples():
    assert unit_profile(1, 3) == fin(0, 1, 0)
    assert unit_profile(0, 1) == fin(1)
    assert unit_profile(3, 4) == fin(0, 0, 0, 1)


def test_unit_profile_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        unit_profile(3, 3)
    with pytest.raises(DimensionError):
        unit_profile(-1, 3)
    with pytest.raises(DimensionError):
        unit_profile(0, 0)


def test_path_value_examples():
    assert path_value((), 3) == zero_profile(3)
    assert path_value((0, 1, 1), 2) == fin(1, 2)
    assert path_value((2,), 3) == fin(0, 0, 1)
    assert path_value((2,), 3) > zero_profile(3)


def test_path_value_rejects_out_of_range_color():
    with pytest.raises(DimensionError):
        path_value((0, 5), 3)


@given(st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.just(d),
                        st.lists(st.integers(0, d - 1), min_size=1,
                                 max_size=12))))
def test_cycle_value_sign_matches_top_color_parity(case):
    # a cycle is worth more than the empty profile exactly when its
    # highest color is even, less when it is odd
    d, colors = case
    value = path_value(colors, d)
    if max(colors) % 2 == 0:
        assert value > zero_profile(d)
    else:
        assert value < zero_profile(d)


# --------------------------------------------------------- packed encoding

# The basis of a 4-color, 2-node arena: 6-bit digits, the largest TOP.
SMALL = ProfileBasis(4, range(4), 2)
TOP = 2 ** (digit_width(2) - 1) - 1


def at_small_width(counts):
    # built by unit steps on the basis's keys, as the solver builds its
    # values
    key = 0
    for color, k in enumerate(counts):
        unit = SMALL.unit_key(color)
        for _ in range(abs(k)):
            key = key + unit if k > 0 else key - unit
    return SMALL.from_key(key)


small_counts = st.lists(
    st.one_of(st.sampled_from((-TOP, TOP)), st.integers(-TOP, TOP)),
    min_size=4, max_size=4)


@st.composite
def fitting_pairs(draw):
    """Two count vectors whose sum and difference still fit the width."""
    a = draw(small_counts)
    b = [draw(st.integers(-(TOP - abs(x)), TOP - abs(x))) for x in a]
    return a, b


def test_digit_width_of_small_arenas():
    assert [digit_width(n) for n in range(4)] == [2, 4, 6, 6]
    assert TOP == 31


@given(small_counts, small_counts)
def test_packed_order_matches_reference_at_extreme_digits(a, b):
    pa, pb = at_small_width(a), at_small_width(b)
    assert pa.counts == tuple(a)
    assert (pa > pb) - (pa < pb) == reference_compare(tuple(a), tuple(b))


@given(fitting_pairs())
def test_packed_arithmetic_is_componentwise_at_extreme_digits(pair):
    a, b = pair
    pa, pb = at_small_width(a), at_small_width(b)
    assert (pa + pb).counts == tuple(x + y for x, y in zip(a, b))
    assert (pa - pb).counts == tuple(x - y for x, y in zip(a, b))
    total, diff = pa + pb, pa - pb
    assert (total > diff) - (total < diff) == reference_compare(
        tuple(x + y for x, y in zip(a, b)), tuple(x - y for x, y in zip(a, b)))


def test_finite_takes_counts_of_any_size():
    # a public profile holds its counts, not a key, so no digit width
    # bounds them; a basis key still refuses what its width cannot hold
    big = (2 ** 63, 2 ** 64, 2 ** 200)
    for x in big:
        for y in big + (-x, 1, 0):
            a, b = fin(x, -y, y), fin(y, x, -x)
            assert (a + b).counts == (x + y, x - y, y - x)
            assert (a - b).counts == (x - y, -y - x, y + x)
            assert a + b - b == a and hash(a + b - b) == hash(a)
            assert hash(a - a) == hash(zero_profile(3))
            assert (a > b) - (a < b) == reference_compare(a.counts, b.counts)
            assert (a == b) == (a.counts == b.counts)
    for count in (TOP + 1, 2 ** 63):
        with pytest.raises(DimensionError):
            SMALL.key(fin(0, 0, 0, count))
        with pytest.raises(DimensionError):
            SMALL.key(fin(-count, 0, 0, 0))
    assert SMALL.key(fin(0, 0, 0, TOP)) == TOP * SMALL.unit_key(3)


def test_equal_profiles_of_different_widths():
    narrow = at_small_width([3, -2, 0, 5])
    wide = fin(3, -2, 0, 5)
    assert narrow == wide and wide == narrow
    assert not narrow != wide
    assert hash(narrow) == hash(wide)
    assert len({narrow, wide}) == 1
    assert narrow != at_small_width([3, -2, 0, 4])
    assert narrow != fin(3, -2, 5)
    assert narrow + wide == fin(6, -4, 0, 10)
    assert wide - narrow == zero_profile(4)
    assert narrow < wide + unit_profile(0, 4)
    assert not narrow < wide and narrow <= wide
    with pytest.raises(DimensionError):
        narrow < fin(3, -2, 5)


def test_unit_profiles_at_the_solver_width():
    assert SMALL.from_key(SMALL.unit_key(0)) == unit_profile(0, 4)
    assert SMALL.from_key(SMALL.unit_key(3)) == unit_profile(3, 4)
    assert SMALL.from_key(0) == zero_profile(4)
    with pytest.raises(DimensionError):
        SMALL.unit_key(4)


def test_basis_keys_add_and_order_like_profiles():
    a, b = at_small_width([3, -2, 0, 5]), at_small_width([1, 4, -7, 5])
    ka, kb = SMALL.key(a), SMALL.key(b)
    assert SMALL.key(zero_profile(4)) == 0
    assert SMALL.from_key(ka) == a
    assert SMALL.from_key(ka + kb) == a + b
    assert SMALL.from_key(ka - kb) == a - b
    assert (ka < kb) == (a < b) and (kb < ka) == (b < a)


def test_basis_key_re_encodes_other_widths_exactly():
    wide = fin(3, -2, 0, 5)
    assert SMALL.key(wide) == SMALL.key(at_small_width([3, -2, 0, 5]))
    assert SMALL.key(POS_INFINITY) == INF_KEY
    assert SMALL.key(NEG_INFINITY) == -INF_KEY
    assert SMALL.from_key(INF_KEY) is POS_INFINITY
    assert SMALL.from_key(-INF_KEY) is NEG_INFINITY
    with pytest.raises(DimensionError):
        SMALL.key(fin(3, -2, 5))
    with pytest.raises(DimensionError):
        SMALL.key(fin(0, 0, 0, TOP + 1))


def test_inf_key_is_exactly_above_every_key():
    # valuations hold INF_KEY among int keys of any size: comparisons,
    # min and max must treat it as the top value without rounding
    for key in (0, 1, -1, TOP, 1 << 48000, -(1 << 48000), (1 << 48000) - 1):
        assert key < INF_KEY and not INF_KEY < key and key != INF_KEY
        assert -INF_KEY < key
        assert max(key, INF_KEY) == INF_KEY == max(INF_KEY, key)
        assert min(key, INF_KEY) == key == min(INF_KEY, key)
    assert (1 << 48000) - 1 < 1 << 48000 < INF_KEY


# ---------------------------------------------------------------- plumbing

def test_rendering():
    assert str(fin(0, 2, 1)) == "(0,2,1)"
    assert str(POS_INFINITY) == "+inf"
    assert str(NEG_INFINITY) == "-inf"


def test_counts_round_trip():
    assert fin(1, -2, 3).counts == (1, -2, 3)
    with pytest.raises(ProfileArithmeticError):
        POS_INFINITY.counts


def test_profiles_hashable():
    assert len({fin(1, 0), fin(1, 0), fin(0, 1)}) == 2
    assert len({POS_INFINITY, NEG_INFINITY}) == 2


def test_infinities_are_singletons_of_any_dimension():
    assert POS_INFINITY + fin(1, 1) == POS_INFINITY + fin(1, 1, 1, 1)
    assert not POS_INFINITY.is_finite
    assert fin(0, 0).is_finite


# ------------------------------------------------- one digit per color in use

# An arena of 3 nodes in a 1000-color game whose nodes carry 0, 599, 999.
GAPPED = ProfileBasis(1000, (999, 0, 599, 599), 3)


def sparse(d, counts):
    # a public profile of dimension d with the given nonzero counts
    full = [0] * d
    for color, k in counts.items():
        full[color] = k
    return ColorProfile.finite(full)


def test_basis_over_counts_only_the_colors_in_use():
    assert tuple(GAPPED.colors) == (0, 599, 999)
    b = digit_width(3)
    assert GAPPED.unit_key(0) == 1
    assert GAPPED.unit_key(599) == -(1 << b)
    assert GAPPED.unit_key(999) == -(1 << 2 * b)
    for color in (1, 598, 1000):
        with pytest.raises(DimensionError):
            GAPPED.unit_key(color)
    # every color in use gives the basis over range(d)
    full = ProfileBasis(4, (3, 1, 0, 2), 2)
    assert list(full.colors) == [0, 1, 2, 3]
    assert all(full.unit_key(c) == SMALL.unit_key(c) for c in range(4))
    with pytest.raises(DimensionError):
        ProfileBasis(4, (4,), 2)


def test_gapped_keys_decode_to_profiles_in_game_colors():
    key = 3 * GAPPED.unit_key(0) + 2 * GAPPED.unit_key(999) \
        - GAPPED.unit_key(599)
    value = GAPPED.from_key(key)
    assert value.dimension == 1000
    expected = sparse(1000, {0: 3, 599: -1, 999: 2})
    assert value.counts == expected.counts
    assert str(value) == str(expected)
    assert value == expected and expected == value
    assert hash(value) == hash(expected)
    assert len({value, expected}) == 1
    assert GAPPED.key(expected) == key
    assert GAPPED.key(value) == key


def test_gapped_keys_order_and_add_like_profiles_in_game_colors():
    units = [GAPPED.unit_key(c) for c in (0, 599, 999)]
    rng = random.Random(3)
    for _ in range(200):
        ka = sum(rng.randint(-3, 3) * u for u in units)
        kb = sum(rng.randint(-3, 3) * u for u in units)
        a, b = GAPPED.from_key(ka), GAPPED.from_key(kb)
        assert (a < b) == (ka < kb) == (reference_compare(a.counts, b.counts)
                                        < 0)
        assert GAPPED.from_key(ka + kb) == a + b
        # mixed: one side decoded from a key, the other a public profile
        wide_b = ColorProfile.finite(b.counts)
        assert (a < wide_b) == (ka < kb) and (wide_b < a) == (kb < ka)
        assert (a + wide_b).counts == (a + b).counts
        assert (a - wide_b).counts == (a - b).counts
        assert (a == wide_b) == (ka == kb)


def test_gapped_profiles_of_two_bases_mix():
    other = ProfileBasis(1000, (5, 599), 3)
    a = GAPPED.from_key(GAPPED.unit_key(999) + GAPPED.unit_key(599))
    b = other.from_key(other.unit_key(5) + other.unit_key(599))
    total = a + b
    assert total.counts == sparse(1000, {5: 1, 599: 2, 999: 1}).counts
    assert total - b == a
    # they differ highest at the odd color 999, which only a visits
    assert a < b and not b < a
    assert a != b and hash(a) != hash(b)


def test_basis_key_refuses_a_visit_to_a_color_not_in_use():
    with pytest.raises(DimensionError):
        GAPPED.key(sparse(1000, {1: 1}))
    with pytest.raises(DimensionError):
        GAPPED.key(fin(1, 0, 0))
    assert GAPPED.key(zero_profile(1000)) == 0
    assert GAPPED.key(sparse(1000, {599: 2})) == 2 * GAPPED.unit_key(599)
    assert GAPPED.from_key(INF_KEY) is POS_INFINITY


def test_public_profiles_never_decode_a_key(monkeypatch):
    def refuse(basis, key):
        raise AssertionError("decoded key %r" % (key,))
    monkeypatch.setattr(ProfileBasis, "_decode", refuse)
    d = 1000
    for a, b in ((fin(3, -2, 0, 5), fin(1, 4, -7, 5)),
                 (unit_profile(999, d), path_value((0, 599, 599, 998), d)),
                 (zero_profile(d), unit_profile(7, d))):
        for x, y in ((a, b), (b, a), (a, a)):
            x + y, x - y, x < y, x <= y, x == y, x != y
            hash(x), str(x), x.counts
    # profiles of one basis add, subtract and compare as keys; a visit
    # to the odd color 999 is worth less than anything below it
    u, v = GAPPED.from_key(GAPPED.unit_key(999)), GAPPED.from_key(5)
    total = u + v
    assert total - v == u and u < v and not v < u and u != v
    assert total == GAPPED.from_key(GAPPED.unit_key(999) + 5)
    assert SMALL.key(SMALL.from_key(-7)) == -7


def test_basis_over_no_colors():
    # an arena with no node left: only the sink, whose value is 0
    empty = ProfileBasis(3, (), 0)
    assert tuple(empty.colors) == ()
    assert empty.from_key(0) == zero_profile(3)
    assert str(empty.from_key(0)) == "(0,0,0)"


def test_huge_color_keys_stay_small():
    d = 10 ** 12 + 1
    basis = ProfileBasis(d, (10 ** 12,), 1)
    unit = basis.unit_key(10 ** 12)
    assert unit == 1
    value = basis.from_key(5 * unit)
    assert value.dimension == d
    assert value + value == basis.from_key(10 * unit)
    assert basis.from_key(0) < value


# Run in a child whose address space is capped at 2 GB: a decode of all
# 10^12 digits, or a set of 10^12 colors, raises MemoryError there
# instead of filling the machine's memory.
_HUGE_COLOR_MIX = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from pgsi import parse_pgsolver, solve
from pgsi.profiles import zero_profile

# the cap bites: spelling out every color of a 10^12-color profile fails
try:
    zero_profile(10 ** 12 + 1).counts
except MemoryError:
    pass
else:
    raise AssertionError("the memory cap does not bite")

# node 0 wins on its even loop through node 1; the sink's value is 0
result = solve(parse_pgsolver("0 1000000000000 0 1;\\n1 3 1 0;\\n"))
zero, sink = zero_profile(10 ** 12 + 1), result.valuation[2]
assert sink == zero and zero == sink
assert not sink < zero and not zero < sink
assert sink + zero == zero and zero - sink == sink
assert hash(zero) == hash(sink)

# node 0 escapes from its odd loop: value -1 at color 10^12 + 1
result = solve(parse_pgsolver("0 1000000000001 0 1;\\n1 3 1 0;\\n"))
zero, low = zero_profile(10 ** 12 + 2), result.valuation[0]
assert low < zero and not zero < low and low != zero
assert low + zero == low and zero + low == low and low - zero == low
assert zero - low > zero and low - low == zero
assert hash(zero + low) == hash(low) and hash(low - low) == hash(zero)
"""


def test_huge_color_profiles_mix_forms_without_decoding_every_color():
    pytest.importorskip("resource")
    src = str(Path(pgsi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", _HUGE_COLOR_MIX], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
