"""Color-profile arithmetic and ordering."""

import pytest
from hypothesis import given, settings, strategies as st

from pgsi import NEG_INFINITY, POS_INFINITY, ColorProfile
from pgsi.errors import DimensionError, ProfileArithmeticError
from pgsi.profiles import (ProfileBasis, digit_width, path_value, unit_profile,
                           zero_profile)


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
SMALL = ProfileBasis(4, 2)
TOP = 2 ** (digit_width(2) - 1) - 1


def at_small_width(counts):
    # built by unit steps from the basis, as the solver builds its values
    p = SMALL.zero
    for color, k in enumerate(counts):
        unit = SMALL.unit(color)
        for _ in range(abs(k)):
            p = p + unit if k > 0 else p - unit
    return p


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


def test_finite_refuses_counts_beyond_the_digit_width():
    top = 2 ** 63 - 1
    assert fin(top, -top).counts == (top, -top)
    for count in (top + 1, -top - 1):
        with pytest.raises(DimensionError):
            fin(0, count)


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
    assert SMALL.unit(0) == unit_profile(0, 4)
    assert SMALL.unit(3) == unit_profile(3, 4)
    assert SMALL.zero == zero_profile(4)
    with pytest.raises(DimensionError):
        SMALL.unit(4)


def test_basis_keys_add_and_order_like_profiles():
    a, b = at_small_width([3, -2, 0, 5]), at_small_width([1, 4, -7, 5])
    ka, kb = SMALL.key(a), SMALL.key(b)
    assert SMALL.key(SMALL.zero) == 0
    assert SMALL.from_key(ka) == a
    assert SMALL.from_key(ka + kb) == a + b
    assert SMALL.from_key(ka - kb) == a - b
    assert (ka < kb) == (a < b) and (kb < ka) == (b < a)


def test_basis_key_re_encodes_other_widths_exactly():
    wide = fin(3, -2, 0, 5)
    assert SMALL.key(wide) == SMALL.key(at_small_width([3, -2, 0, 5]))
    assert SMALL.keys({0: wide, 1: POS_INFINITY, 2: NEG_INFINITY}) == {
        0: SMALL.key(wide), 1: None, 2: None}
    with pytest.raises(DimensionError):
        SMALL.key(fin(3, -2, 5))
    with pytest.raises(DimensionError):
        SMALL.key(fin(0, 0, 0, TOP + 1))


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
