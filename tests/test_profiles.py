"""Play values: the game order on color profiles, the keys of a basis,
and the values that solves hand out."""

import importlib.util
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pgsi
from pgsi import POS_INFINITY, parse_pgsolver, solve
from pgsi.errors import DimensionError, ProfileArithmeticError
from pgsi.profiles import INF_KEY, ProfileBasis, digit_width

from helpers import key_of, reference_compare


@lru_cache(maxsize=None)
def basis_of(d):
    # one basis per dimension counting every color, wide enough for the
    # sums and differences of the counts drawn below
    return ProfileBasis(d, range(d), 64)


def fin(*counts):
    basis = basis_of(len(counts))
    return basis.from_key(key_of(basis, counts))


def zero(d):
    return basis_of(d).from_key(0)


def path(colors, d):
    # the value of a finite path: its colors' unit keys added up
    basis = basis_of(d)
    return basis.from_key(sum(map(basis.unit_key, colors)))


finite_counts = st.lists(st.integers(-50, 50), min_size=3, max_size=3)
profiles3 = st.one_of(
    st.just(POS_INFINITY), finite_counts.map(lambda c: fin(*c)))


# ---------------------------------------------------------------- ordering

def test_compare_decides_at_even_index():
    assert fin(0, 0, 0) < fin(1, 0, 0)


def test_compare_decides_at_odd_index_reversed():
    assert fin(0, 1, 0) < fin(0, 0, 0)


def test_positive_infinity_above_everything():
    assert fin(5, -5, 5) < POS_INFINITY and not POS_INFINITY < fin(5, -5, 5)
    assert POS_INFINITY > fin(0) and POS_INFINITY >= fin(0, 9)
    assert not POS_INFINITY < POS_INFINITY and POS_INFINITY <= POS_INFINITY


def test_equal_profiles():
    assert fin(2, 7, 1) == fin(2, 7, 1)
    a, b = fin(2, 7, 1), fin(2, 7, 1)
    assert (a > b) - (a < b) == 0


def test_compare_mismatched_dimensions_rejected():
    with pytest.raises(DimensionError):
        fin(1, 2) < fin(1, 2, 3)
    assert fin(1, 2) != fin(1, 2, 0)


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
    assert zero(3) + p == p and p + zero(3) == p


def test_add_rejects_infinity():
    for a, b in ((POS_INFINITY, fin(5, 5, 5)), (fin(5, 5, 5), POS_INFINITY),
                 (POS_INFINITY, POS_INFINITY)):
        with pytest.raises(ProfileArithmeticError):
            a + b


def test_subtract_componentwise():
    assert fin(2, 1, 0) - fin(1, 1, 0) == fin(1, 0, 0)


def test_subtract_self_is_zero():
    p = fin(3, 9, -2)
    assert p - p == zero(3)


def test_subtract_crossing_zero():
    diff = fin(0, 1, 0) - fin(0, 0, 1)
    assert diff == fin(0, 1, -1)
    assert diff < zero(3)  # decided at index 2 (even), -1 < 0


def test_subtract_rejects_infinities():
    for a, b in ((POS_INFINITY, fin(0, 0, 0)), (fin(0, 0, 0), POS_INFINITY),
                 (POS_INFINITY, POS_INFINITY)):
        with pytest.raises(ProfileArithmeticError):
            a - b


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
    assert path((1,), 3) == fin(0, 1, 0)
    assert path((0,), 1) == fin(1)
    assert path((3,), 4) == fin(0, 0, 0, 1)


def test_unit_profile_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        basis_of(3).unit_key(3)
    with pytest.raises(DimensionError):
        basis_of(3).unit_key(-1)
    with pytest.raises(DimensionError):
        ProfileBasis(0, (), 1)


def test_path_value_examples():
    assert path((), 3) == zero(3)
    assert path((0, 1, 1), 2) == fin(1, 2)
    assert path((2,), 3) == fin(0, 0, 1)
    assert path((2,), 3) > zero(3)


def test_path_value_rejects_out_of_range_color():
    with pytest.raises(DimensionError):
        path((0, 5), 3)
    with pytest.raises(DimensionError):
        ProfileBasis(3, (0, 5), 2)


@given(st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.just(d),
                        st.lists(st.integers(0, d - 1), min_size=1,
                                 max_size=12))))
def test_cycle_value_sign_matches_top_color_parity(case):
    # a cycle is worth more than the empty profile exactly when its
    # highest color is even, less when it is odd
    d, colors = case
    value = path(colors, d)
    assert value.counts == tuple(colors.count(c) for c in range(d))
    if max(colors) % 2 == 0:
        assert value > zero(d)
    else:
        assert value < zero(d)


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


@st.composite
def keyed_pairs(draw):
    """A basis counting every color of a d-color game on n nodes, and two
    count vectors whose sum and difference fit its digits."""
    d = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(1, 12),
                       st.sampled_from((2 ** 20, 2 ** 64))))
    limit = ((1 << digit_width(n) - 1) - 1) // 2
    counts = st.lists(st.one_of(st.sampled_from((-limit, limit)),
                                st.integers(-limit, limit)),
                      min_size=d, max_size=d)
    return ProfileBasis(d, range(d), n), tuple(draw(counts)), \
        tuple(draw(counts))


@given(keyed_pairs())
def test_basis_keys_add_subtract_and_order_like_count_tuples(case):
    basis, a, b = case
    ka, kb = key_of(basis, a), key_of(basis, b)
    total = tuple(x + y for x, y in zip(a, b))
    diff = tuple(x - y for x, y in zip(a, b))
    assert basis.from_key(ka).counts == a
    assert basis.from_key(ka + kb).counts == total
    assert basis.from_key(ka - kb).counts == diff
    assert (ka > kb) - (ka < kb) == reference_compare(a, b)
    assert (ka + kb > ka - kb) - (ka + kb < ka - kb) \
        == reference_compare(total, diff)
    pa, pb = basis.from_key(ka), basis.from_key(kb)
    assert (pa + pb).counts == total and (pa - pb).counts == diff
    assert (pa > pb) - (pa < pb) == reference_compare(a, b)
    assert (pa == pb) == (a == b)
    assert hash(pa + pb - pb) == hash(pa)
    assert pa - pa == basis.from_key(0) and hash(pa - pa) == hash(zero(3))


def test_equal_profiles_of_different_widths():
    narrow = at_small_width([3, -2, 0, 5])
    wide = fin(3, -2, 0, 5)
    assert narrow == wide and wide == narrow
    assert not narrow != wide
    assert hash(narrow) == hash(wide)
    assert len({narrow, wide}) == 1
    assert narrow != at_small_width([3, -2, 0, 4])
    assert narrow != fin(3, -2, 5)
    # only values of one basis add, subtract and order
    with pytest.raises(ProfileArithmeticError):
        narrow + wide
    with pytest.raises(ProfileArithmeticError):
        wide - narrow
    with pytest.raises(DimensionError):
        narrow < wide
    with pytest.raises(DimensionError):
        narrow <= wide
    assert narrow < POS_INFINITY and wide < POS_INFINITY


def test_unit_profiles_at_the_solver_width():
    assert SMALL.from_key(SMALL.unit_key(0)) == path((0,), 4)
    assert SMALL.from_key(SMALL.unit_key(3)) == path((3,), 4)
    assert SMALL.from_key(0) == zero(4)
    with pytest.raises(DimensionError):
        SMALL.unit_key(4)


def test_basis_keys_add_and_order_like_profiles():
    a, b = at_small_width([3, -2, 0, 5]), at_small_width([1, 4, -7, 5])
    ka, kb = key_of(SMALL, [3, -2, 0, 5]), key_of(SMALL, [1, 4, -7, 5])
    assert SMALL.from_key(ka) == a
    assert SMALL.from_key(ka + kb) == a + b
    assert SMALL.from_key(ka - kb) == a - b
    assert (ka < kb) == (a < b) and (kb < ka) == (b < a)


def test_inf_key_is_exactly_above_every_key():
    # valuations hold INF_KEY among int keys of any size: comparisons,
    # min and max must treat it as the top value without rounding
    for key in (0, 1, -1, TOP, 1 << 48000, -(1 << 48000), (1 << 48000) - 1):
        assert key < INF_KEY and not INF_KEY < key and key != INF_KEY
        assert max(key, INF_KEY) == INF_KEY == max(INF_KEY, key)
        assert min(key, INF_KEY) == key == min(INF_KEY, key)
    assert (1 << 48000) - 1 < 1 << 48000 < INF_KEY


# ---------------------------------------------------------------- plumbing

def test_rendering():
    assert str(fin(0, 2, 1)) == "(0,2,1)"
    assert repr(fin(0, -2)) == "ColorProfile((0,-2))"
    assert str(POS_INFINITY) == "+inf"


def test_counts_round_trip():
    assert fin(1, -2, 3).counts == (1, -2, 3)
    with pytest.raises(ProfileArithmeticError):
        POS_INFINITY.counts


def test_profiles_hashable():
    assert len({fin(1, 0), fin(1, 0), fin(0, 1)}) == 2
    assert len({POS_INFINITY, fin(0, 0)}) == 2


def test_infinities_are_singletons_of_any_dimension():
    assert SMALL.from_key(INF_KEY) is POS_INFINITY
    assert basis_of(2).from_key(INF_KEY) is POS_INFINITY
    assert POS_INFINITY.dimension is None and not POS_INFINITY.is_finite
    assert fin(0, 0).is_finite and fin(0, 0).dimension == 2


# ------------------------------------------------- one digit per color in use

# An arena of 3 nodes in a 1000-color game whose nodes carry 0, 599, 999.
GAPPED = ProfileBasis(1000, (999, 0, 599, 599), 3)
# The same game's basis over every color.
FULL = ProfileBasis(1000, range(1000), 3)


def sparse(counts):
    # a value of the 1000-color game with the given nonzero counts
    return FULL.from_key(sum(k * FULL.unit_key(c) for c, k in counts.items()))


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
    expected = sparse({0: 3, 599: -1, 999: 2})
    assert value.counts == expected.counts
    assert str(value) == str(expected)
    assert value == expected and expected == value
    assert hash(value) == hash(expected)
    assert len({value, expected}) == 1
    assert key_of(GAPPED, expected.counts) == key


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
        assert (a - b).counts == tuple(
            x - y for x, y in zip(a.counts, b.counts))
        # the same value in the basis over every color
        wide_b = sparse({c: k for c, k in enumerate(b.counts) if k})
        assert (a == wide_b) == (ka == kb) and wide_b == b
        assert hash(wide_b) == hash(b)


def test_gapped_profiles_of_two_bases_mix():
    other = ProfileBasis(1000, (5, 599), 3)
    a = GAPPED.from_key(GAPPED.unit_key(999) + GAPPED.unit_key(599))
    b = other.from_key(other.unit_key(5) + other.unit_key(599))
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ProfileArithmeticError):
            op(a, b)
    for op in (lambda x, y: x < y, lambda x, y: x > y,
               lambda x, y: x >= y):
        with pytest.raises(DimensionError):
            op(a, b)
    assert a != b and hash(a) != hash(b)
    # a visit to 599 is one value, whichever arena counted it
    assert GAPPED.from_key(GAPPED.unit_key(599)) \
        == other.from_key(other.unit_key(599)) == sparse({599: 1})


def test_basis_key_refuses_a_visit_to_a_color_not_in_use():
    for counts in ({1: 1}, {598: 3}, {0: 1, 1000: 1}):
        with pytest.raises(DimensionError):
            key_of(GAPPED, [counts.get(c, 0) for c in range(1001)])
    assert key_of(GAPPED, [0] * 1000) == 0
    assert key_of(GAPPED, sparse({599: 2}).counts) \
        == 2 * GAPPED.unit_key(599)
    assert GAPPED.from_key(INF_KEY) is POS_INFINITY


def test_one_basis_operators_never_decode_a_key(monkeypatch):
    def refuse(basis, key):
        raise AssertionError("decoded key %r" % (key,))
    monkeypatch.setattr(ProfileBasis, "_decode", refuse)
    # profiles of one basis add, subtract and compare as keys; a visit
    # to the odd color 999 is worth less than anything below it
    u, v = GAPPED.from_key(GAPPED.unit_key(999)), GAPPED.from_key(5)
    total = u + v
    assert total - v == u and u < v and not v < u and u != v
    assert u <= u and v >= u and v > u and not u > v
    assert total == GAPPED.from_key(GAPPED.unit_key(999) + 5)
    assert u < POS_INFINITY and u != POS_INFINITY and POS_INFINITY != u
    # so do the values of one solve, and a second basis is refused as such
    values = solve(parse_pgsolver("0 1 0 1;\n1 3 1 0,2;\n2 2 0 1;\n")) \
        .valuation
    for x in values.values():
        for y in values.values():
            x < y, x <= y, x == y, x != y
        with pytest.raises(DimensionError):
            x < u


def test_basis_over_no_colors():
    # an arena with no node left: only the sink, whose value is 0
    empty = ProfileBasis(3, (), 0)
    assert tuple(empty.colors) == ()
    assert empty.from_key(0) == zero(3)
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


# ------------------------------------------------- the values of two solves

# node 0 escapes its odd loop through node 1 to the sink; node 2 enters
# it; every value is finite and the four differ
TWO_ESCAPES = "0 1 0 1;\n1 3 1 0,2;\n2 2 0 1;\n"


def test_values_of_two_solves_are_equal_but_do_not_mix():
    game = parse_pgsolver(TWO_ESCAPES)
    first, second = solve(game).valuation, solve(game).valuation
    assert len(set(first.values())) == len(first) == 4
    won = solve(parse_pgsolver("0 2 0 0;\n1 1 0 1,0;\n")).valuation
    for u, x in first.items():
        assert x.is_finite and x == second[u] and hash(x) == hash(second[u])
        for v, y in second.items():
            assert (x == y) == (u == v)
            with pytest.raises(DimensionError):
                x < y
            with pytest.raises(ProfileArithmeticError):
                x + y
            with pytest.raises(ProfileArithmeticError):
                x - y
            # within one solve the order is the count-vector order
            assert (x > first[v]) - (x < first[v]) \
                == reference_compare(x.counts, first[v].counts)
        assert all(x < top for top in won.values())


def test_benchmark_times_operators_on_pairs_of_one_valuation():
    # the benchmark times +, < and == on neighbouring finite entries of
    # one valuation, which share its solve's basis, so none of them raises
    path = Path(__file__).resolve().parents[1] / "benchmark" / "layers.py"
    spec = importlib.util.spec_from_file_location("benchmark_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    seen = []
    game = parse_pgsolver(TWO_ESCAPES)
    solve(game, on_iteration=lambda i, s, valuation, imps:
          seen.append(valuation))
    timings = layers.profile_timings(seen + [solve(game).valuation])
    assert timings["profiles.dim"] == 4
    assert all(timings["profiles.%s_ns" % op] > 0
               for op in ("add", "lt", "eq"))


# Run in a child whose address space is capped at 2 GB: a decode of all
# 10^12 digits, or a set of 10^12 colors, raises MemoryError there
# instead of filling the machine's memory.
_HUGE_COLOR_MIX = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from pgsi import parse_pgsolver, solve
from pgsi.errors import DimensionError, ProfileArithmeticError
from pgsi.profiles import ProfileBasis

def refused(op, a, b):
    try:
        op(a, b)
    except (DimensionError, ProfileArithmeticError):
        return True
    return False

# the cap bites: spelling out every color of a 10^12-color profile fails
try:
    ProfileBasis(10 ** 12 + 1, (), 0).from_key(0).counts
except MemoryError:
    pass
else:
    raise AssertionError("the memory cap does not bite")

# node 0 wins on its even loop through node 1; the sink's value is 0
game = parse_pgsolver("0 1000000000000 0 1;\\n1 3 1 0;\\n")
sink, again = solve(game).valuation[2], solve(game).valuation[2]
zero = ProfileBasis(10 ** 12 + 1, (), 0).from_key(0)
assert sink == zero and zero == sink and sink == again
assert hash(zero) == hash(sink) == hash(again)
assert sink + sink == sink and sink - sink == sink and not sink < sink
assert refused(lambda a, b: a < b, sink, zero)
assert refused(lambda a, b: a + b, again, sink)

# node 0 escapes from its odd loop: value -1 at color 10^12 + 1
game = parse_pgsolver("0 1000000000001 0 1;\\n1 3 1 0;\\n")
first, second = solve(game).valuation, solve(game).valuation
low, sink = first[0], first[2]
assert low < sink and not sink < low and low != sink
assert low + sink == low and sink + low == low and low - sink == low
assert sink - low > sink and low - low == sink
assert hash(sink + low) == hash(low) and hash(low - low) == hash(sink)
zero = ProfileBasis(10 ** 12 + 2, (), 0).from_key(0)
assert low == second[0] and hash(low) == hash(second[0]) and low != zero
assert sink == second[2] == zero and hash(zero) == hash(sink)
for op in (lambda a, b: a < b, lambda a, b: a + b, lambda a, b: a - b):
    assert refused(op, low, second[2]) and refused(op, zero, low)
"""


def test_huge_color_profiles_mix_forms_without_decoding_every_color():
    pytest.importorskip("resource")
    src = str(Path(pgsi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", _HUGE_COLOR_MIX], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
