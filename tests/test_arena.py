"""Game representation, file format, attractors, cycle analysis."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsi import ParityGame, oracle_solve, parse_pgsolver, serialize_pgsolver
from pgsi.arena import (GraphView, attractor, build_escape_arena,
                        dominated_cycle_strategy, find_dominated_cycle_nodes,
                        find_one_dominated_cycle_nodes, preprocess)
from pgsi.errors import FormatError, InvariantViolation

from conftest import parity_games


# ------------------------------------------------------------ construction

def test_game_validates_owner_color_targets():
    with pytest.raises(ValueError):
        ParityGame((2,), (0,), ((0,),))
    with pytest.raises(ValueError):
        ParityGame((0,), (-1,), ((0,),))
    with pytest.raises(ValueError):
        ParityGame((0,), (0,), ((1,),))
    with pytest.raises(ValueError):
        ParityGame((0,), (0,), ((),))


def test_game_collapses_duplicate_edges():
    g = ParityGame((0,), (0,), ((0, 0),))
    assert g.successors == ((0,),)


def test_color_count():
    assert ParityGame((0, 1), (0, 5), ((1,), (0,))).d == 6
    assert ParityGame((0,), (0,), ((0,),)).d == 1


# ----------------------------------------------------------------- parsing

def test_parse_minimal_file():
    g = parse_pgsolver("parity 1;\n0 2 0 0;\n")
    assert g.n == 1 and g.color == (2,) and g.owner == (0,)
    assert g.successors == ((0,),)


def test_parse_without_header():
    g = parse_pgsolver("0 1 0 1;\n1 0 1 0;\n")
    assert g.owner == (0, 1) and g.color == (1, 0)
    assert g.successors == ((1,), (0,))


def test_parse_names_and_whitespace():
    g = parse_pgsolver('parity 99;\n 1  3 1  0 , 1  "b node" ;\n0 2 0 1;\n')
    assert g.names == (None, "b node")
    assert g.successors[1] == (0, 1)  # header value is not trusted anyway


@pytest.mark.parametrize("text", [
    "0 1 0 ;\n",            # no successors
    "0 1 0 1;\n",           # dangling target
    "0 1 0 0;\n0 1 0 0;\n",  # duplicate id
    "1 1 0 1;\n",           # ids must start at 0
    "0 1 2 0;\n",           # owner out of range
    "0 1 0 0,;\n",          # empty successor entry
    "0 1 0 0 0;\n",         # successors without a comma between them
    "\uff10 1 0 0;\n",      # fullwidth digit zero
    "0 \u0661 0 0;\n",      # Arabic-Indic digit one
    "0 1 0 \u0660;\n",
    "parity \uff11;\n0 1 0 0;\n",
    "nonsense\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_pgsolver(text)


def test_parse_long_blank_runs_in_linear_time():
    # overlapping optional blank runs in the node pattern would make a
    # failing match backtrack in cubic time: a minute at 4000 blanks
    blanks = " " * 50_000
    started = time.perf_counter()
    for text in ("0 0 0 0" + blanks + "x;\n", "0" + blanks + "x\n",
                 "0 0 0 0" + " ,0" * 20_000 + blanks + '"a;\n'):
        with pytest.raises(FormatError):
            parse_pgsolver(text)
    game = parse_pgsolver("0 0 0 0" + blanks + '"a"' + blanks + ";\n")
    assert game.names == ("a",)
    assert time.perf_counter() - started < 5


@pytest.fixture
def int_digit_limit():
    """CPython's default limit on the digits of an int read from text,
    set for the test and restored afterwards."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("line", [
    "{big} 1 0 0;", "1 {big} 0 0;", "1 1 0 {big};", "1 1 0 0,{big};",
    "1 1 0 {zeros};"])
def test_parse_refuses_numbers_past_the_digit_limit(line, int_digit_limit):
    big, zeros = "9" * (int_digit_limit + 1), "0" * (int_digit_limit + 1)
    text = "0 1 0 0;\n" + line.format(big=big, zeros=zeros) + "\n"
    with pytest.raises(FormatError, match="^line 2: "):
        parse_pgsolver(text)
    widest = "9" * int_digit_limit
    game = parse_pgsolver("parity %s;\n0 %s 0 0;\n" % (big, widest))
    assert game.color == (int(widest),)


def test_serialize_canonical_form():
    g = ParityGame((0, 1), (2, 0), ((1, 0), (0,)), names=("start", None))
    assert serialize_pgsolver(g) == 'parity 1;\n0 2 0 1,0 "start";\n1 0 1 0;\n'


def test_round_trip_is_stable():
    text = '2 0 1 0;\n0 2 0 1, 2 "a";\n1 1 1 2,0;\n'
    once = serialize_pgsolver(parse_pgsolver(text))
    assert serialize_pgsolver(parse_pgsolver(once)) == once


@given(parity_games())
def test_round_trip_random_games(game):
    assert parse_pgsolver(serialize_pgsolver(game)) == game


# numbers a file may hold: past CPython's default int-conversion limit,
# padded, or with non-ASCII digits, next to the valid ones
COLORS = st.one_of(st.integers(0, 6).map(str),
                   st.integers(0, 2 ** 63).map(str), st.just("9" * 4300))
NUMBERS = st.one_of(
    COLORS,
    st.sampled_from(["9" * 4301, "1" + "0" * 4300, "0" * 4301, "007"]),
    st.text(alphabet="01\uff10\uff11\u0660\u0661\u0966", min_size=1,
            max_size=3),
)
GAPS = st.text(alphabet=" \t\u00a0\u2003\u3000", min_size=1, max_size=2)
NAMES = st.text(alphabet=st.sampled_from("ab ,;\t'\u00e9\u4e00"),
                max_size=6)
NEWLINES = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028",
                            "\n \n"])
FLAWS = (None, None, None, "id", "number", "separator", "owner", "name",
         "ending")


@st.composite
def pgsolver_texts(draw):
    """Text in or near the PGSolver format: a game with node ids 0..n-1
    in any order, colors up to 2^63 and 4300 digits, odd whitespace and
    line endings, and names with quotes, commas and semicolons; at most
    one kind of flaw per text (extra duplicate, gapped or huge ids, bad
    numbers, separators, owners, names or line ends)."""
    flaw = draw(st.sampled_from(FLAWS))

    def field(clean, flawed, kind):
        return draw(st.one_of(clean, flawed) if flaw == kind else clean)

    n = draw(st.integers(0, 5))
    ids = [str(v) for v in draw(st.permutations(range(n)))]
    if flaw == "id":
        ids += draw(st.lists(NUMBERS, min_size=1, max_size=2))
    lines = []
    if draw(st.booleans()):
        lines.append("parity%s%s;" % (draw(GAPS),
                                      field(COLORS, NUMBERS, "number")))
    targets = st.integers(0, max(n - 1, 0)).map(str)
    for node in draw(st.permutations(ids)):
        succs = field(st.lists(targets, min_size=1, max_size=3),
                      st.lists(NUMBERS, max_size=3), "number")
        comma = field(st.sampled_from([",", ", ", " ,"]),
                      st.sampled_from([",,", " ", ""]), "separator")
        line = "%s%s%s%s%s%s%s%s" % (
            draw(st.sampled_from(["", " ", "\t"])), node, draw(GAPS),
            field(COLORS, NUMBERS, "number"),
            field(GAPS, st.sampled_from(["", ",", ";"]), "separator"),
            field(st.sampled_from("01"), st.sampled_from(["2", "x", ""]),
                  "owner"),
            draw(GAPS), comma.join(succs))
        name = draw(st.one_of(st.none(), NAMES))
        if name is not None:
            line += '%s"%s"' % (draw(GAPS), field(
                st.just(name), st.just(name + '"'), "name"))
        lines.append(line + field(st.sampled_from([";", " ;", ";\t"]),
                                  st.sampled_from(["", ";;", "; x"]),
                                  "ending"))
    return "".join(line + draw(NEWLINES) for line in lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(pgsolver_texts(), st.text(max_size=40)))
def test_parse_fuzz_gives_a_game_or_format_error(text):
    try:
        game = parse_pgsolver(text)
    except FormatError:
        return
    canonical = serialize_pgsolver(game)
    assert parse_pgsolver(canonical) == game
    assert serialize_pgsolver(parse_pgsolver(canonical)) == canonical


# ------------------------------------------------------------ escape arena

def test_escape_arena_shape():
    g = ParityGame((0, 1, 0), (0, 1, 2), ((1,), (2,), (0,)))
    arena = build_escape_arena(g)
    assert arena.sink == 3
    assert arena.nodes == (0, 1, 2)
    assert sorted(arena.escape_choices) == [0, 2]  # only player-0 escapes
    assert arena.escape_choices[0] == (1, 3)
    assert arena.strategy_view(arena.escape_choices).owner[3] == 0
    assert arena.succ[1] == (2,)  # base edges untouched


def test_escape_arena_player1_gets_no_escape():
    arena = build_escape_arena(ParityGame((1,), (0,), ((0,),)))
    assert arena.escape_choices == {}


# --------------------------------------------------------------- attractor

def _view(nodes, succ, owner, color):
    return GraphView(tuple(nodes), dict(succ), dict(owner), dict(color))


def test_attractor_of_empty_target():
    view = _view([0], {0: (0,)}, {0: 1}, {0: 0})
    res = attractor(view, 1, [])
    assert res.members == frozenset()


def test_attractor_of_everything():
    view = _view([0, 1], {0: (1,), 1: (0,)}, {0: 0, 1: 1}, {0: 0, 1: 0})
    res = attractor(view, 0, [0, 1])
    assert res.members == frozenset((0, 1))
    assert res.rank == {0: 0, 1: 0}


def test_attractor_chain_ranks():
    # v0 -> v1 -> sink, both player 1 attracting toward the sink
    view = _view([0, 1, 2], {0: (1,), 1: (2,), 2: ()},
                 {0: 1, 1: 1, 2: 0}, {0: 0, 1: 0, 2: 0})
    res = attractor(view, 1, [2])
    assert res.members == frozenset((0, 1, 2))
    assert res.rank == {2: 0, 1: 1, 0: 2}
    assert res.strategy == {1: 2, 0: 1}


def test_attractor_opponent_needs_all_successors():
    # player-0 node with one edge out of the target region stays out
    view = _view([0, 1, 2], {0: (1, 2), 1: (1,), 2: (2,)},
                 {0: 0, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 0})
    res = attractor(view, 1, [1])
    assert res.members == frozenset((1,))


def test_attractor_opponent_dead_end_is_attracted():
    view = _view([0, 1], {0: (), 1: (1,)}, {0: 0, 1: 1}, {0: 0, 1: 0})
    res = attractor(view, 1, [1])
    assert 0 in res.members and res.rank[0] == 1


def test_attractor_rejects_foreign_target():
    view = _view([0], {0: (0,)}, {0: 0}, {0: 0})
    with pytest.raises(ValueError):
        attractor(view, 0, [7])


@given(parity_games(max_nodes=6))
def test_attractor_monotone_and_idempotent(game):
    view = build_escape_arena(game).game_view()
    half = [v for v in view.nodes if v % 2 == 0]
    small = attractor(view, 1, half[:1] if half else [])
    big = attractor(view, 1, half)
    assert small.members <= big.members
    again = attractor(view, 1, sorted(big.members))
    assert again.members == big.members


@given(parity_games(max_nodes=6))
def test_attractor_strategy_decreases_rank(game):
    view = build_escape_arena(game).game_view()
    res = attractor(view, 0, [v for v in view.nodes if game.color[v] == 0])
    for v, t in res.strategy.items():
        assert view.owner[v] == 0 and res.rank[t] < res.rank[v]


# ---------------------------------------------------------- cycle analysis

def test_odd_self_loop_is_dominated():
    view = _view([0], {0: (0,)}, {0: 1}, {0: 1})
    assert find_one_dominated_cycle_nodes(view) == frozenset((0,))


def test_even_self_loop_is_not_dominated():
    view = _view([0], {0: (0,)}, {0: 1}, {0: 2})
    assert find_one_dominated_cycle_nodes(view) == frozenset()
    assert find_dominated_cycle_nodes(view, 0) == frozenset((0,))


def test_two_cycle_max_color_decides():
    view = _view([0, 1], {0: (1,), 1: (0,)}, {0: 1, 1: 1}, {0: 1, 1: 2})
    assert find_one_dominated_cycle_nodes(view) == frozenset()


def _closure_with_step(nodes, succ):
    # reach[u][v]: a path with >= 1 edge from u to v
    reach = {u: set(succ[u]) for u in nodes}
    changed = True
    while changed:
        changed = False
        for u in nodes:
            for mid in tuple(reach[u]):
                extra = reach[mid] - reach[u]
                if extra:
                    reach[u] |= extra
                    changed = True
    return reach


def _dominated_by_closure(view, parity):
    # independent route: v lies on a closed walk whose top color c has
    # the wanted parity iff some color-c node x with c >= all walk colors
    # satisfies v ->+ x ->+ v inside the <=c subgraph
    out = set()
    colors = sorted({view.color[v] for v in view.nodes}, reverse=True)
    for c in colors:
        if c % 2 != parity:
            continue
        sub = [v for v in view.nodes if view.color[v] <= c]
        member = set(sub)
        succ = {v: tuple(t for t in view.succ[v] if t in member) for v in sub}
        reach = _closure_with_step(sub, succ)
        for v in sub:
            for x in sub:
                if view.color[x] != c:
                    continue
                if x in reach[v] and v in reach[x]:
                    out.add(v)
                    break
                if x == v and x in reach[x]:
                    out.add(v)
                    break
    return frozenset(out)


@given(parity_games(max_nodes=6), parity_games(max_nodes=6, max_colors=12))
@settings(max_examples=300)
def test_cycle_finder_matches_reachability_oracle(game, many_colors):
    # the second draw spreads colors so that wrong-parity tops nest
    for g in (game, many_colors):
        view = build_escape_arena(g).game_view()
        for parity in (0, 1):
            assert find_dominated_cycle_nodes(view, parity) == \
                _dominated_by_closure(view, parity)


def test_cycle_finder_handles_nesting_beyond_recursion_limit():
    # spine e_i (even color 2i+2) as a two-way path, tooth t_i (odd color
    # 2i+1) on a two-cycle with e_i; each level's even top must be peeled
    # before the next tooth can be examined, and only the bottom tooth
    # has a cycle of its own
    k = sys.getrecursionlimit() + 50
    spine, tooth = range(k), range(k, 2 * k)
    succ = {}
    for i in range(k):
        succ[spine[i]] = tuple(spine[j] for j in (i - 1, i + 1) if 0 <= j < k) \
            + (tooth[i],)
        succ[tooth[i]] = (spine[i],)
    succ[tooth[0]] += (tooth[0],)
    color = {**{spine[i]: 2 * i + 2 for i in range(k)},
             **{tooth[i]: 2 * i + 1 for i in range(k)}}
    view = _view(range(2 * k), succ, {v: 1 for v in succ}, color)
    assert find_one_dominated_cycle_nodes(view) == frozenset((tooth[0],))
    assert dominated_cycle_strategy(view) == {tooth[0]: tooth[0]}


@given(parity_games(max_nodes=7))
def test_dominated_cycle_strategy_is_safe(game):
    # following the assigned edges must never close an even-dominated cycle
    view = build_escape_arena(game).player1_view()
    marked = find_one_dominated_cycle_nodes(view)
    strat = dominated_cycle_strategy(view)
    assert set(strat) == set(marked)
    for v, t in strat.items():
        assert t in view.succ[v] and t in marked
    restricted = _view(sorted(marked), {v: (strat[v],) for v in marked},
                       {v: 1 for v in marked},
                       {v: view.color[v] for v in marked})
    assert find_dominated_cycle_nodes(restricted, 0) == frozenset()
    # out-degree one: each walk ends on a cycle, whose top color must be odd
    for v in marked:
        seen = {}
        walk = []
        while v not in seen:
            seen[v] = len(walk)
            walk.append(v)
            v = strat[v]
        cycle = walk[seen[v]:]
        assert max(view.color[u] for u in cycle) % 2 == 1


# ------------------------------------------------------------ preprocessing

def test_preprocess_keeps_clean_games():
    g = ParityGame((0, 1), (1, 2), ((1,), (0,)))
    prep = preprocess(build_escape_arena(g))
    assert prep.pre_won == frozenset()
    assert prep.arena.nodes == (0, 1)


def test_preprocess_removes_odd_player1_loop():
    prep = preprocess(build_escape_arena(ParityGame((1,), (1,), ((0,),))))
    assert prep.pre_won == frozenset((0,))
    assert prep.arena.nodes == ()
    assert prep.dominated_strategy == {0: 0}


def test_preprocess_attracts_committed_predecessor():
    # u's only move feeds the odd loop at v, so u is lost with it
    g = ParityGame((1, 1), (0, 1), ((1,), (1,)))
    prep = preprocess(build_escape_arena(g))
    assert prep.pre_won == frozenset((0, 1))
    assert prep.attractor.rank[0] == 1


def test_preprocess_ignores_escape_edges():
    # the lost player-0 node could flee to the sink, but the plain game
    # offers no way out, so preprocessing may not spare it
    g = ParityGame((0, 1), (0, 1), ((1,), (1,)))
    prep = preprocess(build_escape_arena(g))
    assert prep.pre_won == frozenset((0, 1))


@given(parity_games())
@settings(max_examples=300)
def test_preprocess_soundness(game):
    prep = preprocess(build_escape_arena(game))
    arena = prep.arena
    # nothing 1-dominated survives among player-1 nodes
    assert find_one_dominated_cycle_nodes(arena.player1_view()) == frozenset()
    for v in arena.player1_nodes:
        assert arena.succ[v]
    # pre-won nodes are truly lost
    assert prep.pre_won <= set(oracle_solve(game).w1)
