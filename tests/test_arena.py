"""Game representation, file format, attractors, cycle analysis."""

import random
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgsi import (ParityGame, oracle_solve, parse_pgsolver, policy_by_name,
                  replay_verify, serialize_pgsolver, solve)
from pgsi.arena import (_dominated_pieces, _sccs, _witness_edges, attractor,
                        build_escape_arena, find_dominated_cycle_nodes,
                        find_one_dominated_cycle_nodes, predecessors,
                        preprocess)
from pgsi.cli import fuzz_game, generate_game, random_game
from pgsi.errors import FormatError
from pgsi.iteration import POLICY_NAMES

from conftest import fuzz_texts, parity_games
from helpers import (bfs_dominated_cycle_strategy, level_attractor,
                     loop_game, marked, reference_parse_pgsolver,
                     two_pass_sccs, unpeeled_dominated_pieces)


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


@pytest.mark.parametrize("owner, color, successors, message", [
    ((1.0,), (0,), ((0,),), "^node 0 has owner 1.0$"),
    ((0,), (1.5,), ((0,),),
     "^node 0 has color 1.5, which is not a non-negative int$"),
    ((0, 0), (0, 0), ((1,), (0.0,)),
     "^node 1 has successor 0.0, which is no node of the game$"),
], ids=["owner", "color", "successor"])
def test_game_refuses_values_that_are_not_ints(owner, color, successors,
                                               message):
    # a colour 1.5 would count as neither parity and serialize as 1, a
    # successor 0.0 would fail inside the solver
    with pytest.raises(ValueError, match=message):
        ParityGame(owner, color, successors)


def test_game_collapses_duplicate_edges():
    g = ParityGame((0,), (0,), ((0, 0),))
    assert g.successors == ((0,),)
    # the first of each repeated successor keeps its place, whatever
    # iterable holds them
    g = ParityGame((0, 1), (0, 0), ((1, 0, 1, 0), iter([1])))
    assert g.successors == ((1, 0), (1,))


def test_game_is_an_immutable_hashable_value():
    game = ParityGame([0, 1], [2, 1], [[1], [0, 0]])
    assert repr(game) == ("ParityGame(owner=(0, 1), color=(2, 1), "
                          "successors=((1,), (0,)), names=(None, None))")
    same = ParityGame((0, 1), (2, 1), ((1,), (0,)), (None, None))
    assert game == same and not game != same and hash(game) == hash(same)
    assert game != ParityGame((0, 1), (2, 1), ((1,), (0,)), ("a", None))
    assert game != (game.owner, game.color, game.successors, game.names)
    with pytest.raises(AttributeError):
        game.owner = (1, 1)
    with pytest.raises(AttributeError):
        del game.owner
    # the cached colour count is written past the refusal
    assert game.d == 3 and game.owner == (0, 1)


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


@pytest.mark.parametrize("text, successors, names", [
    ("0 1 0 0,0,0;\n", ((0,),), (None,)),
    ("0 1 0 1,1;\n1 0 1 1 , 0,1 ;\n", ((1,), (1, 0)), (None, None)),
    ('0 1 0 0 "";\n', ((0,),), (None,)),
    ('0 1 0 1 "";\n1 0 1 0 "b";\n', ((1,), (0,)), (None, "b")),
    ("".join("%d 0 0 %d;\n" % (v, (v + 10) % 11) for v in range(11)),
     tuple(((v + 10) % 11,) for v in range(11)), (None,) * 11),
], ids=["repeats", "repeated-pair", "empty-name", "empty-and-set-names",
        "two-digit-single-successors"])
def test_parse_stores_what_the_game_would(text, successors, names):
    # repeated successors collapse, first occurrences in place, and an
    # empty quoted name is no name, as ParityGame stores them
    game = parse_pgsolver(text)
    assert game.successors == successors and game.names == names
    assert_admitted(game)


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


@pytest.mark.parametrize("text, message", [
    ("0 1 0 0;\n1 1 x 0;\n", "line 2: malformed node line: '1 1 x 0;'"),
    ("0 1 0 0;\nparity 1;\n", "line 2: malformed node line: 'parity 1;'"),
    ("0 1 0 0,,0;\n", "line 1: empty successor entry"),
    ("0 1 0 0, ,0;\n", "line 1: empty successor entry"),
    ("0 1 0 0 0;\n", "line 1: malformed or oversized number '0 0'"),
    ("{id} 1 0 0;\n", "line 1: malformed or oversized number {id!r:.40}"),
    ("0 {color} 0 0;\n",
     "line 1: malformed or oversized number {color!r:.40}"),
    ("0 1 0 0,{succ};\n",
     "line 1: malformed or oversized number {succ!r:.40}"),
    ("0 1 0 0;\n0 1 0 0;\n", "line 2: duplicate node id 0"),
    ("0 1 0 0;\n2 1 0 0;\n", "node ids must form 0..1, found 2"),
    ("5 1 0 0;\n0 1 0 0;\n3 1 0 0;\n", "node ids must form 0..2, found 5"),
    ("0 1 0 1;\n1 1 0 0,2;\n", "node 1 lists undeclared successor 2"),
    # two flaws: the one reported stays the one reported
    ("0 1 0 0;\n1 1 0 0,{succ};\n2 1 0 0;\n3 1 0 0;\nnonsense\n",
     "line 2: malformed or oversized number {succ!r:.40}"),
    ("0 1 0 0;\n0 1 0 0,,1;\n", "line 2: duplicate node id 0"),
    ("0 1 0 0;\n0 1 0 {succ};\n", "line 2: duplicate node id 0"),
    ("{id} 1 0 0;\n{id} 1 0 0;\n",
     "line 1: malformed or oversized number {id!r:.40}"),
    ("0 {color} 0 {succ};\n",
     "line 1: malformed or oversized number {succ!r:.40}"),
    ("0 {color} 0 0,,1;\n", "line 1: empty successor entry"),
    ("0 1 0 0,,{succ};\n", "line 1: empty successor entry"),
    ("0 1 0 {succ},,0;\n",
     "line 1: malformed or oversized number {succ!r:.40}"),
    ("0 1 0 5;\n2 1 0 0;\n", "node ids must form 0..1, found 2"),
    ("1 1 0 9;\n0 1 0 8;\n", "node 0 lists undeclared successor 8"),
], ids=["malformed", "late-header", "empty-entry", "blank-entry",
        "spaced-successors", "oversized-id", "oversized-color",
        "oversized-successor", "duplicate-id", "gapped-ids",
        "gapped-ids-in-file-order", "undeclared-successor",
        "oversized-successor-then-malformed", "duplicate-and-empty-entry",
        "duplicate-and-oversized-successor", "oversized-duplicate-ids",
        "oversized-color-and-successor", "oversized-color-and-empty-entry",
        "empty-entry-then-oversized", "oversized-then-empty-entry",
        "gapped-and-undeclared", "undeclared-in-id-order"])
def test_parse_refusal_messages(text, message, int_digit_limit):
    # a distinct oversized number per field names the piece reported
    big = {key: digit * (int_digit_limit + 1)
           for key, digit in (("id", "8"), ("color", "7"), ("succ", "6"))}
    with pytest.raises(FormatError) as refused:
        parse_pgsolver(text.format(**big))
    assert str(refused.value) == message.format(**big)


def test_serialize_canonical_form():
    g = ParityGame((0, 1), (2, 0), ((1, 0), (0,)), names=("start", None))
    assert serialize_pgsolver(g) == 'parity 1;\n0 2 0 1,0 "start";\n1 0 1 0;\n'


def test_round_trip_is_stable():
    text = '2 0 1 0;\n0 2 0 1, 2 "a";\n1 1 1 2,0;\n'
    once = serialize_pgsolver(parse_pgsolver(text))
    assert serialize_pgsolver(parse_pgsolver(once)) == once


@pytest.mark.parametrize("name", [
    "a;b", "semi;colon;", " padded ", "comma,1,2", "tab\there", "ünï",
    "'single'", "\\", "0 1 0 0;"])
def test_round_trip_keeps_api_built_names(name):
    game = ParityGame((0, 1), (1, 0), ((1,), (0,)), names=(name, ""))
    assert game.names == (name, None)
    assert parse_pgsolver(serialize_pgsolver(game)) == game


@pytest.mark.parametrize("name", [
    'a"b', '"', "a\nb", "a\r", "\r\nb", "a\x0bb", "a\x0cb", "a\x1cb",
    "a\x85b", "a\u2028b", "a\u2029b"])
def test_game_refuses_names_that_text_cannot_hold(name):
    with pytest.raises(ValueError, match="^node 0 has name "):
        ParityGame((0,), (0,), ((0,),), names=(name,))


@given(parity_games())
@example(ParityGame([0, 1], [1, 2], [[1], [0]]))
def test_round_trip_random_games(game):
    # a game built from lists stores tuples, so it is hashable and equal
    # to its parse
    assert parse_pgsolver(serialize_pgsolver(game)) == game
    assert hash(parse_pgsolver(serialize_pgsolver(game))) == hash(game)


def parse_outcome(parse, text):
    """The game `parse` reads from `text`, or the message it refuses
    the text with."""
    try:
        return parse(text)
    except FormatError as refused:
        return str(refused)


def assert_admitted(game):
    """`game` holds only what ParityGame admits: the checked constructor
    rebuilds it equal, and every owner, color and successor is of type
    int, which ``==`` alone would not tell from True."""
    assert ParityGame(game.owner, game.color, game.successors,
                      game.names) == game
    assert all(type(x) is int for x in game.owner + game.color)
    assert all(type(t) is int for ts in game.successors for t in ts)


@settings(max_examples=300, deadline=None)
@given(fuzz_texts)
def test_parse_fuzz_gives_a_game_or_format_error(text):
    # the same game, or the same message, as the seed's reader
    game = parse_outcome(parse_pgsolver, text)
    assert game == parse_outcome(reference_parse_pgsolver, text)
    if isinstance(game, str):
        return
    assert_admitted(game)
    canonical = serialize_pgsolver(game)
    assert parse_pgsolver(canonical) == game
    assert serialize_pgsolver(parse_pgsolver(canonical)) == canonical


def test_parse_matches_the_reference_on_the_benchmark_texts(
        seed1_instances):
    for instances in seed1_instances.values():
        for inst, game in instances:
            assert game == reference_parse_pgsolver(inst.text), inst.label
            assert_admitted(game)


# ------------------------------------------------------------ escape arena

def test_escape_arena_shape():
    g = ParityGame((0, 1, 0), (0, 1, 2), ((1,), (2,), (0,)))
    arena = build_escape_arena(g)
    assert arena.sink == 3
    assert arena.nodes == (0, 1, 2)
    assert sorted(arena.escape_choices) == [0, 2]  # only player-0 escapes
    assert arena.escape_choices[0] == (1, 3)
    # the sink lies on no cycle, so no analysis is given it as a node,
    # not even under a strategy whose choices escape to it
    assert arena.sink not in arena.nodes and arena.sink not in arena.succ
    assert arena.succ[1] == (2,)  # base edges untouched


def test_escape_arena_player1_gets_no_escape():
    arena = build_escape_arena(ParityGame((1,), (0,), ((0,),)))
    assert arena.escape_choices == {}


# --------------------------------------------------------------- attractor

def game_graph(game):
    """The plain game graph: every node, no sink, no escapes."""
    return range(game.n), game.successors, game.owner


def game_attractor(game, player, target):
    """`attractor` on the plain game graph, with the game's predecessor
    table, as `preprocess` calls it."""
    table = predecessors(range(game.n), game.successors, game.n)
    return attractor(game.successors, game.owner, player, target, table)


def test_attractor_of_empty_target():
    succ = {0: (0,)}
    res = attractor(succ, {0: 1}, 1, [], predecessors([0], succ, 1))
    assert res.members == frozenset()


def test_attractor_of_everything():
    succ = {0: (1,), 1: (0,)}
    res = attractor(succ, {0: 0, 1: 1}, 0, [0, 1],
                    predecessors([0, 1], succ, 2))
    assert res.members == frozenset((0, 1))
    assert res.strategy == {}


def test_attractor_chain_ranks():
    # v0 -> v1 -> v2, both player 1 attracting toward v2, which loops
    succ, owner = {0: (1,), 1: (2,), 2: (2,)}, {0: 1, 1: 1, 2: 0}
    res = attractor(succ, owner, 1, [2], predecessors([0, 1, 2], succ, 3))
    assert res.members == frozenset((0, 1, 2))
    assert res.strategy == {1: 2, 0: 1}
    assert level_attractor([0, 1, 2], succ, owner, 1, [2]) \
        == (res, {2: 0, 1: 1, 0: 2})


def test_attractor_opponent_needs_all_successors():
    # player-0 node with one edge out of the target region stays out
    succ = {0: (1, 2), 1: (1,), 2: (2,)}
    res = attractor(succ, {0: 0, 1: 1, 2: 1}, 1, [1],
                    predecessors([0, 1, 2], succ, 3))
    assert res.members == frozenset((1,))


def test_attractor_rejects_foreign_target():
    # the nodes are 0, 1 and 3 of a four-entry table: 2 is no node, and
    # -1 would read the entry of 3 from the end of the list, 4 past it
    succ = {0: (1,), 1: (0,), 3: (3,)}
    preds = predecessors([0, 1, 3], succ, 4)
    for outside in (-1, 2, 4, 7):
        with pytest.raises(ValueError, match="^target node %d is not in "
                                             "the node set$" % outside):
            attractor(succ, (0, 0, 0, 1), 0, [0, outside], preds)


def test_every_attractor_call_meets_the_precondition(monkeypatch):
    # `attractor` attracts no opponent dead end, so each caller must hand
    # it a node set that no edge leaves and where every node has a
    # successor: the whole game, the one node set the package hands it
    calls = []

    def checked(succ, owner, player, target, preds):
        nodes = {v for v, sources in enumerate(preds) if sources is not None}
        for v in nodes:
            assert succ[v], "node %d has no successor" % v
            assert all(t in nodes for t in succ[v]), \
                "an edge leaves the nodes at %d" % v
        assert preds == predecessors(sorted(nodes), succ, len(preds))
        calls.append(len(nodes))
        return attractor(succ, owner, player, target, preds)

    monkeypatch.setattr("pgsi.arena.attractor", checked)
    for seed in range(10):
        game = loop_game(generate_game(60, 3, 6, seed=seed))
        for name in POLICY_NAMES:
            for audit_every in (0, 1, 16):
                result = solve(game, policy_by_name(name, seed), audit_every)
                replay_verify(game, result)
    looped = len(calls)
    for seed in range(500):
        game = fuzz_game(seed)
        replay_verify(game, solve(game))
    # the peels' attractors, on the loop games and on the fuzz games
    assert looped and len(calls) > looped
    assert set(calls[:looped]) == {60}


@given(parity_games(max_nodes=6))
def test_attractor_monotone_and_idempotent(game):
    half = [v for v in range(game.n) if v % 2 == 0]
    small = game_attractor(game, 1, half[:1] if half else [])
    big = game_attractor(game, 1, half)
    assert small.members <= big.members
    again = game_attractor(game, 1, sorted(big.members))
    assert again.members == big.members


def assert_smallest_id_edges(res, succ, rank):
    """Each edge of `res` is its source's smallest-id successor of
    smaller rank in `rank`, the reference's ranks."""
    for v, t in res.strategy.items():
        assert t == min(u for u in succ[v]
                        if rank.get(u, rank[v]) < rank[v])


@given(parity_games(max_nodes=6))
def test_attractor_strategy_decreases_rank(game):
    target = [v for v in range(game.n) if game.color[v] == 0]
    res = game_attractor(game, 0, target)
    _, rank = level_attractor(*game_graph(game), 0, target)
    for v, t in res.strategy.items():
        assert game.owner[v] == 0 and rank[t] < rank[v]
    assert_smallest_id_edges(res, game.successors, rank)
    # one edge for every attracting-player member of positive rank
    assert set(res.strategy) == {v for v, r in rank.items()
                                 if r > 0 and game.owner[v] == 0}


# ---------------------------------------------------------- cycle analysis

def test_odd_self_loop_is_dominated():
    assert find_one_dominated_cycle_nodes([0], {0: (0,)}, {0: 1}) \
        == frozenset((0,))


def test_even_self_loop_is_not_dominated():
    assert find_one_dominated_cycle_nodes([0], {0: (0,)}, {0: 2}) \
        == frozenset()
    assert find_dominated_cycle_nodes([0], {0: (0,)}, {0: 2}, 0) \
        == frozenset((0,))


def test_two_cycle_max_color_decides():
    assert find_one_dominated_cycle_nodes(
        [0, 1], {0: (1,), 1: (0,)}, {0: 1, 1: 2}) == frozenset()


@st.composite
def rooted_graphs(draw):
    """A digraph on 0..n-1 with self-loops and edges to nodes outside
    the allowed set, an allowed subset, and a root order over part or
    all of that subset."""
    n = draw(st.integers(1, 14))
    node = st.integers(0, n - 1)
    succ = {v: tuple(draw(st.lists(node, max_size=4, unique=True)))
            for v in range(n)}
    allowed = draw(st.sets(node, min_size=1))
    order = draw(st.permutations(sorted(allowed)))
    return order[:draw(st.integers(1, len(order)))], succ, allowed


@settings(max_examples=500, deadline=None)
@given(rooted_graphs())
def test_sccs_match_the_two_pass_reference(graph):
    # the same component lists, members in the same order, listed in
    # the same order, but for the one-node components without a
    # self-loop, which lie on no cycle and which `_sccs` leaves out
    order, succ, allowed = graph
    assert _sccs(order, succ, *marked(allowed, len(succ))) \
        == [comp for comp in two_pass_sccs(order, succ, allowed)
            if len(comp) > 1 or comp[0] in succ[comp[0]]]


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


def _dominated_by_closure(nodes, succ, color, parity):
    # independent route: v lies on a closed walk whose top color c has
    # the wanted parity iff some color-c node x with c >= all walk colors
    # satisfies v ->+ x ->+ v inside the <=c subgraph
    out = set()
    colors = sorted({color[v] for v in nodes}, reverse=True)
    for c in colors:
        if c % 2 != parity:
            continue
        sub = [v for v in nodes if color[v] <= c]
        member = set(sub)
        reach = _closure_with_step(sub, {v: tuple(t for t in succ[v]
                                                  if t in member)
                                         for v in sub})
        for v in sub:
            for x in sub:
                if color[x] != c:
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
        tables = range(g.n), g.successors, g.color
        for parity in (0, 1):
            assert find_dominated_cycle_nodes(*tables, parity) == \
                _dominated_by_closure(*tables, parity)


@st.composite
def graph_views(draw, max_nodes=8, closed=True):
    """Nodes, successors, owners and colors over a few ids of 0..11 in any
    order, with both owners and duplicate successors.  A `closed` view
    meets the attractor's precondition: every node has a successor among
    the nodes and no edge leaves them.  Otherwise there are dead ends
    and edges that leave the nodes."""
    nodes = draw(st.lists(st.integers(0, 11), unique=True,
                          max_size=max_nodes))
    closed = closed and bool(nodes)
    heads = st.sampled_from(nodes) if closed else st.integers(0, 11)
    succ = {v: tuple(draw(st.lists(heads, min_size=int(closed),
                                   max_size=3))) for v in nodes}
    owner = tuple(draw(st.lists(st.integers(0, 1), min_size=12,
                                max_size=12)))
    color = tuple(draw(st.lists(st.integers(0, 5), min_size=12,
                                max_size=12)))
    return nodes, succ, owner, color


@given(graph_views(), st.integers(0, 1), st.data())
@settings(max_examples=500)
def test_attractor_matches_the_level_by_level_reference(view, player, data):
    nodes, succ, owner, _ = view
    target = data.draw(st.lists(st.sampled_from(nodes), max_size=4)
                       if nodes else st.just([]))
    res = attractor(succ, owner, player, target,
                    predecessors(nodes, succ, 12))
    ref, rank = level_attractor(nodes, succ, owner, player, target)
    assert (res.members, res.strategy) == (ref.members, ref.strategy)
    assert_smallest_id_edges(res, succ, rank)


@st.composite
def sparse_views(draw):
    """Nodes with ids in a stepped range, one to three successors among
    them with duplicates, owners over every id up to the last, and
    targets with duplicates: views that meet the attractor's
    precondition."""
    ids = range(draw(st.integers(0, 3)), draw(st.integers(0, 20)),
                draw(st.integers(1, 3)))
    heads = st.sampled_from(ids) if ids else st.nothing()
    succ = {v: tuple(draw(st.lists(heads, min_size=1, max_size=3)))
            for v in ids}
    owner = tuple(draw(st.lists(st.integers(0, 1), min_size=20,
                                max_size=20)))
    target = draw(st.lists(heads, max_size=4)) if ids else []
    return ids, succ, owner, target


@given(sparse_views(), st.integers(0, 1))
@settings(max_examples=300)
def test_attractor_on_sparse_ids_matches_the_reference(view, player):
    # the same ids as a range, a list in any order and a dict: ranks,
    # counters and edges indexed by id must not depend on the form
    ids, succ, owner, target = view
    ref, rank = level_attractor(ids, succ, owner, player, target)
    shuffled = list(ids)
    random.Random(len(shuffled)).shuffle(shuffled)
    # tables that end at the last node, at the range's stop and at the
    # last owner
    for size in {max(ids, default=-1) + 1, ids.stop, len(owner)}:
        for nodes in (ids, shuffled, succ):
            preds = predecessors(nodes, succ, size)
            res = attractor(succ, owner, player, target, preds)
            assert (res.members, res.strategy) \
                == (ref.members, ref.strategy)
            assert_smallest_id_edges(res, succ, rank)
            # an id in a gap, past the table or negative is no node
            for outside in {-1, size, *(v for v in range(size)
                                        if v not in ids)}:
                with pytest.raises(ValueError, match="not in the node set"):
                    attractor(succ, owner, player, [*target, outside], preds)


def test_attractor_on_sparse_ids_by_hand():
    # player 1 attracts towards 3, given twice: player-0 nodes 1 and 9
    # have their only edge into 3, both at rank 1; in the descending
    # order player-1 node 7 is first reached from 9 and takes 1, its
    # smallest-id successor of smaller rank, not 9, its first; player-0
    # node 5 waits for 7, and 11 keeps its own loop
    succ = {1: (3,), 3: (3,), 5: (3, 7), 7: (9, 1), 9: (3,), 11: (11, 7)}
    owner = (0,) * 7 + (1, 0, 0, 0, 0)
    for nodes in (range(1, 12, 2), [11, 9, 7, 5, 3, 1], succ):
        preds = predecessors(nodes, succ, 12)
        res = attractor(succ, owner, 1, [3, 3], preds)
        assert res.members == frozenset((3, 9, 1, 7, 5))
        assert res.strategy == {7: 1}
        assert level_attractor(nodes, succ, owner, 1, [3, 3]) \
            == (res, {3: 0, 9: 1, 1: 1, 7: 2, 5: 3})
        with pytest.raises(ValueError, match="target node 4 is not"):
            attractor(succ, owner, 1, [3, 4], preds)


def cycle_strategy(nodes, succ, color, parity=1,
                   decompose=_dominated_pieces):
    """`_witness_edges` on the pieces `decompose` gives, with the table
    its contract asks for: the predecessors over `nodes` of the edges
    among them, since these views have edges that leave the nodes."""
    members = set(nodes)
    among = {v: [t for t in succ[v] if t in members] for v in members}
    return _witness_edges(decompose(nodes, succ, color, parity), succ, color,
                          predecessors(members, among,
                                       max(members, default=-1) + 1))


@given(graph_views(closed=False), st.integers(0, 1))
@settings(max_examples=500)
def test_dominated_cycle_strategy_matches_the_bfs_reference(view, parity):
    nodes, succ, _, color = view
    assert cycle_strategy(nodes, succ, color, parity) \
        == bfs_dominated_cycle_strategy(nodes, succ, color, parity)


def table_forms(game, order, part):
    """The node and successor tables the package hands the analyses, over
    the nodes of `part`: node ids with the game's successor tuple, a list
    with a dict, and a walk dict as both, the last two in `order`."""
    ids = [v for v in order if v in part]
    walk = {v: game.successors[v] for v in ids}
    whole = range(game.n) if len(ids) == game.n else tuple(sorted(ids))
    return [(whole, game.successors), (ids, dict(walk)), (walk, walk)]


@given(parity_games(), st.data())
@settings(max_examples=300)
def test_analyses_agree_on_every_table_form(game, data):
    order = data.draw(st.permutations(range(game.n)))
    part = data.draw(st.sets(st.sampled_from(order)))
    player = data.draw(st.integers(0, 1))
    target = data.draw(st.lists(st.sampled_from(order), max_size=3))
    for nodes in (set(order), part):
        answers = [(find_dominated_cycle_nodes(*form, game.color, 0),
                    find_dominated_cycle_nodes(*form, game.color, 1),
                    cycle_strategy(*form, game.color))
                   for form in table_forms(game, order, nodes)]
        assert answers[1:] == answers[:1] * 2
    # the attractor needs a node set no edge leaves: the whole game
    answers = [(res.members, res.strategy) for res in (
        attractor(succ, game.owner, player, target,
                  predecessors(nodes, succ, game.n))
        for nodes, succ in table_forms(game, order, set(order)))]
    assert answers[1:] == answers[:1] * 2


@st.composite
def chained_graphs(draw):
    """Nodes in any order, successors and colors over ids 0..23: a
    random core with dead ends, duplicate successors and edges that
    leave the nodes, and chains of fresh nodes that run into the core,
    out of it, or both."""
    core = draw(st.lists(st.integers(0, 11), unique=True, max_size=8))
    succ = {v: draw(st.lists(st.integers(0, 23), max_size=3)) for v in core}
    fresh = iter(range(12, 24))
    for _ in range(draw(st.integers(0, 3))):
        chain = [next(fresh) for _ in range(draw(st.integers(1, 4)))]
        for v, t in zip(chain, chain[1:]):
            succ[v] = [t]
        succ[chain[-1]] = []
        if core and draw(st.booleans()):
            succ[chain[-1]].append(draw(st.sampled_from(core)))
        if core and draw(st.booleans()):
            succ[draw(st.sampled_from(core))].append(chain[0])
    nodes = draw(st.permutations(list(succ)))
    color = tuple(draw(st.lists(st.integers(0, 5), min_size=24,
                                max_size=24)))
    return nodes, {v: tuple(ts) for v, ts in succ.items()}, color


@given(chained_graphs())
@settings(max_examples=500)
def test_peeled_decomposition_matches_the_unpeeled_reference(graph):
    # peeling the nodes on no cycle must leave the pieces, their tops and
    # every answer read from them as they were
    def answers(kernel):
        with mock.patch("pgsi.arena._dominated_pieces", kernel):
            return ([sorted((top, sorted(piece)) for top, piece
                            in kernel(*graph, parity)) for parity in (0, 1)],
                    find_dominated_cycle_nodes(*graph, 0),
                    find_dominated_cycle_nodes(*graph, 1),
                    cycle_strategy(*graph, 1, kernel))

    assert answers(_dominated_pieces) \
        == answers(unpeeled_dominated_pieces)


def test_peel_hands_the_scc_pass_only_what_a_cycle_reaches(monkeypatch):
    handed = []

    def counted(order, succ, state, mark):
        handed.append(set(order))
        return _sccs(order, succ, state, mark)

    monkeypatch.setattr("pgsi.arena._sccs", counted)
    # a 20,000-node DAG, every edge to a larger id: nothing is left
    n = 20_000
    succ = {v: tuple(t for t in (v + 1, 2 * v + 1, v + 7) if t < n)
            for v in range(n)}
    color = tuple(v % 6 for v in range(n)) + (3, 2, 1, 1)
    for parity in (0, 1):
        assert find_dominated_cycle_nodes(range(n), succ, color, parity) \
            == frozenset()
    assert handed == []
    # the DAG feeds the odd two-cycle n <-> n+1, which feeds the chain
    # n+2 -> n+3: only the cycle and the chain reach the SCC pass
    for v in range(0, n, 1000):
        succ[v] += (n,)
    succ.update({n: (n + 1,), n + 1: (n, n + 2), n + 2: (n + 3,),
                 n + 3: ()})
    assert find_dominated_cycle_nodes(range(n + 4), succ, color, 1) \
        == frozenset((n, n + 1))
    assert handed == [{n, n + 1, n + 2, n + 3}]


@given(chained_graphs())
@settings(max_examples=300)
def test_no_piece_reaches_the_scc_pass_twice(graph):
    # a piece topped by the other parity goes back trimmed below its top
    # of the wanted parity, so it is split smaller than it came: a node
    # set handed to `_sccs` twice means a worklist that never ends
    handed = set()

    def counted(order, succ, state, mark):
        piece = frozenset(order)
        assert piece not in handed, sorted(piece)
        handed.add(piece)
        return _sccs(order, succ, state, mark)

    with mock.patch("pgsi.arena._sccs", counted):
        for parity in (0, 1):
            handed.clear()
            tops = [top for top, _ in _dominated_pieces(*graph, parity)]
            assert sorted(tops) == sorted(
                top for top, _ in unpeeled_dominated_pieces(*graph, parity))


@st.composite
def state_list_bounds(draw):
    """A color table over ids 0..size-1, a tuple or a dict, for size up
    to 12 or 10,000; node ids in a stepped range or a few picked ones;
    successors among the nodes, at other ids of the table and at the
    sink id ``size``, with duplicates and dead ends."""
    size = draw(st.one_of(st.integers(1, 12), st.just(10_000)))
    palette = draw(st.lists(st.integers(0, 5), min_size=12, max_size=12))
    color = tuple(palette[v % 12] for v in range(size))
    if draw(st.booleans()):
        color = dict(enumerate(color))
    start, step = draw(st.integers(0, size - 1)), draw(st.integers(1, 3))
    ids = draw(st.one_of(
        st.just(range(start, min(size, start + 8 * step), step)),
        st.lists(st.integers(0, size - 1), unique=True, max_size=5)))
    heads = st.one_of(st.sampled_from(ids), st.integers(0, size),
                      st.just(size)) if ids else st.integers(0, size)
    succ = {v: tuple(draw(st.lists(heads, max_size=4))) for v in ids}
    return ids, succ, color


def _decomposition_answers(kernel, nodes, succ, color):
    # the pieces, the node sets and the cycle strategies at both
    # parities, all read through `kernel`
    with mock.patch("pgsi.arena._dominated_pieces", kernel):
        return [(sorted((top, sorted(piece)) for top, piece
                        in kernel(nodes, succ, color, parity)),
                 find_dominated_cycle_nodes(nodes, succ, color, parity),
                 cycle_strategy(nodes, succ, color, parity, kernel))
                for parity in (0, 1)]


@given(state_list_bounds())
@settings(max_examples=300, deadline=None)
def test_state_list_bounds_match_the_unpeeled_reference(graph):
    # the state list is sized by the color table: every node form the
    # package passes, with a successor at the sink id and at ids that
    # are no nodes, in a small table and in a 10,000-id one, must give
    # the reference's answers and never index past the list
    ids, succ, color = graph
    table = [succ.get(v, ()) for v in range(len(color) + 1)]
    expected = _decomposition_answers(unpeeled_dominated_pieces, list(ids),
                                      succ, color)
    for nodes, successors in ((ids, succ), (ids, table),
                              (list(reversed(ids)), succ), (set(ids), succ),
                              (succ, succ)):
        assert _decomposition_answers(_dominated_pieces, nodes, successors,
                                      color) == expected


def test_state_list_keeps_in_edges_of_non_nodes_out_of_the_counts():
    # a two-entry color table gives a three-entry state list, whose last
    # id is the sink; however many edges run into it, it is no node.  A
    # count kept at its entry would, after two edges, read as preorder
    # number 1 and merge the self-loops at 0 and 1 into one piece
    color = {0: 2, 1: 0}
    for k in range(7):
        succ = {0: (1, 0), 1: (2,) * k + (1,)}
        assert _decomposition_answers(_dominated_pieces, [0, 1], succ,
                                      color) \
            == _decomposition_answers(unpeeled_dominated_pieces, [0, 1],
                                      succ, color)
        assert list(_dominated_pieces([0, 1], succ, color, 0)) \
            == [(0, [1]), (2, [0])]


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
    assert find_one_dominated_cycle_nodes(range(2 * k), succ, color) \
        == frozenset((tooth[0],))
    assert cycle_strategy(range(2 * k), succ, color) \
        == {tooth[0]: tooth[0]}


def test_cycle_kernels_match_the_references_on_the_tiny_batch_games(
        seed1_instances):
    # both player subgraphs of every seed-1 tiny-batch game at both
    # parities, and the empty node set: the decomposition is one list
    # with the unpeeled reference's pieces, and the cycle strategy is
    # the per-piece BFS reference's where the pieces' BFS reads the
    # game's own predecessor table, as `preprocess` hands it
    def normal(pieces):
        return sorted((top, sorted(piece)) for top, piece in pieces)

    found = 0
    for inst, game in seed1_instances["tiny-batch"]:
        succ, color = game.successors, game.color
        table = predecessors(range(game.n), succ, game.n)
        for nodes in (game.player_nodes(0), game.player_nodes(1), ()):
            for parity in (0, 1):
                pieces = _dominated_pieces(nodes, succ, color, parity)
                assert type(pieces) is list, inst.label
                assert normal(pieces) == normal(unpeeled_dominated_pieces(
                    nodes, succ, color, parity)), inst.label
                assert _witness_edges(pieces, succ, color, table) \
                    == bfs_dominated_cycle_strategy(nodes, succ, color,
                                                    parity), inst.label
                found += len(pieces)
    assert found > 8000


@given(parity_games(max_nodes=7))
def test_dominated_cycle_strategy_is_safe(game):
    # following the assigned edges must never close an even-dominated cycle
    tables = game.player_nodes(1), game.successors, game.color
    marked = find_one_dominated_cycle_nodes(*tables)
    strat = _witness_edges(_dominated_pieces(*tables, 1), *tables[1:],
                           predecessors(range(game.n), game.successors,
                                        game.n))
    assert set(strat) == set(marked)
    for v, t in strat.items():
        assert t in game.successors[v] and t in marked
    assert find_dominated_cycle_nodes(
        sorted(marked), {v: (strat[v],) for v in marked}, game.color,
        0) == frozenset()
    # out-degree one: each walk ends on a cycle, whose top color must be odd
    for v in marked:
        seen = {}
        walk = []
        while v not in seen:
            seen[v] = len(walk)
            walk.append(v)
            v = strat[v]
        cycle = walk[seen[v]:]
        assert max(game.color[u] for u in cycle) % 2 == 1


# ------------------------------------------------------------ preprocessing

def test_preprocess_keeps_clean_games():
    g = ParityGame((0, 1), (1, 2), ((1,), (0,)))
    prep = preprocess(g)
    assert prep.pre_won == frozenset()
    assert prep.arena.nodes == (0, 1)


def test_preprocess_removes_odd_player1_loop():
    prep = preprocess(ParityGame((1,), (1,), ((0,),)))
    assert prep.pre_won == frozenset((0,))
    assert prep.arena.nodes == ()
    assert prep.strategy1 == {0: 0}


def test_preprocess_attracts_committed_predecessor():
    # u's only move feeds the odd loop at v, so u is lost with it
    g = ParityGame((1, 1), (0, 1), ((1,), (1,)))
    prep = preprocess(g)
    assert prep.pre_won == frozenset((0, 1))
    assert prep.strategy1 == {0: 1, 1: 1}
    res = game_attractor(g, 1, [1])
    assert (res.members, res.strategy) == ({0, 1}, {0: 1})


def test_preprocess_ignores_escape_edges():
    # the lost player-0 node could flee to the sink, but the plain game
    # offers no way out, so preprocessing may not spare it
    g = ParityGame((0, 1), (0, 1), ((1,), (1,)))
    prep = preprocess(g)
    assert prep.pre_won == frozenset((0, 1))


def test_preprocess_builds_the_arena_over_the_nodes_left():
    # 0 is an odd player-1 loop and 1 may move into it; 2 survives on
    # its odd loop and loses its edge into 1, but keeps its escape
    g = ParityGame((1, 1, 0), (1, 0, 3), ((0,), (0, 2), (1, 2)))
    prep = preprocess(g)
    assert prep.pre_won == frozenset((0, 1))
    assert prep.strategy1 == {0: 0, 1: 0}
    assert prep.arena.nodes == (2,)
    assert prep.arena.succ == {2: (2,)}
    assert prep.arena.escape_choices == {2: (2, 3)}


def _assert_arena_predecessor_table(arena):
    # one entry per game node: None at a removed id, and at a kept id
    # the kept sources of its game edges, ascending; none for the sink
    game = arena.game
    assert len(arena.preds) == game.n
    kept = set(arena.nodes)
    for t in range(game.n):
        if t in kept:
            assert arena.preds[t] == [v for v in arena.nodes
                                      if t in game.successors[v]]
        else:
            assert arena.preds[t] is None


@given(parity_games(), st.data())
@settings(max_examples=300)
def test_arena_predecessor_table_holds_the_kept_edges(game, data):
    # the peels' removals, then any removal at all
    _assert_arena_predecessor_table(preprocess(game).arena)
    removed = data.draw(st.sets(st.integers(0, game.n - 1)))
    _assert_arena_predecessor_table(build_escape_arena(game, removed))


def test_preprocess_runs_one_attractor_per_decomposition(monkeypatch):
    calls = []

    def counted(succ, owner, player, target, preds):
        calls.append((player, preds))
        return attractor(succ, owner, player, target, preds)

    monkeypatch.setattr("pgsi.arena.attractor", counted)
    # three odd player-1 two-cycles with interleaved ids, joined one way:
    # one attractor does the removal, and the pieces' edges come from a
    # BFS each; then the same for the even player-0 loop at 6 and node 7
    # feeding it
    joined = ParityGame((1, 1, 1, 1, 1, 1, 0, 0), (1, 3, 5, 0, 2, 4, 6, 1),
                        ((3, 1), (4, 2), (5,), (0,), (1,), (2,), (0, 6),
                         (6,)))
    prep = preprocess(joined)
    assert [player for player, _ in calls] == [1, 0]
    # both removals read one predecessor table of the whole game
    assert calls[0][1] is calls[1][1]
    # one entry per game node, entry t the sources of t's game edges
    table = calls[0][1]
    assert len(table) == 8
    for t in range(8):
        assert table[t] == [v for v in range(8)
                            if t in joined.successors[v]]
    assert prep.pre_won == frozenset(range(6))
    assert prep.strategy1 == {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}
    assert prep.pre_won0 == frozenset((6, 7))
    assert prep.strategy0 == {6: 6, 7: 6}
    tables = joined.player_nodes(1), joined.successors, joined.color
    assert _witness_edges(_dominated_pieces(*tables, 1), *tables[1:],
                          table) == bfs_dominated_cycle_strategy(*tables)
    # no odd player-1 cycle and no even player-0 one: no piece and no
    # target, so no call runs
    calls.clear()
    prep = preprocess(ParityGame((0, 1), (1, 2), ((1,), (0,))))
    assert prep.pre_won == prep.pre_won0 == frozenset()
    assert len(calls) == 0


def test_preprocess_peels_player0_cycles_and_their_attractor():
    # 0 <-> 1 is an even player-0 cycle; player-1 node 2 must enter it
    # and player-0 node 3 may; 4 is an odd player-1 loop that 5 must
    # enter; player-1 node 6 keeps its own loop, so player 0 attracts
    # neither it nor node 7, whose odd loop leaves it in the arena
    g = ParityGame((0, 0, 1, 0, 1, 0, 1, 0), (2, 1, 3, 5, 1, 0, 4, 3),
                   ((1,), (0, 4), (0,), (2, 5), (4, 5), (4,), (1, 6),
                    (7, 6)))
    prep = preprocess(g)
    assert prep.pre_won == frozenset((4, 5))
    assert prep.strategy1 == {4: 4}
    assert prep.pre_won0 == frozenset((0, 1, 2, 3))
    assert prep.strategy0 == {0: 1, 1: 0, 3: 2}
    assert prep.arena.nodes == (6, 7)
    assert prep.arena.succ == {6: (6,), 7: (7, 6)}
    assert prep.arena.escape_choices == {7: (6, 7, 8)}


@given(parity_games())
@settings(max_examples=300)
def test_preprocess_soundness(game):
    prep = preprocess(game)
    arena = prep.arena
    # nothing 1-dominated survives among player-1 nodes, nothing
    # 0-dominated among player-0 nodes
    assert find_one_dominated_cycle_nodes(
        arena.player1_nodes, game.successors, game.color) == frozenset()
    assert find_dominated_cycle_nodes(
        arena.player0_nodes, game.successors, game.color, 0) == frozenset()
    for v in arena.player1_nodes:
        assert arena.succ[v]
    # pre-won nodes are truly won, each by its player
    oracle = oracle_solve(game)
    assert prep.pre_won <= set(oracle.w1)
    assert prep.pre_won0 <= set(oracle.w0)


def test_player0_attractor_on_the_whole_game_is_the_one_without_pre_won():
    # player 0's peel attracts on the game's own tables: outside player
    # 1's peel no player-1 node has an edge into it, and inside it
    # player 0 attracts nothing, so the attractor is the one of the game
    # without those nodes, edges included
    rng = random.Random(61)
    peeled = 0
    for _ in range(300):
        game = random_game(rng, rng.randint(1, 60), rng.randint(1, 4),
                           rng.randint(1, 8))
        prep = preprocess(game)
        left = [v for v in range(game.n) if v not in prep.pre_won]
        inner = {v: tuple(t for t in game.successors[v]
                          if t not in prep.pre_won) for v in left}
        table = predecessors(range(game.n), game.successors, game.n)
        cycles = _witness_edges(_dominated_pieces(
            [v for v in left if game.owner[v] == 0], game.successors,
            game.color, 0), game.successors, game.color, table)
        whole = attractor(game.successors, game.owner, 0, cycles, table)
        part = attractor(inner, game.owner, 0, cycles,
                         predecessors(left, inner, game.n))
        assert whole == part
        assert whole.members == prep.pre_won0
        assert prep.pre_won0.isdisjoint(prep.pre_won)
        peeled += bool(prep.pre_won) and bool(whole.members)
    # both peels remove nodes from 66 of the games
    assert peeled >= 50
