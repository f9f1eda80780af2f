"""Strategies, fixpoint valuations, improvement sets, the fast update."""

import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsi import POS_INFINITY, ParityGame
from pgsi.arena import (attractor, build_escape_arena,
                        find_one_dominated_cycle_nodes, predecessors,
                        preprocess)
from pgsi.cli import random_game
from pgsi.errors import DimensionError, InvariantViolation, ReasonablenessError
from pgsi.iteration import (AllSwitches, DeterministicAll, SingleRandom,
                            _check_progress, _check_step, _stale_entries,
                            solve)
from pgsi.profiles import INF_KEY, ProfileBasis, digit_width
from pgsi.valuation import (changed_nodes, improvements, initial_strategy,
                            is_reasonable, is_reasonable_step,
                            response_strategy, switch_region, to_profiles,
                            valuate_bellman_ford, valuate_dijkstra)

from conftest import parity_games, scale_games
from helpers import apply_operator, key_of, loop_game, strategy_of


def fin(*counts):
    """The value that visits color c counts[c] times, in a basis of its
    own; it equals the arena's value of the same counts."""
    basis = ProfileBasis(len(counts), range(len(counts)), 64)
    return basis.from_key(key_of(basis, counts))


def plus_unit(arena, v, value):
    """The unit of node v plus `value`, a profile of the arena's basis;
    +inf absorbs it."""
    if value == POS_INFINITY:
        return value
    basis = arena.basis
    return basis.from_key(basis.unit_key(arena.game.color[v])) + value


def arena_of(game):
    return build_escape_arena(game)


def region_of(arena, old, new):
    """The switch region of a step from `old` to `new`."""
    return switch_region(arena, new, changed_nodes(old, new))


def update(arena, old, new, base):
    """The fast revaluation of a step from `old` to `new`."""
    return valuate_dijkstra(arena, new, region_of(arena, old, new), base)


def keys_of(arena, values):
    """The key list of a node -> profile mapping, the profiles of any
    basis; absent nodes are +inf."""
    keys = [INF_KEY] * (arena.sink + 1)
    for v, value in values.items():
        if value.is_finite:
            keys[v] = key_of(arena.basis, value.counts)
    return keys


def self_loop_arena(color):
    """One player-0 node with a self-loop; d is color + 1."""
    return arena_of(ParityGame((0,), (color,), ((0,),)))


def improvement_iterates(arena, max_rounds=64):
    """Yield (strategy, valuation) along the all-improvements iteration."""
    strategy = initial_strategy(arena)
    for _ in range(max_rounds):
        valuation = valuate_bellman_ford(arena, strategy)
        yield strategy, valuation
        imps = improvements(arena, strategy, valuation)
        if not imps.strict:
            return
        strategy = imps.improving
    raise AssertionError("improvement iteration failed to stop")


# -------------------------------------------------------------- strategies

def test_initial_strategy_moves_every_player0_node_to_sink():
    game = ParityGame((0, 1, 0), (0, 1, 2), ((1,), (2,), (0,)))
    arena = arena_of(game)
    assert initial_strategy(arena) == {0: (3,), 2: (3,)}


def test_initial_strategy_empty_without_player0_nodes():
    game = ParityGame((1, 1), (0, 1), ((1,), (0,)))
    assert initial_strategy(arena_of(game)) == {}


@settings(max_examples=100, deadline=None)
@given(parity_games())
def test_initial_strategy_is_reasonable(game):
    prep = preprocess(game)
    assert is_reasonable(prep.arena, initial_strategy(prep.arena))


def test_reasonableness_of_chosen_self_loops():
    odd = self_loop_arena(1)
    assert not is_reasonable(odd, strategy_of({0: (0,)}))
    even = self_loop_arena(0)
    assert is_reasonable(even, strategy_of({0: (0,)}))


@st.composite
def reasonable_steps(draw):
    """A preprocessed arena, a reasonable strategy on it and any strategy
    inside its escape choices that agrees with it at some nodes."""
    arena = preprocess(draw(parity_games(max_colors=5))).arena
    escape = arena.escape_choices

    def pick(v):
        return tuple(sorted(draw(st.sets(st.sampled_from(escape[v]),
                                         min_size=1))))

    old = {v: pick(v) for v in arena.player0_nodes}
    # every odd cycle has a player-0 node, because preprocessing leaves
    # none among player-1 nodes; moving those nodes to the sink cuts them
    for v in find_one_dominated_cycle_nodes(
            arena.nodes, {**arena.succ, **old}, arena.game.color):
        if v in old:
            old[v] = (arena.sink,)
    new = {v: old[v] if draw(st.booleans()) else pick(v) for v in old}
    return arena, old, new


@settings(max_examples=300, deadline=None)
@given(reasonable_steps())
def test_reasonable_step_agrees_with_the_full_check(step):
    arena, old, new = step
    assert is_reasonable(arena, old)
    changed = changed_nodes(old, new)
    assert is_reasonable_step(arena, old, new, changed,
                              switch_region(arena, new, changed)) \
        == is_reasonable(arena, new)


@pytest.mark.parametrize("owner, color, succ, new", [
    # 0 -> 1 closes an odd cycle through the player-1 node 1
    ((0, 1), (0, 1), ((1,), (0,)), {0: (1,)}),
    # three added edges, each closing a cycle through a player-1 node,
    # which leaves player 0's peel nothing; only the middle one, 2 -> 1,
    # closes an odd cycle
    ((0, 1, 0, 0, 1, 1), (0, 1, 0, 2, 2, 0),
     ((4,), (2,), (1,), (5,), (0,), (3,)), {0: (4,), 2: (1,), 3: (5,)}),
], ids=["player1-predecessor", "second-of-three-edges"])
def test_reasonable_step_finds_the_cycle_an_added_edge_closes(owner, color,
                                                              succ, new):
    arena = preprocess(ParityGame(owner, color, succ)).arena
    old, new = initial_strategy(arena), strategy_of(new)
    assert not is_reasonable(arena, new)
    changed = changed_nodes(old, new)
    assert not is_reasonable_step(arena, old, new, changed,
                                  switch_region(arena, new, changed))


class _NoLookups(dict):
    """A mapping whose every lookup fails."""

    def __getitem__(self, key):
        raise AssertionError("lookup of %r" % (key,))


def test_reasonable_step_walks_no_predecessor_table():
    # the switch region is the one backward walk of a step: given it,
    # the step check reads no predecessor, and still agrees with the
    # full check at every step of a single-switch walk
    arena = preprocess(loop_game(random_game(random.Random(300), 300, 3,
                                             8))).arena
    policy = SingleRandom(4)
    strategy = initial_strategy(arena)
    valuation = valuate_bellman_ford(arena, strategy)
    imps = improvements(arena, strategy, valuation)
    steps = 0
    while imps.strict:
        step = {**strategy, **policy.pick(arena, strategy, valuation, imps)}
        changed = changed_nodes(strategy, step)
        region = switch_region(arena, step, changed)
        verdict = is_reasonable_step(arena._replace(preds=_NoLookups()),
                                     strategy, step, changed, region)
        assert verdict == is_reasonable(arena, step)
        valuation = valuate_dijkstra(arena, step, region, valuation)
        strategy = step
        imps = improvements(arena, strategy, valuation)
        steps += 1
    assert steps >= 100


# ------------------------------------------------- fixpoint valuation

def every_row_bellman_ford(arena, strategy, on_update=None):
    """Reference sweeps: every row in each sweep, in descending id order,
    updating in place, until a sweep changes nothing; ReasonablenessError
    once the arena's node count plus one sweeps all changed a value."""
    vals = [INF_KEY] * (arena.sink + 1)
    vals[arena.sink] = 0
    unit = arena.unit_keys
    owner_of = arena.game.owner
    from_key = arena.basis.from_key
    for sweep in range(1, len(arena.nodes) + 2):
        changed = False
        for v in reversed(arena.nodes):
            if owner_of[v] == 1:
                best = min(vals[t] for t in arena.succ[v])
            else:
                best = max(vals[t] for t in strategy[v])
            new = best if best == INF_KEY else unit[v] + best
            if new != vals[v]:
                if on_update is not None:
                    on_update(sweep, v, from_key(vals[v]), from_key(new))
                vals[v] = new
                changed = True
        if not changed:
            return vals
    raise ReasonablenessError("no fixpoint within %d sweeps"
                              % len(arena.nodes))


def sweep_outcome(valuate, arena, strategy):
    """The values, or the error, and the update stream of one valuation."""
    stream = []
    try:
        result = valuate(arena, strategy, on_update=lambda *update:
                         stream.append(update))
    except ReasonablenessError as exc:
        result = type(exc)
    return result, stream


def assert_same_sweeps(arena, strategy):
    assert sweep_outcome(valuate_bellman_ford, arena, strategy) \
        == sweep_outcome(every_row_bellman_ford, arena, strategy)


@settings(max_examples=200, deadline=None)
@given(parity_games(max_nodes=10, max_colors=5))
def test_bellman_ford_matches_every_row_sweeps(game):
    # the same values and the same (sweep, node, old, new) stream at
    # every iterate of the all-improvements walk
    arena = preprocess(game).arena
    for strategy, _ in improvement_iterates(arena):
        assert_same_sweeps(arena, strategy)


def test_bellman_ford_matches_every_row_sweeps_off_the_arena():
    # a player-0 row reads its strategy's choices, which need not be
    # arena edges: node 1 keeps an edge to node 0 that the game lacks
    arena = arena_of(ParityGame((0, 0), (0, 0), ((1,), (1,))))
    strategy = strategy_of({0: (2,), 1: (0,)})
    values, stream = sweep_outcome(valuate_bellman_ford, arena, strategy)
    assert values[1] != INF_KEY and [u[:2] for u in stream] == [(1, 0), (2, 1)]
    assert_same_sweeps(arena, strategy)
    # strategies over any targets, reasonable or not, on random games
    rng = random.Random(71)
    for _ in range(300):
        game = random_game(rng, rng.randint(1, 9), 3, rng.randint(1, 5))
        arena = arena_of(game)
        targets = range(arena.sink + 1)
        assert_same_sweeps(arena, strategy_of({
            v: rng.sample(targets, rng.randint(1, 2))
            for v in arena.player0_nodes}))
    # arenas without some nodes: a row may read a removed id, whose
    # value stays +inf, or the sink, whose value stays 0
    reads_removed = reads_sink = 0
    for _ in range(300):
        game = random_game(rng, rng.randint(2, 9), 3, rng.randint(1, 5))
        removed = set(rng.sample(range(game.n), rng.randint(1, game.n - 1)))
        # a player-1 node left must keep a successor
        while True:
            stuck = {v for v in range(game.n) if v not in removed
                     and game.owner[v] == 1
                     and set(game.successors[v]) <= removed}
            if not stuck:
                break
            removed |= stuck
        arena = build_escape_arena(game, removed)
        targets = sorted(removed) + [arena.sink]
        strategy = strategy_of({
            v: rng.sample(targets, rng.randint(1, min(2, len(targets))))
            + rng.sample(arena.escape_choices[v], rng.randint(0, 1))
            for v in arena.player0_nodes})
        chosen = set(chain.from_iterable(strategy.values()))
        reads_removed += bool(chosen & removed)
        reads_sink += arena.sink in chosen
        assert_same_sweeps(arena, strategy)
    assert reads_removed > 100 and reads_sink > 100


def test_bellman_ford_evaluates_only_rows_whose_inputs_changed(monkeypatch):
    # a guard against sweeping every row: on a long-walk-shaped game at
    # a strategy half way along a SingleRandom walk, the rows evaluated
    # (counted as calls of min and max) are at most one per node plus
    # one per row that reads an updated value, per update
    game = loop_game(random_game(random.Random(300), 300, 3, 8))
    walk = []
    solve(game, SingleRandom(1),
          on_iteration=lambda i, strategy, vals, imps: walk.append(strategy))
    arena = preprocess(game).arena
    strategy = walk[len(walk) // 2]
    evaluated = [0]

    def counted(fold):
        def evaluate(values):
            evaluated[0] += 1
            return fold(values)
        return evaluate

    monkeypatch.setattr("pgsi.valuation.min", counted(min), raising=False)
    monkeypatch.setattr("pgsi.valuation.max", counted(max), raising=False)
    sweeps = []
    values = valuate_bellman_ford(arena, strategy, on_update=lambda sweep, v,
                                  old, new: sweeps.append((sweep, v)))
    monkeypatch.undo()
    assert values == every_row_bellman_ford(arena, strategy)
    readers = dict.fromkeys(range(arena.sink + 1), 0)
    for v in arena.nodes:
        for t in (arena.succ[v] if game.owner[v] == 1
                  else strategy[v]):
            readers[t] += 1
    assert max(sweep for sweep, _ in sweeps) > 2
    assert len(arena.nodes) <= evaluated[0] \
        <= len(arena.nodes) + sum(readers[v] for _, v in sweeps)
    # sweeping every row would take one pass more than the last update
    assert evaluated[0] * 2 < len(arena.nodes) * (sweeps[-1][0] + 1)



def test_keys_have_one_digit_per_color_in_use(monkeypatch):
    # a guard against keys as wide as the largest color: on a game that
    # uses six colors up to 999, every key the fast valuation returns
    # inside solve fits six digits, and some use the sixth
    palette = (0, 199, 400, 599, 800, 999)
    base = random_game(random.Random(9), 12, 3, 6)
    game = ParityGame(base.owner, tuple(palette[c] for c in base.color),
                      base.successors)
    keys = []

    def recording(*args):
        values = valuate_dijkstra(*args)
        keys.extend(k for k in values if k != INF_KEY)
        return values

    monkeypatch.setattr("pgsi.iteration.valuate_dijkstra", recording)
    solve(game)
    arena = preprocess(game).arena
    assert tuple(arena.basis.colors) == palette
    width = digit_width(len(arena.nodes))
    assert keys
    assert 5 * width < max(k.bit_length() for k in keys) <= 6 * width + 1


def test_valuation_of_escape_only_self_loop():
    arena = self_loop_arena(1)
    vals = valuate_bellman_ford(arena, initial_strategy(arena))
    assert to_profiles(arena, vals) == {0: fin(0, 1), 1: fin(0, 0)}


def test_valuation_of_unforced_even_self_loop():
    arena = self_loop_arena(2)
    vals = valuate_bellman_ford(arena, strategy_of({0: (0, 1)}))
    assert to_profiles(arena, vals) == {0: POS_INFINITY, 1: fin(0, 0, 0)}


def test_valuation_of_two_node_escape():
    game = ParityGame((0, 1), (1, 2), ((1,), (0,)))
    arena = arena_of(game)
    vals = valuate_bellman_ford(arena, initial_strategy(arena))
    assert to_profiles(arena, vals) == {0: fin(0, 1, 0), 1: fin(0, 1, 1),
                                        2: fin(0, 0, 0)}


def test_sink_value_is_always_empty():
    rng = random.Random(7)
    for _ in range(25):
        game = random_game(rng, rng.randint(1, 7), 3, 4)
        arena = preprocess(game).arena
        vals = valuate_bellman_ford(arena, initial_strategy(arena))
        assert to_profiles(arena, vals)[arena.sink] == fin(*[0] * game.d)


def test_unreasonable_strategy_is_rejected():
    # A player-1 odd cycle next to an escape route never stabilizes: the
    # minimum keeps chasing the ever-smaller value around the cycle.
    game = ParityGame((1, 0), (1, 0), ((0, 1), (0,)))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    assert not is_reasonable(arena, strategy)
    with pytest.raises(ReasonablenessError):
        valuate_bellman_ford(arena, strategy)


def test_unreasonable_strategy_is_rejected_within_the_digit_width():
    # A player-1 cycle of color 1 whose edges all lead to higher ids but
    # one: each descending sweep carries the decrease once around the
    # whole cycle, so the color-1 count nears the n(n + 1) that the
    # arena's digit width is sized for.  A shadow run in a basis of far
    # wider digits checks every update.
    k = 40
    game = ParityGame((1,) * k + (0,), (1,) * k + (0,),
                      tuple(((i + 1) % k, k) for i in range(k)) + ((0,),))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    wide = ProfileBasis(game.d, range(game.d), 2 ** 20)
    wide_unit = {v: wide.from_key(wide.unit_key(arena.game.color[v]))
                 for v in arena.nodes}
    shadow = {arena.sink: wide.from_key(0)}
    shadow.update((v, POS_INFINITY) for v in arena.nodes)
    peak = 0

    def check(sweep, v, old, new):
        nonlocal peak
        if game.owner[v] == 1:
            best = min(shadow[t] for t in arena.succ[v])
        else:
            best = max(shadow[t] for t in strategy[v])
        shadow[v] = best if best == POS_INFINITY else wide_unit[v] + best
        assert new == shadow[v]
        peak = max(peak, *map(abs, new.counts))

    with pytest.raises(ReasonablenessError):
        valuate_bellman_ford(arena, strategy, on_update=check)
    assert peak >= k * k
    assert_same_sweeps(arena, strategy)


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_valuation_is_an_operator_fixpoint(game):
    prep = preprocess(game)
    arena = prep.arena
    if not arena.nodes:
        return
    for strategy, valuation in improvement_iterates(arena):
        assert apply_operator(arena, strategy, valuation) == valuation


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_valuation_stabilizes_within_node_count_sweeps(game):
    prep = preprocess(game)
    arena = prep.arena
    if not arena.nodes:
        return
    strategy = initial_strategy(arena)
    for _ in range(64):
        sweeps = []
        valuation = valuate_bellman_ford(
            arena, strategy, on_update=lambda s, v, old, new: sweeps.append(s))
        assert not sweeps or max(sweeps) <= len(arena.nodes)
        imps = improvements(arena, strategy, valuation)
        if not imps.strict:
            break
        strategy = imps.improving
    else:
        raise AssertionError("improvement iteration failed to stop")


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_valuation_never_drops_below_empty_play(game):
    prep = preprocess(game)
    arena = prep.arena
    if not arena.nodes:
        return
    for _, valuation in improvement_iterates(arena):
        for value in to_profiles(arena, valuation).values():
            assert value == POS_INFINITY or value.is_finite


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_finite_value_iff_pulled_to_sink(game):
    prep = preprocess(game)
    arena = prep.arena
    if not arena.nodes:
        return
    # the arena under the strategy plus the sink, which the package never
    # hands an analysis as a node
    sink = arena.sink
    nodes = arena.nodes + (sink,)
    owner = game.owner + (0,)
    for strategy, valuation in improvement_iterates(arena):
        succ = {**arena.succ, **strategy, sink: ()}
        region = attractor(succ, owner, 1, (sink,),
                           predecessors(nodes, succ, sink + 1)).members
        for v in arena.nodes:
            assert (valuation[v] != INF_KEY) == (v in region)


# --------------------------------------------------------- operator order

def _random_strategy(rng, arena):
    choices = {}
    for v in arena.player0_nodes:
        options = arena.escape_choices[v]
        choices[v] = rng.sample(options, rng.randint(1, len(options)))
    return strategy_of(choices)


def _in_use(arena, counts):
    # the arena's keys count only the colors its nodes carry
    carried = {arena.game.color[v] for v in arena.nodes}
    return arena.basis.from_key(key_of(
        arena.basis, [k if c in carried else 0 for c, k in enumerate(counts)]))


def _random_valuation(rng, arena):
    vals = {arena.sink: arena.basis.from_key(0)}
    for v in arena.nodes:
        if rng.random() < 0.2:
            vals[v] = POS_INFINITY
        else:
            vals[v] = _in_use(arena, [rng.randint(0, 3)
                                      for _ in range(arena.game.d)])
    return vals


def _nonnegative_bump(rng, arena):
    # Positive entries only at even indices keep the profile at or above
    # the empty play, so adding it can only raise a value.
    counts = [rng.randint(0, 2) if k % 2 == 0 else 0
              for k in range(arena.game.d)]
    return _in_use(arena, counts)


def test_operator_is_monotone_in_the_valuation():
    rng = random.Random(11)
    for _ in range(200):
        game = random_game(rng, rng.randint(1, 7), 3, 4)
        arena = arena_of(game)
        strategy = _random_strategy(rng, arena)
        lo = _random_valuation(rng, arena)
        hi = {v: val if val == POS_INFINITY
              else val + _nonnegative_bump(rng, arena)
              for v, val in lo.items()}
        out_lo = apply_operator(arena, strategy, keys_of(arena, lo))
        out_hi = apply_operator(arena, strategy, keys_of(arena, hi))
        for v in arena.nodes:
            assert out_lo[v] <= out_hi[v]


def test_operator_is_monotone_in_the_strategy():
    rng = random.Random(12)
    for _ in range(200):
        game = random_game(rng, rng.randint(1, 7), 3, 4)
        arena = arena_of(game)
        big = _random_strategy(rng, arena)
        small = strategy_of({
            v: rng.sample(ts, rng.randint(1, len(ts)))
            for v, ts in big.items()})
        valuation = keys_of(arena, _random_valuation(rng, arena))
        out_small = apply_operator(arena, small, valuation)
        out_big = apply_operator(arena, big, valuation)
        for v in arena.nodes:
            assert out_small[v] <= out_big[v]


def test_sub_strategy_valuation_is_pointwise_smaller():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        game = random_game(rng, rng.randint(2, 7), 3, 4)
        prep = preprocess(game)
        arena = prep.arena
        if not arena.nodes:
            continue
        iterates = list(improvement_iterates(arena))
        big, big_vals = iterates[rng.randrange(len(iterates))]
        small = strategy_of({
            v: rng.sample(ts, rng.randint(1, len(ts)))
            for v, ts in big.items()})
        # Any sub-strategy of a reasonable strategy restricts the arena
        # further, so it is reasonable as well.
        small_vals = valuate_bellman_ford(arena, small)
        for v in arena.nodes:
            assert small_vals[v] <= big_vals[v]
        checked += 1


# ------------------------------------------------------------ improvements

def test_improvements_escape_only_is_already_optimal():
    arena = self_loop_arena(1)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    imps = improvements(arena, strategy, vals)
    assert imps.improving == {0: (1,)}
    assert not imps.strict
    assert tuple(sorted(imps.strict)) == ()


def test_improvements_even_self_loop_is_a_strict_gain():
    arena = self_loop_arena(2)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    assert to_profiles(arena, vals)[0] == fin(0, 0, 1)
    imps = improvements(arena, strategy, vals)
    assert imps.improving == {0: (0, 1)}
    assert imps.strict == {0: (0,)}
    assert tuple(sorted(imps.strict)) == (0,)
    assert imps.strict_edges() == [(0, 0)]


def test_improvements_at_top_value_keep_only_top_strategy_edges():
    arena = self_loop_arena(2)
    strategy = strategy_of({0: (0, 1)})
    vals = valuate_bellman_ford(arena, strategy)
    assert vals[0] == INF_KEY
    imps = improvements(arena, strategy, vals)
    assert imps.improving == {0: (0,)}
    assert not imps.strict


def test_improvements_edge_to_an_unbounded_target_is_strict():
    # node 1 keeps its even self-loop and never reaches the sink; node 0
    # still escapes, so its edge onto node 1 is a strict improvement
    game = ParityGame((0, 0), (0, 2), ((1,), (1,)))
    arena = arena_of(game)
    strategy = strategy_of({0: (2,), 1: (1,)})
    vals = valuate_bellman_ford(arena, strategy)
    assert vals[0] != INF_KEY and vals[1] == INF_KEY
    imps = improvements(arena, strategy, vals)
    assert imps.improving == {0: (1, 2), 1: (1,)}
    assert imps.strict == {0: (1,)}


def test_improvements_reject_foreign_valuation():
    arena = self_loop_arena(1)
    # a value above every play of the arena
    with pytest.raises(InvariantViolation):
        improvements(arena, initial_strategy(arena),
                     keys_of(arena, {0: fin(0, -5), 1: fin(0, 0)}))
    # a visit to a color no node of the arena carries has no key
    with pytest.raises(DimensionError):
        keys_of(arena, {0: fin(5, 0), 1: fin(0, 0)})


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_improvement_sets_are_consistent(game):
    prep = preprocess(game)
    arena = prep.arena
    if not arena.nodes:
        return
    for strategy, valuation in improvement_iterates(arena):
        imps = improvements(arena, strategy, valuation)
        valuation = to_profiles(arena, valuation)
        for v in arena.player0_nodes:
            kept = imps.improving[v]
            assert kept
            stricts = imps.strict.get(v, ())
            assert set(stricts) <= set(kept)
            # strict edges are never strategy edges
            assert not set(stricts) & set(strategy[v])
            if valuation[v] == POS_INFINITY:
                assert not stricts
                assert set(kept) <= set(strategy[v])
                assert all(valuation[t] == POS_INFINITY for t in kept)
            else:
                # the strategy's maximum is realized inside the kept set
                assert any(t in kept for t in strategy[v])
        # every kept edge satisfies the defining inequality
        for v, targets in imps.improving.items():
            for t in targets:
                assert valuation[v] <= plus_unit(arena, v, valuation[t])


# ------------------------------------------------------------- fast update

def test_update_of_stalled_strategy_changes_nothing():
    arena = self_loop_arena(1)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    imps = improvements(arena, strategy, vals)
    assert update(arena, strategy, imps.improving, vals) == vals


def test_update_moves_unforced_node_to_top():
    arena = self_loop_arena(2)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    imps = improvements(arena, strategy, vals)
    updated = update(arena, strategy, imps.improving, vals)
    assert to_profiles(arena, updated) == {0: POS_INFINITY,
                                           1: fin(0, 0, 0)}


def test_update_rejects_negative_edge_weight():
    game = ParityGame((0, 0), (0, 1), ((1,), (0,)))
    arena = arena_of(game)
    base = valuate_bellman_ford(arena, initial_strategy(arena))
    assert to_profiles(arena, base) == {0: fin(1, 0), 1: fin(0, 1),
                                        2: fin(0, 0)}
    # 0 -> 1 loses value, so the chosen edges are not an improvement
    with pytest.raises(InvariantViolation):
        update(arena, initial_strategy(arena),
               strategy_of({0: (1,), 1: (2,)}), base)


def test_update_rejects_infinite_base_inside_sink_region():
    # node 0 leaves a self-loop the base values at +inf for the sink
    arena = self_loop_arena(1)
    base = keys_of(arena, {0: POS_INFINITY, 1: fin(0, 0)})
    with pytest.raises(InvariantViolation):
        update(arena, strategy_of({0: (0,)}), strategy_of({0: (1,)}), base)


def test_switch_region_walks_kept_edges_back_from_every_changed_node():
    # nodes 0 and 4 change their choices; player-1 nodes 1 and 5 and
    # node 2, which keeps its edge to 1, reach them; node 3 has an edge
    # to 1 but does not keep it, and node 6 reaches nothing that changed
    game = ParityGame((0, 1, 0, 0, 0, 1, 0), (0,) * 7,
                      ((1,), (0,), (1,), (1, 6), (5,), (4,), (6,)))
    arena = arena_of(game)
    old = strategy_of({0: (7,), 2: (1,), 3: (6,), 4: (7,), 6: (6,)})
    new = strategy_of({0: (1,), 2: (1,), 3: (6,), 4: (5,), 6: (6,)})
    assert region_of(arena, old, new) == {0, 1, 2, 4, 5}
    assert region_of(arena, new, new) == set()


def test_update_without_a_changed_choice_copies_the_base():
    game = ParityGame((0, 1), (1, 2), ((1,), (0, 1)))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    base = valuate_bellman_ford(arena, strategy)
    updated = update(arena, strategy, dict(strategy), base)
    assert updated == base
    assert updated is not base


def test_update_sends_a_region_node_and_its_player1_predecessor_to_top():
    # node 0 switches from the sink to its even self-loop; player-1 node
    # 1 can only follow it, node 2 keeps its own escape
    game = ParityGame((0, 1, 0), (2, 0, 1), ((0,), (0,), (1,)))
    arena = arena_of(game)
    old = initial_strategy(arena)
    base = valuate_bellman_ford(arena, old)
    assert INF_KEY not in base
    new = strategy_of({0: (0,), 2: (3,)})
    assert region_of(arena, old, new) == {0, 1}
    updated = update(arena, old, new, base)
    assert updated[0] == updated[1] == INF_KEY
    assert updated[2] == base[2]
    assert updated == valuate_bellman_ford(arena, new)


def test_update_keeps_a_region_node_with_an_unbounded_kept_target_on_top():
    # node 0 adds the escape to its edge onto node 1, whose even
    # self-loop stays +inf outside the region
    game = ParityGame((0, 0), (0, 2), ((1,), (1,)))
    arena = arena_of(game)
    old = strategy_of({0: (1,), 1: (1,)})
    base = valuate_bellman_ford(arena, old)
    assert base[0] == base[1] == INF_KEY
    new = strategy_of({0: (1, 2), 1: (1,)})
    assert region_of(arena, old, new) == {0}
    updated = update(arena, old, new, base)
    assert updated == base == valuate_bellman_ford(arena, new)


def test_update_rejects_a_node_at_top_that_drops_its_last_top_target():
    # node 0 narrows from the even self-loop of node 1 and the sink to
    # the sink alone, which no improvement does; the sweep then reaches
    # it and rejects its +inf base value
    game = ParityGame((0, 0), (0, 2), ((1,), (1,)))
    arena = arena_of(game)
    old = strategy_of({0: (1, 2), 1: (1,)})
    new = strategy_of({0: (2,), 1: (1,)})
    base = valuate_bellman_ford(arena, old)
    assert base[0] == INF_KEY
    with pytest.raises(InvariantViolation, match="node 0 is infinite"):
        valuate_dijkstra(arena, new, switch_region(arena, new, [0]), base)


class _Recording(list):
    """A table that records every key read by subscript."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_update_reads_the_predecessor_tables_of_the_region_alone():
    game = next(scale_games())
    arena = preprocess(game).arena
    strategy = initial_strategy(arena)
    valuation = valuate_bellman_ford(arena, strategy)
    imps = improvements(arena, strategy, valuation)
    steps = 0
    while imps.strict:
        step = imps.improving
        region = switch_region(arena, step, [
            v for v in changed_nodes(strategy, step)
            if valuation[v] != INF_KEY])
        preds = _Recording(arena.preds)
        watched = arena._replace(preds=preds)
        fast = valuate_dijkstra(watched, step, region, valuation)
        assert fast == valuate_bellman_ford(arena, step)
        assert preds.read <= region
        assert arena.sink not in preds.read
        steps += len(region) < len(arena.nodes)
        strategy, valuation = step, fast
        imps = improvements(arena, strategy, valuation)
    assert steps >= 5


def test_update_names_the_cheapest_leaving_edge_of_a_player1_node():
    # player-1 node 0 is valued at its edge to node 1, above what its
    # cheaper edge to node 2, whose color is odd, gives; only that edge
    # has a negative weight
    game = ParityGame((1, 0, 0), (0, 0, 1), ((1, 2), (1,), (2,)))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    base = valuate_bellman_ford(arena, strategy)
    assert base[2] < base[1]
    base[0] = arena.unit_keys[0] + base[1]
    with pytest.raises(InvariantViolation, match=r"edge \(0,2\)"):
        valuate_dijkstra(arena, strategy, {0}, base)


def test_update_matches_reference_on_random_games():
    rng = random.Random(53)
    games = 0
    while games < 300:
        game = random_game(rng, rng.randint(1, 8),
                           rng.randint(1, 3), rng.randint(1, 4))
        prep = preprocess(game)
        arena = prep.arena
        if not arena.nodes:
            continue
        games += 1
        strategy = initial_strategy(arena)
        valuation = valuate_bellman_ford(arena, strategy)
        for _ in range(64):
            imps = improvements(arena, strategy, valuation)
            fast = update(arena, strategy, imps.improving, valuation)
            reference = valuate_bellman_ford(arena, imps.improving)
            assert fast == reference
            if not imps.strict:
                break
            strategy, valuation = imps.improving, reference
        else:
            raise AssertionError("improvement iteration failed to stop")


def whole_arena_pick(policy, rng, arena, strategy, valuation, imps):
    """The strategy a step of `policy` makes, computed by rebuilding the
    entry of every player-0 node; `rng` draws in step with a
    SingleRandom's own.  Every entry SingleRandom does not switch is cut
    down to its improving edges, which changes only the entries
    AllSwitches left."""
    improving = imps.improving
    if isinstance(policy, AllSwitches):
        return dict(improving)
    choices = {}
    for v in arena.player0_nodes:
        stricts = imps.strict.get(v)
        if isinstance(policy, DeterministicAll) and stricts:
            best = stricts[0]
            for t in stricts[1:]:
                if valuation[best] < valuation[t]:
                    best = t
            choices[v] = (best,)
        elif isinstance(policy, DeterministicAll):
            choices[v] = (next(t for t in improving[v]
                               if t in strategy[v]),)
        else:
            choices[v] = tuple(t for t in strategy[v]
                               if t in improving[v])
    if isinstance(policy, SingleRandom):
        v, t = rng.choice(imps.strict_edges())
        choices[v] = (t,)
    return choices


def check_outcome(step, imps, nodes):
    """The switched nodes `_check_step` returns, or None if it rejects."""
    try:
        return _check_step(step, imps, nodes)
    except InvariantViolation:
        return None


def progress_outcome(prev, new, switched, nodes):
    """The message `_check_progress` raises, or, if it passes, the nodes
    whose value changed that it returns, sorted."""
    try:
        return sorted(_check_progress(prev, new, switched, nodes))
    except InvariantViolation as exc:
        return str(exc)


def test_update_matches_reference_at_scale():
    # sink regions of hundreds of nodes, many colours in the first game;
    # at every step of the three policies, and of AllSwitches and
    # SingleRandom taking turns (so that SingleRandom starts from
    # strategies that are not deterministic, and AllSwitches from ones
    # that SingleRandom made), the pick laid over the strategy, the
    # changed list, the narrowed step check, the revaluation on the
    # switch region, the stale entries and the progress check found on
    # the switch region, the improvement sets carried over from step to
    # step and the incremental reasonableness check each equal their
    # whole-arena counterpart, and no value outside the switch region
    # changes.  So do the revaluation and the incremental reasonableness
    # check on the smaller region walked back from the changed nodes at
    # a finite value alone, a part of the switch region outside which no
    # value changes either.
    # The step check is also compared on a step that keeps every old
    # edge outside the switched nodes, which it must reject wherever a
    # kept edge stopped improving.
    compared = largest = restricted = rejected = left_out = 0
    for i, game in enumerate(scale_games()):
        arena = preprocess(game).arena
        for turns in ([AllSwitches()], [DeterministicAll()],
                      [SingleRandom(i)], [AllSwitches(), SingleRandom(i)]):
            rng = random.Random(i)
            strategy = initial_strategy(arena)
            valuation = valuate_bellman_ford(arena, strategy)
            imps = improvements(arena, strategy, valuation)
            reclassified = arena.player0_nodes
            while imps.strict:
                policy = turns[compared % len(turns)]
                step = dict(strategy)
                if len(turns) > 1 and isinstance(policy, SingleRandom):
                    # SingleRandom returns its switch alone, so the entries
                    # AllSwitches left are first cut down to their
                    # improving edges; only reclassified entries need it
                    improving = imps.improving
                    step.update({v: tuple([t for t in strategy[v]
                                           if t in improving[v]])
                                 for v in reclassified})
                step.update(policy.pick(arena, strategy, valuation, imps))
                assert step == whole_arena_pick(
                    policy, rng, arena, strategy, valuation, imps)
                changed = changed_nodes(strategy, step)
                assert changed == [v for v in arena.player0_nodes
                                   if step[v] != strategy[v]]
                switched = _check_step(step, imps,
                                       chain(changed, reclassified))
                assert switched == _check_step(step, imps, step)
                lazy = {**strategy, **{v: step[v] for v in switched}}
                outcome = check_outcome(lazy, imps, chain(
                    changed_nodes(strategy, lazy), reclassified))
                assert outcome == check_outcome(lazy, imps, lazy)
                rejected += outcome is None
                region = switch_region(arena, step, changed)
                reasonable = is_reasonable(arena, step)
                assert is_reasonable_step(arena, strategy, step, changed,
                                          region) == reasonable
                fast = valuate_dijkstra(arena, step, region, valuation)
                assert fast == valuate_bellman_ford(arena, step)
                assert all(fast[v] == valuation[v]
                           for v in range(len(fast)) if v not in region)
                # the smaller region solve walks back from the changed
                # nodes at a finite value
                seeds = [v for v in changed if valuation[v] != INF_KEY]
                narrow = switch_region(arena, step, seeds)
                assert narrow <= region
                assert valuate_dijkstra(arena, step, narrow, valuation) \
                    == fast
                assert is_reasonable_step(arena, strategy, step, seeds,
                                          narrow) == reasonable
                assert all(fast[v] == valuation[v]
                           for v in range(len(fast)) if v not in narrow)
                left_out += len(changed) - len(seeds)
                restricted += len(region) < len(arena.nodes)
                everything = range(len(fast))
                moved = _check_progress(valuation, fast, switched, region)
                assert sorted(moved) == [v for v in everything
                                         if fast[v] != valuation[v]]
                stale = _stale_entries(arena, changed, moved)
                assert stale == _stale_entries(arena, changed, _check_progress(
                    valuation, fast, switched, everything))
                # the progress check on A agrees with the whole-list one
                # on the step, on a value lowered at a switched node and
                # on the switched nodes held at their old values
                lowered, held = list(fast), list(fast)
                lowered[min(switched)] = valuation[min(switched)] - 1
                for v in switched:
                    held[v] = valuation[v]
                for after in (fast, lowered, held):
                    verdict = progress_outcome(valuation, after, switched,
                                               region)
                    assert verdict == progress_outcome(valuation, after,
                                                       switched, everything)
                    assert isinstance(verdict, list) == (after is fast)
                imps = improvements(arena, step, fast, imps, stale)
                reclassified = stale
                assert imps == improvements(arena, step, fast)
                compared += 1
                largest = max(largest, sum(
                    value != INF_KEY for value in fast))
                strategy, valuation = step, fast
    assert compared >= 2000
    assert largest >= 300
    assert restricted >= compared * 9 // 10
    assert rejected >= 100
    assert left_out == 912


def test_update_keeps_node_with_a_kept_edge_off_the_region_unbounded():
    # node 0 keeps one edge into the sink region (node 2) and one onto the
    # even self-loop of node 1, which never reaches the sink
    game = ParityGame((0, 0, 0), (0, 2, 1), ((1, 2), (1,), (2,)))
    arena = arena_of(game)
    base = valuate_bellman_ford(arena, initial_strategy(arena))
    strategy = strategy_of({0: (1, 2), 1: (1,), 2: (3,)})
    updated = update(arena, initial_strategy(arena), strategy, base)
    assert to_profiles(arena, updated) == {
        0: POS_INFINITY, 1: POS_INFINITY, 2: fin(0, 1, 0),
        3: fin(0, 0, 0)}
    assert updated == valuate_bellman_ford(arena, strategy)


def test_update_accepts_a_base_at_the_public_width():
    rng = random.Random(61)
    compared = 0
    while compared < 100:
        game = random_game(rng, rng.randint(2, 30), 3, rng.randint(1, 6))
        arena = preprocess(game).arena
        for strategy, valuation in improvement_iterates(arena):
            imps = improvements(arena, strategy, valuation)
            # the same values built from their counts in another
            # basis, then re-encoded from the counts
            wide = keys_of(arena, {
                v: fin(*value.counts) if value.is_finite else value
                for v, value in to_profiles(arena, valuation).items()})
            assert wide == valuation
            assert update(arena, strategy, imps.improving, wide) \
                == update(arena, strategy, imps.improving, valuation)
            compared += 1


def test_update_rejects_strategy_edge_outside_the_arena():
    # node 1 keeps an edge to node 0 that the game does not have: the sweep
    # walks arena edges only, so the closure pass must catch it
    game = ParityGame((0, 0), (0, 0), ((1,), (1,)))
    arena = arena_of(game)
    base = valuate_bellman_ford(arena, initial_strategy(arena))
    with pytest.raises(InvariantViolation):
        update(arena, initial_strategy(arena),
               strategy_of({0: (2,), 1: (0,)}), base)


# ---------------------------------------------------------------- response

def test_response_picks_the_minimal_successor():
    game = ParityGame((1, 0, 0), (0, 1, 0), ((1, 2), (1,), (2,)))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    values = to_profiles(arena, vals)
    assert values[1] == fin(0, 1) and values[2] == fin(1, 0)
    assert values[0] == fin(1, 1)
    assert response_strategy(arena, vals) == {0: 1}
    # node 0 lists node 2 before node 1, and both edges realize its
    # value: the smallest id wins, not the first
    game = ParityGame((1, 0, 0), (0, 0, 0), ((2, 1), (1,), (2,)))
    arena = arena_of(game)
    vals = valuate_bellman_ford(arena, initial_strategy(arena))
    assert vals[1] == vals[2] != INF_KEY
    assert response_strategy(arena, vals) == {0: 1}


def test_response_keeps_top_valued_edges():
    game = ParityGame((1, 0), (0, 2), ((1,), (1,)))
    arena = arena_of(game)
    strategy = strategy_of({1: (1,)})
    vals = valuate_bellman_ford(arena, strategy)
    assert vals[0] == INF_KEY and vals[1] == INF_KEY
    assert response_strategy(arena, vals) == {0: 1}


def test_response_empty_without_player1_nodes():
    game = ParityGame((0, 0), (0, 0), ((1,), (0,)))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    assert response_strategy(arena, vals) == {}


@settings(max_examples=100, deadline=None)
@given(parity_games())
def test_response_realizes_the_valuation(game):
    prep = preprocess(game)
    arena = prep.arena
    if not arena.nodes:
        return
    for strategy, valuation in improvement_iterates(arena):
        tau = response_strategy(arena, valuation)
        valuation = to_profiles(arena, valuation)
        assert set(tau) == set(arena.player1_nodes)
        for v, t in tau.items():
            assert t in arena.succ[v]
            assert valuation[v] == plus_unit(arena, v, valuation[t])
            # the smallest-id realizing edge
            assert all(valuation[v] != plus_unit(arena, v, valuation[s])
                       for s in arena.succ[v] if s < t)
