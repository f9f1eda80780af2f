"""Strategies, fixpoint valuations, improvement sets, the fast update."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsi import POS_INFINITY, ColorProfile, ParityGame
from pgsi.arena import (attractor, build_escape_arena,
                        find_one_dominated_cycle_nodes, preprocess)
from pgsi.cli import random_game
from pgsi.errors import InvariantViolation, ReasonablenessError
from pgsi.iteration import AllSwitches, SingleRandom
from pgsi.profiles import INF_KEY, unit_profile, zero_profile
from pgsi.valuation import (Strategy, apply_operator, improvements,
                            initial_strategy, is_reasonable,
                            is_reasonable_step, response_strategy, to_profiles,
                            valuate_bellman_ford, valuate_dijkstra)

from conftest import parity_games


def fin(*counts):
    return ColorProfile.finite(counts)


def arena_of(game):
    return build_escape_arena(game)


def keys_of(arena, values):
    """The key list of a node -> profile mapping; absent nodes are +inf."""
    keys = [INF_KEY] * (arena.sink + 1)
    for v, value in values.items():
        keys[v] = arena.basis.key(value)
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
        if not imps.has_strict:
            return
        strategy = imps.improving
    raise AssertionError("improvement iteration failed to stop")


# -------------------------------------------------------------- strategies

def test_strategy_normalizes_targets():
    s = Strategy.of({0: [2, 1, 2], 1: (3,)})
    assert s.choices == {0: (1, 2), 1: (3,)}
    assert not s.is_deterministic
    assert Strategy.of({0: (1,)}).is_deterministic


def test_strategy_rejects_empty_choice():
    with pytest.raises(ValueError):
        Strategy.of({0: ()})


def test_initial_strategy_moves_every_player0_node_to_sink():
    game = ParityGame((0, 1, 0), (0, 1, 2), ((1,), (2,), (0,)))
    arena = arena_of(game)
    assert initial_strategy(arena).choices == {0: (3,), 2: (3,)}


def test_initial_strategy_empty_without_player0_nodes():
    game = ParityGame((1, 1), (0, 1), ((1,), (0,)))
    assert initial_strategy(arena_of(game)).choices == {}


@settings(max_examples=100, deadline=None)
@given(parity_games())
def test_initial_strategy_is_reasonable(game):
    prep = preprocess(arena_of(game))
    assert is_reasonable(prep.arena, initial_strategy(prep.arena))


def test_reasonableness_of_chosen_self_loops():
    odd = self_loop_arena(1)
    assert not is_reasonable(odd, Strategy.of({0: (0,)}))
    even = self_loop_arena(0)
    assert is_reasonable(even, Strategy.of({0: (0,)}))


@st.composite
def reasonable_steps(draw):
    """A preprocessed arena, a reasonable strategy on it and any strategy
    inside its escape choices that agrees with it at some nodes."""
    arena = preprocess(arena_of(draw(parity_games(max_colors=5)))).arena
    escape = arena.escape_choices

    def pick(v):
        return tuple(sorted(draw(st.sets(st.sampled_from(escape[v]),
                                         min_size=1))))

    old = {v: pick(v) for v in arena.player0_nodes}
    # every odd cycle has a player-0 node, because preprocessing leaves
    # none among player-1 nodes; moving those nodes to the sink cuts them
    for v in find_one_dominated_cycle_nodes(arena.strategy_view(old)):
        if v in old:
            old[v] = (arena.sink,)
    new = {v: old[v] if draw(st.booleans()) else pick(v) for v in old}
    return arena, Strategy(old), Strategy(new)


@settings(max_examples=300, deadline=None)
@given(reasonable_steps())
def test_reasonable_step_agrees_with_the_full_check(step):
    arena, old, new = step
    assert is_reasonable(arena, old)
    assert is_reasonable_step(arena, old, new) == is_reasonable(arena, new)


@pytest.mark.parametrize("owner, color, succ, new", [
    # 0 -> 1 closes an odd cycle through the player-1 node 1
    ((0, 1), (0, 1), ((1,), (0,)), {0: (1,)}),
    # three added edges; only the middle one, 2 -> 1, closes an odd cycle
    ((0, 1, 0, 0), (0, 1, 0, 2), ((0,), (2,), (1,), (3,)),
     {0: (0,), 2: (1,), 3: (3,)}),
], ids=["player1-predecessor", "second-of-three-edges"])
def test_reasonable_step_finds_the_cycle_an_added_edge_closes(owner, color,
                                                              succ, new):
    arena = preprocess(arena_of(ParityGame(owner, color, succ))).arena
    old, new = initial_strategy(arena), Strategy.of(new)
    assert not is_reasonable(arena, new)
    assert not is_reasonable_step(arena, old, new)


# ------------------------------------------------- fixpoint valuation

def test_valuation_of_escape_only_self_loop():
    arena = self_loop_arena(1)
    vals = valuate_bellman_ford(arena, initial_strategy(arena))
    assert to_profiles(arena, vals) == {0: fin(0, 1), 1: zero_profile(2)}


def test_valuation_of_unforced_even_self_loop():
    arena = self_loop_arena(2)
    vals = valuate_bellman_ford(arena, Strategy.of({0: (0, 1)}))
    assert to_profiles(arena, vals) == {0: POS_INFINITY, 1: zero_profile(3)}


def test_valuation_of_two_node_escape():
    game = ParityGame((0, 1), (1, 2), ((1,), (0,)))
    arena = arena_of(game)
    vals = valuate_bellman_ford(arena, initial_strategy(arena))
    assert to_profiles(arena, vals) == {0: fin(0, 1, 0), 1: fin(0, 1, 1),
                                        2: zero_profile(3)}


def test_sink_value_is_always_empty():
    rng = random.Random(7)
    for _ in range(25):
        game = random_game(rng, rng.randint(1, 7), 3, 4)
        arena = preprocess(arena_of(game)).arena
        vals = valuate_bellman_ford(arena, initial_strategy(arena))
        assert to_profiles(arena, vals)[arena.sink] == zero_profile(arena.d)


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
    # arena's digit width is sized for.  A wide-digit shadow run checks
    # every update.
    k = 40
    game = ParityGame((1,) * k + (0,), (1,) * k + (0,),
                      tuple(((i + 1) % k, k) for i in range(k)) + ((0,),))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    wide_unit = {v: unit_profile(arena.game.color[v], arena.d)
                 for v in arena.nodes}
    shadow = {arena.sink: zero_profile(arena.d)}
    shadow.update((v, POS_INFINITY) for v in arena.nodes)
    peak = 0

    def check(sweep, v, old, new):
        nonlocal peak
        if game.owner[v] == 1:
            best = min(shadow[t] for t in arena.succ[v])
        else:
            best = max(shadow[t] for t in strategy.choices[v])
        shadow[v] = wide_unit[v] + best
        assert new == shadow[v]
        peak = max(peak, *map(abs, new.counts))

    with pytest.raises(ReasonablenessError):
        valuate_bellman_ford(arena, strategy, on_update=check)
    assert peak >= k * k


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_valuation_is_an_operator_fixpoint(game):
    prep = preprocess(arena_of(game))
    arena = prep.arena
    if not arena.nodes:
        return
    for strategy, valuation in improvement_iterates(arena):
        assert apply_operator(arena, strategy, valuation) == valuation


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_valuation_stabilizes_within_node_count_sweeps(game):
    prep = preprocess(arena_of(game))
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
        if not imps.has_strict:
            break
        strategy = imps.improving
    else:
        raise AssertionError("improvement iteration failed to stop")


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_valuation_never_drops_below_empty_play(game):
    prep = preprocess(arena_of(game))
    arena = prep.arena
    if not arena.nodes:
        return
    for _, valuation in improvement_iterates(arena):
        for value in to_profiles(arena, valuation).values():
            assert value == POS_INFINITY or value.is_finite


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_finite_value_iff_pulled_to_sink(game):
    prep = preprocess(arena_of(game))
    arena = prep.arena
    if not arena.nodes:
        return
    for strategy, valuation in improvement_iterates(arena):
        view = arena.strategy_view(strategy.choices)
        region = attractor(view, 1, (arena.sink,)).members
        for v in arena.nodes:
            assert (valuation[v] != INF_KEY) == (v in region)


# --------------------------------------------------------- operator order

def _random_strategy(rng, arena):
    choices = {}
    for v in arena.player0_nodes:
        options = arena.escape_choices[v]
        choices[v] = rng.sample(options, rng.randint(1, len(options)))
    return Strategy.of(choices)


def _random_valuation(rng, arena):
    vals = {arena.sink: zero_profile(arena.d)}
    for v in arena.nodes:
        if rng.random() < 0.2:
            vals[v] = POS_INFINITY
        else:
            vals[v] = fin(*(rng.randint(0, 3) for _ in range(arena.d)))
    return vals


def _nonnegative_bump(rng, d):
    # Positive entries only at even indices keep the profile at or above
    # the empty play, so adding it can only raise a value.
    counts = [rng.randint(0, 2) if k % 2 == 0 else 0 for k in range(d)]
    return fin(*counts)


def test_operator_is_monotone_in_the_valuation():
    rng = random.Random(11)
    for _ in range(200):
        game = random_game(rng, rng.randint(1, 7), 3, 4)
        arena = arena_of(game)
        strategy = _random_strategy(rng, arena)
        lo = _random_valuation(rng, arena)
        hi = {v: val if val == POS_INFINITY
              else val + _nonnegative_bump(rng, arena.d)
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
        small = Strategy.of({
            v: rng.sample(ts, rng.randint(1, len(ts)))
            for v, ts in big.choices.items()})
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
        prep = preprocess(arena_of(game))
        arena = prep.arena
        if not arena.nodes:
            continue
        iterates = list(improvement_iterates(arena))
        big, big_vals = iterates[rng.randrange(len(iterates))]
        small = Strategy.of({
            v: rng.sample(ts, rng.randint(1, len(ts)))
            for v, ts in big.choices.items()})
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
    assert imps.improving.choices == {0: (1,)}
    assert not imps.has_strict
    assert imps.sources == ()


def test_improvements_even_self_loop_is_a_strict_gain():
    arena = self_loop_arena(2)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    assert to_profiles(arena, vals)[0] == fin(0, 0, 1)
    imps = improvements(arena, strategy, vals)
    assert imps.improving.choices == {0: (0, 1)}
    assert imps.strict == {0: (0,)}
    assert imps.sources == (0,)
    assert imps.strict_edges() == [(0, 0)]


def test_improvements_at_top_value_keep_only_top_strategy_edges():
    arena = self_loop_arena(2)
    strategy = Strategy.of({0: (0, 1)})
    vals = valuate_bellman_ford(arena, strategy)
    assert vals[0] == INF_KEY
    imps = improvements(arena, strategy, vals)
    assert imps.improving.choices == {0: (0,)}
    assert not imps.has_strict


def test_improvements_edge_to_an_unbounded_target_is_strict():
    # node 1 keeps its even self-loop and never reaches the sink; node 0
    # still escapes, so its edge onto node 1 is a strict improvement
    game = ParityGame((0, 0), (0, 2), ((1,), (1,)))
    arena = arena_of(game)
    strategy = Strategy.of({0: (2,), 1: (1,)})
    vals = valuate_bellman_ford(arena, strategy)
    assert vals[0] != INF_KEY and vals[1] == INF_KEY
    imps = improvements(arena, strategy, vals)
    assert imps.improving.choices == {0: (1, 2), 1: (1,)}
    assert imps.strict == {0: (1,)}


def test_improvements_reject_foreign_valuation():
    arena = self_loop_arena(1)
    with pytest.raises(InvariantViolation):
        improvements(arena, initial_strategy(arena),
                     keys_of(arena, {0: fin(5, 0), 1: zero_profile(2)}))


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_improvement_sets_are_consistent(game):
    prep = preprocess(arena_of(game))
    arena = prep.arena
    if not arena.nodes:
        return
    unit = {v: unit_profile(arena.game.color[v], arena.d) for v in arena.nodes}
    for strategy, valuation in improvement_iterates(arena):
        imps = improvements(arena, strategy, valuation)
        valuation = to_profiles(arena, valuation)
        for v in arena.player0_nodes:
            kept = imps.improving.choices[v]
            assert kept
            stricts = imps.strict.get(v, ())
            assert set(stricts) <= set(kept)
            # strict edges are never strategy edges
            assert not set(stricts) & set(strategy.choices[v])
            if valuation[v] == POS_INFINITY:
                assert not stricts
                assert set(kept) <= set(strategy.choices[v])
                assert all(valuation[t] == POS_INFINITY for t in kept)
            else:
                # the strategy's maximum is realized inside the kept set
                assert any(t in kept for t in strategy.choices[v])
        # every kept edge satisfies the defining inequality
        for v, targets in imps.improving.choices.items():
            for t in targets:
                assert valuation[v] <= unit[v] + valuation[t]


# ------------------------------------------------------------- fast update

def test_update_of_stalled_strategy_changes_nothing():
    arena = self_loop_arena(1)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    imps = improvements(arena, strategy, vals)
    assert valuate_dijkstra(arena, imps.improving, vals) == vals


def test_update_moves_unforced_node_to_top():
    arena = self_loop_arena(2)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    imps = improvements(arena, strategy, vals)
    updated = valuate_dijkstra(arena, imps.improving, vals)
    assert to_profiles(arena, updated) == {0: POS_INFINITY,
                                           1: zero_profile(3)}


def test_update_rejects_negative_edge_weight():
    game = ParityGame((0, 0), (0, 1), ((1,), (0,)))
    arena = arena_of(game)
    base = valuate_bellman_ford(arena, initial_strategy(arena))
    assert to_profiles(arena, base) == {0: fin(1, 0), 1: fin(0, 1),
                                        2: zero_profile(2)}
    # 0 -> 1 loses value, so the chosen edges are not an improvement
    with pytest.raises(InvariantViolation):
        valuate_dijkstra(arena, Strategy.of({0: (1,), 1: (2,)}), base)


def test_update_rejects_infinite_base_inside_sink_region():
    arena = self_loop_arena(1)
    base = keys_of(arena, {0: POS_INFINITY, 1: zero_profile(2)})
    with pytest.raises(InvariantViolation):
        valuate_dijkstra(arena, Strategy.of({0: (1,)}), base)


def test_update_matches_reference_on_random_games():
    rng = random.Random(53)
    games = 0
    while games < 300:
        game = random_game(rng, rng.randint(1, 8),
                           rng.randint(1, 3), rng.randint(1, 4))
        prep = preprocess(arena_of(game))
        arena = prep.arena
        if not arena.nodes:
            continue
        games += 1
        strategy = initial_strategy(arena)
        valuation = valuate_bellman_ford(arena, strategy)
        for _ in range(64):
            imps = improvements(arena, strategy, valuation)
            fast = valuate_dijkstra(arena, imps.improving, valuation)
            reference = valuate_bellman_ford(arena, imps.improving)
            assert fast == reference
            if not imps.has_strict:
                break
            strategy, valuation = imps.improving, reference
        else:
            raise AssertionError("improvement iteration failed to stop")


def test_update_matches_reference_at_scale():
    # sink regions of hundreds of nodes, many colours in the first game,
    # every iterate of two policies compared with the reference, and its
    # incremental reasonableness check with the full one
    rng = random.Random(2718)
    compared = largest = 0
    for i in range(30):
        nodes = (250, 400)[i] if i < 2 else rng.randint(100, 200)
        colors = 240 if i == 0 else rng.randint(2, 12)
        game = random_game(rng, nodes, rng.randint(2, 4), colors,
                           0.7 if i == 0 else 0.5)
        arena = preprocess(arena_of(game)).arena
        for policy in (AllSwitches(), SingleRandom(i)):
            strategy = initial_strategy(arena)
            valuation = valuate_bellman_ford(arena, strategy)
            while True:
                imps = improvements(arena, strategy, valuation)
                if not imps.has_strict:
                    break
                step = policy.pick(arena, strategy, valuation, imps)
                assert is_reasonable_step(arena, strategy, step) \
                    == is_reasonable(arena, step)
                strategy = step
                fast = valuate_dijkstra(arena, strategy, valuation)
                assert fast == valuate_bellman_ford(arena, strategy)
                compared += 1
                largest = max(largest, sum(
                    value != INF_KEY for value in fast))
                valuation = fast
    assert compared >= 2000
    assert largest >= 300


def test_update_keeps_node_with_a_kept_edge_off_the_region_unbounded():
    # node 0 keeps one edge into the sink region (node 2) and one onto the
    # even self-loop of node 1, which never reaches the sink
    game = ParityGame((0, 0, 0), (0, 2, 1), ((1, 2), (1,), (2,)))
    arena = arena_of(game)
    base = valuate_bellman_ford(arena, initial_strategy(arena))
    strategy = Strategy.of({0: (1, 2), 1: (1,), 2: (3,)})
    updated = valuate_dijkstra(arena, strategy, base)
    assert to_profiles(arena, updated) == {
        0: POS_INFINITY, 1: POS_INFINITY, 2: fin(0, 1, 0),
        3: zero_profile(3)}
    assert updated == valuate_bellman_ford(arena, strategy)


def test_update_accepts_a_base_at_the_public_width():
    rng = random.Random(61)
    compared = 0
    while compared < 100:
        game = random_game(rng, rng.randint(2, 30), 3, rng.randint(1, 6))
        arena = preprocess(arena_of(game)).arena
        for strategy, valuation in improvement_iterates(arena):
            imps = improvements(arena, strategy, valuation)
            # the same values built at 64-bit digits, then re-encoded
            wide = keys_of(arena, {
                v: fin(*value.counts) if value.is_finite else value
                for v, value in to_profiles(arena, valuation).items()})
            assert wide == valuation
            assert valuate_dijkstra(arena, imps.improving, wide) \
                == valuate_dijkstra(arena, imps.improving, valuation)
            compared += 1


def test_update_rejects_strategy_edge_outside_the_arena():
    # node 1 keeps an edge to node 0 that the game does not have: the sweep
    # walks arena edges only, so the closure pass must catch it
    game = ParityGame((0, 0), (0, 0), ((1,), (1,)))
    arena = arena_of(game)
    base = valuate_bellman_ford(arena, initial_strategy(arena))
    with pytest.raises(InvariantViolation):
        valuate_dijkstra(arena, Strategy.of({0: (2,), 1: (0,)}), base)


# ---------------------------------------------------------------- response

def test_response_picks_the_minimal_successor():
    game = ParityGame((1, 0, 0), (0, 1, 0), ((1, 2), (1,), (2,)))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    values = to_profiles(arena, vals)
    assert values[1] == fin(0, 1) and values[2] == fin(1, 0)
    assert values[0] == fin(1, 1)
    assert response_strategy(arena, strategy, vals) == {0: (1,)}


def test_response_keeps_top_valued_edges():
    game = ParityGame((1, 0), (0, 2), ((1,), (1,)))
    arena = arena_of(game)
    strategy = Strategy.of({1: (1,)})
    vals = valuate_bellman_ford(arena, strategy)
    assert vals[0] == INF_KEY and vals[1] == INF_KEY
    assert response_strategy(arena, strategy, vals) == {0: (1,)}


def test_response_empty_without_player1_nodes():
    game = ParityGame((0, 0), (0, 0), ((1,), (0,)))
    arena = arena_of(game)
    strategy = initial_strategy(arena)
    vals = valuate_bellman_ford(arena, strategy)
    assert response_strategy(arena, strategy, vals) == {}


@settings(max_examples=100, deadline=None)
@given(parity_games())
def test_response_realizes_the_valuation(game):
    prep = preprocess(arena_of(game))
    arena = prep.arena
    if not arena.nodes:
        return
    for strategy, valuation in improvement_iterates(arena):
        tau = response_strategy(arena, strategy, valuation)
        valuation = to_profiles(arena, valuation)
        assert set(tau) == set(arena.player1_nodes)
        for v, ts in tau.items():
            assert ts
            unit = unit_profile(arena.game.color[v], arena.d)
            for t in ts:
                assert valuation[v] == unit + valuation[t]
