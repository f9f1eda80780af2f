"""The improvement loop: policies, solving, extraction, replay checks."""

import math
import random

import pytest
from hypothesis import given, settings

from pgsi import (AllSwitches, ColorProfile, DeterministicAll, POS_INFINITY,
                  ParityGame, SingleRandom, Strategy, build_escape_arena,
                  enumerate_direct_improvements, extract_deterministic,
                  improvements, initial_strategy, policy_by_name, preprocess,
                  replay_verify, solve, valuate_bellman_ford, zero_profile)
from pgsi.cli import random_game
from pgsi.errors import EnumerationTooLarge, InvariantViolation
from pgsi.iteration import BACKENDS, POLICY_NAMES, _step_bound

from conftest import parity_games

EVEN_LOOP = ParityGame((0,), (0,), ((0,),))
ODD_LOOP = ParityGame((0,), (1,), ((0,),))
ODD_TRAP = ParityGame((1,), (1,), ((0,),))
TWO_NODE = ParityGame((0, 1), (1, 2), ((1,), (0,)))


# ------------------------------------------------------------ small solves

@pytest.mark.parametrize("backend", BACKENDS)
def test_solve_even_self_loop(backend):
    result = solve(EVEN_LOOP, backend=backend)
    assert result.w0 == (0,)
    assert result.w1 == ()
    assert result.strategy0 == {0: 0}
    assert result.strategy1 == {}
    assert result.iterations == 2
    assert result.valuation[0] == POS_INFINITY
    replay_verify(EVEN_LOOP, result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_solve_odd_self_loop_escapes(backend):
    result = solve(ODD_LOOP, backend=backend)
    assert result.w0 == ()
    assert result.w1 == (0,)
    assert result.strategy0 == {}
    assert result.strategy1 == {}
    assert result.iterations == 1
    replay_verify(ODD_LOOP, result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_solve_odd_player1_loop_is_won_upfront(backend):
    result = solve(ODD_TRAP, backend=backend)
    assert result.w0 == ()
    assert result.w1 == (0,)
    assert result.strategy1 == {0: 0}
    assert result.iterations == 0
    assert result.stats == []
    assert result.valuation == {}
    replay_verify(ODD_TRAP, result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_solve_two_node_alternation(backend):
    result = solve(TWO_NODE, backend=backend)
    assert result.w0 == (0, 1)
    assert result.w1 == ()
    assert result.strategy0 == {0: 1}
    assert result.strategy1 == {}
    assert result.iterations == 2
    replay_verify(TWO_NODE, result)


def test_solve_player1_even_loop_still_won_by_player0():
    game = ParityGame((1,), (0,), ((0,),))
    result = solve(game)
    assert result.w0 == (0,)
    assert result.strategy0 == {}
    replay_verify(game, result)


def test_pre_won_attractor_strategy_reaches_the_cycle():
    game = ParityGame((1, 1), (1, 0), ((0,), (0,)))
    result = solve(game)
    assert result.w1 == (0, 1)
    assert result.strategy1 == {0: 0, 1: 0}
    assert result.iterations == 0
    replay_verify(game, result)


def test_solve_rejects_unknown_backend():
    with pytest.raises(ValueError):
        solve(EVEN_LOOP, backend="fastest")


# ---------------------------------------------------------------- policies

def test_policy_names_resolve():
    assert set(POLICY_NAMES) == {"all-switches", "deterministic-all",
                                 "single-random"}
    assert isinstance(policy_by_name("all-switches"), AllSwitches)
    assert isinstance(policy_by_name("deterministic-all"), DeterministicAll)
    assert isinstance(policy_by_name("single-random", seed=7), SingleRandom)
    with pytest.raises(ValueError):
        policy_by_name("hopeful")


def test_all_policies_agree_on_the_winner():
    rng = random.Random(29)
    for _ in range(25):
        game = random_game(rng, rng.randint(1, 8), 3, 4)
        results = [solve(game, policy=policy, backend=backend)
                   for backend in BACKENDS
                   for policy in (AllSwitches(), DeterministicAll(),
                                  SingleRandom(3))]
        first = results[0]
        for result in results:
            assert result.w0 == first.w0
            assert result.w1 == first.w1
            replay_verify(game, result)


def test_deterministic_policy_keeps_singleton_strategies():
    rng = random.Random(31)
    for _ in range(10):
        game = random_game(rng, rng.randint(2, 8), 3, 4)
        seen = []
        solve(game, policy=DeterministicAll(),
              on_iteration=lambda i, s, v, imps: seen.append(s))
        assert seen and all(s.is_deterministic for s in seen)


def test_single_random_is_reproducible():
    game = random_game(random.Random(5), 10, 3, 4)
    a = solve(game, policy=SingleRandom(42))
    b = solve(game, policy=SingleRandom(42))
    assert a.to_json() == b.to_json()
    assert a.valuation == b.valuation
    c = solve(game, policy=SingleRandom(43))
    assert c.w0 == a.w0


def test_stalling_policy_is_rejected():
    class Stall:
        name = "stall"

        def pick(self, arena, strategy, valuation, imps):
            return strategy

    with pytest.raises(InvariantViolation):
        solve(EVEN_LOOP, policy=Stall())


def test_node_dropping_policy_is_rejected():
    class Drop:
        name = "drop"

        def pick(self, arena, strategy, valuation, imps):
            return Strategy({})

    with pytest.raises(InvariantViolation):
        solve(EVEN_LOOP, policy=Drop())


def test_worsening_policy_is_rejected():
    # the self-loop at node 0 is strictly below its current value
    game = ParityGame((0, 1), (1, 2), ((0, 1), (0,)))

    class Wild:
        name = "wild"

        def pick(self, arena, strategy, valuation, imps):
            return Strategy.of({0: (0,)})

    with pytest.raises(InvariantViolation):
        solve(game, policy=Wild())


# ------------------------------------------------------------- progression

@pytest.mark.parametrize("backend", BACKENDS)
def test_valuations_grow_and_strictly_so_at_switches(backend):
    rng = random.Random(37)
    for _ in range(15):
        game = random_game(rng, rng.randint(2, 8), 3, 4)
        trail = []
        result = solve(game, backend=backend, audit_every=1,
                       on_iteration=lambda i, s, v, imps:
                       trail.append((i, dict(v), imps)))
        assert [i for i, _, _ in trail] == list(range(1, result.iterations + 1))
        for (_, before, _), (_, after, _) in zip(trail, trail[1:]):
            assert all(before[v] <= after[v] for v in before)
            assert any(before[v] < after[v] for v in before)
        for k, (_, _, imps) in enumerate(trail):
            record = result.stats[k]
            assert record.iteration == k + 1
            assert record.strict_edges == len(imps.strict_edges())
            assert record.strict_sources == len(imps.sources)
            assert (record.strict_edges == 0) == (k == len(trail) - 1)


def test_iteration_count_stays_below_the_step_bound():
    rng = random.Random(41)
    for _ in range(25):
        game = random_game(rng, rng.randint(1, 9), 3, 5)
        result = solve(game)
        arena = preprocess(build_escape_arena(game)).arena
        if arena.nodes:
            assert result.iterations - 1 <= _step_bound(len(arena.nodes),
                                                        arena.d)


def test_step_bound_values():
    assert _step_bound(0, 3) == 0.0
    assert _step_bound(4, 2) == 4 * 3.0 ** 2
    assert _step_bound(6, 3) == 6 * 3.0 ** 3
    assert _step_bound(933, 2000) == math.inf


def test_solve_where_the_step_bound_overflows_a_float():
    game = random_game(random.Random(2), 1200, 4, 1200, 0.6)
    arena = preprocess(build_escape_arena(game)).arena
    assert _step_bound(len(arena.nodes), arena.d) == math.inf
    result = solve(game)
    assert result.w0 and result.w1
    replay_verify(game, result)


@pytest.mark.slow
def test_solve_and_replay_at_100k_nodes():
    game = random_game(random.Random(100_000), 100_000, 4, 6)
    result = solve(game)
    replay_verify(game, result)


# -------------------------------------------------------------- extraction

@settings(max_examples=100, deadline=None)
@given(parity_games())
def test_extracted_strategy_reproduces_the_valuation(game):
    prep = preprocess(build_escape_arena(game))
    arena = prep.arena
    if not arena.nodes:
        return
    strategy = initial_strategy(arena)
    for _ in range(64):
        valuation = valuate_bellman_ford(arena, strategy)
        imps = improvements(arena, strategy, valuation)
        if not imps.has_strict:
            break
        strategy = imps.improving
    else:
        raise AssertionError("improvement iteration failed to stop")
    extracted = extract_deterministic(arena, imps.improving, valuation)
    assert extracted.is_deterministic
    assert valuate_bellman_ford(arena, extracted) == valuation


def test_extraction_needs_a_realizing_edge():
    arena = build_escape_arena(EVEN_LOOP)
    with pytest.raises(InvariantViolation):
        extract_deterministic(arena, Strategy.of({0: (1,)}),
                              {0: ColorProfile.finite((5,)),
                               1: zero_profile(1)})


# ------------------------------------------------------------- enumeration

def test_enumerate_deterministic_selections():
    found = list(enumerate_direct_improvements(Strategy.of({0: (1, 2)})))
    assert [s.choices for s in found] == [{0: (1,)}, {0: (2,)}]
    found = list(enumerate_direct_improvements(
        Strategy.of({0: (1, 2), 1: (0, 2, 3)})))
    assert len(found) == 6
    assert all(s.is_deterministic for s in found)
    assert len({tuple(s.choices.items()) for s in found}) == 6


def test_enumerate_honors_the_cap():
    with pytest.raises(EnumerationTooLarge):
        enumerate_direct_improvements(Strategy.of({0: (1, 2), 1: (2, 3)}),
                                      cap=3)
    assert len(list(enumerate_direct_improvements(
        Strategy.of({0: (1, 2), 1: (2, 3)}), cap=4))) == 4


# ------------------------------------------------------------------ replay

def test_replay_rejects_bad_partition():
    result = solve(TWO_NODE)
    broken = type(result)(result.w0, result.w0, result.strategy0,
                          result.strategy1, result.valuation,
                          result.iterations, result.policy, result.stats)
    with pytest.raises(InvariantViolation):
        replay_verify(TWO_NODE, broken)


def test_replay_rejects_missing_strategy():
    result = solve(TWO_NODE)
    broken = type(result)(result.w0, result.w1, {}, result.strategy1,
                          result.valuation, result.iterations, result.policy,
                          result.stats)
    with pytest.raises(InvariantViolation):
        replay_verify(TWO_NODE, broken)


def test_replay_rejects_losing_strategy_edge():
    # node 1 only feeds the even loop, so player 0 wins everywhere;
    # rerouting node 0 through node 1 closes an odd cycle instead
    game = ParityGame((0, 1), (0, 1), ((0, 1), (0,)))
    result = solve(game)
    assert result.w0 == (0, 1) and result.strategy0 == {0: 0}
    broken = type(result)(result.w0, result.w1, {0: 1}, result.strategy1,
                          result.valuation, result.iterations, result.policy,
                          result.stats)
    with pytest.raises(InvariantViolation):
        replay_verify(game, broken)


# ----------------------------------------------------------------- output

def test_result_json_shape():
    result = solve(TWO_NODE)
    data = result.to_json()
    assert set(data) == {"w0", "w1", "strategy0", "strategy1", "iterations",
                         "policy", "stats"}
    assert data["w0"] == [0, 1]
    assert data["policy"] == "all-switches"
    assert len(data["stats"]) == result.iterations
    for record in data["stats"]:
        assert set(record) == {"iteration", "strict_edges", "strict_sources"}
    timed = result.to_json(include_wall_time=True)
    assert all("wall_time" in record for record in timed["stats"])
