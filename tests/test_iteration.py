"""The improvement loop: policies, solving, extraction, replay checks."""

import math
import random

import pytest
from hypothesis import given, settings

from pgsi import (AllSwitches, ColorProfile, DeterministicAll, POS_INFINITY,
                  ParityGame, SingleRandom, SolveResult, parse_pgsolver,
                  iteration, policy_by_name, replay_verify, solve)
from pgsi.arena import build_escape_arena, preprocess
from pgsi.cli import random_game
from pgsi.errors import EnumerationTooLarge, InvariantViolation
from pgsi.iteration import (BACKEND_BELLMAN_FORD, BACKEND_DIJKSTRA, BACKENDS,
                            POLICY_NAMES, _check_progress, _step_bound,
                            enumerate_direct_improvements,
                            extract_deterministic)
from pgsi.profiles import INF_KEY, zero_profile
from pgsi.valuation import (ImprovementSets, Strategy, improvements,
                            initial_strategy, valuate_bellman_ford)

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


def test_solve_rejects_negative_audit_every():
    for audit_every in (-1, -16):
        with pytest.raises(ValueError):
            solve(EVEN_LOOP, audit_every=audit_every)
    assert solve(EVEN_LOOP, audit_every=0).w0 == (0,)


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


def test_deterministic_policy_prefers_an_unbounded_strict_target():
    # node 0 may switch to node 1 (finite, far above the rest) or to
    # node 2 (+inf); the larger id must win because +inf is the top
    game = ParityGame((0, 1, 1), (0, 0, 2), ((1, 2), (1,), (2,)))
    arena = build_escape_arena(game)
    valuation = [0, 1 << 200, INF_KEY, 0]
    imps = ImprovementSets(Strategy({0: (1, 2, 3)}), {0: (1, 2)})
    picked = DeterministicAll().pick(arena, Strategy({0: (3,)}), valuation,
                                     imps)
    assert picked.choices == {0: (2,)}


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


def test_progress_check_on_unbounded_values():
    # finite -> +inf is growth, also strict growth at a switched node
    _check_progress([5, 0], [INF_KEY, 0], {0})
    _check_progress([INF_KEY, 5, 0], [INF_KEY, INF_KEY, 0], {1})
    # +inf -> finite is a shrink, whatever happens elsewhere
    with pytest.raises(InvariantViolation, match="shrank at node 0"):
        _check_progress([INF_KEY, 5, 0], [1 << 300, INF_KEY, 0], {1})
    # +inf -> +inf at the switched node is no strict growth there
    with pytest.raises(InvariantViolation, match="switched node 0"):
        _check_progress([INF_KEY, 5, 0], [INF_KEY, 6, 0], {0})
    with pytest.raises(InvariantViolation, match="did not grow"):
        _check_progress([INF_KEY, 5, 0], [INF_KEY, 5, 0], {0})


def test_solve_runs_on_keys_without_profile_operators(monkeypatch):
    # with no hook attached, no ColorProfile operator runs inside solve:
    # the loop, its checks and the audits compare packed keys only
    game = random_game(random.Random(8), 300, 3, 6)

    def runs():
        return [solve(game, policy=policy, backend=backend, audit_every=4)
                for backend in BACKENDS
                for policy in (AllSwitches(), DeterministicAll(),
                               SingleRandom(8))]

    expected = runs()
    assert min(r.iterations for r in expected) >= 4

    def refuse(*args):
        raise AssertionError("ColorProfile operator called inside solve")

    for dunder in ("__add__", "__lt__", "__eq__", "__sub__"):
        monkeypatch.setattr(ColorProfile, dunder, refuse)
    results = runs()
    monkeypatch.undo()
    for result, reference in zip(results, expected):
        assert result.to_json() == reference.to_json()
        assert result.valuation == reference.valuation


@pytest.mark.parametrize("backend, audit_every", [
    (BACKEND_DIJKSTRA, 4), (BACKEND_DIJKSTRA, 0), (BACKEND_BELLMAN_FORD, 4)])
def test_full_reasonableness_check_runs_on_its_cadence(monkeypatch, backend,
                                                        audit_every):
    # the fast path checks iteration 1 and every audit iteration in full
    # and the others incrementally; the reference backend checks in full
    calls = {"full": 0, "step": 0}

    def counted(name, check):
        def run(*args):
            calls[name] += 1
            return check(*args)
        return run

    monkeypatch.setattr(iteration, "is_reasonable",
                        counted("full", iteration.is_reasonable))
    monkeypatch.setattr(iteration, "is_reasonable_step",
                        counted("step", iteration.is_reasonable_step))
    game = random_game(random.Random(12), 120, 3, 6)
    n = solve(game, SingleRandom(3), backend, audit_every).iterations
    assert n >= 20
    if backend == BACKEND_BELLMAN_FORD:
        assert calls == {"full": n, "step": 0}
    else:
        audits = n // audit_every if audit_every else 0
        assert calls == {"full": 1 + audits, "step": n - 1}


def test_audit_catches_a_wrong_incremental_reasonableness_verdict(
        monkeypatch):
    real = iteration.is_reasonable_step
    monkeypatch.setattr(iteration, "is_reasonable_step",
                        lambda arena, old, new: not real(arena, old, new))
    game = random_game(random.Random(12), 120, 3, 6)
    with pytest.raises(InvariantViolation, match="incremental "
                       "reasonableness check disagrees with the full one "
                       "at iteration 2$"):
        solve(game, SingleRandom(3), audit_every=2)
    # without audits the incremental verdict alone rejects the strategy
    with pytest.raises(InvariantViolation,
                       match="iteration 2 produced an unreasonable strategy"):
        solve(game, SingleRandom(3), audit_every=0)


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
                              [arena.basis.key(ColorProfile.finite((5,))),
                               arena.basis.key(zero_profile(1))])


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


# player 1 wins nodes 0 and 1 through the odd self-loop on 1; player 0
# wins node 2 through its even self-loop
NON_EDGE_GAME = parse_pgsolver("0 0 0 1;\n1 1 1 1;\n2 2 0 2;\n")


@pytest.mark.parametrize("w0, w1, strategy0, strategy1", [
    ((0, 2), (1,), {0: 2, 2: 2}, {1: 1}),   # 0 -> 2 is no edge
    ((2,), (0, 1), {2: 2}, {1: 0}),          # 1 -> 0 is no edge
    ((2,), (0, 1), {2: 3}, {1: 1}),          # 3 is no node
    ((2,), (0, 1), {2: -1}, {1: 1}),
    ((2,), (0, 1), {2: 2}, {1: 7}),
], ids=["player0-non-edge", "player1-non-edge", "player0-past-n",
        "player0-negative", "player1-past-n"])
def test_replay_rejects_strategy_edges_outside_the_game(w0, w1, strategy0,
                                                       strategy1):
    assert solve(NON_EDGE_GAME).w0 == (2,)
    forged = SolveResult(w0, w1, strategy0, strategy1, {}, 1, "x")
    with pytest.raises(InvariantViolation, match="not an edge of the game"):
        replay_verify(NON_EDGE_GAME, forged)


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
