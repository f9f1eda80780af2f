"""The improvement loop: policies, solving, extraction, replay checks."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsi import (AllSwitches, ColorProfile, DeterministicAll, POS_INFINITY,
                  ParityGame, SingleRandom, SolveResult, parse_pgsolver,
                  iteration, policy_by_name, replay_verify, solve)
from pgsi.arena import build_escape_arena, preprocess
from pgsi.cli import generate_game, random_game
from pgsi.errors import InvariantViolation
from pgsi.iteration import (POLICY_NAMES, _check_progress, _step_bound,
                            extract_deterministic)
from pgsi.profiles import INF_KEY
from pgsi.valuation import (ImprovementSets, changed_nodes, improvements,
                            initial_strategy, valuate_bellman_ford)

from conftest import parity_games, scale_games
from helpers import (CADENCES, EnumerationTooLarge, apply_operator,
                     enumerate_direct_improvements, is_deterministic, key_of,
                     loop_game, strategy_of)

EVEN_LOOP = ParityGame((0,), (0,), ((0,),))
ODD_LOOP = ParityGame((0,), (1,), ((0,),))
ODD_TRAP = ParityGame((1,), (1,), ((0,),))
TWO_NODE = ParityGame((0, 1), (1, 2), ((1,), (0,)))


# ------------------------------------------------------------ small solves

@pytest.mark.parametrize("audit_every", CADENCES.values(), ids=CADENCES)
def test_solve_even_self_loop(audit_every):
    # player 0's peel wins the even player-0 loop before the loop starts
    result = solve(EVEN_LOOP, audit_every=audit_every)
    assert result.w0 == (0,)
    assert result.w1 == ()
    assert result.strategy0 == {0: 0}
    assert result.strategy1 == {}
    assert result.iterations == 0
    assert result.stats == []
    assert result.valuation == {}
    replay_verify(EVEN_LOOP, result)


@pytest.mark.parametrize("audit_every", CADENCES.values(), ids=CADENCES)
def test_solve_odd_self_loop_escapes(audit_every):
    result = solve(ODD_LOOP, audit_every=audit_every)
    assert result.w0 == ()
    assert result.w1 == (0,)
    assert result.strategy0 == {}
    assert result.strategy1 == {}
    assert result.iterations == 1
    replay_verify(ODD_LOOP, result)


@pytest.mark.parametrize("audit_every", CADENCES.values(), ids=CADENCES)
def test_solve_odd_player1_loop_is_won_upfront(audit_every):
    result = solve(ODD_TRAP, audit_every=audit_every)
    assert result.w0 == ()
    assert result.w1 == (0,)
    assert result.strategy1 == {0: 0}
    assert result.iterations == 0
    assert result.stats == []
    assert result.valuation == {}
    replay_verify(ODD_TRAP, result)


@pytest.mark.parametrize("audit_every", CADENCES.values(), ids=CADENCES)
def test_solve_two_node_alternation(audit_every):
    result = solve(TWO_NODE, audit_every=audit_every)
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


def test_solve_rejects_negative_audit_every():
    for audit_every in (-1, -16):
        with pytest.raises(ValueError):
            solve(EVEN_LOOP, audit_every=audit_every)
    assert solve(EVEN_LOOP, audit_every=0).w0 == (0,)


def test_solve_builds_one_escape_arena(monkeypatch):
    # preprocessing works on the game itself and builds the arena of the
    # solve once, over the nodes it keeps
    built = []

    def counted(game, removed=frozenset()):
        arena = build_escape_arena(game, removed)
        built.append(arena.nodes)
        return arena

    monkeypatch.setattr("pgsi.arena.build_escape_arena", counted)
    # node 0 is an odd player-1 self-loop, node 1 is attracted to it,
    # node 2 survives on its odd loop, which neither peel removes
    trap = ParityGame((1, 1, 0), (1, 0, 3), ((0,), (0, 2), (1, 2)))
    for game in (trap, random_game(random.Random(9), 40, 3, 4)):
        for audit_every in CADENCES.values():
            built.clear()
            result = solve(game, audit_every=audit_every)
            assert len(built) == 1
            replay_verify(game, result)
    built.clear()
    assert solve(trap).w1 == (0, 1, 2)
    assert built == [(2,)]


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
        results = [solve(game, policy=policy, audit_every=audit_every)
                   for audit_every in CADENCES.values()
                   for policy in (AllSwitches(), DeterministicAll(),
                                  SingleRandom(3))]
        first = results[0]
        for result in results:
            assert result.w0 == first.w0
            assert result.w1 == first.w1
            replay_verify(game, result)


@pytest.mark.parametrize("name", [DeterministicAll.name, SingleRandom.name])
def test_deterministic_policy_keeps_singleton_strategies(name):
    # each entry's one edge then realizes its node's value and so lies
    # inside its improving entry, which lets a step return its switches
    # alone
    rng = random.Random(31)
    for _ in range(10):
        game = loop_game(random_game(rng, rng.randint(2, 8), 3, 4))
        seen = []
        solve(game, policy=policy_by_name(name, seed=31),
              on_iteration=lambda i, s, v, imps: seen.append(s))
        assert seen and all(is_deterministic(s) for s in seen)


def test_all_switches_steps_to_the_improving_edges():
    # every strategy after the first is the previous improving set
    rng = random.Random(31)
    steps = 0
    for _ in range(10):
        game = loop_game(random_game(rng, 60, 3, 6))
        seen = []
        solve(game, policy=AllSwitches(),
              on_iteration=lambda i, s, v, imps: seen.append((s, imps)))
        for (_, imps), (strategy, _) in zip(seen, seen[1:]):
            assert strategy == imps.improving
            steps += 1
    assert steps >= 30


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_no_step_changes_a_dict_a_hook_has_seen(name):
    # the hook receives the loop's own dicts, so `improvements` and the
    # policies must copy a strategy or an improving dict before writing
    rng = random.Random(53)
    longest = 0
    for _ in range(8):
        game = loop_game(random_game(rng, 100, 3, 6))
        seen = []

        def keep(iteration, strategy, valuation, imps):
            assert type(strategy) is dict and type(imps.improving) is dict
            for table in (strategy, imps.improving, imps.strict):
                seen.append((table, dict(table)))

        result = solve(game, policy_by_name(name, seed=7), audit_every=4,
                       on_iteration=keep)
        longest = max(longest, result.iterations)
        for table, copy in seen:
            assert table == copy
    # past two audit iterations on some game
    assert longest >= 8


def test_single_random_is_reproducible():
    game = random_game(random.Random(5), 10, 3, 4)
    a = solve(game, policy=SingleRandom(42))
    b = solve(game, policy=SingleRandom(42))
    assert a.to_json() == b.to_json()
    assert a.valuation == b.valuation
    c = solve(game, policy=SingleRandom(43))
    assert c.w0 == a.w0


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_a_policy_returning_a_whole_strategy_solves_alike(name):
    # a pick may return every entry instead of the ones it sets
    class Whole:
        def __init__(self):
            self.inner = policy_by_name(name, seed=7)
            self.name = self.inner.name

        def pick(self, arena, strategy, valuation, imps):
            return {**strategy,
                    **self.inner.pick(arena, strategy, valuation, imps)}

    rng = random.Random(67)
    for _ in range(4):
        game = loop_game(random_game(rng, 100, 3, 6))
        for audit_every in CADENCES.values():
            whole = solve(game, Whole(), audit_every=audit_every)
            own = solve(game, policy_by_name(name, seed=7),
                        audit_every=audit_every)
            assert whole.to_json() == own.to_json()
            assert whole.valuation == own.valuation


def test_a_policy_narrowing_nodes_at_top_solves_alike():
    # a step may cut a node at +inf down to part of its improving entry;
    # the node seeds no switch region, yet its entry must be
    # reclassified, which the audit of every iteration checks.  Only
    # AllSwitches keeps several edges at +inf nodes
    class Narrowing:
        name = "narrowing"

        def __init__(self):
            self.narrowed = 0

        def pick(self, arena, strategy, valuation, imps):
            step = AllSwitches().pick(arena, strategy, valuation, imps)
            for v, kept in imps.improving.items():
                if (valuation[v] == INF_KEY and len(kept) > 1
                        and v not in step):
                    step[v] = kept[:1]
                    self.narrowed += 1
            return step

    narrowed = 0
    for seed in range(20):
        game = loop_game(random_game(random.Random(seed), 200, 3, 8))
        policy = Narrowing()
        cut = solve(game, policy, audit_every=1)
        plain = solve(game)
        assert (cut.w0, cut.w1, cut.iterations, cut.valuation) \
            == (plain.w0, plain.w1, plain.iterations, plain.valuation)
        replay_verify(game, cut)
        narrowed += policy.narrowed
    assert narrowed >= 20


def test_results_do_not_share_a_stats_list():
    game = loop_game(generate_game(60, 3, 6, seed=7))
    first, second = solve(game), solve(game)
    assert first.stats and first.stats == second.stats
    assert first.stats is not second.stats


def test_deterministic_policy_prefers_an_unbounded_strict_target():
    # node 0 may switch to node 1 (finite, far above the rest) or to
    # node 2 (+inf); the larger id must win because +inf is the top
    game = ParityGame((0, 1, 1), (0, 0, 2), ((1, 2), (1,), (2,)))
    arena = build_escape_arena(game)
    valuation = [0, 1 << 200, INF_KEY, 0]
    imps = ImprovementSets({0: (1, 2, 3)}, {0: (1, 2)})
    picked = DeterministicAll().pick(arena, {0: (3,)}, valuation, imps)
    assert picked == {0: (2,)}


def test_stalling_policy_is_rejected():
    class Stall:
        name = "stall"

        def pick(self, arena, strategy, valuation, imps):
            return strategy

    with pytest.raises(InvariantViolation):
        solve(TWO_NODE, policy=Stall())


def test_node_dropping_policy_is_rejected():
    class Drop:
        name = "drop"

        def pick(self, arena, strategy, valuation, imps):
            return {}

    with pytest.raises(InvariantViolation):
        solve(TWO_NODE, policy=Drop())


def test_node_emptying_policy_is_rejected():
    class Empty:
        name = "empty"

        def pick(self, arena, strategy, valuation, imps):
            return {0: ()}

    with pytest.raises(InvariantViolation,
                       match="left player-0 node 0 without a move"):
        solve(TWO_NODE, policy=Empty())


def test_worsening_policy_is_rejected():
    # the self-loop at node 0 is strictly below its current value
    game = ParityGame((0, 1), (1, 2), ((0, 1), (0,)))

    class Wild:
        name = "wild"

        def pick(self, arena, strategy, valuation, imps):
            return strategy_of({0: (0,)})

    with pytest.raises(InvariantViolation):
        solve(game, policy=Wild())


def record_classifications(monkeypatch):
    """Make `solve` record the player-0 nodes each `improvements` call
    classifies; returns the list it appends them to.  On an audit
    iteration the audit's full classification comes after the step's
    own."""
    real = iteration.improvements
    classified = []

    def recording(arena, strategy, valuation, prior=None, nodes=()):
        classified.append(arena.player0_nodes if prior is None else nodes)
        return real(arena, strategy, valuation, prior, nodes)

    monkeypatch.setattr(iteration, "improvements", recording)
    return classified


class Rogue:
    """SingleRandom, except that from the third pick on `tamper` may
    return an entry for the first node that the last classification,
    the last of `classified`, did not visit and that has no strict edge;
    `tampered` records each node it did that for."""

    name = "rogue"

    def __init__(self, tamper, classified):
        self.inner = SingleRandom(1)
        self.tamper = tamper
        self.classified = classified
        self.picks = 0
        self.tampered = []

    def pick(self, arena, strategy, valuation, imps):
        step = self.inner.pick(arena, strategy, valuation, imps)
        self.picks += 1
        if self.picks < 3:
            return step
        choices = dict(step)
        for v in arena.player0_nodes:
            if (v not in self.classified[-1] and v not in imps.strict
                    and self.tamper(arena, imps, valuation, choices, v)):
                self.tampered.append(v)
                break
        return choices


def swap_for_unknown(arena, imps, valuation, choices, v):
    # node v's improving entry, returned under an id the arena does not
    # have
    choices[arena.sink + 7] = imps.improving[v]
    return True


def empty_the_entry(arena, imps, valuation, choices, v):
    choices[v] = ()
    return True


def move_off_the_improving_set(arena, imps, valuation, choices, v):
    worse = [t for t in arena.escape_choices[v]
             if t not in imps.improving[v]]
    if worse:
        choices[v] = (worse[0],)
    return bool(worse)


def add_a_finite_target_at_top(arena, imps, valuation, choices, v):
    # a node at +inf, which seeds no switch region, takes a finite
    # target besides its entry, the sink only where it has no other
    finite = [t for t in arena.escape_choices[v] if valuation[t] != INF_KEY]
    if valuation[v] == INF_KEY and finite:
        choices[v] = tuple(sorted(imps.improving[v] + (finite[0],)))
        return True
    return False


def escape_from_top(arena, imps, valuation, choices, v):
    if valuation[v] == INF_KEY:
        choices[v] = (arena.sink,)
        return True
    return False


@pytest.mark.parametrize("tamper, message", [
    (swap_for_unknown, "policy kept unknown node"),
    (move_off_the_improving_set, "policy chose non-improving edge"),
    (empty_the_entry, "without a move"),
    (add_a_finite_target_at_top, "policy chose non-improving edge"),
    (escape_from_top, "policy chose non-improving edge"),
], ids=["unknown-node", "non-improving-edge", "empty-entry",
        "finite-target-at-top", "escape-from-top"])
def test_rogue_step_caught_by_the_narrowed_check(monkeypatch, tamper,
                                                 message):
    # with audits off only the step check at the returned and
    # reclassified entries stands between the rogue step and the
    # valuation; `solve` leaves a changed node at +inf out of the seeds
    # of the switch region because this check holds it to its entry
    game = random_game(random.Random(12), 300, 3, 8)
    policy = Rogue(tamper, record_classifications(monkeypatch))
    with pytest.raises(InvariantViolation, match=message):
        solve(game, policy, audit_every=0)
    assert len(policy.tampered) == 1


def test_step_keeping_a_stale_edge_is_rejected():
    # each step adds one strict edge and keeps every old one, so the old
    # edge of a switched node stops improving once its value grows; that
    # node is reclassified at the next step but not changed again
    class Lazy:
        name = "lazy"

        def __init__(self):
            self.rng = random.Random(1)

        def pick(self, arena, strategy, valuation, imps):
            v, t = self.rng.choice(imps.strict_edges())
            return strategy_of({**strategy, v: strategy[v] + (t,)})

    game = random_game(random.Random(12), 300, 3, 8)
    with pytest.raises(InvariantViolation,
                       match="policy chose non-improving edge"):
        solve(game, Lazy(), audit_every=0)


def test_step_check_visits_reclassified_entries_the_step_left_out():
    # each step adds one strict edge at a node it never switched before
    # and returns that entry alone, old edges kept; a kept edge that
    # stops improving then lies at a node the next step leaves out but
    # the classification visits, so only the check of the reclassified
    # entries stands between it and the fast valuation
    class Hoarding:
        name = "hoarding"

        def __init__(self):
            self.switched = set()

        def pick(self, arena, strategy, valuation, imps):
            v, t = next((v, t) for v, t in imps.strict_edges()
                        if v not in self.switched)
            self.switched.add(v)
            return {v: tuple(sorted(strategy[v] + (t,)))}

    game = random_game(random.Random(12), 300, 3, 8)
    with pytest.raises(InvariantViolation,
                       match="policy chose non-improving edge"):
        solve(game, Hoarding(), audit_every=0)


# ------------------------------------------------------------- progression

@pytest.mark.parametrize("audit_every", CADENCES.values(), ids=CADENCES)
def test_valuations_grow_and_strictly_so_at_switches(audit_every):
    rng = random.Random(37)
    for _ in range(15):
        game = random_game(rng, rng.randint(2, 8), 3, 4)
        trail = []
        result = solve(game, audit_every=audit_every,
                       on_iteration=lambda i, s, v, imps:
                       trail.append((i, dict(v), imps)))
        assert [i for i, _, _ in trail] == list(range(1, result.iterations + 1))
        for (_, before, _), (_, after, _) in zip(trail, trail[1:]):
            assert all(before[v] <= after[v] for v in before)
            assert any(before[v] < after[v] for v in before)
        for k, (_, _, imps) in enumerate(trail):
            record = result.stats[k]
            assert record == {"iteration": k + 1,
                              "strict_edges": len(imps.strict_edges()),
                              "strict_sources": len(imps.strict)}
            assert list(record) == ["iteration", "strict_edges",
                                    "strict_sources"]
            assert (record["strict_edges"] == 0) == (k == len(trail) - 1)


def test_progress_check_on_unbounded_values():
    # finite -> +inf is growth, also strict growth at a switched node;
    # the check returns the nodes whose value changed, in `nodes` order
    assert _check_progress([5, 0], [INF_KEY, 0], {0}, range(2)) == [0]
    assert _check_progress([INF_KEY, 5, 0], [INF_KEY, INF_KEY, 0], {1},
                           range(3)) == [1]
    # a region holding the changed node finds the same
    assert _check_progress([INF_KEY, 5, 0], [INF_KEY, INF_KEY, 0], {1},
                           [2, 1]) == [1]
    # +inf -> finite is a shrink, whatever happens elsewhere
    with pytest.raises(InvariantViolation, match="shrank at node 0"):
        _check_progress([INF_KEY, 5, 0], [1 << 300, INF_KEY, 0], {1},
                        range(3))
    # the first shrunk node in `nodes` order is named
    with pytest.raises(InvariantViolation, match="shrank at node 2"):
        _check_progress([INF_KEY, 5, 7], [1 << 300, 6, 0], {1}, [2, 1, 0])
    # +inf -> +inf at the switched node is no strict growth there
    with pytest.raises(InvariantViolation, match="switched node 0"):
        _check_progress([INF_KEY, 5, 0], [INF_KEY, 6, 0], {0}, range(3))
    with pytest.raises(InvariantViolation, match="did not grow"):
        _check_progress([INF_KEY, 5, 0], [INF_KEY, 5, 0], {0}, range(3))


def test_solve_runs_on_keys_without_profile_operators(monkeypatch):
    # with no hook attached, no ColorProfile operator runs inside solve:
    # the loop, its checks and the audits compare packed keys only
    game = random_game(random.Random(8), 300, 3, 6)

    def runs():
        return [solve(game, policy=policy, audit_every=audit_every)
                for audit_every in (4, 1)
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


# ids name the route that revalues every iteration, as in CADENCES
@pytest.mark.parametrize("audit_every", [4, 0, 1], ids=[
    "dijkstra-4", "dijkstra-0", "bellman-ford-1"])
def test_full_reasonableness_check_runs_on_its_cadence(monkeypatch,
                                                        audit_every):
    # iteration 1 and every audit iteration are checked in full, every
    # iteration after the first incrementally, audits doing both
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
    game = loop_game(random_game(random.Random(12), 120, 3, 6))
    n = solve(game, SingleRandom(3), audit_every=audit_every).iterations
    assert n >= 20
    audits = sum(1 for i in range(2, n + 1)
                 if audit_every and i % audit_every == 0)
    assert calls == {"full": 1 + audits, "step": n - 1}


def test_audit_catches_a_wrong_incremental_reasonableness_verdict(
        monkeypatch):
    real = iteration.is_reasonable_step
    monkeypatch.setattr(iteration, "is_reasonable_step",
                        lambda *args: not real(*args))
    game = loop_game(random_game(random.Random(12), 120, 3, 6))
    with pytest.raises(InvariantViolation, match="incremental "
                       "reasonableness check disagrees with the full one "
                       "at iteration 2$"):
        solve(game, SingleRandom(3), audit_every=2)
    # without audits the incremental verdict alone rejects the strategy
    with pytest.raises(InvariantViolation,
                       match="iteration 2 produced an unreasonable strategy"):
        solve(game, SingleRandom(3), audit_every=0)


def test_audit_catches_wrong_incremental_improvement_sets(monkeypatch):
    real = iteration.improvements

    def stale(arena, strategy, valuation, prior=None, nodes=()):
        # the incremental route carries every entry over unchanged
        return real(arena, strategy, valuation, prior)

    monkeypatch.setattr(iteration, "improvements", stale)
    game = loop_game(random_game(random.Random(12), 120, 3, 6))
    with pytest.raises(InvariantViolation, match="incremental improvement "
                       "sets disagree with the full ones at iteration 2$"):
        solve(game, SingleRandom(3), audit_every=2)


def test_audit_catches_a_wrong_narrowed_step_check(monkeypatch):
    real = iteration._check_step

    def dropping(next_strategy, imps, nodes):
        switched = real(next_strategy, imps, nodes)
        if nodes is not next_strategy:
            # the narrowed check, not the full one, loses a switched node
            switched.discard(max(switched))
        return switched

    monkeypatch.setattr(iteration, "_check_step", dropping)
    game = loop_game(random_game(random.Random(12), 120, 3, 6))
    with pytest.raises(InvariantViolation, match="incremental step check "
                       "disagrees with the full one at iteration 2$"):
        solve(game, SingleRandom(3), audit_every=2)
    # nothing else notices a switched node too few
    assert solve(game, SingleRandom(3), audit_every=0).iterations >= 20


def lowering_one_value(monkeypatch, pick):
    """Make the first fast revaluation set the node that
    `pick(arena, region, base)` chooses one below its finite base value;
    returns the list that records the node lowered."""
    real = iteration.valuate_dijkstra
    lowered = []

    def lowering(arena, new, region, base):
        out = real(arena, new, region, base)
        if not lowered:
            v = pick(arena, region, base)
            out[v] = base[v] - 1
            lowered.append(v)
        return out

    monkeypatch.setattr(iteration, "valuate_dijkstra", lowering)
    return lowered


def test_audit_catches_a_value_lowered_outside_the_switch_region(
        monkeypatch):
    # the progress check and the stale entries of a fast step look at A
    # only, so a value lowered outside A at iteration 2 goes unseen until
    # the first audit, which compares the whole list
    lowering_one_value(monkeypatch, lambda arena, region, base:
                       max(v for v in arena.nodes
                           if v not in region and base[v] != INF_KEY))
    game = loop_game(random_game(random.Random(12), 120, 3, 6))
    with pytest.raises(InvariantViolation, match="accelerated valuation "
                       "disagrees with the reference at iteration 8$"):
        solve(game, SingleRandom(3), audit_every=8)


def test_narrowed_progress_check_catches_a_value_lowered_in_the_region(
        monkeypatch):
    # with no audit, the check on A alone rejects a value lowered in A
    lowered = lowering_one_value(monkeypatch, lambda arena, region, base:
                                 min(v for v in region
                                     if base[v] != INF_KEY))
    game = loop_game(random_game(random.Random(12), 120, 3, 6))
    with pytest.raises(InvariantViolation) as caught:
        solve(game, SingleRandom(3), audit_every=0)
    assert str(caught.value) == "valuation shrank at node %d" % lowered[0]


def test_step_bookkeeping_visits_only_what_the_step_touched(monkeypatch):
    # a guard against whole-arena work per step: on a long-walk-shaped
    # game, pick looks up no improving entry and returns the switched
    # node alone, and the step check looks up at most one improving
    # entry per reclassified entry and per returned entry, plus one
    lookups = [0]

    class Counted(dict):
        def __getitem__(self, key):
            lookups[0] += 1
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            lookups[0] += 1
            return dict.get(self, key, default)

        def __contains__(self, key):
            lookups[0] += 1
            return dict.__contains__(self, key)

    classified = record_classifications(monkeypatch)
    real_improvements = iteration.improvements
    real_check = iteration._check_step

    def counted_improvements(*args):
        imps = real_improvements(*args)
        return imps._replace(improving=Counted(imps.improving))

    steps = []

    class Counting:
        name = "counting"

        def __init__(self):
            self.inner = SingleRandom(1)

        def pick(self, arena, strategy, valuation, imps):
            lookups[0] = 0
            step = self.inner.pick(arena, strategy, valuation, imps)
            assert len(step) == 1 and lookups[0] == 0
            budget = len(classified[-1]) + len(step) + 1
            steps.append([budget, None, len(imps.improving)])
            return step

    def counted_check(next_strategy, imps, nodes):
        lookups[0] = 0
        switched = real_check(next_strategy, imps, nodes)
        steps[-1][1] = lookups[0]
        return switched

    monkeypatch.setattr(iteration, "improvements", counted_improvements)
    monkeypatch.setattr(iteration, "_check_step", counted_check)
    game = loop_game(random_game(random.Random(300), 300, 3, 8))
    solve(game, Counting(), audit_every=0)
    assert len(steps) >= 50
    for budget, checked, _ in steps:
        assert 0 < checked <= budget
    # the bound is far below a walk over every player-0 node
    small = sum(budget * 4 < player0 for budget, _, player0 in steps)
    assert small >= len(steps) * 9 // 10


def count_regions(monkeypatch):
    """Make `solve` count, over its fast steps, the changed nodes it
    leaves out of the seeds of the switch region, the nodes of the
    region it walks back from the rest, and those of the region walked
    back from every changed node, which must hold the first."""
    counts = Counter()
    region_of, check_of = iteration.switch_region, iteration.is_reasonable_step

    def check(arena, old, new, changed, region):
        every = changed_nodes(old, new)
        full = region_of(arena, new, every)
        assert region <= full
        counts["left out"] += len(every) - len(changed)
        counts["region"] += len(region)
        counts["full region"] += len(full)
        return check_of(arena, old, new, changed, region)

    monkeypatch.setattr(iteration, "is_reasonable_step", check)
    return counts


def test_every_iteration_audited_on_the_scale_games(monkeypatch):
    # with audit_every=1 each step of the fast path compares its
    # valuation, reasonableness verdict and improvement sets with the
    # whole-arena ones
    counts = count_regions(monkeypatch)
    iterations = 0
    for i, game in enumerate(scale_games()):
        results = [solve(game, policy, audit_every=1) for policy in
                   (AllSwitches(), DeterministicAll(), SingleRandom(i))]
        assert len({(r.w0, r.w1) for r in results}) == 1
        iterations += sum(r.iterations for r in results)
    assert iterations >= 2500
    # changed nodes at +inf that only narrowed onto +inf targets
    assert counts["left out"] == 481


def test_every_iteration_audited_on_the_10k_scale_game(monkeypatch):
    # the random-10k benchmark's games stop before the default audit
    # cadence, so no default run of that shape compares a fast step
    # with the reference route; ACCEPTANCE 9's game, of the same shape,
    # does so here on every step, as a loop game, since player 0's peel
    # would leave the loop none of its steps
    counts = count_regions(monkeypatch)
    game = loop_game(generate_game(10_000, 4, 6, 0.5, seed=424242))
    result = solve(game, audit_every=1)
    assert (result.iterations, len(result.w0)) == (18, 4669)
    assert counts == {"left out": 1018, "region": 21012,
                      "full region": 26137}


def test_iteration_count_stays_below_the_step_bound():
    rng = random.Random(41)
    for _ in range(25):
        game = random_game(rng, rng.randint(1, 9), 3, 5)
        result = solve(game)
        arena = preprocess(game).arena
        if arena.nodes:
            assert result.iterations - 1 <= _step_bound(len(arena.nodes),
                                                        game.d)


def test_step_bound_values():
    assert _step_bound(0, 3) == 0.0
    assert _step_bound(4, 2) == 4 * 3.0 ** 2
    assert _step_bound(6, 3) == 6 * 3.0 ** 3
    assert _step_bound(933, 2000) == math.inf


def test_solve_where_the_step_bound_overflows_a_float():
    game = loop_game(random_game(random.Random(2), 1200, 4, 1200, 0.6))
    arena = preprocess(game).arena
    assert _step_bound(len(arena.nodes), game.d) == math.inf
    result = solve(game)
    assert result.w0 and result.w1
    replay_verify(game, result)


def test_solve_a_game_with_a_huge_color():
    # keys count only the colors in use: color 10^12 takes one digit,
    # while the profiles of the result keep the game's dimension
    # the two-cycle passes through player 1, so the loop solves it
    game = parse_pgsolver("0 1000000000000 0 1;\n1 1000000000000 1 0;\n")
    assert preprocess(game).arena.basis.colors == (10 ** 12,)
    result = solve(game)
    replay_verify(game, result)
    assert (result.w0, result.strategy0) == ((0, 1), {0: 1})
    assert result.valuation[0] == POS_INFINITY
    assert result.valuation[2].dimension == 10 ** 12 + 1


@st.composite
def stretched_games(draw):
    """A small game and a copy whose colors go through a strictly
    increasing, parity-preserving map, with that map."""
    game = draw(parity_games(max_colors=6))
    steps = draw(st.lists(st.integers(0, 40), min_size=game.d,
                          max_size=game.d))
    stretch = [2 * steps[0]]
    for k in range(1, game.d):
        stretch.append(stretch[-1] + 1 + 2 * steps[k])
    copy = ParityGame(game.owner, tuple(stretch[c] for c in game.color),
                      game.successors)
    return game, copy, stretch


@settings(max_examples=100, deadline=None)
@given(stretched_games())
def test_stretched_colors_solve_alike(case):
    game, copy, stretch = case
    for name in POLICY_NAMES:
        a = solve(game, policy_by_name(name, 5), audit_every=2)
        b = solve(copy, policy_by_name(name, 5), audit_every=2)
        assert (b.w0, b.w1, b.strategy0, b.strategy1, b.iterations) \
            == (a.w0, a.w1, a.strategy0, a.strategy1, a.iterations)
        assert b.valuation.keys() == a.valuation.keys()
        for v, value in a.valuation.items():
            if not value.is_finite:
                assert b.valuation[v] == value
                continue
            counts = [0] * copy.d
            for c, k in enumerate(value.counts):
                counts[stretch[c]] = k
            assert b.valuation[v].counts == tuple(counts)
    arena = preprocess(copy).arena
    assert list(arena.basis.colors) \
        == sorted({copy.color[v] for v in arena.nodes})


@pytest.mark.slow
def test_solve_and_replay_at_100k_nodes():
    game = random_game(random.Random(100_000), 100_000, 4, 6)
    result = solve(game)
    replay_verify(game, result)


# -------------------------------------------------------------- extraction

@settings(max_examples=100, deadline=None)
@given(parity_games())
def test_extracted_strategy_reproduces_the_valuation(game):
    prep = preprocess(game)
    arena = prep.arena
    if not arena.nodes:
        return
    strategy = initial_strategy(arena)
    for _ in range(64):
        valuation = valuate_bellman_ford(arena, strategy)
        imps = improvements(arena, strategy, valuation)
        if not imps.strict:
            break
        strategy = imps.improving
    else:
        raise AssertionError("improvement iteration failed to stop")
    extracted = extract_deterministic(arena, imps.improving, valuation)
    assert is_deterministic(extracted)
    assert valuate_bellman_ford(arena, extracted) == valuation
    # each extracted edge is the smallest-id improving edge that realizes
    # the node's value: an edge realizes it iff the valuation operator,
    # given that edge alone, reproduces the node's value
    for v, (t,) in extracted.items():
        realizing = [s for s in imps.improving[v] if apply_operator(
            arena, {**extracted, v: (s,)}, valuation)[v] == valuation[v]]
        assert t == min(realizing)


def test_extraction_needs_a_realizing_edge():
    arena = build_escape_arena(EVEN_LOOP)
    with pytest.raises(InvariantViolation):
        extract_deterministic(arena, strategy_of({0: (1,)}),
                              [key_of(arena.basis, (5,)), 0])


# ------------------------------------------------------------- enumeration

def test_enumerate_deterministic_selections():
    found = list(enumerate_direct_improvements(strategy_of({0: (1, 2)})))
    assert found == [{0: (1,)}, {0: (2,)}]
    found = list(enumerate_direct_improvements(
        strategy_of({0: (1, 2), 1: (0, 2, 3)})))
    assert len(found) == 6
    assert all(is_deterministic(s) for s in found)
    assert len({tuple(s.items()) for s in found}) == 6


def test_enumerate_honors_the_cap():
    with pytest.raises(EnumerationTooLarge):
        enumerate_direct_improvements(strategy_of({0: (1, 2), 1: (2, 3)}),
                                      cap=3)
    assert len(list(enumerate_direct_improvements(
        strategy_of({0: (1, 2), 1: (2, 3)}), cap=4))) == 4


# ------------------------------------------------------------------ replay

def test_replay_rejects_bad_partition():
    result = solve(TWO_NODE)
    broken = type(result)(result.w0, result.w0, result.strategy0,
                          result.strategy1, result.valuation,
                          result.iterations, result.policy, result.stats)
    with pytest.raises(InvariantViolation):
        replay_verify(TWO_NODE, broken)


@pytest.mark.parametrize("w0, w1", [
    ((2, 2), (0, 1)),       # a duplicate in w0
    ((1, 2), (0, 1)),       # node 1 in both sets
    ((2,), (0,)),           # node 1 in neither
    ((3,), (0, 1)),         # id n in place of node 2
    ((-1,), (0, 1)),        # id -1 in place of node 2
], ids=["duplicate", "in-both", "missing", "id-n", "id-minus-one"])
def test_replay_rejects_sets_that_do_not_partition(w0, w1):
    # the strategies would certify the true partition (2,) / (0, 1)
    assert solve(NON_EDGE_GAME).w0 == (2,)
    forged = SolveResult(w0, w1, {2: 2}, {1: 1}, {}, 1, "x", [])
    with pytest.raises(InvariantViolation,
                       match="winning sets do not partition the game"):
        replay_verify(NON_EDGE_GAME, forged)


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


@pytest.mark.parametrize("seed", range(6))
def test_replay_finds_the_even_cycle_in_a_forfeited_w0(seed):
    # every w0 node handed to player 1, whose former-w0 nodes take any
    # game edge: player 0's winning strategy still forces an even cycle
    # in there, so a cycle kernel that wrongly answers "no cycle" fails
    game = generate_game(300, 4, 6, 0.5, seed)
    result = solve(game)
    assert result.w0
    strategy1 = dict(result.strategy1)
    for v in result.w0:
        if game.owner[v] == 1:
            strategy1[v] = game.successors[v][0]
    forged = SolveResult((), tuple(range(game.n)), {}, strategy1, {},
                         result.iterations, result.policy, result.stats)
    with pytest.raises(InvariantViolation, match="player-1 strategy admits"):
        replay_verify(game, forged)


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
    forged = SolveResult(w0, w1, strategy0, strategy1, {}, 1, "x", [])
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
