"""The enumerating reference solver and the solver-vs-oracle crosscheck."""

import math
import random

import pytest
from hypothesis import given, settings

from pgsi import (ParityGame, crosscheck, oracle_solve, policy_by_name,
                  solve)
from pgsi import oracle
from pgsi.arena import find_one_dominated_cycle_nodes
from pgsi.cli import random_game
from pgsi.errors import InstanceTooLarge
from pgsi.oracle import CrosscheckReport

from conftest import parity_games
from helpers import enumerated_oracle


def test_oracle_two_node_alternation():
    game = ParityGame((0, 1), (1, 2), ((1,), (0,)))
    result = oracle_solve(game)
    assert result.w0 == (0, 1)
    assert result.w1 == ()
    assert result.witness == {0: 1}


def test_oracle_odd_self_loop():
    game = ParityGame((0,), (1,), ((0,),))
    result = oracle_solve(game)
    assert result.w0 == ()
    assert result.w1 == (0,)
    assert result.witness == {}


def test_oracle_without_player0_nodes():
    game = ParityGame((1, 1), (0, 1), ((1,), (0,)))
    result = oracle_solve(game)
    assert result.w0 == ()
    assert result.w1 == (0, 1)


def test_oracle_cap_is_enforced():
    game = ParityGame((0, 0, 0), (0, 0, 0),
                      ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
    with pytest.raises(InstanceTooLarge):
        oracle_solve(game, cap=8)
    assert oracle_solve(game, cap=27).w0 == (0, 1, 2)
    # a game without player-0 nodes has one strategy, the empty one
    alone = ParityGame((1,), (0,), ((0,),))
    with pytest.raises(InstanceTooLarge):
        oracle_solve(alone, cap=0)
    assert oracle_solve(alone, cap=1).w0 == (0,)
    with pytest.raises(InstanceTooLarge):
        oracle_solve(ParityGame((0,), (0,), ((0,),)), cap=0)


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_oracle_partitions_and_witness_wins(game):
    result = oracle_solve(game)
    assert sorted(result.w0 + result.w1) == list(range(game.n))
    assert not set(result.w0) & set(result.w1)
    assert set(result.witness) == set(result.w0) & set(game.player_nodes(0))
    # fixing the witness edges must leave no odd-dominated cycle reachable
    # from the won region
    succ = {v: game.successors[v] for v in range(game.n)}
    for v, t in result.witness.items():
        succ[v] = (t,)
    bad = find_one_dominated_cycle_nodes(
        range(game.n), succ, {v: game.color[v] for v in range(game.n)})
    reach = set(result.w0)
    queue = list(reach)
    while queue:
        v = queue.pop()
        for t in succ[v]:
            if t not in reach:
                reach.add(t)
                queue.append(t)
    assert not reach & bad


@settings(max_examples=300, deadline=None)
@given(parity_games())
def test_oracle_keeps_the_first_best_strategy(game):
    # the partition and the witness, edge for edge and in key order, of
    # the enumerator that builds every strategy and winning set anew
    result = oracle_solve(game)
    w0, w1, witness = enumerated_oracle(game)
    assert (result.w0, result.w1) == (w0, w1)
    assert list(result.witness.items()) == list(witness.items())


def test_oracle_matches_the_enumerator_on_the_tiny_batch_games(
        seed1_instances):
    # every seed-1 tiny-batch game of the benchmark: the partition and the
    # witness, edge for edge and in key order
    instances = seed1_instances["tiny-batch"]
    assert len(instances) == 8000
    for inst, game in instances:
        result = oracle_solve(game)
        w0, w1, witness = enumerated_oracle(game)
        assert (result.w0, result.w1) == (w0, w1), inst.label
        assert list(result.witness.items()) == list(witness.items()), \
            inst.label


def test_oracle_skips_the_strategies_its_kept_pieces_rule_out(
        monkeypatch, seed1_instances):
    # the seed-1 tiny-batch games with 50 or more strategies: a strategy
    # whose kept pieces already lose as many nodes as the best strategy
    # is left without a decomposition, which no result shows
    found = decompositions = strategies = 0
    pieces, product = oracle._dominated_pieces, oracle.product

    def counted_pieces(*args):
        nonlocal decompositions
        decompositions += 1
        return pieces(*args)

    def counted_product(*edges):
        nonlocal strategies
        for sigma in product(*edges):
            strategies += 1
            yield sigma

    monkeypatch.setattr(oracle, "_dominated_pieces", counted_pieces)
    monkeypatch.setattr(oracle, "product", counted_product)
    for _, game in seed1_instances["tiny-batch"]:
        if math.prod(len(game.successors[v])
                     for v in game.player_nodes(0)) >= 50:
            found += 1
            oracle_solve(game)
    assert decompositions < strategies
    assert (found, strategies, decompositions) == (86, 3090, 1011)


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_solver_matches_oracle(game):
    report = crosscheck(game)
    assert report.ok, report.describe()


def test_crosscheck_across_policies():
    rng = random.Random(61)
    for _ in range(15):
        game = random_game(rng, rng.randint(1, 7), 3, 4)
        for policy in (None, "deterministic-all", "single-random"):
            chosen = policy_by_name(policy, seed=1) if policy else None
            report = crosscheck(game, policy=chosen)
            assert report.ok, report.describe()


def test_report_wording():
    game = ParityGame((0, 1), (1, 2), ((1,), (0,)))
    report = crosscheck(game)
    assert report.describe() == "ok (w0=[0, 1], 2 iterations)"
    broken = CrosscheckReport(False, (0,), (1,), 3)
    assert broken.describe() == "MISMATCH solver-only=[0] oracle-only=[1]"


def test_oracle_witness_matches_solver_strategy_region():
    rng = random.Random(67)
    for _ in range(20):
        game = random_game(rng, rng.randint(1, 6), 2, 3)
        reference = oracle_solve(game)
        result = solve(game)
        assert result.w0 == reference.w0
        assert set(result.strategy0) == set(reference.witness)
