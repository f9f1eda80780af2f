"""The enumerating reference solver and the solver-vs-oracle crosscheck."""

import random

import pytest
from hypothesis import given, settings

from pgsi import (CrosscheckReport, GraphView, ParityGame, crosscheck,
                  find_one_dominated_cycle_nodes, oracle_solve,
                  policy_by_name, solve)
from pgsi.cli import random_game
from pgsi.errors import InstanceTooLarge
from pgsi.iteration import BACKENDS

from conftest import parity_games


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
    view = GraphView(tuple(range(game.n)), succ,
                     {v: game.owner[v] for v in range(game.n)},
                     {v: game.color[v] for v in range(game.n)})
    bad = find_one_dominated_cycle_nodes(view)
    reach = set(result.w0)
    queue = list(reach)
    while queue:
        v = queue.pop()
        for t in succ[v]:
            if t not in reach:
                reach.add(t)
                queue.append(t)
    assert not reach & bad


@settings(max_examples=150, deadline=None)
@given(parity_games())
def test_solver_matches_oracle(game):
    report = crosscheck(game)
    assert report.ok, report.describe()


def test_crosscheck_across_policies_and_backends():
    rng = random.Random(61)
    for _ in range(15):
        game = random_game(rng, rng.randint(1, 7), 3, 4)
        for backend in BACKENDS:
            for policy in (None, "deterministic-all", "single-random"):
                chosen = policy_by_name(policy, seed=1) if policy else None
                report = crosscheck(game, policy=chosen, backend=backend)
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
