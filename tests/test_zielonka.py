"""`solve` against a second solver that shares no code with it:
Zielonka's recursive algorithm, and `solve` on the dual game."""

from pgsi import solve
from pgsi.cli import fuzz_game

from helpers import dual, zielonka_w0


def test_solve_agrees_with_zielonka_and_the_dual_game(seed1_instances):
    # every seed-1 benchmark instance and ACCEPTANCE 1's 1,000 games:
    # player 0 wins what Zielonka's algorithm finds, and player 1 wins
    # the same nodes of the dual game
    games = [game for instances in seed1_instances.values()
             for _, game in instances]
    games += [fuzz_game(77_000 + seed) for seed in range(1000)]
    disagreements = []
    for game in games:
        w0 = solve(game).w0
        if w0 != zielonka_w0(game) or solve(dual(game)).w1 != w0:
            disagreements.append(game)
    assert not disagreements, min(disagreements, key=lambda g: g.n)
    assert len(games) == 9010
