"""Brute-force reference solver for small games.

Enumerates every deterministic player-0 strategy and checks, per plain
graph reachability, which nodes player 1 can then steer into an
odd-dominated cycle.  Positional determinacy makes the best enumerated
strategy exact, so this is a trustworthy cross-check for the iterative
solver.  It shares the solver's graph primitives, the odd-cycle
decomposition and the predecessor builder, but none of its strategy
iteration: no valuations and no escape sink.  The one-edge tuples of
each player-0 node are built once per game and a strategy is a choice
among them; a winning set is built only for the best strategy, the
first that loses the fewest nodes.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .arena import (ParityGame, find_one_dominated_cycle_nodes,
                    predecessors, reachable)
from .errors import InstanceTooLarge

DEFAULT_CAP = 10 ** 6


class OracleResult(NamedTuple):
    """Winning partition plus one witness edge per won player-0 node."""

    w0: tuple[int, ...]
    w1: tuple[int, ...]
    witness: dict[int, int]


def _losers(game: ParityGame, ids: range,
            succ: list[tuple[int, ...]]) -> set[int]:
    """Nodes from which the fixed-strategy graph reaches a cycle whose
    top color is odd: player 1 wins exactly these once player 0 commits.
    `ids` is ``range(game.n)``."""
    cycles = find_one_dominated_cycle_nodes(ids, succ, game.color)
    if not cycles:
        return set()
    return reachable(predecessors(ids, succ, len(ids)), cycles)


def oracle_solve(game: ParityGame, cap: int = DEFAULT_CAP) -> OracleResult:
    """Solve by strategy enumeration; raises InstanceTooLarge when more
    than `cap` deterministic player-0 strategies would be tried.

    Each player-0 node's one-edge tuples are built once, and every
    strategy is a choice of one tuple per node, laid over the game's
    successors in one list that each strategy overwrites.  The first
    strategy that loses the fewest nodes is the witness; a winning set
    is built for it alone, after the loop."""
    ids = range(game.n)
    p0 = game.player_nodes(0)
    count = 1
    for v in p0:
        count *= len(game.successors[v])
        if count > cap:
            raise InstanceTooLarge(
                "%d player-0 strategies exceed the cap %d" % (count, cap))

    edges = [[(t,) for t in game.successors[v]] for v in p0]
    succ = list(game.successors)
    best: tuple[tuple[int], ...] = ()
    best_losers: set[int] = set(ids)
    for sigma in product(*edges):
        for v, edge in zip(p0, sigma):
            succ[v] = edge
        losers = _losers(game, ids, succ)
        # the first strategy that loses the fewest nodes is the witness
        if len(losers) < len(best_losers):
            best = sigma
            best_losers = losers
            if not losers:
                break

    witness = {v: t for v, (t,) in zip(p0, best) if v not in best_losers}
    w0 = tuple(v for v in ids if v not in best_losers)
    w1 = tuple(v for v in ids if v in best_losers)
    return OracleResult(w0, w1, witness)


class CrosscheckReport(NamedTuple):
    """Agreement record between the iterative solver and the oracle."""

    ok: bool
    w0_solver: tuple[int, ...]
    w0_oracle: tuple[int, ...]
    iterations: int

    def describe(self) -> str:
        if self.ok:
            return "ok (w0=%s, %d iterations)" % (list(self.w0_solver),
                                                  self.iterations)
        only_solver = sorted(set(self.w0_solver) - set(self.w0_oracle))
        only_oracle = sorted(set(self.w0_oracle) - set(self.w0_solver))
        return "MISMATCH solver-only=%s oracle-only=%s" % (only_solver,
                                                           only_oracle)


def crosscheck(game: ParityGame, policy=None,
               cap: int = DEFAULT_CAP) -> CrosscheckReport:
    """Run both solvers on the same game and compare winning sets."""
    from .iteration import solve

    result = solve(game, policy=policy)
    reference = oracle_solve(game, cap=cap)
    return CrosscheckReport(result.w0 == reference.w0, result.w0,
                            reference.w0, result.iterations)
