"""Brute-force reference solver for small games.

Enumerates every deterministic player-0 strategy and checks, per plain
graph reachability, which nodes player 1 can then steer into an
odd-dominated cycle.  Positional determinacy makes the best enumerated
strategy exact, so this is a trustworthy cross-check for the iterative
solver.  It shares the solver's graph primitives, the odd-cycle
decomposition and the predecessor builder, but none of its strategy
iteration: no valuations and no escape sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .arena import (ParityGame, find_one_dominated_cycle_nodes,
                    predecessors, reachable)
from .errors import InstanceTooLarge

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class OracleResult:
    """Winning partition plus one witness edge per won player-0 node."""

    w0: tuple[int, ...]
    w1: tuple[int, ...]
    witness: dict[int, int]


def _losers(game: ParityGame, succ: list[tuple[int, ...]]) -> set[int]:
    """Nodes from which the fixed-strategy graph reaches a cycle whose
    top color is odd: player 1 wins exactly these once player 0 commits."""
    cycles = find_one_dominated_cycle_nodes(range(game.n), succ, game.color)
    if not cycles:
        return set()
    return reachable(predecessors(range(game.n), succ, game.n), cycles)


def oracle_solve(game: ParityGame, cap: int = DEFAULT_CAP) -> OracleResult:
    """Solve by strategy enumeration; raises InstanceTooLarge when more
    than `cap` deterministic player-0 strategies would be tried."""
    p0 = game.player_nodes(0)
    count = 1
    for v in p0:
        count *= len(game.successors[v])
        if count > cap:
            raise InstanceTooLarge(
                "%d player-0 strategies exceed the cap %d" % (count, cap))

    best_w0: set[int] = set()
    best_sigma: tuple[int, ...] = ()
    for sigma in product(*(game.successors[v] for v in p0)):
        succ = list(game.successors)
        for v, t in zip(p0, sigma):
            succ[v] = (t,)
        winners = set(range(game.n)) - _losers(game, succ)
        if len(winners) > len(best_w0):
            best_w0 = winners
            best_sigma = sigma
            if len(winners) == game.n:
                break

    witness = {v: t for v, t in zip(p0, best_sigma) if v in best_w0}
    w1 = tuple(v for v in range(game.n) if v not in best_w0)
    return OracleResult(tuple(sorted(best_w0)), w1, witness)


@dataclass(frozen=True)
class CrosscheckReport:
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
