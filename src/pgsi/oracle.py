"""Brute-force reference solver for small games.

Enumerates every deterministic player-0 strategy and checks, per plain
graph reachability, which nodes player 1 can then steer into an
odd-dominated cycle.  Positional determinacy makes the best enumerated
strategy exact, so this is a trustworthy cross-check for the iterative
solver.  It shares the solver's graph primitives, the odd-cycle
decomposition and the predecessor builder, but none of its strategy
iteration: no valuations and no escape sink.  The one-edge tuples of
each player-0 node and the game's predecessor table are built at most
once per game; a strategy is a choice among the tuples, and its losers
are found by walking that table back from its odd-topped cycles, a
player-0 predecessor only along the edge the strategy gives it.  A
strategy is left as soon as its cycle nodes, or its walk so far, number
as many as the best strategy's losers: it cannot lose fewer, so the best
strategy is still the first that loses the fewest nodes, and a winning
set is built for it alone.

A strategy is left before its decomposition, too, when the odd-topped
pieces of the last strategy decomposed whose player-0 nodes all keep
their edge already lose that many.  Player-1 nodes keep every edge, so
such a piece keeps every edge inside it: it is still strongly connected
with the same odd top color, every node of it lies on an odd-topped
cycle, and what reaches it is a subset of the strategy's losers.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .arena import ParityGame, _dominated_pieces, predecessors
from .errors import InstanceTooLarge

DEFAULT_CAP = 10 ** 6


class OracleResult(NamedTuple):
    """Winning partition plus one witness edge per won player-0 node."""

    w0: tuple[int, ...]
    w1: tuple[int, ...]
    witness: dict[int, int]


def _losers(cycles: list[int], preds: list[list[int] | None],
            succ: list[tuple[int, ...]], bound: int) -> set[int] | None:
    """Nodes from which the fixed-strategy graph `succ` reaches one of
    `cycles`, distinct nodes on its cycles whose top color is odd: player
    1 wins these once player 0 commits, and exactly these when `cycles`
    are all such nodes.  `preds` is the game's predecessor table; a
    predecessor is followed only along an edge of `succ`, so a player-0
    node only along the edge its strategy keeps.  None as soon as the
    nodes found number `bound`."""
    if len(cycles) >= bound:
        return None
    seen = set(cycles)
    queue = list(cycles)
    # iterating a list visits what is appended to it meanwhile: a FIFO
    for v in queue:
        for u in preds[v]:
            if u not in seen and v in succ[u]:
                seen.add(u)
                queue.append(u)
                if len(queue) >= bound:
                    return None
    return seen


def oracle_solve(game: ParityGame, cap: int = DEFAULT_CAP) -> OracleResult:
    """Solve by strategy enumeration; raises InstanceTooLarge when more
    than `cap` deterministic player-0 strategies would be tried, also on
    a game without player-0 nodes, which has one.

    Each player-0 node's one-edge tuples are built once, and every
    strategy is a choice of one tuple per node, laid over the game's
    successors in one list that each strategy overwrites.  The game's
    predecessor table is built once too, for the first strategy that
    has an odd-topped cycle; a game whose first strategy has none, and
    so loses no node, builds no table.  A strategy's losers are walked
    back from its odd-topped cycles over the table, following a player-0
    predecessor only along its chosen edge.  The walk is left, and the
    strategy with it, once it holds as many nodes as the best strategy's
    losers: it cannot lose fewer, and only a strategy that loses fewer
    replaces the best, so the first strategy that loses the fewest nodes
    is the witness.  A winning set is built for it alone, after the
    loop.

    The odd-topped pieces of the one top-color decomposition are kept
    for the last strategy decomposed, with its edges.  `product` changes
    the last nodes' edges first, so most pieces of a strategy are still
    whole in the next ones: a piece whose player-0 nodes all keep their
    edge keeps every edge inside it, player-1 nodes keeping all theirs,
    so it is still strongly connected with the same odd top, and its
    closure is a subset of the strategy's losers.  A strategy is
    therefore walked from these pieces first and left, undecomposed,
    when that walk holds as many nodes as the best's losers; otherwise
    it is decomposed, and its pieces replace the kept ones."""
    ids = range(game.n)
    p0 = game.player_nodes(0)
    count = 1
    for v in p0:
        count *= len(game.successors[v])
        if count > cap:
            break
    if count > cap:
        raise InstanceTooLarge(
            "%d player-0 strategies exceed the cap %d" % (count, cap))

    edges = [[(t,) for t in game.successors[v]] for v in p0]
    preds = None
    succ = list(game.successors)
    best: tuple[tuple[int], ...] = ()
    best_losers: set[int] = set(ids)
    # the odd-topped pieces of the last strategy decomposed, and its edges
    pieces: list[list[int]] = []
    decomposed: tuple[tuple[int], ...] = ()
    for sigma in product(*edges):
        for v, edge in zip(p0, sigma):
            succ[v] = edge
        # the first strategy that loses the fewest nodes is the witness,
        # so one that loses as many as the best so far is left
        bound = len(best_losers)
        if pieces:
            changed = {v for v, edge, old in zip(p0, sigma, decomposed)
                       if edge is not old}
            kept = [v for piece in pieces if changed.isdisjoint(piece)
                    for v in piece]
            if kept and _losers(kept, preds, succ, bound) is None:
                continue
        pieces = [piece for _, piece in
                  _dominated_pieces(ids, succ, game.color, 1)]
        decomposed = sigma
        cycles = [v for piece in pieces for v in piece]
        if cycles and preds is None:
            # once per game, when a strategy first has a cycle to walk from
            preds = predecessors(ids, game.successors, game.n)
        losers = _losers(cycles, preds, succ, bound)
        if losers is not None:
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


def crosscheck(game: ParityGame, policy=None) -> CrosscheckReport:
    """Run both solvers on the same game and compare winning sets; raises
    InstanceTooLarge past the oracle's `DEFAULT_CAP` strategies."""
    from .iteration import solve

    result = solve(game, policy=policy)
    reference = oracle_solve(game)
    return CrosscheckReport(result.w0 == reference.w0, result.w0,
                            reference.w0, result.iterations)
