"""Reference routines that only the tests use: a loader for the
repository's scripts outside the package, the key of a count
vector and the game order on count vectors, a strategy built from a
raw mapping, one application of the valuation operator, the deterministic
strategies inside an improving edge set, a determinism predicate, the
audit cadences to solve under, a game that player 0's peel leaves
whole, the strategy enumerator as the oracle first wrote it, and the
level-by-level attractor, the per-piece BFS of the
cycle strategy, a two-pass Tarjan and the top-color decomposition
without its peel run on it, and the PGSolver reader as the seed wrote
it.

The level-by-level attractor, the two-pass Tarjan and the unpeeled
decomposition share no code with the package's versions they must
reproduce.  The others do, and a fault in what they share reaches
both sides of a comparison alike:

- `enumerated_oracle` finds each strategy's odd-topped cycles with the
  package's `find_one_dominated_cycle_nodes`, so with
  `_dominated_pieces`, and walks them back with its `predecessors` and
  `reachable`;
- `bfs_dominated_cycle_strategy` takes its pieces from
  `_dominated_pieces`, so it checks only the edges chosen in them;
- `loop_game` finds the cycles whose colors it raises with
  `find_dominated_cycle_nodes`;
- `key_of` and `apply_operator` read the package's keys, the basis's
  `unit_key` and the arena's `unit_keys`;
- `reference_parse_pgsolver` builds its game with `ParityGame`, whose
  validation it shares.

The decomposition itself is checked against the unpeeled one and a
reachability closure, which share none of it."""

import importlib.util
import re
import sys
from collections import deque
from itertools import product
from pathlib import Path
from typing import Iterator, Mapping

from pgsi.arena import (AttractorResult, ParityGame, _dominated_pieces,
                        find_dominated_cycle_nodes,
                        find_one_dominated_cycle_nodes, predecessors,
                        reachable)
from pgsi.errors import FormatError
from pgsi.profiles import INF_KEY
from pgsi.valuation import Strategy

ROOT = Path(__file__).resolve().parents[1]


def load_file(path: str):
    """The module of the file at `path`, a path relative to the
    repository root such as "benchmark/games.py", imported once per
    process as "benchmark_games" and kept in `sys.modules`: the
    dataclasses of `benchmark/games.py` look their module up there."""
    name = path.removesuffix(".py").replace("/", "_")
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name, ROOT / path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def key_of(basis, counts) -> int:
    """The key `basis` gives the per-color counts, lowest color first."""
    return sum(k * basis.unit_key(c) for c, k in enumerate(counts) if k)


def reference_compare(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as count vector `a` is worth less than, as much as or
    more than `b`, written from the game order alone: decide at the
    highest color where the counts differ, preferring fewer visits to an
    odd color and more to an even one."""
    assert len(a) == len(b)
    for k in reversed(range(len(a))):
        if a[k] == b[k]:
            continue
        if k % 2 == 0:
            return -1 if a[k] < b[k] else 1
        return -1 if a[k] > b[k] else 1
    return 0


# The audit cadences the tests solve under, by the valuation route that
# revalues every iteration after the first: at the default cadence the
# Dijkstra update does, with the reference fixpoint sweeps on every 16th
# only; at cadence 1 the reference sweeps run on every iteration too and
# must agree with the update bit for bit.
CADENCES = {"dijkstra": 16, "bellman-ford": 1}


def strategy_of(mapping: Mapping) -> Strategy:
    """The strategy keeping the edges of `mapping`: per node its targets
    sorted, duplicates dropped."""
    return {v: tuple(sorted(set(targets))) for v, targets in mapping.items()}


def is_deterministic(strategy: Strategy) -> bool:
    """True iff the strategy keeps exactly one edge per node."""
    return all(len(ts) == 1 for ts in strategy.values())


def loop_game(game: ParityGame) -> ParityGame:
    """The game with the even color of each player-0 node on an even-topped
    cycle among player-0 nodes raised by one: the same graph and owners,
    and no such cycle left, so player 0's peel removes nothing and the
    improvement loop sees every node player 1's peel leaves.

    One pass suffices: a cycle through a node on no even-topped cycle
    has an odd top m, and a raised color c < m becomes c + 1 <= m."""
    raised = find_dominated_cycle_nodes(game.player_nodes(0),
                                        game.successors, game.color, 0)
    color = tuple(c + 1 if v in raised and c % 2 == 0 else c
                  for v, c in enumerate(game.color))
    return ParityGame(game.owner, color, game.successors, game.names)


def apply_operator(arena, strategy: Strategy, valuation: list) -> list:
    """One simultaneous application of the valuation operator to a key
    list indexed by node id, the sink at index n."""
    unit = arena.unit_keys
    out = [INF_KEY] * (arena.sink + 1)
    out[arena.sink] = 0
    owner_of = arena.game.owner
    for v in arena.nodes:
        if owner_of[v] == 1:
            best = min(valuation[t] for t in arena.succ[v])
        else:
            best = max(valuation[t] for t in strategy[v])
        out[v] = best if best == INF_KEY else unit[v] + best
    return out


class EnumerationTooLarge(Exception):
    """The deterministic strategies inside an improving edge set are more
    than the enumeration's cap."""


def enumerate_direct_improvements(improving: Strategy,
                                  cap: int = 4096) -> Iterator[Strategy]:
    """All deterministic strategies inside an improving edge set, in
    lexicographic node/target order.  Raises EnumerationTooLarge before
    yielding anything if there are more than `cap`."""
    nodes = sorted(improving)
    total = 1
    for v in nodes:
        total *= len(improving[v])
        if total > cap:
            raise EnumerationTooLarge(
                "more than %d deterministic selections" % cap)

    def generate():
        for combo in product(*(improving[v] for v in nodes)):
            yield {v: (t,) for v, t in zip(nodes, combo)}

    return generate()


def enumerated_oracle(game: ParityGame):
    """(w0, w1, witness) of the best deterministic player-0 strategy:
    every strategy gets a fresh successor list, its winners are all
    nodes but those that reach an odd-topped cycle, and a strategy
    replaces the best so far only with a strictly larger winning set."""
    p0 = game.player_nodes(0)
    best_w0: set[int] = set()
    best_sigma: tuple[int, ...] = ()
    for sigma in product(*(game.successors[v] for v in p0)):
        succ = list(game.successors)
        for v, t in zip(p0, sigma):
            succ[v] = (t,)
        cycles = find_one_dominated_cycle_nodes(range(game.n), succ,
                                                game.color)
        losers = reachable(predecessors(range(game.n), succ, game.n),
                           cycles) if cycles else set()
        winners = set(range(game.n)) - losers
        if len(winners) > len(best_w0):
            best_w0 = winners
            best_sigma = sigma
            if len(winners) == game.n:
                break
    witness = {v: t for v, t in zip(p0, best_sigma) if v in best_w0}
    w1 = tuple(v for v in range(game.n) if v not in best_w0)
    return tuple(sorted(best_w0)), w1, witness


def level_attractor(nodes, succ, owner, player: int,
                    target) -> tuple[AttractorResult, dict[int, int]]:
    """The attractor found one BFS level at a time, with its members'
    levels as ranks: level r+1 walks the predecessors of level r in
    ascending order, so the first node that attracts a player member is
    its smallest-id successor of the previous level.  Like `attractor`
    it needs every node to have a successor among `nodes`: a dead end
    is never attracted."""
    node_set = set(nodes)
    rank = {}
    for t in target:
        if t not in node_set:
            raise ValueError("target node %d is not in the node set" % t)
        rank[t] = 0
    preds = {v: [] for v in nodes}
    for v in nodes:
        for t in succ[v]:
            preds[t].append(v)
    remaining = {v: len(succ[v]) for v in nodes
                 if owner[v] != player and v not in rank}
    strategy = {}
    current = sorted(rank)
    level = 0
    while True:
        level += 1
        fresh = set()
        for u in current:
            for v in preds[u]:
                if v in rank or v in fresh:
                    continue
                if owner[v] == player:
                    fresh.add(v)
                    strategy[v] = u
                else:
                    remaining[v] -= 1
                    if remaining[v] == 0:
                        fresh.add(v)
        if not fresh:
            break
        for v in fresh:
            rank[v] = level
        current = sorted(fresh)
    return AttractorResult(frozenset(rank), strategy), rank


def bfs_dominated_cycle_strategy(nodes, succ, color, parity=1) -> dict:
    """Per piece of the given parity, a BFS towards the smallest-id node
    of its top color over the piece's reversed edges; each member takes
    its smallest-id successor one step closer, the witness its
    smallest-id successor in the piece."""
    strategy = {}
    for top, piece in _dominated_pieces(nodes, succ, color, parity):
        members = set(piece)
        x = min(v for v in piece if color[v] == top)
        rpred = {v: [] for v in piece}
        for v in piece:
            for t in succ[v]:
                if t in members:
                    rpred[t].append(v)
        dist = {x: 0}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for v in rpred[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for v in piece:
            strategy[v] = min(t for t in succ[v] if t in members
                              and (v == x or dist[t] == dist[v] - 1))
    return strategy


def two_pass_sccs(order, succ, allowed):
    """Reference Tarjan: descend along unvisited allowed successors, and
    once a node has none left read its successors a second time for the
    low-link; components as `_sccs` yields them."""
    preorder, lowlink, done = {}, {}, set()
    component_stack, pending = [], {}
    counter = 0
    for source in order:
        if source in done:
            continue
        stack = [source]
        while stack:
            v = stack[-1]
            if v not in preorder:
                counter += 1
                preorder[v] = counter
                pending[v] = iter(succ[v])
            child = next((t for t in pending[v]
                          if t in allowed and t not in preorder), None)
            if child is not None:
                stack.append(child)
                continue
            low = preorder[v]
            for t in succ[v]:
                if t in allowed and t not in done:
                    low = min(low, lowlink[t] if preorder[t] > preorder[v]
                              else preorder[t])
            lowlink[v] = low
            stack.pop()
            if low == preorder[v]:
                comp = [v]
                while component_stack \
                        and preorder[component_stack[-1]] > preorder[v]:
                    comp.append(component_stack.pop())
                done.update(comp)
                yield comp
            else:
                component_stack.append(v)


def marked(allowed, size: int) -> tuple[list[int], int]:
    """The state list `_sccs` reads over ids 0..size-1 and its mark:
    the mark, one past `size`, at the ids of `allowed` and 0 elsewhere."""
    mark = size + 1
    return [mark if v in allowed else 0 for v in range(size)], mark


def unpeeled_dominated_pieces(nodes, succ, color, parity):
    """The top-color decomposition run on every node, nodes on no cycle
    included, on dicts and sets alone: a trimmed piece is split into
    strongly connected components by `two_pass_sccs`, a component
    topped by the wanted parity is listed with its top and one topped
    by the other goes back on the worklist.  One list, as the kernel's."""
    pieces = []
    work = [list(nodes)]
    while work:
        piece = work.pop()
        top = max([c for c in map(color.__getitem__, piece)
                   if c % 2 == parity], default=-1)
        if top < 0:
            continue
        order = [v for v in piece if color[v] <= top]
        for comp in two_pass_sccs(order, succ, set(order)):
            if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                continue
            high = max(map(color.__getitem__, comp))
            if high % 2 == parity:
                pieces.append((high, comp))
            else:
                work.append(comp)
    return pieces


_HEADER_RE = re.compile(r"^\s*parity\s+([0-9]+)\s*;\s*$")
_NODE_RE = re.compile(
    r'^\s*([0-9]+)\s+([0-9]+)\s+([01])\s+([0-9](?:[0-9,\s]*[0-9])?)'
    r'\s*(?:"([^"]*)"\s*)?;\s*$'
)


def _number(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError("line %d: malformed or oversized number %.40r"
                          % (lineno, text)) from None


def reference_parse_pgsolver(text: str) -> ParityGame:
    """The PGSolver reader as the seed wrote it: every piece converted
    on its own, checked as it is read, the ids and the successors
    checked in loops of their own after the last line."""
    entries: dict[int, tuple[int, int, tuple[int, ...], str | None]] = {}
    header_allowed = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if header_allowed and _HEADER_RE.match(line):
            header_allowed = False
            continue
        header_allowed = False
        m = _NODE_RE.match(line)
        if not m:
            raise FormatError("line %d: malformed node line: %r" % (lineno, line.strip()))
        node = _number(m.group(1), lineno)
        if node in entries:
            raise FormatError("line %d: duplicate node id %d" % (lineno, node))
        succs = []
        for piece in m.group(4).split(","):
            piece = piece.strip()
            if not piece:
                raise FormatError("line %d: empty successor entry" % lineno)
            succs.append(_number(piece, lineno))
        name = m.group(5) or None
        entries[node] = (_number(m.group(2), lineno), int(m.group(3)),
                         tuple(succs), name)

    n = len(entries)
    for node in entries:
        if not 0 <= node < n:
            raise FormatError("node ids must form 0..%d, found %d" % (n - 1, node))
    colors, owners, succs, names = [], [], [], []
    for node in range(n):
        color, owner, targets, name = entries[node]
        for t in targets:
            if t not in entries:
                raise FormatError("node %d lists undeclared successor %d" % (node, t))
        colors.append(color)
        owners.append(owner)
        succs.append(targets)
        names.append(name)
    return ParityGame(tuple(owners), tuple(colors), tuple(succs), tuple(names))
