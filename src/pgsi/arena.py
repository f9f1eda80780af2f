"""Parity games, PGSolver text I/O, escape arenas and graph analyses.

The game graph is a finite directed graph whose nodes carry an owner
(player 0 or 1) and a non-negative color.  Player 0 wins a play iff the
maximum color seen infinitely often is even.  The solver works on the
*escape arena*: the game plus a fresh sink node that every player-0 node
may move to, ending the play.

This module also hosts the two graph primitives everything else is built
on: player attractors (with ranks and an attracting strategy) and the
detection of nodes lying on cycles whose maximum color has a given parity.
The latter is one top-color decomposition: split into strongly connected
components, keep those whose top color has the wanted parity, and split
the others again below their top.  Node sets, witness strategies and
preprocessing all read its pieces; it costs O(depth * (n + m)), where
depth is how deeply components topped by the other parity nest, instead
of one pass per color.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import FormatError, InvariantViolation
from .profiles import ProfileBasis


@dataclass(frozen=True)
class ParityGame:
    """Immutable parity game with nodes indexed 0..n-1.

    Successor lists keep their input order but duplicates are collapsed,
    so edges form a set.  Every node has at least one successor.
    """

    owner: tuple[int, ...]
    color: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    names: tuple[str | None, ...] | None = None

    def __post_init__(self):
        n = len(self.owner)
        if len(self.color) != n or len(self.successors) != n:
            raise ValueError("owner, color and successors must have equal length")
        if self.names is None:
            object.__setattr__(self, "names", (None,) * n)
        elif len(self.names) != n:
            raise ValueError("names must have one entry per node")
        deduped = []
        for v in range(n):
            if self.owner[v] not in (0, 1):
                raise ValueError("node %d has owner %r" % (v, self.owner[v]))
            if self.color[v] < 0:
                raise ValueError("node %d has negative color" % v)
            seen, keep = set(), []
            for t in self.successors[v]:
                if not 0 <= t < n:
                    raise ValueError("node %d has successor %d outside the game" % (v, t))
                if t not in seen:
                    seen.add(t)
                    keep.append(t)
            if not keep:
                raise ValueError("node %d has no successors" % v)
            deduped.append(tuple(keep))
        object.__setattr__(self, "successors", tuple(deduped))

    @property
    def n(self) -> int:
        return len(self.owner)

    @cached_property
    def d(self) -> int:
        """Number of colors: one past the largest color in the game."""
        return max(self.color) + 1 if self.owner else 1

    def player_nodes(self, player: int) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.owner[v] == player)


_HEADER_RE = re.compile(r"^\s*parity\s+([0-9]+)\s*;\s*$")
# The successor list starts and ends with a digit, and one run of
# whitespace separates it from the name and the semicolon: with
# overlapping optional runs, a failing match backtracks in cubic time,
# a minute on a line of 4000 blanks.
_NODE_RE = re.compile(
    r'^\s*([0-9]+)\s+([0-9]+)\s+([01])\s+([0-9](?:[0-9,\s]*[0-9])?)'
    r'\s*(?:"([^"]*)"\s*)?;\s*$'
)


def _number(text: str, lineno: int) -> int:
    """An id, color or successor as an int; FormatError for a piece that
    is not one number or has more digits than CPython converts."""
    try:
        return int(text)
    except ValueError:
        raise FormatError("line %d: malformed or oversized number %.40r"
                          % (lineno, text)) from None


def parse_pgsolver(text: str) -> ParityGame:
    """Parse PGSolver game text.

    The format is line based: an optional ``parity <maxid>;`` header
    followed by one ``<id> <color> <owner> <succ>,<succ>,... ["name"];``
    statement per line.  Input is whitespace-tolerant; blank lines are
    skipped.  Numbers are ASCII digits; the header's is not read.  Raises
    FormatError on malformed lines, numbers with more digits than CPython
    converts to int, duplicate or gapped node ids, and successors that
    name no declared node.
    """
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


def serialize_pgsolver(game: ParityGame) -> str:
    """Render a game in canonical PGSolver text.

    Header always present, nodes in id order, successors comma-separated
    without spaces, names quoted when set, LF line endings.  The output
    re-parses to an identical game and is a fixpoint of parse+serialize.
    """
    lines = ["parity %d;" % (game.n - 1 if game.n else 0)]
    for v in range(game.n):
        entry = "%d %d %d %s" % (v, game.color[v], game.owner[v],
                                 ",".join(str(t) for t in game.successors[v]))
        name = game.names[v]
        if name:
            entry += ' "%s"' % name
        lines.append(entry + ";")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphView:
    """A concrete directed-graph slice handed to attractor/cycle analyses.

    `succ` maps every node of `nodes` to its successor tuple inside the
    view.  `owner` and `color` may also hold nodes outside the view, and
    `color` may omit nodes that cannot lie on a cycle (the sink).
    """

    nodes: tuple[int, ...]
    succ: dict[int, tuple[int, ...]]
    owner: dict[int, int]
    color: dict[int, int]


@dataclass(frozen=True)
class EscapeArena:
    """A parity game extended with an escape sink, possibly restricted.

    `nodes` lists the surviving game nodes (ascending, original ids) and
    `succ` their surviving game successors.  The sink has id `game.n`, is
    owned by player 0 and has no outgoing edges; every surviving player-0
    node has an implicit extra edge to it.
    """

    game: ParityGame
    sink: int
    nodes: tuple[int, ...]
    succ: dict[int, tuple[int, ...]]

    @property
    def d(self) -> int:
        return self.game.d

    @cached_property
    def player0_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in self.nodes if self.game.owner[v] == 0)

    @cached_property
    def player1_nodes(self) -> tuple[int, ...]:
        return tuple(v for v in self.nodes if self.game.owner[v] == 1)

    @cached_property
    def basis(self) -> ProfileBasis:
        """The key encoding at the digit width this arena's values need;
        every valuation of the arena is a list of its keys."""
        return ProfileBasis(self.d, len(self.nodes))

    @cached_property
    def unit_keys(self) -> list[int]:
        """Per node id, the key of one visit to its color; 0 at the sink
        and at nodes the arena does not keep."""
        unit_key = self.basis.unit_key
        color = self.game.color
        keys = [0] * (self.sink + 1)
        for v in self.nodes:
            keys[v] = unit_key(color[v])
        return keys

    @cached_property
    def escape_choices(self) -> dict[int, tuple[int, ...]]:
        """Per player-0 node: its game successors, ascending, then the
        sink, whose id is the largest."""
        return {v: tuple(sorted(self.succ[v])) + (self.sink,)
                for v in self.player0_nodes}

    @cached_property
    def preds(self) -> dict[int, tuple[int, ...]]:
        """Per node and the sink, the sources of its incoming arena edges,
        ascending: game edges of surviving nodes and escape edges."""
        preds: dict[int, list[int]] = {v: [] for v in self.nodes}
        preds[self.sink] = []
        owner_of = self.game.owner
        for v in self.nodes:
            for t in self.succ[v]:
                preds[t].append(v)
            if owner_of[v] == 0:
                preds[self.sink].append(v)
        return {v: tuple(sources) for v, sources in preds.items()}

    @cached_property
    def _owner(self) -> dict[int, int]:
        # owners of the surviving nodes and of the sink, shared by all views
        owner_of = self.game.owner
        owner = {v: owner_of[v] for v in self.nodes}
        owner[self.sink] = 0
        return owner

    @cached_property
    def _color(self) -> dict[int, int]:
        # colors of the surviving nodes, shared by all views; the sink has
        # none because it lies on no cycle
        color = self.game.color
        return {v: color[v] for v in self.nodes}

    def restrict(self, keep: Iterable[int]) -> "EscapeArena":
        kept = set(keep)
        nodes = tuple(v for v in self.nodes if v in kept)
        succ = {v: tuple(t for t in self.succ[v] if t in kept) for v in nodes}
        return EscapeArena(self.game, self.sink, nodes, succ)

    def strategy_view(self, choices: Mapping[int, tuple[int, ...]]) -> GraphView:
        """The arena restricted to a player-0 edge set: player-1 nodes keep
        all their edges, player-0 nodes keep exactly `choices[v]`."""
        owner_of = self.game.owner
        succ = {v: self.succ[v] if owner_of[v] == 1 else tuple(choices[v])
                for v in self.nodes}
        succ[self.sink] = ()
        return GraphView(self.nodes + (self.sink,), succ, self._owner,
                         self._color)

    def induced_strategy_view(self, choices: Mapping[int, tuple[int, ...]],
                              nodes: set[int]) -> GraphView:
        """The subgraph of ``strategy_view(choices)`` induced by a set of
        arena nodes, built without the full view."""
        owner_of = self.game.owner
        succ = {v: tuple([t for t in (self.succ[v] if owner_of[v] == 1
                                      else choices[v]) if t in nodes])
                for v in nodes}
        return GraphView(tuple(nodes), succ, self._owner, self._color)

    def player1_view(self) -> GraphView:
        """The subgraph induced by player-1 nodes (no sink, no escapes)."""
        nodes = self.player1_nodes
        member = set(nodes)
        succ = {v: tuple(t for t in self.succ[v] if t in member) for v in nodes}
        return GraphView(nodes, succ, self._owner, self._color)

    def game_view(self) -> GraphView:
        """The plain game graph of the surviving nodes: no sink, no escapes."""
        return GraphView(self.nodes, dict(self.succ), self._owner, self._color)


def build_escape_arena(game: ParityGame) -> EscapeArena:
    """Wrap a game in its escape arena; the sink gets id `game.n`."""
    nodes = tuple(range(game.n))
    return EscapeArena(game, game.n, nodes, {v: game.successors[v] for v in nodes})


@dataclass(frozen=True)
class AttractorResult:
    """Attractor membership with BFS ranks and one attracting edge per
    attracting-player member of positive rank."""

    members: frozenset[int]
    rank: dict[int, int]
    strategy: dict[int, int]


def attractor(view: GraphView, player: int, target: Iterable[int]) -> AttractorResult:
    """Nodes from which `player` can force the play into `target`.

    Rank 0 is the target itself; rank r+1 adds nodes owned by `player`
    with some successor of rank <= r and opponent nodes whose successors
    all have rank <= r.  Opponent dead ends count as attracted.  For each
    attracting-player member of positive rank the strategy picks the
    smallest-id successor of strictly smaller rank.
    """
    node_set = set(view.nodes)
    rank: dict[int, int] = {}
    for t in target:
        if t not in node_set:
            raise ValueError("target node %d is not in the view" % t)
        rank[t] = 0

    preds: dict[int, list[int]] = {v: [] for v in view.nodes}
    for v in view.nodes:
        for t in view.succ[v]:
            preds[t].append(v)
    remaining = {v: len(view.succ[v]) for v in view.nodes
                 if view.owner[v] != player and v not in rank}

    current = sorted(rank)
    level = 0
    while True:
        level += 1
        fresh: set[int] = set()
        if level == 1:
            fresh.update(v for v, k in remaining.items() if k == 0)
        for u in current:
            for v in preds[u]:
                if v in rank or v in fresh:
                    continue
                if view.owner[v] == player:
                    fresh.add(v)
                else:
                    remaining[v] -= 1
                    if remaining[v] == 0:
                        fresh.add(v)
        if not fresh:
            break
        for v in fresh:
            rank[v] = level
        current = sorted(fresh)

    strategy: dict[int, int] = {}
    for v, r in rank.items():
        if r > 0 and view.owner[v] == player:
            strategy[v] = min(t for t in view.succ[v] if rank.get(t, r) < r)
    return AttractorResult(frozenset(rank), rank, strategy)


def _sccs(order: Iterable[int], succ: Mapping[int, tuple[int, ...]],
          allowed: set[int]) -> Iterator[list[int]]:
    """Strongly connected components of the subgraph induced by `allowed`,
    explored in the given root order.  Iterative Tarjan variant."""
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    done: set[int] = set()
    component_stack: list[int] = []
    # successor iterators of the nodes on the DFS stack only
    pending: dict[int, Iterator[int]] = {}
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
            descend = False
            for t in pending[v]:
                if t in allowed and t not in preorder:
                    stack.append(t)
                    descend = True
                    break
            if descend:
                continue
            low = preorder[v]
            for t in succ[v]:
                if t in allowed and t not in done:
                    low = min(low, lowlink[t] if preorder[t] > preorder[v] else preorder[t])
            lowlink[v] = low
            stack.pop()
            del pending[v]
            if low == preorder[v]:
                comp = [v]
                while component_stack and preorder[component_stack[-1]] > preorder[v]:
                    comp.append(component_stack.pop())
                done.update(comp)
                yield comp
            else:
                component_stack.append(v)


def _dominated_pieces(view: GraphView,
                      parity: int) -> Iterator[tuple[int, list[int]]]:
    """Maximal node sets on which every node lies on a cycle whose top
    color has the given parity, each paired with that top color.

    Top-color decomposition with a worklist: a piece is trimmed to the
    nodes at or below its highest color of the wanted parity (a piece
    with none is dropped) and split into strongly connected components.
    A component with at least one edge whose top color has the wanted
    parity is yielded whole; one topped by the other parity goes back
    on the worklist, where the trim removes its top.  A yielded piece
    is the component of the subgraph colored <= its top that contains
    it.  Pieces on the worklist are disjoint, so every level of nesting
    costs O(n + m) and the whole O(depth * (n + m)), depth being how
    deeply components topped by the other parity nest.  A worklist, not
    recursion, because that nesting grows with the node count.
    Nodes absent from `view.color` are never part of a piece.
    """
    color, succ = view.color, view.succ
    work = [[v for v in view.nodes if v in color]]
    while work:
        piece = work.pop()
        top = max([c for c in map(color.__getitem__, piece)
                   if c % 2 == parity], default=-1)
        if top < 0:
            continue
        order = [v for v in piece if color[v] <= top]
        for comp in _sccs(order, succ, set(order)):
            if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                continue
            high = max(map(color.__getitem__, comp))
            if high % 2 == parity:
                yield high, comp
            else:
                work.append(comp)


def find_dominated_cycle_nodes(view: GraphView, parity: int) -> frozenset[int]:
    """Nodes lying on some cycle whose maximum color has the given parity:
    the union of the pieces of the top-color decomposition, which costs
    O(depth * (n + m)) for depth the nesting of components topped by the
    other parity.  Nodes absent from `view.color` cannot lie on a cycle
    and are skipped.
    """
    nodes: set[int] = set()
    for _, piece in _dominated_pieces(view, parity):
        nodes.update(piece)
    return frozenset(nodes)


def find_one_dominated_cycle_nodes(view: GraphView) -> frozenset[int]:
    """Nodes on some cycle whose maximum color is odd."""
    return find_dominated_cycle_nodes(view, 1)


def dominated_cycle_strategy(view: GraphView) -> dict[int, int]:
    """One edge per odd-cycle node that keeps every resulting cycle odd.

    Per piece of the odd top-color decomposition the smallest-id node of
    the piece's top color is the witness; every other member moves to
    its smallest-id successor one step closer to the witness along a
    shortest path inside the piece, and the witness moves to its
    smallest-id successor in the piece.  Any cycle the chosen edges can
    form stays in one piece and passes through its witness, so its
    maximum color is the piece's odd top.  Pieces are disjoint, so the
    cost is one BFS per piece on top of the decomposition.
    """
    strategy: dict[int, int] = {}
    for top, piece in _dominated_pieces(view, 1):
        members = set(piece)
        x = min(v for v in piece if view.color[v] == top)
        rpred: dict[int, list[int]] = {v: [] for v in piece}
        for v in piece:
            for t in view.succ[v]:
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
            strategy[v] = min(t for t in view.succ[v] if t in members
                              and (v == x or dist[t] == dist[v] - 1))
    return strategy


@dataclass(frozen=True)
class PreprocessResult:
    """Reduced arena plus everything needed to win on the removed part."""

    arena: EscapeArena
    pre_won: frozenset[int]
    attractor: AttractorResult
    dominated_strategy: dict[int, int]


def preprocess(arena: EscapeArena) -> PreprocessResult:
    """Strip the part of the arena player 1 wins without seeing a single
    player-0 choice.

    Nodes on odd-dominated cycles of the player-1 subgraph, together with
    their player-1 attractor in the plain game graph (escape edges do not
    help player 0 here: they only end the play, which loses the original
    game), are removed.  The remaining arena has no odd-dominated cycle
    among player-1 nodes, which the function asserts.
    """
    dom_strategy = dominated_cycle_strategy(arena.player1_view())
    att = attractor(arena.game_view(), 1, sorted(dom_strategy))
    pre_won = att.members
    reduced = arena.restrict(v for v in arena.nodes if v not in pre_won)
    for v in reduced.player1_nodes:
        if not reduced.succ[v]:
            raise InvariantViolation("surviving player-1 node %d lost all successors" % v)
    if find_one_dominated_cycle_nodes(reduced.player1_view()):
        raise InvariantViolation("reduced arena still has an odd player-1 cycle")
    return PreprocessResult(reduced, pre_won, att, dom_strategy)


def reachable(succ: Mapping[int, tuple[int, ...]], starts: Iterable[int]) -> set[int]:
    """Forward closure of `starts` under the successor map."""
    seen = set(starts)
    queue = deque(sorted(seen))
    while queue:
        v = queue.popleft()
        for t in succ[v]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen
