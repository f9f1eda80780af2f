"""Parity games, PGSolver text I/O, escape arenas and graph analyses.

The game graph is a finite directed graph whose nodes carry an owner
(player 0 or 1) and a non-negative color.  Player 0 wins a play iff the
maximum color seen infinitely often is even.  The solver works on the
*escape arena*: the game plus a fresh sink node that every player-0 node
may move to, ending the play.  `preprocess` sets a solve up in one
pass: working on the game's own tuples, it peels off two dominions,
first the nodes player 1 wins whatever player 0 does, then, among the
rest, the nodes player 0 wins whatever player 1 does, each with its
winner's edges on it.  Each is the attractor of the cycles its winner
keeps alone; both attractors, and the BFS that gives each cycle piece
its edges, run on the whole game and one predecessor list indexed by
node id.  It then builds the one escape arena of a solve over the nodes
left, every table of it in one loop over those nodes but its
predecessor list.  `predecessors` is the set-up's one reverse-edge
builder: it gives the attractors, the cycle pieces, the arena and the
oracle their lists, each indexed by node id over the id space the
caller names.

This module also hosts the two graph primitives everything else is built
on: player attractors on the whole game (one FIFO worklist, its ranks
and counters internal lists indexed by node id, returning the members
and an attracting strategy), and the detection of nodes lying on
cycles whose maximum color has a given parity.
The latter is one top-color decomposition: peel the nodes on no cycle
(and stop there when none is left, as on an acyclic input), split the
rest into strongly connected components, keep those whose top color
has the wanted parity, and split the others again below their top,
each piece's top of that parity found in one loop over the piece.
Node sets, witness strategies and preprocessing all read its
pieces; it costs one O(n + m) peel, then O(depth * (n' + m')) on the n'
nodes reachable from a cycle, where depth is how deeply components
topped by the other parity nest, instead of one pass per color.  Its
state, the peel's in-degree counts, each piece's mark and Tarjan's
preorder numbers, lives in one list of ints indexed by node id, one
entry per id of the color table and one for the escape sink.  Each
analysis takes the tables it reads: the nodes to look at and the game's
or the arena's own successor, owner or color tables, or dicts over
those nodes.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain
from typing import (Collection, Iterable, Mapping, NamedTuple, NoReturn,
                    Sequence)

from .errors import FormatError, InvariantViolation
from .profiles import ProfileBasis


class ParityGame:
    """Immutable parity game with nodes indexed 0..n-1.

    Successor lists keep their input order but duplicates are collapsed,
    so edges form a set.  Every node has at least one successor.  Owners
    (0 or 1), colors (non-negative) and successors are ints, of type int
    itself, as the parser makes them.  A name holds no ``"`` and no line
    break, so that it survives PGSolver text; an empty name is stored as
    None, as the parser reads it.  Every field is stored as a tuple, so a
    game built from lists equals the one its text parses to.

    Validation is one loop over the nodes, which checks a node's owner,
    color and successors in that order, the first flaw in id order
    raising ValueError; only a node whose successors repeat one
    (``len(set(ts)) != len(ts)``) has them rebuilt without repeats.

    A game is a value: equal to a game with the same four fields,
    hashed by them, and refusing to set or delete an attribute with
    AttributeError.
    """

    owner: tuple[int, ...]
    color: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    names: tuple[str | None, ...]

    def __init__(self, owner: Sequence[int], color: Sequence[int],
                 successors: Sequence[Sequence[int]],
                 names: Sequence[str | None] | None = None):
        owner, color = tuple(owner), tuple(color)
        n = len(owner)
        if len(color) != n or len(successors) != n:
            raise ValueError("owner, color and successors must have equal length")
        names = (None,) * n if names is None else tuple(names)
        if len(names) != n:
            raise ValueError("names must have one entry per node")
        if names.count(None) < n:
            for v, name in enumerate(names):
                if name and ('"' in name
                             or "".join(name.splitlines()) != name):
                    raise ValueError(
                        "node %d has name %r, which holds a quote or a line "
                        "break" % (v, name))
            names = tuple(name if name else None for name in names)
        deduped = []
        keep = deduped.append
        for v, (o, c, ts) in enumerate(zip(owner, color, successors)):
            if type(o) is not int or o not in (0, 1):
                raise ValueError("node %d has owner %r" % (v, o))
            if type(c) is not int or c < 0:
                raise ValueError("node %d has color %r, which is not a "
                                 "non-negative int" % (v, c))
            ts = tuple(ts)
            for t in ts:
                if type(t) is not int or not 0 <= t < n:
                    raise ValueError("node %d has successor %r, which is no "
                                     "node of the game" % (v, t))
            if not ts:
                raise ValueError("node %d has no successors" % v)
            keep(ts if len(set(ts)) == len(ts) else tuple(dict.fromkeys(ts)))
        # __setattr__ refuses: each field is set once, past its guard
        set_field = object.__setattr__
        set_field(self, "owner", owner)
        set_field(self, "color", color)
        set_field(self, "successors", tuple(deduped))
        set_field(self, "names", names)

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and self.owner == other.owner and self.color == other.color
                and self.successors == other.successors
                and self.names == other.names)

    def __hash__(self):
        return hash((self.owner, self.color, self.successors, self.names))

    def __repr__(self):
        return "ParityGame(owner=%r, color=%r, successors=%r, names=%r)" % (
            self.owner, self.color, self.successors, self.names)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot set or delete %r of a game" % name)

    __delattr__ = __setattr__

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


def _refuse_numbers(groups: tuple, lineno: int,
                    entries: Collection[int]) -> NoReturn:
    """Raise the FormatError for a node line whose numbers did not all
    convert: the id's, a duplicate id's, the first empty or unconvertible
    successor's, then the color's, in that order.  One of them raises,
    as a conversion that failed fails again here."""
    node = _number(groups[0], lineno)
    if node in entries:
        raise FormatError("line %d: duplicate node id %d" % (lineno, node))
    for piece in groups[3].split(","):
        piece = piece.strip()
        if not piece:
            raise FormatError("line %d: empty successor entry" % lineno)
        _number(piece, lineno)
    _number(groups[1], lineno)


def parse_pgsolver(text: str) -> ParityGame:
    """Parse PGSolver game text.

    The format is line based: an optional ``parity <maxid>;`` header
    followed by one ``<id> <color> <owner> <succ>,<succ>,... ["name"];``
    statement per line.  Input is whitespace-tolerant; blank lines are
    skipped.  Numbers are ASCII digits; the header's is not read.  Raises
    FormatError on malformed lines, numbers with more digits than CPython
    converts to int, duplicate or gapped node ids, and successors that
    name no declared node.  A text with several flaws is refused at its
    first flawed line, in file order; if every line reads, at the first
    id out of 0..n-1 in file order, then at the first undeclared
    successor in id order.

    One pass reads the lines: a node line costs one match, plain int
    conversions of its id, color and successor field and one dict
    insert.  Only when a conversion fails are its pieces converted one
    by one, to name the first bad one and its line.  The ids and the
    successors are then checked at once, node by node only to name a
    flaw, and ParityGame checks each node in one loop.
    """
    entries: dict[int, tuple[int, int, tuple[int, ...], str | None]] = {}
    match = _NODE_RE.match
    header_allowed = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = match(line)
        if m is None:
            # a blank line or the header: neither matches a node line
            if not line or line.isspace():
                continue
            if header_allowed and not entries and _HEADER_RE.match(line):
                header_allowed = False
                continue
            raise FormatError("line %d: malformed node line: %r" % (lineno, line.strip()))
        groups = node, color, owner, targets, name = m.groups()
        try:
            node = int(node)
            entry = (int(color), int(owner),
                     tuple(map(int, targets.split(","))), name)
        except ValueError:
            _refuse_numbers(groups, lineno, entries)
        if node in entries:
            raise FormatError("line %d: duplicate node id %d" % (lineno, node))
        entries[node] = entry

    n = len(entries)
    if not n:
        return ParityGame((), (), ())
    if max(entries) >= n:
        found = next(node for node in entries if node >= n)
        raise FormatError("node ids must form 0..%d, found %d" % (n - 1, found))
    colors, owners, succs, names = zip(*map(entries.__getitem__, range(n)))
    if max(chain.from_iterable(succs)) >= n:
        node, found = next((v, t) for v, targets in enumerate(succs)
                           for t in targets if t >= n)
        raise FormatError("node %d lists undeclared successor %d" % (node, found))
    return ParityGame(owners, colors, succs, names)


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


class EscapeArena(NamedTuple):
    """A parity game extended with an escape sink, over the game nodes
    preprocessing keeps.  `build_escape_arena` fills every table but
    `preds` in one pass over those nodes.

    `nodes` lists the kept game nodes (ascending, original ids) and
    `succ` their successors among them.  The sink has id `game.n`, is
    owned by player 0 and has no outgoing edges; every kept player-0
    node has an implicit extra edge to it.  `player0_nodes` and
    `player1_nodes` split `nodes` by owner, ascending.
    `escape_choices` gives per player-0 node its successors, ascending,
    then the sink, whose id is the largest.  `preds` is the list
    `predecessors` builds over the kept game edges, `game.n` entries
    indexed by node id: per kept node the sources of its incoming
    edges, ascending, and None at the removed ids.  It has no entry for
    the sink, whose escape edges no reader walks back, so reading the
    sink's entry raises IndexError.

    `basis` is the key encoding at the digit width this arena's values
    need, with one digit per color its nodes carry; every valuation of
    the arena is a list of its keys.  `unit_keys` holds per node id the
    key of one visit to its color, 0 at the sink and at nodes the arena
    does not keep.  ``==`` and ``!=`` leave `basis` and `unit_keys` out.
    """

    game: ParityGame
    sink: int
    nodes: tuple[int, ...]
    succ: dict[int, tuple[int, ...]]
    player0_nodes: tuple[int, ...]
    player1_nodes: tuple[int, ...]
    escape_choices: dict[int, tuple[int, ...]]
    preds: list[list[int] | None]
    basis: ProfileBasis
    unit_keys: list[int]

    def __eq__(self, other):
        return type(other) is EscapeArena and self[:8] == other[:8]

    def __ne__(self, other):
        return not self == other


def build_escape_arena(game: ParityGame,
                       removed: Collection[int] = frozenset()) -> EscapeArena:
    """The escape arena of a game without the nodes `removed` and the
    edges into them; the sink gets id `game.n`."""
    owner, color, successors = game.owner, game.color, game.successors
    sink = len(owner)
    nodes = tuple([v for v in range(sink) if v not in removed])
    basis = ProfileBasis(game.d, {color[v] for v in nodes}, len(nodes))
    unit_key = basis.unit_key
    unit_keys = [0] * (sink + 1)
    succ = {}
    player0, player1, escape_choices = [], [], {}
    for v in nodes:
        kept = tuple([t for t in successors[v] if t not in removed])
        succ[v] = kept
        if owner[v]:
            player1.append(v)
        else:
            player0.append(v)
            escape_choices[v] = tuple(sorted(kept)) + (sink,)
        unit_keys[v] = unit_key(color[v])
    return EscapeArena(game, sink, nodes, succ, tuple(player0),
                       tuple(player1), escape_choices,
                       predecessors(nodes, succ, sink), basis, unit_keys)


# successor tuples indexed by node id: the game's or the arena's own
# table or a list copy of one, or a dict over the nodes an analysis is
# given
_Successors = Mapping[int, tuple[int, ...]] | Sequence[tuple[int, ...]]


class AttractorResult(NamedTuple):
    """The members of an attractor and one attracting edge per
    attracting-player member outside the target, towards a member
    attracted earlier; see `attractor` for its precondition."""

    members: frozenset[int]
    strategy: dict[int, int]


def predecessors(nodes: Collection[int], succ: _Successors,
                 size: int) -> list[list[int] | None]:
    """The sources of the edges into each node of `nodes`, in the order
    of `nodes`: one list of `size` entries indexed by node id, None at
    the ids that are not nodes.  `size` is the length of the id space
    the caller indexes, the game's node count in the set-up, so every
    node lies below it; no edge may leave `nodes`.  The set-up's one
    reverse-edge builder: the whole-game attractors, the escape arena
    and the oracle all take their tables from it."""
    preds: list[list[int] | None] = [None] * size
    for v in nodes:
        preds[v] = []
    for v in nodes:
        for t in succ[v]:
            preds[t].append(v)
    return preds


def attractor(nodes: Collection[int], succ: _Successors,
              owner: Mapping[int, int] | tuple[int, ...], player: int,
              target: Iterable[int],
              preds: Sequence[list[int] | None] | None = None
              ) -> AttractorResult:
    """Nodes of `nodes` from which `player` can force the play into
    `target`.

    `succ` and `owner` give each node's successor tuple and owner,
    indexed by node id: the game's or the arena's own tables, or dicts
    over `nodes`.  No edge may leave `nodes`, and every node has a
    successor among them: the whole game, which `ParityGame` checks, is
    the one node set the package hands it.  So no opponent node is
    stuck, and nothing is looked at up front.  The escape sink is never
    one of the nodes.  `preds` is the list `predecessors` builds from
    `nodes` and `succ`, at any size above the largest node; without it
    the attractor builds one sized by that node.

    Rank 0 is the target itself; rank r+1 adds nodes owned by `player`
    with some successor of rank <= r and opponent nodes whose successors
    all have rank <= r.  One FIFO worklist finds the ranks, which stay
    internal: a member is queued when it is attracted and, once
    dequeued, attracts its predecessors, a player node at once and an
    opponent node when the counter of its unranked successors reaches 0.
    Members leave the queue in the order of their ranks, so a player
    node takes one more than its smallest successor rank and an opponent
    node one more than its largest.  Ranks and counters live in lists
    indexed by node id, as long as the predecessor list; an opponent's
    counter is set to its successor count when the node is first
    reached.  When a player node is attracted at rank r, every rank
    below r is known, and its edge is its smallest-id successor of rank
    below r.
    """
    if preds is None:
        preds = predecessors(nodes, succ, max(nodes, default=-1) + 1)
    size = len(preds)
    # no rank exceeds the number of ids
    unranked = size + 1
    rank = [unranked] * size
    queue = []
    for t in target:
        if t not in nodes:
            raise ValueError("target node %d is not in the node set" % t)
        if rank[t]:
            rank[t] = 0
            queue.append(t)
    remaining = [0] * size
    strategy: dict[int, int] = {}
    # iterating a list visits what is appended to it meanwhile: a FIFO
    for u in queue:
        r = rank[u] + 1
        for v in preds[u]:
            if rank[v] != unranked:
                continue
            if owner[v] != player:
                left = (remaining[v] or len(succ[v])) - 1
                remaining[v] = left
                if left:
                    continue
            else:
                # every rank below r is known by now
                edge = u
                for t in succ[v]:
                    if t < edge and rank[t] < r:
                        edge = t
                strategy[v] = edge
            rank[v] = r
            queue.append(v)
    return AttractorResult(frozenset(queue), strategy)


def _sccs(order: Iterable[int], succ: _Successors, state: list[int],
          mark: int) -> list[list[int]]:
    """Strongly connected components of the subgraph induced by the ids
    whose entry in `state` is `mark`, explored in the given root order.

    `state` is indexed by node id and holds an entry for every id a
    successor tuple names; the roots are marked ids.  The mark is above
    the number of marked ids, and no other entry lies between 1 and that
    number: the search overwrites the mark of each id it visits with the
    id's preorder number, counted from 1, and sets the entries of a
    component to 0 when it closes it.  So a successor whose entry is the
    mark is unvisited, one whose entry lies between 1 and the low-link
    so far is in a component still open and lowers it, and every other
    successor is skipped.  Iterative Tarjan variant that reads each edge
    once: an edge to an unvisited node descends, and the child's
    low-link is folded into its parent's when the child returns; an edge
    to a node whose component is still open lowers the low-link to that
    node's preorder number.  A node is pushed on the component stack
    when it returns without being a root, so a component lists its root
    first, then its other members in reverse return order.  The
    components come back in one list, in the order they close.
    """
    # the component stack, the DFS path and, per node on the path, its
    # low-link so far and the iterator over its successors
    components, component_stack, path, lows, pending = [], [], [], [], []
    counter = 0
    for source in order:
        if state[source] != mark:
            continue
        counter += 1
        state[source] = counter
        path.append(source)
        lows.append(counter)
        pending.append(iter(succ[source]))
        while path:
            low = lows[-1]
            for t in pending[-1]:
                seen = state[t]
                if seen == mark:
                    lows[-1] = low
                    counter += 1
                    state[t] = counter
                    path.append(t)
                    lows.append(counter)
                    pending.append(iter(succ[t]))
                    break
                if 0 < seen < low:
                    low = seen
            else:
                v = path.pop()
                lows.pop()
                pending.pop()
                if low == state[v]:
                    comp = [v]
                    while component_stack \
                            and state[component_stack[-1]] > low:
                        comp.append(component_stack.pop())
                    for u in comp:
                        state[u] = 0
                    components.append(comp)
                else:
                    component_stack.append(v)
                    if low < lows[-1]:
                        lows[-1] = low
    return components


def _dominated_pieces(nodes: Collection[int], succ: _Successors,
                      color: Sequence[int] | Mapping[int, int],
                      parity: int) -> list[tuple[int, list[int]]]:
    """Maximal sets of `nodes` on which every node lies on a cycle whose
    top color has the given parity, each paired with that top color, in
    one list: empty, and made at once, for an empty node set.

    `succ` and `color` give each node's successor tuple and color,
    indexed by node id: the game's or the arena's own tables, or a walk
    dict over `nodes`.  Successors outside `nodes`, such as escape edges
    and edges to the other player's or removed nodes, are skipped, so a
    caller passes whole successor tuples and never filters them first.
    The escape sink is never one of the nodes: it has no outgoing edges,
    so it lies on no cycle.

    All per-node state lives in one list of ``len(color) + 1`` ints
    indexed by node id, allocated once per call, so every node and
    every id a successor tuple names must be below that length: with
    the game's or the arena's color table, every game node and the
    escape sink ``len(color)`` are.  Ids that are not nodes hold the
    length itself, a sentinel above every preorder number and never a
    count, since counts are at most 0; the marks lie above it.

    First the nodes on no cycle are peeled, in one O(n + m) pass: each
    node counts its in-edges from the nodes, as a negative entry, and a
    node whose count is 0 leaves and lowers the counts of its
    successors.  A node left has a predecessor left, so every cycle
    stays whole and what is left is the n' nodes reachable from a cycle;
    on an acyclic input it is empty, and the call returns at once.  Then
    top-color decomposition with a worklist: one loop over a piece finds
    its highest color of the wanted parity, the piece is trimmed to the
    nodes at or below it (a piece with none is dropped), its
    trimmed nodes are stamped with a fresh mark above the sentinel, and
    `_sccs` splits them into strongly connected components, leaving 0 at
    every node of them; a node the trim leaves out keeps its count or
    that 0, which `_sccs` skips.  A component with at least one edge
    whose top color has the wanted parity is a piece, kept whole; one
    topped by the other parity goes back on the worklist, where the trim
    removes its top.  A piece is the component of the subgraph colored
    <= its top that contains it.  Pieces on the worklist are
    disjoint, so every level of nesting costs O(n' + m') and the whole
    O(depth * (n' + m')), depth being how deeply components topped by
    the other parity nest.  A worklist, not recursion, because that
    nesting grows with the node count.
    """
    if not nodes:
        return []
    size = len(color) + 1
    state = [size] * size
    for v in nodes:
        state[v] = 0
    for v in nodes:
        for t in succ[v]:
            if state[t] <= 0:
                state[t] -= 1
    peeled = [v for v in nodes if not state[v]]
    for v in peeled:
        for t in succ[v]:
            if state[t] < 0:
                state[t] += 1
                if not state[t]:
                    peeled.append(t)
    left = [v for v in nodes if state[v] < 0]
    pieces: list[tuple[int, list[int]]] = []
    if not left:
        return pieces
    work = [left]
    mark = size
    while work:
        piece = work.pop()
        top = -1
        for v in piece:
            c = color[v]
            if c > top and c % 2 == parity:
                top = c
        if top < 0:
            continue
        mark += 1
        order = []
        for v in piece:
            if color[v] <= top:
                state[v] = mark
                order.append(v)
        for comp in _sccs(order, succ, state, mark):
            if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                continue
            high = max(map(color.__getitem__, comp))
            if high % 2 == parity:
                pieces.append((high, comp))
            else:
                work.append(comp)
    return pieces


def find_dominated_cycle_nodes(nodes: Collection[int], succ: _Successors,
                               color: tuple[int, ...],
                               parity: int) -> frozenset[int]:
    """Nodes lying on some cycle whose maximum color has the given parity:
    the union of the pieces of the top-color decomposition, which costs
    one O(n + m) peel, then O(depth * (n' + m')) on the n' nodes
    reachable from a cycle, for depth the nesting of components topped
    by the other parity.
    """
    found: set[int] = set()
    for _, piece in _dominated_pieces(nodes, succ, color, parity):
        found.update(piece)
    return frozenset(found)


def find_one_dominated_cycle_nodes(nodes: Collection[int], succ: _Successors,
                                   color: tuple[int, ...]) -> frozenset[int]:
    """Nodes on some cycle whose maximum color is odd."""
    return find_dominated_cycle_nodes(nodes, succ, color, 1)


def _witness_edges(pieces: Iterable[tuple[int, list[int]]],
                   succ: _Successors, color: Sequence[int] | Mapping[int, int],
                   preds: Sequence[list[int] | None]) -> dict[int, int]:
    """The edges of `dominated_cycle_strategy` on the (top, piece) pairs
    of the decomposition, by one BFS per piece.  `preds` is a list
    `predecessors` builds over a node set that holds the pieces and the
    edges among their nodes, the game's own or one over fewer nodes:
    the BFS follows only the predecessors inside the piece, so edges
    into it from elsewhere are skipped."""
    strategy: dict[int, int] = {}
    for top, piece in pieces:
        x = -1
        for v in piece:
            if color[v] == top and (x < 0 or v < x):
                x = v
        # per member its distance to the witness, -1 until the BFS
        # reaches it; its keys are the piece, so the BFS stays inside
        dist = dict.fromkeys(piece, -1)
        dist[x] = 0
        queue = [x]
        # iterating a list visits what is appended to it meanwhile: a FIFO
        for u in queue:
            r = dist[u] + 1
            for w in preds[u]:
                if dist.get(w, 0) < 0:
                    dist[w] = r
                    queue.append(w)
        size = len(piece)
        for v in piece:
            # no distance reaches the piece's size, so the witness may
            # take any successor in the piece; one outside is never closer
            closer = dist[v] or size
            edge = -1
            for t in succ[v]:
                if dist.get(t, closer) < closer and (edge < 0 or t < edge):
                    edge = t
            strategy[v] = edge
    return strategy


def dominated_cycle_strategy(nodes: Collection[int], succ: _Successors,
                             color: tuple[int, ...],
                             parity: int = 1) -> dict[int, int]:
    """One edge per node on a cycle whose top color has the given parity,
    odd by default, that keeps every resulting cycle of that parity.

    Per piece of the top-color decomposition the smallest-id node of
    the piece's top color is the witness.  Every other member moves to
    its smallest-id successor one step closer to the witness along a
    shortest path inside the piece, which one BFS from the witness over
    the piece's own predecessors finds.  The witness moves to its
    smallest-id successor in the piece.  Any cycle the chosen edges can
    form stays in one piece and passes through its witness, so its
    maximum color is the piece's top, of the wanted parity.

    The BFS reads a list `predecessors` builds, here over the pieces'
    nodes and the edges among them, once a piece is found; `preprocess`
    hands the pieces the game's own list, which its attractors read.
    A piece's BFS costs the in-edges of its nodes, and no table of it is
    sized by the largest id.
    """
    pieces = _dominated_pieces(nodes, succ, color, parity)
    if not pieces:
        return {}
    members = set(chain.from_iterable(piece for _, piece in pieces))
    among = {v: [t for t in succ[v] if t in members] for v in members}
    return _witness_edges(pieces, succ, color,
                          predecessors(members, among, len(color) + 1))


class PreprocessResult(NamedTuple):
    """The escape arena over the nodes left and the two peels: the nodes
    player 1 wins before the loop, `pre_won`, with player 1's winning
    edge at each player-1 node of them, and the nodes player 0 wins
    before the loop, `pre_won0`, with player 0's winning edge at each
    player-0 node of them.  Both strategies are keyed in ascending node
    order."""

    arena: EscapeArena
    pre_won: frozenset[int]
    strategy1: dict[int, int]
    pre_won0: frozenset[int]
    strategy0: dict[int, int]


def preprocess(game: ParityGame) -> PreprocessResult:
    """Remove the part of the game either player wins without seeing a
    single choice of the other, and build the escape arena over the
    rest.

    Every step works on the game's own tuples.  First player 1's peel:
    nodes on odd-dominated cycles of the player-1 subgraph are removed,
    together with their player-1 attractor in the plain game graph.
    Escape edges cannot save these nodes: escaping ends the play at a
    finite value, which is no win for player 0, so the attractor is
    taken without them.  Player 1 wins the removed part, `pre_won`,
    with `strategy1`: the edges `dominated_cycle_strategy` would give on
    the cycle nodes and the attractor's edges elsewhere.

    Then player 0's peel, the same two steps with the players swapped:
    nodes on even-dominated cycles among the player-0 nodes left, and
    their player-0 attractor, form `pre_won0`, which player 0 wins with
    `strategy0`.  The rest C of the game after player 1's peel is a trap
    for player 1: a player-1 node of C has no edge into `pre_won`.  So
    player 0 wins the cycles inside C by keeping to them, and the
    player-0 attractor of those cycles inside C.  That attractor is
    taken on the whole game's tables, with no filtered subgame, and
    still is the one inside C: `pre_won` is a trap for player 0, since
    each of its player-0 nodes has every edge and each of its player-1
    nodes some edge inside it, so player 0 attracts none of its nodes,
    and a player-1 node of C has every edge inside C.  So the two
    attractors never overlap, which the function asserts.  What is left
    after both peels is a trap for player 0 inside C, whose solution is
    the whole game's there (the attractor decomposition of Zielonka,
    TCS 1998).  One predecessor list of the game, indexed by node id
    and built at most once, serves both attractors and the BFS of each
    cycle piece's edges.

    The one escape arena of a solve is built over the nodes neither peel
    removes; it has no odd-dominated cycle among player-1 nodes, which
    the function asserts.
    """
    succ, owner, color = game.successors, game.owner, game.color
    n = len(owner)
    ids = range(n)
    preds = None
    removed: frozenset[int] = frozenset()
    peels = []
    # a player wins the cycles of its own nodes whose top has its parity
    for player in (1, 0):
        pieces = _dominated_pieces(
            [v for v in ids if owner[v] == player and v not in removed],
            succ, color, player)
        won: frozenset[int] = frozenset()
        strategy: dict[int, int] = {}
        # without a cycle nothing is attracted, and no predecessor table
        # of the game is built
        if pieces:
            if preds is None:
                preds = predecessors(ids, succ, n)
            cycles = _witness_edges(pieces, succ, color, preds)
            att = attractor(ids, succ, owner, player, cycles, preds)
            won = att.members
            if not won.isdisjoint(removed):
                raise InvariantViolation("player 0's peel overlaps player 1's")
            # the cycle nodes are the target, so the attractor gives them
            # no edge; together the two cover every removed node of `player`
            cycles.update(att.strategy)
            strategy = {v: cycles[v] for v in sorted(cycles)}
        removed |= won
        peels.append((won, strategy))
    (pre_won, strategy1), (pre_won0, strategy0) = peels
    arena = build_escape_arena(game, removed)
    kept = arena.succ
    for v in arena.player1_nodes:
        if not kept[v]:
            raise InvariantViolation("surviving player-1 node %d lost all successors" % v)
    if _dominated_pieces(arena.player1_nodes, succ, color, 1):
        raise InvariantViolation("reduced arena still has an odd player-1 cycle")
    return PreprocessResult(arena, pre_won, strategy1, pre_won0, strategy0)


def reachable(succ: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
              starts: Iterable[int]) -> set[int]:
    """Forward closure of `starts` under the successor map."""
    seen = set(starts)
    queue = list(seen)
    # iterating a list visits what is appended to it meanwhile: a FIFO
    for v in queue:
        for t in succ[v]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen
