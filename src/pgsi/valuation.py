"""Strategies and their valuations on the escape arena.

A (non-deterministic) player-0 strategy keeps at least one outgoing edge
per player-0 node; player-1 nodes always keep all their edges.  A strategy
is *reasonable* when the restricted arena has no cycle whose maximum color
is odd, so the worst player 1 can do against it is bounded.

The valuation of a reasonable strategy assigns every node the best play
value player 0 can still guarantee: the least fixpoint, above the
everything-unknown start, of an operator that adds the node's own color
and takes the order-minimum over player-1 edges respectively the
order-maximum over the strategy's edges.  Two routes compute it: repeated
fixpoint sweeps (the reference) and, given the valuation of a strategy the
new one directly improves, a Dijkstra-style sweep over non-negative edge
weights (the fast path).  The sweep finds the region of finite values, the
nodes player 1 can force into the sink, on its own and checks afterwards
that the region is closed.  Both routes return bit-identical results.

Reasonableness has two checks too.  :func:`is_reasonable` decomposes the
whole strategy view; :func:`is_reasonable_step`, given a reasonable
strategy the new one replaces, decomposes only the region where an added
edge can close a cycle.  ``solve`` runs the full check on its first
iteration, on every iteration of the reference backend and on every audit
iteration, where both must agree, and the step check on the rest.

Inside ``solve`` a valuation is a list of packed profile keys indexed by
node id, with the sink at index n and ``INF_KEY`` for +inf (see
profiles.py); nodes the arena does not keep hold ``INF_KEY`` too.  Both
routes produce such lists, and every classification here compares their
ints.  :func:`to_profiles` turns one into the node -> ColorProfile
mapping that results and hooks speak.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping

from .arena import EscapeArena, find_one_dominated_cycle_nodes
from .arena import attractor  # noqa: F401  (benchmark/layers.py wraps this name)
from .errors import InvariantViolation, ReasonablenessError
from .profiles import INF_KEY, ColorProfile

Valuation = list  # node id -> key; sink at index n, INF_KEY for +inf

UpdateHook = Callable[[int, int, ColorProfile, ColorProfile], None]


@dataclass(frozen=True)
class Strategy:
    """Per player-0 node, a sorted non-empty tuple of chosen successors.

    Stored with edge-set semantics: two strategies are equal iff they keep
    the same edges.  Build with :meth:`of` to normalize raw mappings.
    """

    choices: dict[int, tuple[int, ...]]

    @classmethod
    def of(cls, mapping: Mapping[int, tuple[int, ...] | list[int]]) -> "Strategy":
        choices = {}
        for v, targets in mapping.items():
            targets = tuple(sorted(set(targets)))
            if not targets:
                raise ValueError("strategy leaves node %d without a move" % v)
            choices[v] = targets
        return cls(choices)

    @property
    def is_deterministic(self) -> bool:
        return all(len(ts) == 1 for ts in self.choices.values())


def initial_strategy(arena: EscapeArena) -> Strategy:
    """The always-escape strategy: every player-0 node moves to the sink.

    It is reasonable on any arena because the only plays it allows either
    end at the sink or stay among player-1 nodes.
    """
    return Strategy({v: (arena.sink,) for v in arena.player0_nodes})


def is_reasonable(arena: EscapeArena, strategy: Strategy) -> bool:
    """True iff the strategy-restricted arena has no odd-dominated cycle."""
    view = arena.strategy_view(strategy.choices)
    return not find_one_dominated_cycle_nodes(view)


def is_reasonable_step(arena: EscapeArena, old: Strategy,
                       new: Strategy) -> bool:
    """``is_reasonable(arena, new)`` for a `new` strategy over the same
    player-0 nodes as a reasonable `old` one, with every edge inside the
    arena's escape choices.

    Every cycle of the new strategy view that keeps to old edges is a
    cycle of the old view and so not odd-dominated.  An odd-dominated
    cycle therefore runs through an added edge (v, t), t kept by `new`
    but not by `old` and not the sink, which lies on no cycle; each of
    its nodes is reachable from t and reaches v in the new view.  The
    check decomposes only the subgraph induced by that region: the nodes
    that reach an added source, walked backwards along the arena's
    predecessor table (a player-0 predecessor only where `new` keeps the
    edge), and of those the ones an added target reaches.  Every node on
    a path from a target to a source reaches that source, so the second
    walk never needs to leave the first set.
    """
    sink = arena.sink
    prior, choices = old.choices, new.choices
    added = [(v, t) for v, targets in choices.items() if targets != prior[v]
             for t in targets if t != sink and t not in prior[v]]
    if not added:
        return True
    owner_of = arena.game.owner
    preds = arena.preds
    reach = {v for v, _ in added}
    stack = list(reach)
    while stack:
        t = stack.pop()
        for s in preds[t]:
            if s not in reach and (owner_of[s] == 1 or t in choices[s]):
                reach.add(s)
                stack.append(s)
    succ = arena.succ
    region = {t for _, t in added if t in reach}
    stack = list(region)
    while stack:
        v = stack.pop()
        for t in succ[v] if owner_of[v] == 1 else choices[v]:
            if t in reach and t not in region:
                region.add(t)
                stack.append(t)
    return not region or not find_one_dominated_cycle_nodes(
        arena.induced_strategy_view(choices, region))


def apply_operator(arena: EscapeArena, strategy: Strategy,
                   valuation: Valuation) -> Valuation:
    """One simultaneous application of the valuation operator."""
    unit = arena.unit_keys
    out = [INF_KEY] * (arena.sink + 1)
    out[arena.sink] = 0
    owner_of = arena.game.owner
    for v in arena.nodes:
        if owner_of[v] == 1:
            best = min(valuation[t] for t in arena.succ[v])
        else:
            best = max(valuation[t] for t in strategy.choices[v])
        out[v] = best if best == INF_KEY else unit[v] + best
    return out


def valuate_bellman_ford(arena: EscapeArena, strategy: Strategy,
                         on_update: UpdateHook | None = None) -> Valuation:
    """Valuation of a reasonable strategy by fixpoint iteration.

    Starts from sink=empty-play, everything else unbounded, and sweeps
    nodes in descending id order, updating in place, until a full sweep
    changes nothing.  A reasonable strategy stabilizes within one sweep
    per arena node; the extra sweep certifies the fixpoint.  If the limit
    is exceeded the strategy admits an odd-dominated cycle and
    ReasonablenessError is raised.

    `on_update` receives (sweep number, node, old value, new value) for
    every change, in the order they are applied, the values as profiles.
    """
    sink = arena.sink
    vals: Valuation = [INF_KEY] * (sink + 1)
    vals[sink] = 0

    owner_of = arena.game.owner
    unit = arena.unit_keys
    rows = []
    for v in reversed(arena.nodes):
        if owner_of[v] == 1:
            rows.append((v, unit[v], arena.succ[v], True))
        else:
            rows.append((v, unit[v], strategy.choices[v], False))

    get = vals.__getitem__
    from_key = arena.basis.from_key
    for sweep in range(1, len(arena.nodes) + 2):
        changed = False
        for v, step, targets, minimize in rows:
            if minimize:
                best = min(map(get, targets))
            else:
                best = max(map(get, targets))
            new = best if best == INF_KEY else step + best
            if new != vals[v]:
                if on_update is not None:
                    on_update(sweep, v, from_key(vals[v]), from_key(new))
                vals[v] = new
                changed = True
        if not changed:
            return vals
    raise ReasonablenessError(
        "valuation did not stabilize within %d sweeps; the strategy admits "
        "an odd-dominated cycle" % len(arena.nodes))


def to_profiles(arena: EscapeArena,
                valuation: Valuation) -> dict[int, ColorProfile]:
    """The sink and every arena node mapped to its value as a profile."""
    from_key = arena.basis.from_key
    out = {arena.sink: from_key(valuation[arena.sink])}
    for v in arena.nodes:
        out[v] = from_key(valuation[v])
    return out


@dataclass(frozen=True)
class ImprovementSets:
    """Player-0 edges at least as good as the current valuation (a strategy
    in its own right) and the strictly better subset, per source node."""

    improving: Strategy
    strict: dict[int, tuple[int, ...]]

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(sorted(self.strict))

    def strict_edges(self) -> list[tuple[int, int]]:
        return [(v, t) for v in sorted(self.strict) for t in self.strict[v]]

    @property
    def has_strict(self) -> bool:
        return bool(self.strict)


def improvements(arena: EscapeArena, strategy: Strategy,
                 valuation: Valuation) -> ImprovementSets:
    """Classify every player-0 arena edge against the valuation.

    An edge improves when its own color plus the target value is at least
    the source value; strictly when it is greater.  Edges the strategy's
    maxima realize always land in the improving set, so the result is a
    valid strategy; strict edges are never part of the strategy itself.

    Nodes already at the top value cannot be improved; they keep exactly
    their strategy edges onto top-valued targets.  Adding further edges
    between top-valued nodes would be harmless for the valuation but could
    close odd-dominated cycles, which later consistency checks reject.
    """
    unit = arena.unit_keys
    escape_choices = arena.escape_choices
    choices = strategy.choices
    improving: dict[int, tuple[int, ...]] = {}
    strict: dict[int, tuple[int, ...]] = {}
    for v in arena.player0_nodes:
        here = valuation[v]
        if here == INF_KEY:
            keep = tuple(sorted([t for t in choices[v]
                                 if valuation[t] == INF_KEY]))
            better = ()
        else:
            # edge (v, t) improves iff unit[v] + valuation[t] >= here;
            # escape choices are ascending, so both tuples are too
            need = here - unit[v]
            keep = tuple([t for t in escape_choices[v]
                          if valuation[t] >= need])
            better = tuple([t for t in keep if valuation[t] != need])
        if not keep:
            raise InvariantViolation(
                "node %d has no improving edge; the valuation does not "
                "belong to the given strategy" % v)
        improving[v] = keep
        if better:
            strict[v] = better
    return ImprovementSets(Strategy(improving), strict)


def valuate_dijkstra(arena: EscapeArena, strategy: Strategy,
                     base_valuation: Valuation) -> Valuation:
    """Valuation of a strategy that directly improves another one, computed
    from the old strategy's valuation.

    Relative to the old valuation, every edge the new strategy keeps has a
    non-negative weight (target value plus the source color, minus the
    source value).  On the region player 1 can still drag into the sink,
    the value growth per node is then the min-max distance from the sink
    over those weights.  One Dijkstra sweep along the arena's reversed
    edges computes it and finds the region on the way: a player-1 node is
    reached from its first settled successor and settles at its minimal
    tentative growth, while a player-0 node becomes eligible only once
    all its kept successors are settled, at the maximum over them.  Ties
    settle the smallest node id first.  The settled nodes are therefore
    the player-1 attractor of the sink; off it the value is unbounded.
    A closure pass after the sweep confirms that no unsettled player-1
    node has a settled successor and no unsettled player-0 node has all
    its kept successors settled.  Values, growths, weights and heap
    entries are all keys of the arena's basis.

    Raises InvariantViolation when a node of the region has an infinite
    base value, an edge inside it has a negative weight, or the closure
    pass fails.
    """
    sink = arena.sink
    base = base_valuation
    if base[sink] == INF_KEY:
        raise _infinite_in_region(sink)

    owner_of = arena.game.owner
    choices = strategy.choices
    unit = arena.unit_keys
    preds = arena.preds
    # growth over the base value per settled node; every weight inside
    # the region is formed and checked once: for a player-1 source when
    # its target settles, for a player-0 source when it becomes eligible
    grown: dict[int, int] = {}
    tentative: dict[int, int] = {}
    pending: dict[int, int] = {}
    heap: list[tuple[int, int]] = [(0, sink)]
    while heap:
        g, v = heapq.heappop(heap)
        if v in grown:
            continue
        grown[v] = g
        there = base[v]
        for s in preds[v]:
            if owner_of[s] == 1:
                here = base[s]
                if here == INF_KEY:
                    raise _infinite_in_region(s)
                w = unit[s] + there - here
                if w < 0:
                    raise _negative_weight(s, v)
                cand = w + g
                cur = tentative.get(s)
                if cur is None or cand < cur:
                    tentative[s] = cand
                    heapq.heappush(heap, (cand, s))
                continue
            kept = choices[s]
            if v not in kept:
                continue
            left = pending.get(s, len(kept)) - 1
            pending[s] = left
            if left:
                continue
            here = base[s]
            if here == INF_KEY:
                raise _infinite_in_region(s)
            step = unit[s] - here
            best = None
            for t in kept:
                w = step + base[t]
                if w < 0:
                    raise _negative_weight(s, t)
                cand = w + grown[t]
                if best is None or best < cand:
                    best = cand
            heapq.heappush(heap, (best, s))

    settled = grown.__contains__
    succ = arena.succ
    out: Valuation = [INF_KEY] * (sink + 1)
    for v, g in grown.items():
        out[v] = base[v] + g
    for v in arena.nodes:
        if v not in grown and (any(map(settled, succ[v]))
                               if owner_of[v] == 1
                               else all(map(settled, choices[v]))):
            raise InvariantViolation(
                "Dijkstra sweep failed to settle the sink region: node %d "
                "is attracted to it but unsettled" % v)
    return out


def _infinite_in_region(v: int) -> InvariantViolation:
    return InvariantViolation(
        "node %d is infinite in the base valuation but lies in the sink "
        "region of the improved strategy" % v)


def _negative_weight(s: int, t: int) -> InvariantViolation:
    return InvariantViolation(
        "edge (%d,%d) has negative weight; the strategy is not a direct "
        "improvement over the base valuation" % (s, t))


def response_strategy(arena: EscapeArena, strategy: Strategy,
                      valuation: Valuation) -> dict[int, tuple[int, ...]]:
    """Player-1 edges that realize the valuation: for each player-1 node
    the targets whose value plus the node's color equals the node's value.
    Every player-1 node keeps at least one such edge."""
    unit = arena.unit_keys
    tau: dict[int, tuple[int, ...]] = {}
    for v in arena.player1_nodes:
        here = valuation[v]
        want = here if here == INF_KEY else here - unit[v]
        picks = tuple(t for t in arena.succ[v] if valuation[t] == want)
        if not picks:
            raise InvariantViolation(
                "player-1 node %d realizes none of its edges; the valuation "
                "is not a fixpoint" % v)
        tau[v] = tuple(sorted(picks))
    return tau
