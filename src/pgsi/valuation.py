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
weights (the fast path).  Both return bit-identical results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping

from .arena import EscapeArena, attractor, find_one_dominated_cycle_nodes
from .errors import InvariantViolation, ReasonablenessError
from .profiles import ColorProfile, POS_INFINITY

Valuation = dict  # node id -> ColorProfile

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


def apply_operator(arena: EscapeArena, strategy: Strategy,
                   valuation: Valuation) -> Valuation:
    """One simultaneous application of the valuation operator."""
    unit = arena.unit
    out = {arena.sink: arena.basis.zero}
    owner_of = arena.game.owner
    for v in arena.nodes:
        if owner_of[v] == 1:
            best = min(valuation[t] for t in arena.succ[v])
        else:
            best = max(valuation[t] for t in strategy.choices[v])
        out[v] = unit[v] + best
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
    every change, in the order they are applied.
    """
    vals: Valuation = {arena.sink: arena.basis.zero}
    for v in arena.nodes:
        vals[v] = POS_INFINITY

    owner_of = arena.game.owner
    unit = arena.unit
    rows = []
    for v in reversed(arena.nodes):
        if owner_of[v] == 1:
            rows.append((v, unit[v], arena.succ[v], True))
        else:
            rows.append((v, unit[v], strategy.choices[v], False))

    get = vals.__getitem__
    for sweep in range(1, len(arena.nodes) + 2):
        changed = False
        for v, step, targets, minimize in rows:
            if minimize:
                best = min(map(get, targets))
            else:
                best = max(map(get, targets))
            new = step + best
            if new != vals[v]:
                if on_update is not None:
                    on_update(sweep, v, vals[v], new)
                vals[v] = new
                changed = True
        if not changed:
            return vals
    raise ReasonablenessError(
        "valuation did not stabilize within %d sweeps; the strategy admits "
        "an odd-dominated cycle" % len(arena.nodes))


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
    unit = arena.unit
    improving: dict[int, tuple[int, ...]] = {}
    strict: dict[int, tuple[int, ...]] = {}
    for v in arena.player0_nodes:
        here = valuation[v]
        step = unit[v]
        keep, better = [], []
        if here == POS_INFINITY:
            keep = [t for t in strategy.choices[v]
                    if valuation[t] == POS_INFINITY]
        else:
            for t in arena.escape_choices[v]:
                there = step + valuation[t]
                if here == there:
                    keep.append(t)
                elif here < there:
                    keep.append(t)
                    better.append(t)
        if not keep:
            raise InvariantViolation(
                "node %d has no improving edge; the valuation does not "
                "belong to the given strategy" % v)
        improving[v] = tuple(sorted(keep))
        if better:
            strict[v] = tuple(sorted(better))
    return ImprovementSets(Strategy(improving), strict)


def valuate_dijkstra(arena: EscapeArena, strategy: Strategy,
                     base_valuation: Valuation) -> Valuation:
    """Valuation of a strategy that directly improves another one, computed
    from the old strategy's valuation.

    Relative to the old valuation, every edge the new strategy keeps has a
    non-negative weight (target value plus the source color, minus the
    source value).  On the region player 1 can still drag into the sink,
    the value growth per node is then the min-max distance from the sink
    over those weights, computed by a Dijkstra sweep along reversed edges:
    player-1 nodes are settled greedily at their minimal tentative growth,
    while a player-0 node becomes eligible only once all its kept
    successors are settled, at the maximum over them.  Ties settle the
    smallest node id first.  Off that region the value is unbounded.
    """
    zero = arena.basis.zero
    sink = arena.sink
    view = arena.strategy_view(strategy.choices)
    members = attractor(view, 1, (sink,)).members

    out: Valuation = {sink: zero}
    for v in arena.nodes:
        out[v] = POS_INFINITY

    for v in members:
        if v != sink and not base_valuation[v].is_finite:
            raise InvariantViolation(
                "node %d is infinite in the base valuation but lies in the "
                "sink region of the improved strategy" % v)

    unit = arena.unit
    owner_of = arena.game.owner
    preds: dict[int, list[int]] = {v: [] for v in members}
    pending: dict[int, int] = {}
    for v in sorted(members):
        if v == sink:
            continue
        targets = [t for t in view.succ[v] if t in members]
        if owner_of[v] == 0:
            # all kept successors of an attracted player-0 node are attracted
            pending[v] = len(targets)
        for t in targets:
            preds[t].append(v)

    # Every member settles, so each edge's weight is formed and checked
    # exactly once, when its target settles.
    settled: set[int] = set()
    tentative: dict[int, ColorProfile] = {}
    best: dict[int, ColorProfile] = {}
    heap: list[tuple[ColorProfile, int]] = [(zero, sink)]
    while heap:
        dv, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        there = base_valuation[v]
        if v != sink:
            out[v] = there + dv
        for s in preds[v]:
            w = (unit[s] + there) - base_valuation[s]
            if w < zero:
                raise InvariantViolation(
                    "edge (%d,%d) has negative weight; the strategy is not a "
                    "direct improvement over the base valuation" % (s, v))
            cand = w + dv
            if owner_of[s] == 1:
                cur = tentative.get(s)
                if cur is None or cand < cur:
                    tentative[s] = cand
                    heapq.heappush(heap, (cand, s))
            else:
                cur = best.get(s)
                if cur is None or cur < cand:
                    best[s] = cand
                pending[s] -= 1
                if pending[s] == 0:
                    heapq.heappush(heap, (best[s], s))
    if len(settled) != len(members):
        raise InvariantViolation("Dijkstra sweep failed to settle the sink region")
    return out


def response_strategy(arena: EscapeArena, strategy: Strategy,
                      valuation: Valuation) -> dict[int, tuple[int, ...]]:
    """Player-1 edges that realize the valuation: for each player-1 node
    the targets whose value plus the node's color equals the node's value.
    Every player-1 node keeps at least one such edge."""
    unit = arena.unit
    tau: dict[int, tuple[int, ...]] = {}
    for v in arena.player1_nodes:
        here = valuation[v]
        step = unit[v]
        picks = tuple(t for t in arena.succ[v] if here == step + valuation[t])
        if not picks:
            raise InvariantViolation(
                "player-1 node %d realizes none of its edges; the valuation "
                "is not a fixpoint" % v)
        tau[v] = tuple(sorted(picks))
    return tau
