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
fixpoint sweeps (the reference) and, given a strategy the new one
directly improves and its valuation, a Dijkstra-style sweep over
non-negative edge weights (the fast path).  The fixpoint sweeps
evaluate only the nodes that read a value which changed since they were
last evaluated, the first only those that read the sink, and find the
readers of a node in the arena's predecessor table, so they take
strategies whose choices are escape choices or removed ids.  The Dijkstra
sweep revalues only the switch region A, the nodes that reach a
player-0 node whose choices changed, at a finite value
(:func:`switch_region`); every other node keeps its value.  The sweep
starts from the finite targets
of the kept edges that leave A, each of which relaxes only the sources of
those edges, so it reads the predecessor tables of A alone.  Inside A it
finds the nodes player 1 can still force into the sink on its own and
checks afterwards that they are closed.  Both routes return
bit-identical results.  :func:`improvements` likewise classifies
either every player-0 node or, carrying the rest over from the sets of
the previous step, only the nodes whose inputs changed.  A switch
policy returns only the entries it switches, and the step check of
``solve`` visits only those and the entries the last classification
visited.

The player-0 nodes whose choices a step changed are listed once per step,
by :func:`changed_nodes` over the entries the policy returned; those at a
finite value seed A and the step check of reasonableness, and all of
them are reclassified.  A is derived once per step, by the
step's one backward walk, and handed to the fast valuation, the step check
of reasonableness and the checks of ``solve`` that look only at A.

Reasonableness has two checks too.  :func:`is_reasonable` decomposes
the whole arena restricted to the strategy; :func:`is_reasonable_step`,
given a reasonable strategy the new one replaces, walks forward from the
targets of the edges the step added, inside A, where every cycle such an
edge closes lies, and decomposes only the nodes it walks.  ``solve`` runs
the full check on its first iteration and on every audit iteration,
where both must agree, and the step check on every iteration after the
first.
Audit iterations compare the revaluation and the carried-over
improvement sets with their whole-arena counterparts in the same way.

Inside ``solve`` a valuation is a list of packed profile keys indexed by
node id, with the sink at index n and ``INF_KEY`` for +inf (see
profiles.py); nodes the arena does not keep hold ``INF_KEY`` too.  Both
routes produce such lists, and every classification here compares their
ints.  :func:`to_profiles` turns one into the node -> ColorProfile
mapping that results and hooks speak.
"""

from __future__ import annotations

import heapq
from itertools import compress
from typing import Callable, Collection, Iterable, NamedTuple

from .arena import EscapeArena, find_one_dominated_cycle_nodes
from .arena import attractor  # noqa: F401  (benchmark/layers.py wraps this name)
from .errors import InvariantViolation, ReasonablenessError
from .profiles import INF_KEY, ColorProfile

Valuation = list  # node id -> key; sink at index n, INF_KEY for +inf
# player-0 node -> a sorted non-empty tuple of chosen successors; two
# strategies are equal iff they keep the same edges
Strategy = dict

UpdateHook = Callable[[int, int, ColorProfile, ColorProfile], None]


def changed_nodes(old: Strategy, new: Strategy) -> list[int]:
    """The nodes of `new` whose choices differ from those of `old`, in the
    order of `new`; a node `old` does not have counts as changed.  `new`
    may be a whole strategy or only the entries a step sets."""
    prior = old.get
    return [v for v, targets in new.items() if targets != prior(v)]


def initial_strategy(arena: EscapeArena) -> Strategy:
    """The always-escape strategy: every player-0 node moves to the sink.

    It is reasonable on any arena because the only plays it allows either
    end at the sink or stay among player-1 nodes.
    """
    return {v: (arena.sink,) for v in arena.player0_nodes}


def is_reasonable(arena: EscapeArena, strategy: Strategy) -> bool:
    """True iff the strategy-restricted arena has no odd-dominated cycle.
    The strategy's keys are the player-0 nodes, so its tuples laid over
    the arena's successors give every node its edges in that arena."""
    return not find_one_dominated_cycle_nodes(
        arena.nodes, {**arena.succ, **strategy}, arena.game.color)


def is_reasonable_step(arena: EscapeArena, old: Strategy, new: Strategy,
                       changed: Iterable[int], region: set[int]) -> bool:
    """``is_reasonable(arena, new)`` for a `new` strategy over the same
    player-0 nodes as a reasonable `old` one, with every edge inside the
    arena's escape choices; `changed` is ``changed_nodes(old, new)``, or
    any part of it that holds every node which added an edge, and
    `region` the switch region A, ``switch_region(arena, new, changed)``.

    Every cycle of the arena restricted to `new` that keeps to old edges
    is a cycle under `old` and so not odd-dominated.  An odd-dominated
    cycle therefore runs through an added edge (v, t), t kept by `new`
    but not by `old`; each of its nodes is reachable from t and reaches
    v, a changed node that added an edge, so it lies in A.  The check
    walks forward from the added targets in A, staying inside A, records
    each visited node's successors under `new` as it goes and decomposes
    those nodes alone; the analysis skips the successors they have
    outside them.  A is all the backward walking a step needs.
    """
    owner_of = arena.game.owner
    succ = arena.succ
    stack = [t for v in changed for t in new[v]
             if t in region and t not in old[v]]
    walk: dict[int, tuple[int, ...]] = {}
    while stack:
        v = stack.pop()
        if v in walk:
            continue
        walk[v] = targets = succ[v] if owner_of[v] == 1 else new[v]
        stack.extend([t for t in targets if t in region and t not in walk])
    return not walk or not find_one_dominated_cycle_nodes(
        walk, walk, arena.game.color)


def valuate_bellman_ford(arena: EscapeArena, strategy: Strategy,
                         on_update: UpdateHook | None = None) -> Valuation:
    """Valuation of a reasonable strategy by fixpoint iteration.

    Starts from sink=empty-play, everything else unbounded, and sweeps
    nodes in descending id order, updating in place, until a sweep
    changes nothing.  A reasonable strategy stabilizes within one sweep
    per arena node; the extra sweep certifies the fixpoint.  If the limit
    is exceeded the strategy admits an odd-dominated cycle and
    ReasonablenessError is raised.

    Every player-0 choice must be one of the node's escape choices or an
    id the arena does not keep; inside ``solve`` the initial strategy
    and the step check guarantee it.  A sweep evaluates only the rows
    that read a value which changed since their last evaluation, because
    any other row would recompute its current value; the first sweep's
    are the player-0 rows that choose the sink, the one value not
    unbounded at the start.  After an update to v each row reading v is
    queued: into this sweep if it comes later in the descending order,
    else (v itself included) into the next.  By the precondition those
    rows are the sources in the arena's predecessor table of v: a
    player-1 source always, a player-0 source when the strategy keeps
    the edge.  The sink and the ids the arena does not keep never change
    value, so reading them queues no row; the due flags are kept per
    place in the sweep order, and one list maps each node to its place.
    Updates, their order and their sweep numbers are those of sweeps
    that evaluate every row.

    `on_update` receives (sweep number, node, old value, new value) for
    every change, in the order they are applied, the values as profiles.
    """
    sink = arena.sink
    vals: Valuation = [INF_KEY] * (sink + 1)
    vals[sink] = 0

    owner_of = arena.game.owner
    succ = arena.succ
    unit = arena.unit_keys
    preds = arena.preds
    # the rows in sweep order, per node id its place in that order, and
    # per place whether its row is due in this sweep
    order = arena.nodes[::-1]
    place = [0] * sink
    due = bytearray(len(order))
    for p, v in enumerate(order):
        place[v] = p
        if owner_of[v] == 0 and sink in strategy[v]:
            due[p] = 1

    get = vals.__getitem__
    from_key = arena.basis.from_key
    for sweep in range(1, len(order) + 2):
        changed = False
        later = bytearray(len(order))
        # compress reads `due` one flag at a time, so a row queued into
        # this sweep after the walk started is still visited
        for p, v in compress(enumerate(order), due):
            if owner_of[v] == 1:
                best = min(map(get, succ[v]))
            else:
                best = max(map(get, strategy[v]))
            new = best if best == INF_KEY else unit[v] + best
            if new != vals[v]:
                if on_update is not None:
                    on_update(sweep, v, from_key(vals[v]), from_key(new))
                vals[v] = new
                changed = True
                for s in preds[v]:
                    if owner_of[s] == 1 or v in strategy[s]:
                        r = place[s]
                        if r > p:
                            due[r] = 1
                        else:
                            later[r] = 1
        if not changed:
            return vals
        due = later
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


class ImprovementSets(NamedTuple):
    """Player-0 edges at least as good as the current valuation (a strategy
    in its own right) and the strictly better subset, per source node.
    """

    improving: Strategy
    strict: dict[int, tuple[int, ...]]

    def strict_edges(self) -> list[tuple[int, int]]:
        return [(v, t) for v in sorted(self.strict) for t in self.strict[v]]


def improvements(arena: EscapeArena, strategy: Strategy,
                 valuation: Valuation, prior: ImprovementSets | None = None,
                 nodes: Collection[int] = ()) -> ImprovementSets:
    """Classify player-0 arena edges against the valuation.

    An edge improves when its own color plus the target value is at least
    the source value; strictly when it is greater.  Edges the strategy's
    maxima realize always land in the improving set, so the result is a
    valid strategy; strict edges are never part of the strategy itself.

    Nodes already at the top value cannot be improved; they keep exactly
    their strategy edges onto top-valued targets.  Adding further edges
    between top-valued nodes would be harmless for the valuation but could
    close odd-dominated cycles, which later consistency checks reject.

    Without `prior` every player-0 node is classified.  With the sets of
    an earlier strategy and valuation as `prior`, only the player-0 nodes
    in `nodes` are; every other entry is carried over unchanged, which is
    exact when their choices, own values and successor values are the
    same as then.
    """
    unit = arena.unit_keys
    escape_choices = arena.escape_choices
    if prior is None:
        improving: dict[int, tuple[int, ...]] = {}
        strict: dict[int, tuple[int, ...]] = {}
        nodes = arena.player0_nodes
    else:
        improving = dict(prior.improving)
        strict = dict(prior.strict)
    for v in nodes:
        here = valuation[v]
        if here == INF_KEY:
            keep = sorted([t for t in strategy[v] if valuation[t] == INF_KEY])
            better = ()
        else:
            # edge (v, t) improves iff unit[v] + valuation[t] >= here,
            # strictly iff also unit[v] + valuation[t] != here; escape
            # choices are ascending, so both lists are too
            need = here - unit[v]
            keep = []
            better = []
            for t in escape_choices[v]:
                x = valuation[t]
                if x >= need:
                    keep.append(t)
                    if x != need:
                        better.append(t)
        if not keep:
            raise InvariantViolation(
                "node %d has no improving edge; the valuation does not "
                "belong to the given strategy" % v)
        improving[v] = tuple(keep)
        if better:
            strict[v] = tuple(better)
        else:
            strict.pop(v, None)
    return ImprovementSets(improving, strict)


def switch_region(arena: EscapeArena, new: Strategy,
                  changed: Iterable[int]) -> set[int]:
    """The nodes whose value a step to `new` that changes the choices of
    the player-0 nodes `changed` can change.  ``solve`` hands in only
    the changed nodes at a finite value; all of them give a larger
    region that is just as exact.

    A node's value depends only on the part of the strategy-restricted
    arena it reaches.  A node that reaches no changed node reaches the
    same subgraph under the old and the new strategy, so it keeps its
    value bit for bit.  The region is the rest: the changed nodes and
    the nodes that reach one under `new`, walked backwards along the
    arena's predecessor table (a player-0 predecessor only where `new`
    keeps the edge).  A changed node at +inf that keeps only old edges,
    one of them onto +inf, stays at +inf; a node that reaches changed
    nodes only through such nodes sees there only strategies that lost
    edges, under which the old values are still a fixpoint.  The
    fixpoint sweeps stop at or above any fixpoint and a narrower
    strategy values no node higher, so those values stay too.
    """
    owner_of = arena.game.owner
    preds = arena.preds
    region = set(changed)
    stack = list(region)
    while stack:
        t = stack.pop()
        for s in preds[t]:
            if s not in region and (owner_of[s] == 1 or t in new[s]):
                region.add(s)
                stack.append(s)
    return region


def valuate_dijkstra(arena: EscapeArena, new: Strategy,
                     region: set[int],
                     base_valuation: Valuation) -> Valuation:
    """Valuation of a strategy `new` that directly improves an old one,
    computed from the old strategy's valuation; `region` is the switch
    region A of the step, ``switch_region(arena, new, changed)`` for
    ``changed = changed_nodes(old, new)``, which the caller derives once
    and hands on to the checks that follow.

    Only the nodes of A are revalued; every other node keeps its base
    value, so the result is a copy of the base with A overwritten.  The
    copy is the call's one O(n) pass, at C level.  Any region that holds
    the nodes whose value the step can change gives the same result.
    Relative to the base, every edge the new strategy keeps has a
    non-negative weight (target value plus the source color, minus the
    source value).  Inside the region, the value growth per node is the
    min-max distance over those weights from the nodes outside it, whose
    growth is 0.  One Dijkstra sweep along the arena's reversed edges
    computes it.  Its heap starts with the frontier at growth 0: the
    finite targets, the sink included, of the kept edges that leave the
    region.  One pass over the region lists per frontier node the
    sources of those edges, a player-0 source only for an edge among its
    escape choices.  A settled frontier node relaxes its listed sources,
    a settled region node those of its predecessor table, so the sweep
    reads the predecessor tables of region nodes alone.  It finds on the
    way the part player 1 can still drag into the sink: a player-1 node
    is reached from its first settled successor and settles at its
    minimal tentative growth, while a player-0 node becomes eligible
    only once all its kept successors are settled, at the maximum over
    them.  Ties settle the smallest node id first.  Nodes of the region
    the sweep does not settle are unbounded.
    A closure pass over the region after the sweep confirms that no
    unsettled player-1 node has a settled successor and no unsettled
    player-0 node has all its kept successors settled.  Values, growths,
    weights and heap entries are all keys of the arena's basis.

    Raises InvariantViolation when a node the sweep reaches has an
    infinite base value, a kept edge into a settled node has a negative
    weight, or the closure pass fails.
    """
    sink = arena.sink
    base = base_valuation
    if base[sink] == INF_KEY:
        raise _infinite_in_region(sink)
    out: Valuation = list(base)

    owner_of = arena.game.owner
    succ = arena.succ
    unit = arena.unit_keys
    preds = arena.preds
    escape_choices = arena.escape_choices
    # per frontier node the region sources of the kept edges into it; a
    # kept edge that is no arena edge lists no source, as no predecessor
    # table does, so the closure pass finds its source
    into: dict[int, list[int]] = {}
    for s in region:
        player1 = owner_of[s] == 1
        for t in succ[s] if player1 else new[s]:
            if t in region or base[t] == INF_KEY:
                continue
            sources = into.setdefault(t, [])
            if player1 or t in escape_choices[s]:
                sources.append(s)
    # growth over the base value per settled node; every weight into a
    # settled node is formed and checked once: for a player-1 source when
    # its target settles, for a player-0 source when it becomes eligible
    grown: dict[int, int] = {}
    tentative: dict[int, int] = {}
    pending: dict[int, int] = {}
    heap = [(0, t) for t in into]
    heapq.heapify(heap)
    while heap:
        g, v = heapq.heappop(heap)
        if v in grown:
            continue
        grown[v] = g
        for s in into[v] if v in into else preds[v]:
            if s not in region:
                continue
            player1 = owner_of[s] == 1
            # a player-1 source relaxes the edge to v, a player-0 source
            # all its kept edges once they all settled
            if player1:
                targets = (v,)
            else:
                targets = new[s]
                if v not in targets:
                    continue
                left = pending[s] = pending.get(s, len(targets)) - 1
                if left:
                    continue
            here = base[s]
            if here == INF_KEY:
                raise _infinite_in_region(s)
            cur = best = tentative.get(s)
            for t in targets:
                w = unit[s] + base[t] - here
                if w < 0:
                    raise InvariantViolation(
                        "edge (%d,%d) has negative weight; the strategy is "
                        "not a direct improvement over the base valuation"
                        % (s, t))
                cand = w + grown[t]
                if best is None or (cand < best if player1 else best < cand):
                    best = cand
            if best != cur:
                tentative[s] = best
                heapq.heappush(heap, (best, s))

    settled = grown.__contains__
    for v in region:
        g = grown.get(v)
        if g is not None:
            out[v] = base[v] + g
        elif (any(map(settled, succ[v])) if owner_of[v] == 1
              else all(map(settled, new[v]))):
            raise InvariantViolation(
                "Dijkstra sweep failed to settle the sink region: node %d "
                "is attracted to it but unsettled" % v)
        else:
            out[v] = INF_KEY
    return out


def _infinite_in_region(v: int) -> InvariantViolation:
    return InvariantViolation(
        "node %d is infinite in the base valuation but lies in the sink "
        "region of the improved strategy" % v)


def realizing_edges(arena: EscapeArena, nodes: Iterable[int],
                    choices: Strategy, valuation: Valuation) -> dict[int, int]:
    """Per node of `nodes` the smallest-id target among its `choices`
    whose value plus the node's color equals the node's value.  Raises
    InvariantViolation where no choice realizes the value."""
    unit = arena.unit_keys
    picked: dict[int, int] = {}
    for v in nodes:
        here = valuation[v]
        want = here if here == INF_KEY else here - unit[v]
        picks = [t for t in choices[v] if valuation[t] == want]
        if not picks:
            raise InvariantViolation(
                "node %d realizes none of its choices; the valuation is "
                "not a fixpoint of them" % v)
        picked[v] = min(picks)
    return picked


def response_strategy(arena: EscapeArena,
                      valuation: Valuation) -> dict[int, int]:
    """One player-1 edge per player-1 node that realizes the valuation:
    the smallest-id target whose value plus the node's color equals the
    node's value.  Every player-1 node has at least one such edge."""
    return realizing_edges(arena, arena.player1_nodes, arena.succ, valuation)
