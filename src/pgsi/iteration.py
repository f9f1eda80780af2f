"""The strategy-improvement loop and its switch policies.

Starting from the always-escape strategy the solver alternates valuation
and switching: edges strictly better than the current valuation are
switched to (the policy decides which), edges realizing it may be kept.
A policy returns only the entries it switches, each inside its
improving entry, and the loop lays them over a copy of the strategy.
Values only ever grow, so the loop terminates; when no strict improvement
is left, the nodes with unbounded value are exactly the ones player 0
wins, and winning strategies for both players fall out of the final
valuation.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import chain, compress
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

from .arena import (EscapeArena, ParityGame, find_dominated_cycle_nodes,
                    preprocess, reachable)
from .errors import InvariantViolation
from .profiles import INF_KEY, ColorProfile
from .valuation import (ImprovementSets, Strategy, UpdateHook, Valuation,
                        changed_nodes, improvements, initial_strategy,
                        is_reasonable, is_reasonable_step, realizing_edges,
                        response_strategy, switch_region, to_profiles,
                        valuate_bellman_ford, valuate_dijkstra)

IterationHook = Callable[
    [int, Strategy, Mapping[int, ColorProfile], ImprovementSets], None]


class AllSwitches:
    """Switch to the full improving edge set in one step.

    The step returns the improving entries that differ from the entries
    of the strategy it is handed, whichever policy made that strategy;
    finding them compares every player-0 entry once."""

    name = "all-switches"

    def pick(self, arena: EscapeArena, strategy: Strategy,
             valuation: Valuation, imps: ImprovementSets) -> Strategy:
        improving = imps.improving
        return {v: improving[v] for v in changed_nodes(strategy, improving)}


class DeterministicAll:
    """Per improvable node the single best strict target (largest target
    value, then smallest id); other nodes keep their one edge, which
    realizes the current value.  Deterministic strategies go in and come
    out, starting from the always-escape one.

    The step returns the strict sources alone; every other node keeps
    its edge unchanged."""

    name = "deterministic-all"

    def pick(self, arena, strategy, valuation, imps):
        # targets are ascending, and max keeps the first maximum
        return {v: (max(stricts, key=valuation.__getitem__),)
                for v, stricts in imps.strict.items()}


class SingleRandom:
    """Apply exactly one strict improvement per step, chosen by a seeded
    generator; all other nodes keep their value-realizing edges.

    The step returns the switched source alone, so outside the draw it
    costs nothing per player-0 node.  The draw lists every strict edge,
    in sorted source order, and picks one by ``choice``."""

    name = "single-random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, arena, strategy, valuation, imps):
        v, t = self._rng.choice(imps.strict_edges())
        return {v: (t,)}


POLICY_NAMES = (AllSwitches.name, DeterministicAll.name, SingleRandom.name)


def policy_by_name(name: str, seed: int | None = None):
    if name == AllSwitches.name:
        return AllSwitches()
    if name == DeterministicAll.name:
        return DeterministicAll()
    if name == SingleRandom.name:
        return SingleRandom(0 if seed is None else seed)
    raise ValueError("unknown policy %r" % name)


class SolveResult(NamedTuple):
    """Winning partition, winning strategies and run statistics: `stats`
    holds one dict per iteration, with the keys ``"iteration"``,
    ``"strict_edges"`` and ``"strict_sources"`` in that order."""

    w0: tuple[int, ...]
    w1: tuple[int, ...]
    strategy0: dict[int, int]
    strategy1: dict[int, int]
    valuation: dict[int, ColorProfile]
    iterations: int
    policy: str
    stats: list[dict[str, int]]

    def to_json(self) -> dict:
        return {
            "w0": list(self.w0),
            "w1": list(self.w1),
            "strategy0": dict(self.strategy0),
            "strategy1": dict(self.strategy1),
            "iterations": self.iterations,
            "policy": self.policy,
            "stats": [dict(r) for r in self.stats],
        }


def _step_bound(n: int, d: int) -> float:
    """Ceiling on the number of improvement steps any policy can take:
    each step strictly raises one of at most n node values, each of which
    climbs through at most (n/d + 1)^d distinct finite profiles.  The
    bound saturates to infinity where it overflows a float."""
    try:
        return n * (n / d + 1.0) ** d
    except OverflowError:
        return math.inf


def extract_deterministic(arena: EscapeArena, strategy: Strategy,
                          valuation: Valuation) -> Strategy:
    """Pick, per player-0 node, one strategy edge realizing the valuation
    (smallest target id).  Revaluating the result reproduces `valuation`."""
    return {v: (t,) for v, t in realizing_edges(
        arena, arena.player0_nodes, strategy, valuation).items()}


def _check_step(next_strategy: Strategy, imps: ImprovementSets,
                nodes: Iterable[int]) -> set[int]:
    """Validate a policy's output at `nodes`: each is a known player-0
    node that keeps a move and every edge it keeps lies in the improving
    set.  The strategy must have one entry per player-0 node and take at
    least one strict edge.  Returns the switched source nodes.

    Given every entry of `next_strategy` as `nodes`, this is the full
    check.  It suffices to give the entries the policy returned and the
    entries the classification that built `imps` visited, which after a
    full classification are every player-0 node: ``solve`` lays the
    returned entries over a copy of the current strategy, so every other
    node kept its choices, which the previous step's check found inside
    its improving entry, and kept that entry too.  A node that takes a strict edge was returned,
    because strict edges are never part of the current strategy.  A node
    at +inf that passes keeps only its own strategy edges onto +inf
    targets, its improving entry, which ``solve`` relies on."""
    applied = set()
    improving, strict = imps.improving, imps.strict
    for v in nodes:
        kept = improving.get(v)
        if kept is None:
            raise InvariantViolation("policy kept unknown node %d" % v)
        targets = next_strategy.get(v)
        if not targets:
            raise InvariantViolation(
                "policy left player-0 node %d without a move" % v)
        stricts = strict.get(v, ())
        for t in targets:
            if t not in kept:
                raise InvariantViolation(
                    "policy chose non-improving edge (%d,%d)" % (v, t))
            if t in stricts:
                applied.add(v)
    if len(next_strategy) != len(improving):
        raise InvariantViolation("policy dropped a player-0 node")
    if imps.strict and not applied:
        raise InvariantViolation("policy applied no strict improvement")
    return applied


def _check_progress(prev: Valuation, new: Valuation, switched: set[int],
                    nodes: Collection[int]) -> list[int]:
    """The nodes of `nodes` whose value changed from `prev` to `new`, in
    `nodes` order, found in one C-level pass; on the way it checks that
    values never shrink, +inf included, grow somewhere after a switch
    and grow strictly at every switched node.

    `nodes` is the switch region A of the step, or ``range(len(new))``
    for the whole lists.  A is exact: outside it the new list is a copy
    of the old one, and the switched nodes lie in it.  Values are
    totally ordered, so once no changed value shrank, each of them grew,
    and the valuation grew somewhere iff a value changed."""
    before, after = prev.__getitem__, new.__getitem__
    moved = list(compress(nodes, map(operator.ne, map(before, nodes),
                                     map(after, nodes))))
    shrank = next(compress(moved, map(operator.gt, map(before, moved),
                                      map(after, moved))), None)
    if shrank is not None:
        raise InvariantViolation("valuation shrank at node %d" % shrank)
    for v in switched:
        if not prev[v] < new[v]:
            if not moved:
                raise InvariantViolation(
                    "improvement step did not grow the valuation")
            raise InvariantViolation(
                "no strict growth at switched node %d" % v)
    return moved


def _stale_entries(arena: EscapeArena, changed: Iterable[int],
                   moved: Collection[int]) -> set[int]:
    """The player-0 nodes whose improvement-set entry a step can change:
    the nodes `changed` whose choices it changed, the nodes `moved`
    whose value changed, as ``_check_progress`` returns them, and their
    predecessors, whose escape successors they are.  An entry reads
    nothing else.  `changed` holds the changed nodes at +inf too, which
    seed no switch region: a policy may narrow such a node to part of
    its entry, which then narrows with it."""
    stale = chain(changed, moved,
                  chain.from_iterable(map(arena.preds.__getitem__, moved)))
    # the keys of the escape choices are the player-0 nodes
    player0 = arena.escape_choices
    return {v for v in stale if v in player0}


def solve(game: ParityGame, policy=None, audit_every: int = 16,
          on_iteration: IterationHook | None = None,
          on_update: UpdateHook | None = None) -> SolveResult:
    """Solve a parity game: winning sets for both players, a deterministic
    winning strategy each, the final valuation and per-iteration stats.

    `preprocess` first peels off the nodes player 1 wins without a
    player-0 choice and then those player 0 wins without a player-1
    choice, each with its winner's edges, which the result copies into
    the winning sets and strategies.  The loop runs on the escape arena
    over the nodes left; on a game the peels solve outright it runs no
    iteration, and the valuation is empty.

    The first iteration valuates the whole arena by fixpoint sweeps (the
    reference route) and classifies every player-0 node.  Later iterations
    derive once the switch region A, the nodes that reach a changed node
    with a finite value (``switch_region``): the step check holds a
    changed node at +inf to its own edges onto +inf targets, so it stays
    there and adds no edge.  They revalue only A (``valuate_dijkstra``),
    find in one pass over A the nodes whose value changed, checking that
    none shrank (``_check_progress``), and reclassify only the player-0
    nodes whose choices, value or successor values changed
    (``_stale_entries``), carrying the other improvement-set entries
    over.  A policy's `pick` returns the entries it switches (a whole
    strategy also works); the loop lays them over one copy of the
    strategy, so no entry it does not return can change.  The returned
    nodes whose choices changed are listed once (``changed_nodes``),
    after the step check; those with a finite value seed A and the
    reasonableness check of the next iteration, which reclassifies all
    of them.  The step check (``_check_step``) visits the returned
    entries and the entries the last classification visited, which is
    exact by construction (the first classification visits every
    player-0 node), so that a step costs what it touches.
    Every `audit_every`-th iteration is also recomputed by the reference
    route and compared bit for bit, its growth checked over every node,
    its improvement sets compared with a classification of every node,
    and its step check with one over every node (1 audits every
    iteration after the first, 0 disables auditing; a negative value
    raises ValueError).  Every strategy is checked for
    reasonableness.  The first iteration runs the full check; the others
    walk forward from the targets of the edges the step added, inside A,
    where every cycle such an edge closes lies, and check only the nodes
    they walk (``is_reasonable_step``), so finding A is the one backward
    walk of a step; audit iterations run both checks and require the same
    verdict.
    `on_iteration` sees every (iteration, strategy, valuation,
    improvement sets) tuple as the run unfolds; the strategy, and the
    improving edges of the sets, are the plain dicts the loop holds,
    player-0 node -> sorted tuple of successors, which no later step
    changes and a hook must not change either.  `on_update` is handed to
    every reference valuation, on the first and every audit iteration,
    and sees its single updates.  The loop itself works on key lists
    (see valuation.py); the hooks and the result still receive values as
    ColorProfiles: a node -> profile mapping of the arena nodes and the
    sink, decoded only when a hook is attached, and the old and new
    profile of each update.
    """
    if audit_every < 0:
        raise ValueError("audit_every must be >= 0, got %d" % audit_every)
    if policy is None:
        policy = AllSwitches()

    prep = preprocess(game)
    arena = prep.arena
    stats: list[dict[str, int]] = []
    iterations = 0
    strategy0: dict[int, int] = {}
    strategy1: dict[int, int] = {}
    valuation: dict[int, ColorProfile] = {}
    won: set[int] = set()

    if arena.nodes:
        imps = None
        sigma = initial_strategy(arena)
        switched: set[int] = set()
        bound = _step_bound(len(arena.nodes), arena.game.d)
        current: Valuation | None = None
        while True:
            incremental = current is not None
            audit = (incremental and audit_every
                     and (iterations + 1) % audit_every == 0)
            if incremental:
                region = switch_region(arena, sigma, seeds)
                new_vals = valuate_dijkstra(arena, sigma, region, current)
                reasonable = is_reasonable_step(arena, previous, sigma,
                                                seeds, region)
            else:
                new_vals = valuate_bellman_ford(arena, sigma,
                                                on_update=on_update)
                reasonable = is_reasonable(arena, sigma)
            if audit:
                if valuate_bellman_ford(arena, sigma,
                                        on_update=on_update) != new_vals:
                    raise InvariantViolation(
                        "accelerated valuation disagrees with the "
                        "reference at iteration %d" % (iterations + 1))
                if is_reasonable(arena, sigma) != reasonable:
                    raise InvariantViolation(
                        "incremental reasonableness check disagrees "
                        "with the full one at iteration %d"
                        % (iterations + 1))
            if not reasonable:
                raise InvariantViolation(
                    "iteration %d produced an unreasonable strategy"
                    % (iterations + 1))
            if incremental:
                moved = _check_progress(
                    current, new_vals, switched,
                    range(len(new_vals)) if audit else region)
                reclassified = _stale_entries(arena, changed, moved)
                imps = improvements(arena, sigma, new_vals, imps,
                                    reclassified)
            else:
                reclassified = arena.player0_nodes
                imps = improvements(arena, sigma, new_vals)
            if audit and improvements(arena, sigma, new_vals) != imps:
                raise InvariantViolation(
                    "incremental improvement sets disagree with the full "
                    "ones at iteration %d" % (iterations + 1))
            current = new_vals
            iterations += 1
            stats.append({"iteration": iterations,
                          "strict_edges": sum(map(len, imps.strict.values())),
                          "strict_sources": len(imps.strict)})
            if on_iteration is not None:
                on_iteration(iterations, sigma, to_profiles(arena, current),
                             imps)
            if not imps.strict:
                break
            if iterations - 1 > bound:
                raise InvariantViolation(
                    "improvement steps exceeded the termination bound %.0f"
                    % bound)
            step = policy.pick(arena, sigma, current, imps)
            next_sigma = sigma.copy()
            next_sigma.update(step)
            switched = _check_step(next_sigma, imps,
                                   step.keys() | reclassified)
            if audit and _check_step(next_sigma, imps,
                                     next_sigma) != switched:
                raise InvariantViolation(
                    "incremental step check disagrees with the full one "
                    "at iteration %d" % iterations)
            changed = changed_nodes(sigma, step)
            # the check held a changed node at +inf to its own edges onto
            # +inf targets, so it stays at +inf, adds no edge and seeds no A
            seeds = [v for v in changed if current[v] != INF_KEY]
            previous, sigma = sigma, next_sigma

        won = {v for v in arena.nodes if current[v] == INF_KEY}
        extracted = extract_deterministic(arena, imps.improving, current)
        sink = arena.sink
        for v in arena.player0_nodes:
            if v in won:
                target = extracted[v][0]
                if target == sink:
                    raise InvariantViolation(
                        "extracted strategy escapes from won node %d" % v)
                strategy0[v] = target
        tau = response_strategy(arena, current)
        for v in arena.player1_nodes:
            if v not in won:
                strategy1[v] = tau[v]
        valuation = to_profiles(arena, current)
    strategy0.update(prep.strategy0)
    strategy1.update(prep.strategy1)

    w0 = tuple(sorted(prep.pre_won0.union(won)))
    w1 = tuple(sorted(prep.pre_won.union(
        [v for v in arena.nodes if v not in won])))
    return SolveResult(w0, w1, strategy0, strategy1, valuation, iterations,
                       policy.name, stats)


def replay_verify(game: ParityGame, result: SolveResult) -> None:
    """Check the winning strategies by replay on the plain game graph.

    The winning sets must partition the game: `w0` and `w1` together,
    sorted, are 0..n-1.  Every strategy edge must be an edge of the
    game, and restricting won player-0 nodes to their strategy edge must
    leave no odd-dominated cycle reachable from the player-0 winning
    set, and symmetrically for player 1.  Each winning set is walked in
    ascending order, with no set made of it.  Raises InvariantViolation
    otherwise.
    """
    if sorted([*result.w0, *result.w1]) != list(range(game.n)):
        raise InvariantViolation("winning sets do not partition the game")

    owner, successors = game.owner, game.successors
    for player, won, strategy, bad_parity in (
            (0, result.w0, result.strategy0, 1),
            (1, result.w1, result.strategy1, 0)):
        succ = list(successors)
        for v in sorted(won):
            if owner[v] == player:
                if v not in strategy:
                    raise InvariantViolation(
                        "player-%d strategy misses won node %d" % (player, v))
                if strategy[v] not in successors[v]:
                    raise InvariantViolation(
                        "player-%d strategy moves from node %d along "
                        "(%d,%r), which is not an edge of the game"
                        % (player, v, v, strategy[v]))
                succ[v] = (strategy[v],)
        offenders = find_dominated_cycle_nodes(reachable(succ, won), succ,
                                               game.color, bad_parity)
        if offenders:
            raise InvariantViolation(
                "player-%d strategy admits a losing cycle through %s"
                % (player, sorted(offenders)))
