"""The strategy-improvement loop and its switch policies.

Starting from the always-escape strategy the solver alternates valuation
and switching: edges strictly better than the current valuation are
switched to (the policy decides which), edges realizing it may be kept.
Values only ever grow, so the loop terminates; when no strict improvement
is left, the nodes with unbounded value are exactly the ones player 0
wins, and winning strategies for both players fall out of the final
valuation.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Mapping

from .arena import (EscapeArena, GraphView, ParityGame, build_escape_arena,
                    find_dominated_cycle_nodes, preprocess, reachable)
from .errors import EnumerationTooLarge, InvariantViolation
from .profiles import INF_KEY, ColorProfile
from .valuation import (ImprovementSets, Strategy, UpdateHook, Valuation,
                        improvements, initial_strategy, is_reasonable,
                        is_reasonable_step, response_strategy, to_profiles,
                        valuate_bellman_ford, valuate_dijkstra)

BACKEND_DIJKSTRA = "dijkstra"
BACKEND_BELLMAN_FORD = "bellman-ford"
BACKENDS = (BACKEND_DIJKSTRA, BACKEND_BELLMAN_FORD)

IterationHook = Callable[
    [int, Strategy, Mapping[int, ColorProfile], ImprovementSets], None]


class AllSwitches:
    """Switch to the full improving edge set in one step."""

    name = "all-switches"

    def pick(self, arena: EscapeArena, strategy: Strategy,
             valuation: Valuation, imps: ImprovementSets) -> Strategy:
        return imps.improving


class DeterministicAll:
    """Per improvable node the single best strict target (largest target
    value, then smallest id); other nodes keep one edge realizing the
    current value.  Produces deterministic strategies only."""

    name = "deterministic-all"

    def pick(self, arena, strategy, valuation, imps):
        choices = {}
        for v in arena.player0_nodes:
            stricts = imps.strict.get(v)
            if stricts:
                best = stricts[0]
                for t in stricts[1:]:
                    if valuation[best] < valuation[t]:
                        best = t
                choices[v] = (best,)
            else:
                kept = imps.improving.choices[v]
                choices[v] = (next(t for t in kept if t in strategy.choices[v]),)
        return Strategy(choices)


class SingleRandom:
    """Apply exactly one strict improvement per step, chosen by a seeded
    generator; all other nodes keep their value-realizing edges."""

    name = "single-random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, arena, strategy, valuation, imps):
        choices = {}
        improving = imps.improving.choices
        for v in arena.player0_nodes:
            kept = improving[v]
            choices[v] = tuple(t for t in strategy.choices[v] if t in kept)
        v, t = self._rng.choice(imps.strict_edges())
        choices[v] = (t,)
        return Strategy(choices)


POLICY_NAMES = (AllSwitches.name, DeterministicAll.name, SingleRandom.name)


def policy_by_name(name: str, seed: int | None = None):
    if name == AllSwitches.name:
        return AllSwitches()
    if name == DeterministicAll.name:
        return DeterministicAll()
    if name == SingleRandom.name:
        return SingleRandom(0 if seed is None else seed)
    raise ValueError("unknown policy %r" % name)


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration statistics of one solver run."""

    iteration: int
    strict_edges: int
    strict_sources: int
    wall_time: float

    def to_json(self) -> dict:
        return {"iteration": self.iteration, "strict_edges": self.strict_edges,
                "strict_sources": self.strict_sources}


@dataclass
class SolveResult:
    """Winning partition, winning strategies and run statistics."""

    w0: tuple[int, ...]
    w1: tuple[int, ...]
    strategy0: dict[int, int]
    strategy1: dict[int, int]
    valuation: dict[int, ColorProfile]
    iterations: int
    policy: str
    stats: list[IterationRecord] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "w0": list(self.w0),
            "w1": list(self.w1),
            "strategy0": dict(self.strategy0),
            "strategy1": dict(self.strategy1),
            "iterations": self.iterations,
            "policy": self.policy,
            "stats": [r.to_json() for r in self.stats],
        }


def _step_bound(n: int, d: int) -> float:
    """Ceiling on the number of improvement steps any policy can take:
    each step strictly raises one of at most n node values, each of which
    climbs through at most (n/d + 1)^d distinct finite profiles.  The
    bound saturates to infinity where it overflows a float."""
    if not n:
        return 0.0
    try:
        return n * (n / d + 1.0) ** d
    except OverflowError:
        return math.inf


def extract_deterministic(arena: EscapeArena, strategy: Strategy,
                          valuation: Valuation) -> Strategy:
    """Pick, per player-0 node, one strategy edge realizing the valuation
    (smallest target id).  Revaluating the result reproduces `valuation`."""
    unit = arena.unit_keys
    choices = {}
    for v in arena.player0_nodes:
        here = valuation[v]
        want = here if here == INF_KEY else here - unit[v]
        picked = None
        for t in strategy.choices[v]:
            if valuation[t] == want:
                picked = t
                break
        if picked is None:
            raise InvariantViolation(
                "node %d realizes none of its strategy edges" % v)
        choices[v] = (picked,)
    return Strategy(choices)


def enumerate_direct_improvements(improving: Strategy,
                                  cap: int = 4096) -> Iterator[Strategy]:
    """All deterministic strategies inside an improving edge set, in
    lexicographic node/target order.  Raises EnumerationTooLarge before
    yielding anything if there are more than `cap`."""
    nodes = sorted(improving.choices)
    total = 1
    for v in nodes:
        total *= len(improving.choices[v])
        if total > cap:
            raise EnumerationTooLarge(
                "more than %d deterministic selections" % cap)

    def generate():
        for combo in product(*(improving.choices[v] for v in nodes)):
            yield Strategy({v: (t,) for v, t in zip(nodes, combo)})

    return generate()


def _check_step(next_strategy: Strategy, imps: ImprovementSets) -> set[int]:
    """Validate a policy's output: inside the improving set, at least one
    strict edge taken.  Returns the switched source nodes."""
    applied = set()
    improving, strict = imps.improving.choices, imps.strict
    for v, targets in next_strategy.choices.items():
        kept = improving.get(v)
        if kept is None:
            raise InvariantViolation("policy kept unknown node %d" % v)
        stricts = strict.get(v, ())
        for t in targets:
            if t not in kept:
                raise InvariantViolation(
                    "policy chose non-improving edge (%d,%d)" % (v, t))
            if t in stricts:
                applied.add(v)
    if len(next_strategy.choices) != len(improving):
        raise InvariantViolation("policy dropped a player-0 node")
    if imps.has_strict and not applied:
        raise InvariantViolation("policy applied no strict improvement")
    return applied


def _check_progress(prev: Valuation, new: Valuation, switched: set[int]) -> None:
    """Values never shrink, +inf included, grow somewhere after a switch
    and grow strictly at every switched node."""
    if any(map(operator.gt, prev, new)):
        v = next(v for v, (before, after) in enumerate(zip(prev, new))
                 if before > after)
        raise InvariantViolation("valuation shrank at node %d" % v)
    if switched and not any(map(operator.lt, prev, new)):
        raise InvariantViolation("improvement step did not grow the valuation")
    for v in switched:
        if not prev[v] < new[v]:
            raise InvariantViolation(
                "no strict growth at switched node %d" % v)


def solve(game: ParityGame, policy=None, backend: str = BACKEND_DIJKSTRA,
          audit_every: int = 16,
          on_iteration: IterationHook | None = None,
          on_update: UpdateHook | None = None) -> SolveResult:
    """Solve a parity game: winning sets for both players, a deterministic
    winning strategy each, the final valuation and per-iteration stats.

    `backend` selects how strategies are revalued after the first
    iteration; with the fast path every `audit_every`-th iteration is
    recomputed by the reference route and compared bit for bit (0
    disables auditing; a negative value raises ValueError).  Every
    strategy is checked for reasonableness.  The first iteration and, on
    the reference backend, every iteration run the full check; other
    iterations of the fast path check only the region where an edge the
    step added can close a cycle (``is_reasonable_step``), and audit
    iterations run both checks and require the same verdict.
    `on_iteration` sees every (iteration, strategy, valuation,
    improvement sets) tuple as the run unfolds; `on_update` is handed to
    every reference valuation and sees its single updates.  The loop
    itself works on key lists (see valuation.py); the hooks and the
    result still receive values as ColorProfiles: a node -> profile
    mapping of the arena nodes and the sink, decoded only when a hook is
    attached, and the old and new profile of each update.
    """
    if backend not in BACKENDS:
        raise ValueError("unknown backend %r" % backend)
    if audit_every < 0:
        raise ValueError("audit_every must be >= 0, got %d" % audit_every)
    if policy is None:
        policy = AllSwitches()

    prep = preprocess(build_escape_arena(game))
    arena = prep.arena
    stats: list[IterationRecord] = []
    iterations = 0
    imps = None
    sigma = initial_strategy(arena)
    switched: set[int] = set()
    bound = _step_bound(len(arena.nodes), arena.d)
    strategy0: dict[int, int] = {}
    strategy1: dict[int, int] = {}
    valuation: dict[int, ColorProfile] = {}
    won: set[int] = set()

    if arena.nodes:
        current: Valuation | None = None
        while True:
            started = time.perf_counter()
            if current is None or backend == BACKEND_BELLMAN_FORD:
                new_vals = valuate_bellman_ford(arena, sigma,
                                                on_update=on_update)
                reasonable = is_reasonable(arena, sigma)
            else:
                new_vals = valuate_dijkstra(arena, sigma, current)
                reasonable = is_reasonable_step(arena, previous, sigma)
                if audit_every and (iterations + 1) % audit_every == 0:
                    audit = valuate_bellman_ford(arena, sigma,
                                                 on_update=on_update)
                    if audit != new_vals:
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
            if current is not None:
                _check_progress(current, new_vals, switched)
            current = new_vals
            imps = improvements(arena, sigma, current)
            iterations += 1
            stats.append(IterationRecord(
                iterations, sum(map(len, imps.strict.values())),
                len(imps.strict), time.perf_counter() - started))
            if on_iteration is not None:
                on_iteration(iterations, sigma, to_profiles(arena, current),
                             imps)
            if not imps.has_strict:
                break
            if iterations - 1 > bound:
                raise InvariantViolation(
                    "improvement steps exceeded the termination bound %.0f"
                    % bound)
            next_sigma = policy.pick(arena, sigma, current, imps)
            switched = _check_step(next_sigma, imps)
            previous, sigma = sigma, next_sigma

        won = {v for v in arena.nodes if current[v] == INF_KEY}
        extracted = extract_deterministic(arena, imps.improving, current)
        for v in arena.player0_nodes:
            if v in won:
                target = extracted.choices[v][0]
                if target == arena.sink:
                    raise InvariantViolation(
                        "extracted strategy escapes from won node %d" % v)
                strategy0[v] = target
        tau = response_strategy(arena, sigma, current)
        for v in arena.player1_nodes:
            if v not in won:
                strategy1[v] = tau[v][0]
        valuation = to_profiles(arena, current)
    for v in sorted(prep.pre_won):
        if game.owner[v] == 1:
            if v in prep.dominated_strategy:
                strategy1[v] = prep.dominated_strategy[v]
            else:
                strategy1[v] = prep.attractor.strategy[v]

    w0 = tuple(v for v in arena.nodes if v in won)
    w1 = tuple(sorted(set(prep.pre_won)
                      | {v for v in arena.nodes if v not in won}))
    return SolveResult(w0, w1, strategy0, strategy1, valuation, iterations,
                       policy.name, stats)


def replay_verify(game: ParityGame, result: SolveResult) -> None:
    """Check the winning strategies by replay on the plain game graph.

    Every strategy edge must be an edge of the game, and restricting won
    player-0 nodes to their strategy edge must leave no odd-dominated
    cycle reachable from the player-0 winning set, and symmetrically for
    player 1.  Raises InvariantViolation otherwise.
    """
    if set(result.w0) | set(result.w1) != set(range(game.n)) \
            or set(result.w0) & set(result.w1):
        raise InvariantViolation("winning sets do not partition the game")

    for player, won, strategy, bad_parity in (
            (0, result.w0, result.strategy0, 1),
            (1, result.w1, result.strategy1, 0)):
        won = set(won)
        succ = {}
        for v in range(game.n):
            if game.owner[v] == player and v in won:
                if v not in strategy:
                    raise InvariantViolation(
                        "player-%d strategy misses won node %d" % (player, v))
                if strategy[v] not in game.successors[v]:
                    raise InvariantViolation(
                        "player-%d strategy moves from node %d along "
                        "(%d,%r), which is not an edge of the game"
                        % (player, v, v, strategy[v]))
                succ[v] = (strategy[v],)
            else:
                succ[v] = game.successors[v]
        region = reachable(succ, won)
        view = GraphView(tuple(sorted(region)), succ,
                         {v: game.owner[v] for v in region},
                         {v: game.color[v] for v in region})
        offenders = find_dominated_cycle_nodes(view, bad_parity)
        if offenders:
            raise InvariantViolation(
                "player-%d strategy admits a losing cycle through %s"
                % (player, sorted(offenders)))
