"""Reference routines that only the tests use: one application of the
valuation operator, the deterministic strategies inside an improving edge
set, a determinism predicate, and the audit cadences to solve under."""

from itertools import product
from typing import Iterator

from pgsi.errors import EnumerationTooLarge
from pgsi.profiles import INF_KEY
from pgsi.valuation import Strategy

# The audit cadences the tests solve under, by the valuation route that
# revalues every iteration after the first: at the default cadence the
# Dijkstra update does, with the reference fixpoint sweeps on every 16th
# only; at cadence 1 the reference sweeps run on every iteration too and
# must agree with the update bit for bit.
CADENCES = {"dijkstra": 16, "bellman-ford": 1}


def is_deterministic(strategy: Strategy) -> bool:
    """True iff the strategy keeps exactly one edge per node."""
    return all(len(ts) == 1 for ts in strategy.choices.values())


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
            best = max(valuation[t] for t in strategy.choices[v])
        out[v] = best if best == INF_KEY else unit[v] + best
    return out


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
