"""Seeded PGSolver text for the benchmark workloads.

The benchmark writes its own games instead of calling the package's
generator, so a change to the package cannot silently change the inputs.
Every random choice comes from a `random.Random` seeded with a string,
which Python hashes with SHA-512: the same workload seed gives
byte-identical text on every machine and interpreter run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Shape:
    """How one game is drawn.

    Each node is owned by either player with probability 1/2, takes a
    colour from `palette` and gets between 1 and `degree` distinct
    successors.  One node always takes the largest colour, so the profile
    dimension d = max(palette) + 1 is fixed by the shape.
    """

    nodes: int
    degree: int
    palette: tuple[int, ...]


@dataclass(frozen=True)
class Game:
    owner: list[int]
    color: list[int]
    succ: list[list[int]]


@dataclass(frozen=True)
class Instance:
    """One generated game as PGSolver text, with its size and digest."""

    label: str
    text: str
    n: int
    m: int
    d: int
    v0: int
    digest: str
    policy_seed: int | None = None

    def describe(self) -> dict:
        return {"label": self.label, "n": self.n, "m": self.m, "d": self.d,
                "v0": self.v0, "digest": self.digest,
                "policy_seed": self.policy_seed}


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Instance]]
    oracle: bool
    # whole passes over the instances in a timed run: fixed, so that the
    # fastest-attempt statistic does not depend on the host's speed
    passes: int
    # how many leading instances the traced run covers
    trace_instances: int


def rng_for(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def draw(shape: Shape, rng: random.Random) -> Game:
    n = shape.nodes
    owner = [rng.randrange(2) for _ in range(n)]
    color = [rng.choice(shape.palette) for _ in range(n)]
    color[rng.randrange(n)] = max(shape.palette)
    succ = [rng.sample(range(n), rng.randint(1, min(shape.degree, n)))
            for _ in range(n)]
    return Game(owner, color, succ)


def relabel(game: Game, rng: random.Random) -> Game:
    """The same game under a random permutation of node ids and of every
    successor list."""
    n = len(game.owner)
    perm = list(range(n))
    rng.shuffle(perm)
    owner, color, succ = [0] * n, [0] * n, [[]] * n
    for v in range(n):
        owner[perm[v]] = game.owner[v]
        color[perm[v]] = game.color[v]
        targets = [perm[t] for t in game.succ[v]]
        rng.shuffle(targets)
        succ[perm[v]] = targets
    return Game(owner, color, succ)


def instance(label: str, game: Game, policy_seed: int | None = None) -> Instance:
    n = len(game.owner)
    lines = ["parity %d;" % (n - 1)]
    for v in range(n):
        lines.append("%d %d %d %s;" % (v, game.color[v], game.owner[v],
                                       ",".join(map(str, game.succ[v]))))
    text = "\n".join(lines) + "\n"
    return Instance(label, text, n, sum(map(len, game.succ)),
                    max(game.color) + 1, game.owner.count(0),
                    hashlib.sha256(text.encode()).hexdigest()[:16],
                    policy_seed)


def fixed(workload: str, name: str, shape: Shape, seed: int,
          walk: int | None = None) -> Instance:
    """A structure drawn once per name, relabelled by the workload seed;
    with a `walk` number each walk gets its own relabelling and its
    SingleRandom policy seed, both from the workload seed."""
    key = (name,) if walk is None else (name, walk)
    rng = rng_for(workload, seed, *key)
    game = relabel(draw(shape, rng_for(workload, name)), rng)
    return instance("/".join(map(str, (workload,) + key)), game,
                    None if walk is None else rng.randrange(2 ** 31))


def random_10k(seed: int) -> list[Instance]:
    shape = Shape(10_000, 4, tuple(range(6)))
    return [fixed("random-10k", str(i), shape, seed) for i in range(2)]


MANY_COLOUR_SHAPES = (
    ("dense-1k", Shape(1000, 4, tuple(range(1000)))),
    ("dense-2k", Shape(2000, 4, tuple(range(2000)))),
    ("sparse-1k", Shape(1000, 4, (0, 199, 400, 599, 800, 999))),
)


def many_colours(seed: int) -> list[Instance]:
    # Fixed structures, seeded relabelling: see WORKLOADS.md.
    return [fixed("many-colours", name, shape, seed)
            for name, shape in MANY_COLOUR_SHAPES]


def long_walk(seed: int) -> list[Instance]:
    # One structure, five walks: the seed changes every walk's length, and
    # walks over one structure cost alike, so their median moves less
    # between seeds than the middle one of several structures would.
    return [fixed("long-walk", "0", Shape(300, 3, tuple(range(8))), seed,
                  walk=i) for i in range(5)]


def tiny_batch(seed: int) -> list[Instance]:
    # Fixed games, seeded relabelling, as above: which games land in the
    # slowest percent would otherwise move verified_s.p99 between seeds.
    out = []
    for i in range(8000):
        rng = rng_for("tiny-batch", i)
        shape = Shape(rng.randint(1, 8), rng.randint(1, 3),
                      tuple(range(rng.randint(1, 4))))
        game = relabel(draw(shape, rng), rng_for("tiny-batch", seed, i))
        out.append(instance("tiny-batch/%d" % i, game))
    return out


WORKLOADS = {w.name: w for w in (
    Workload("random-10k", random_10k, oracle=False, passes=4,
             trace_instances=2),
    Workload("many-colours", many_colours, oracle=False, passes=5,
             trace_instances=3),
    Workload("long-walk", long_walk, oracle=False, passes=5,
             trace_instances=2),
    Workload("tiny-batch", tiny_batch, oracle=True, passes=4,
             trace_instances=2000),
)}
