"""Command-line front end: solve, gen, check, trace.

Exit codes: 0 success, 1 cross-check mismatch, 2 usage or input errors,
3 internal errors (never a traceback).  `solve` prints only an answer
`replay_verify` accepts; a rejected one is an internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from typing import Iterator

from .arena import (ParityGame, parse_pgsolver, preprocess,
                    serialize_pgsolver)
from .errors import FormatError, InstanceTooLarge, SolverError
from .iteration import POLICY_NAMES, policy_by_name, replay_verify, solve
from .oracle import crosscheck


def random_game(rng: random.Random, nodes: int, degree: int, colors: int,
                p0_fraction: float = 0.5) -> ParityGame:
    """Draw a game from `rng`: per node a player-0 owner with probability
    `p0_fraction`, a color below `colors` and between 1 and `degree`
    distinct successors."""
    owner = []
    color = []
    successors = []
    for _ in range(nodes):
        owner.append(0 if rng.random() < p0_fraction else 1)
        color.append(rng.randrange(colors))
        k = rng.randint(1, min(degree, nodes))
        successors.append(tuple(rng.sample(range(nodes), k)))
    return ParityGame(tuple(owner), tuple(color), tuple(successors))


def generate_game(nodes: int, degree: int, colors: int,
                  p0_fraction: float = 0.5, seed: int = 0) -> ParityGame:
    """A reproducible random game: per node a color below `colors`, a
    player-0 owner with probability `p0_fraction` and between 1 and
    `degree` distinct successors."""
    if nodes < 1 or degree < 1 or colors < 1:
        raise ValueError("nodes, degree and colors must be positive")
    if not 0 <= p0_fraction <= 1:
        raise ValueError("p0_fraction must lie in [0, 1], got %r"
                         % p0_fraction)
    return random_game(random.Random(seed), nodes, degree, colors,
                       p0_fraction)


def fuzz_game(seed: int) -> ParityGame:
    """A small random game with seed-derived shape, for cross-checking."""
    rng = random.Random(seed)
    nodes = rng.randint(1, 8)
    colors = rng.randint(1, 4)
    degree = rng.randint(1, 3)
    return random_game(rng, nodes, degree, colors)


def _read_game(path: str) -> ParityGame:
    if path == "-":
        return parse_pgsolver(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_pgsolver(handle.read())


def _format_ids(ids) -> str:
    ids = list(ids)
    return " ".join(str(v) for v in ids) if ids else "(empty)"


def _format_strategy(strategy: dict) -> str:
    if not strategy:
        return "(empty)"
    return " ".join("%d->%d" % (v, strategy[v]) for v in sorted(strategy))


def _cmd_solve(args) -> int:
    game = _read_game(args.file)
    policy = policy_by_name(args.policy, args.seed)
    result = solve(game, policy=policy, audit_every=args.audit_every)
    replay_verify(game, result)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        print("W0: %s" % _format_ids(result.w0))
        print("W1: %s" % _format_ids(result.w1))
        print("strategy0: %s" % _format_strategy(result.strategy0))
        print("strategy1: %s" % _format_strategy(result.strategy1))
        print("iterations: %d" % result.iterations)
    return 0


def _cmd_gen(args) -> int:
    game = generate_game(args.nodes, args.degree, args.colors,
                         args.p0_fraction, args.seed)
    text = serialize_pgsolver(game)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _write_mismatch(label: str, game: ParityGame, report) -> None:
    with open("mismatch_%s.gm" % label, "w", encoding="utf-8") as handle:
        handle.write(serialize_pgsolver(game))
    with open("mismatch_%s.json" % label, "w", encoding="utf-8") as handle:
        json.dump({"w0_solver": list(report.w0_solver),
                   "w0_oracle": list(report.w0_oracle)}, handle, indent=2)


def _artifact_labels(paths: list[str]) -> Iterator[str]:
    """One mismatch artifact label per file, unique in the run: the
    file's stem, or, for files that share a stem, ``<stem>_<k>`` with k
    counting 1, 2, ... in command-line order and skipping every label
    another file of the run already has."""
    stems = [os.path.splitext(os.path.basename(path))[0] for path in paths]
    shared = {stem for stem, count in Counter(stems).items() if count > 1}
    taken = set(stems)
    for stem in stems:
        label, k = stem, 0
        while stem in shared and label in taken:
            k += 1
            label = "%s_%d" % (stem, k)
        taken.add(label)
        yield label


def _cmd_check(args) -> int:
    failures = 0
    if args.fuzz is not None:
        if args.files:
            print("check: give game files or --fuzz, not both",
                  file=sys.stderr)
            return 2
        if args.fuzz < 0:
            print("check: --fuzz must be >= 0, got %d" % args.fuzz,
                  file=sys.stderr)
            return 2
        seeds = range(args.seed, args.seed + args.fuzz)
        jobs = (("seed %d" % seed, str(seed), fuzz_game(seed))
                for seed in seeds)
    else:
        if not args.files:
            print("check: need game files or --fuzz", file=sys.stderr)
            return 2
        jobs = [(path, label, _read_game(path)) for path, label
                in zip(args.files, _artifact_labels(args.files))]

    for label, artifact, game in jobs:
        report = crosscheck(game, policy=policy_by_name(args.policy,
                                                        args.seed))
        print("%s: %s" % (label, report.describe()))
        if not report.ok:
            failures += 1
            _write_mismatch(artifact, game, report)
    if failures:
        print("%d mismatch(es)" % failures, file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    """Print the two peels of preprocessing, then every valuation of a
    `solve` run that audits every iteration.

    The peels come from `preprocess`, which `solve` then runs again on
    the same game: one line for the nodes player 1 wins before the loop
    and one for those player 0 wins, each only when it is not empty.
    Under `audit_every=1` every iteration runs the reference fixpoint
    sweeps, the ones `on_update` sees, and every iteration after the
    first compares them bit for bit with the fast route, so `--updates`
    prints the sweeps of every iteration.  Lines are printed as the run
    unfolds, so a run `solve` rejects leaves the iterations it
    completed.

    The escape sink is node `game.n`, after every game node, so a sorted
    valuation lists the arena nodes first and the sink ("bot") last.
    """
    game = _read_game(args.file)
    policy = policy_by_name(args.policy, args.seed)
    sink = game.n

    def label(v: int) -> str:
        return "bot" if v == sink else str(v)

    def on_iteration(iteration, strategy, vals, imps):
        print("iteration %d" % iteration)
        for v in sorted(vals):
            print("  %s: %s" % (label(v), vals[v]))
        strict = " ".join("%d->%s" % (v, label(t))
                          for v, t in imps.strict_edges())
        print("  strict: %s" % (strict or "(none)"))

    on_update = None
    if args.updates:
        def on_update(sweep, v, old, new):
            print("  sweep %d: %s: %s -> %s" % (sweep, label(v), old, new))

    prep = preprocess(game)
    for player, won in ((1, prep.pre_won), (0, prep.pre_won0)):
        if won:
            print("pre-won by player %d: %s" % (player,
                                                _format_ids(sorted(won))))
    result = solve(game, policy, audit_every=1, on_iteration=on_iteration,
                   on_update=on_update)
    print("iterations: %d" % result.iterations)
    return 0


def _add_policy_options(sub) -> None:
    sub.add_argument("--policy", choices=POLICY_NAMES, default=POLICY_NAMES[0])
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for the single-random policy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgsi", description="parity game solver (strategy iteration)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one game file")
    p_solve.add_argument("file", help="game file in pgsolver format, - for stdin")
    _add_policy_options(p_solve)
    p_solve.add_argument("--audit-every", type=int, default=16,
                         help="cross-check the fast valuation every N "
                              "iterations (N >= 0, 0 disables)")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random game")
    p_gen.add_argument("--nodes", type=int, default=8)
    p_gen.add_argument("--degree", type=int, default=3)
    p_gen.add_argument("--colors", type=int, default=4)
    p_gen.add_argument("--p0-fraction", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser("check",
                             help="cross-check against brute-force search")
    p_check.add_argument("files", nargs="*", help="game files to check")
    p_check.add_argument("--fuzz", type=int, default=None, metavar="N",
                         help="check N seeded random games instead")
    p_check.add_argument("--policy", choices=POLICY_NAMES,
                         default=POLICY_NAMES[0])
    p_check.add_argument("--seed", type=int, default=0,
                         help="base seed for --fuzz and the random policy")
    p_check.set_defaults(func=_cmd_check)

    p_trace = sub.add_parser("trace",
                             help="print every valuation of a solver run")
    p_trace.add_argument("file")
    _add_policy_options(p_trace)
    p_trace.add_argument("--updates", action="store_true",
                         help="also print single value updates")
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (FormatError, ValueError, InstanceTooLarge, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
