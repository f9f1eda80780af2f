"""Command-line front end: solve, gen, bench, check, trace.

Exit codes: 0 success, 1 cross-check mismatch, 2 usage or input errors,
3 internal errors (never a traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .arena import (ParityGame, build_escape_arena, parse_pgsolver,
                    preprocess, serialize_pgsolver)
from .errors import FormatError, InstanceTooLarge, SolverError
from .iteration import (BACKENDS, POLICY_NAMES, _step_bound, policy_by_name,
                        solve)
from .oracle import DEFAULT_CAP, crosscheck
from .valuation import improvements, initial_strategy, valuate_bellman_ford

# Observed growth base for the all-switches policy on out-degree-2 games;
# bench reports how far below `3 * base ** |V0|` measured runs stay.
DEG2_BASE = 1.724


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
    result = solve(game, policy=policy, backend=args.backend,
                   audit_every=args.audit_every)
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


def _cmd_bench(args) -> int:
    all_name, det_name = POLICY_NAMES[0], POLICY_NAMES[1]
    records = []
    for i in range(args.count):
        seed = args.seed + i
        game = generate_game(args.nodes, args.degree, args.colors,
                             args.p0_fraction, seed)
        row = {"seed": seed, "nodes": game.n, "colors": game.d,
               "p0_nodes": len(game.player_nodes(0))}
        for name in (all_name, det_name):
            started = time.perf_counter()
            try:
                result = solve(game, policy=policy_by_name(name),
                               backend=args.backend)
            except SolverError as exc:
                print("bench: seed %d: %s" % (seed, exc), file=sys.stderr)
                return 3
            row[name] = {"iterations": result.iterations,
                         "wall_time": time.perf_counter() - started,
                         "w0_size": len(result.w0)}
        if args.degree <= 2:
            limit = 3 * DEG2_BASE ** row["p0_nodes"]
            if row[all_name]["iterations"] > limit:
                print("bench: seed %d: %d iterations exceed the degree-2 "
                      "growth bound %.2f" % (seed, row[all_name]["iterations"],
                                             limit), file=sys.stderr)
                return 3
        records.append(row)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for row in records:
                handle.write(json.dumps(row) + "\n")

    if not records:
        print("instances: 0")
        return 0

    max_iters = max(r[all_name]["iterations"] for r in records)
    step_ratios = []
    for r in records:
        bound = _step_bound(r["nodes"], r["colors"])
        if bound:
            step_ratios.append((r[all_name]["iterations"] - 1) / bound)
    le_det = sum(r[all_name]["iterations"] <= r[det_name]["iterations"]
                 for r in records)
    print("instances: %d" % len(records))
    print("max iterations (%s): %d" % (all_name, max_iters))
    print("max step ratio vs termination bound: %.6f"
          % (max(step_ratios) if step_ratios else 0.0))
    if args.degree <= 2:
        growth = max(r[all_name]["iterations"] / (3 * DEG2_BASE ** r["p0_nodes"])
                     for r in records)
        print("max iteration ratio vs degree-2 growth bound: %.6f" % growth)
    print("%s <= %s: %d/%d" % (all_name, det_name, le_det, len(records)))
    return 0


def _oracle_cap() -> int:
    return int(os.environ.get("SOLVER_ORACLE_CAP", DEFAULT_CAP))


def _write_mismatch(label: str, game: ParityGame, report) -> None:
    with open("mismatch_%s.gm" % label, "w", encoding="utf-8") as handle:
        handle.write(serialize_pgsolver(game))
    with open("mismatch_%s.json" % label, "w", encoding="utf-8") as handle:
        json.dump({"w0_solver": list(report.w0_solver),
                   "w0_oracle": list(report.w0_oracle)}, handle, indent=2)


def _cmd_check(args) -> int:
    cap = _oracle_cap()
    failures = 0
    jobs = []
    if args.fuzz is not None:
        base = args.seed
        jobs = [("seed %d" % (base + i), str(base + i),
                 fuzz_game(base + i)) for i in range(args.fuzz)]
    else:
        if not args.files:
            print("check: need game files or --fuzz", file=sys.stderr)
            return 2
        for path in args.files:
            stem = os.path.splitext(os.path.basename(path))[0]
            jobs.append((path, stem, _read_game(path)))

    for label, artifact, game in jobs:
        report = crosscheck(game, policy=policy_by_name(args.policy,
                                                        args.seed),
                            backend=args.backend, cap=cap)
        print("%s: %s" % (label, report.describe()))
        if not report.ok:
            failures += 1
            _write_mismatch(artifact, game, report)
    if failures:
        print("%d mismatch(es)" % failures, file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    game = _read_game(args.file)
    policy = policy_by_name(args.policy, args.seed)
    prep = preprocess(build_escape_arena(game))
    arena = prep.arena
    if prep.pre_won:
        print("pre-won by player 1: %s" % _format_ids(sorted(prep.pre_won)))
    if not arena.nodes:
        print("iterations: 0")
        return 0

    def label(v: int) -> str:
        return "bot" if v == arena.sink else str(v)

    hook = None
    if args.updates:
        def hook(sweep, v, old, new):
            print("  sweep %d: %s: %s -> %s" % (sweep, label(v), old, new))

    sigma = initial_strategy(arena)
    iteration = 0
    while True:
        vals = valuate_bellman_ford(arena, sigma, on_update=hook)
        iteration += 1
        print("iteration %d" % iteration)
        for v in arena.nodes:
            print("  %d: %s" % (v, vals[v]))
        print("  bot: %s" % vals[arena.sink])
        imps = improvements(arena, sigma, vals)
        if not imps.has_strict:
            print("  strict: (none)")
            break
        print("  strict: %s" % " ".join(
            "%d->%s" % (v, label(t)) for v, t in imps.strict_edges()))
        sigma = policy.pick(arena, sigma, vals, imps)
    print("iterations: %d" % iteration)
    return 0


def _add_policy_options(sub) -> None:
    sub.add_argument("--policy", choices=POLICY_NAMES, default=POLICY_NAMES[0])
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for the single-random policy")
    sub.add_argument("--backend", choices=BACKENDS, default=BACKENDS[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgsi", description="parity game solver (strategy iteration)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one game file")
    p_solve.add_argument("file", help="game file in pgsolver format, - for stdin")
    _add_policy_options(p_solve)
    p_solve.add_argument("--audit-every", type=int, default=16,
                         help="cross-check the fast valuation every N "
                              "iterations (0 disables)")
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

    p_bench = sub.add_parser("bench", help="time policies on random games")
    p_bench.add_argument("--count", type=int, default=20)
    p_bench.add_argument("--nodes", type=int, default=16)
    p_bench.add_argument("--degree", type=int, default=2)
    p_bench.add_argument("--colors", type=int, default=4)
    p_bench.add_argument("--p0-fraction", type=float, default=0.5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--backend", choices=BACKENDS, default=BACKENDS[0])
    p_bench.add_argument("--out", default=None,
                         help="write one JSON record per instance")
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser("check",
                             help="cross-check against brute-force search")
    p_check.add_argument("files", nargs="*", help="game files to check")
    p_check.add_argument("--fuzz", type=int, default=None, metavar="N",
                         help="check N seeded random games instead")
    p_check.add_argument("--policy", choices=POLICY_NAMES,
                         default=POLICY_NAMES[0])
    p_check.add_argument("--seed", type=int, default=0,
                         help="base seed for --fuzz and the random policy")
    p_check.add_argument("--backend", choices=BACKENDS, default=BACKENDS[0])
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
