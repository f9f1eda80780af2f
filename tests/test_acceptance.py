"""End-to-end acceptance gates, one test per shipping criterion.

Each test prints a single `ACCEPTANCE <n> PASS/FAIL` line straight to the
terminal (bypassing capture) with the measured evidence, then asserts.
The seeded counts in those lines fingerprint the solver's behaviour, so
the tests assert their exact values: a change that moves one on purpose
updates it here and says why.
"""

import json
import random
import time

import pytest

from pgsi import (oracle_solve, parse_pgsolver, policy_by_name, replay_verify,
                  serialize_pgsolver, solve)
from pgsi.arena import build_escape_arena, preprocess
from pgsi.cli import DEG2_BASE, generate_game, main, random_game
from pgsi.iteration import (BACKENDS, POLICY_NAMES,
                            enumerate_direct_improvements,
                            extract_deterministic)
from pgsi.profiles import (ColorProfile, NEG_INFINITY, POS_INFINITY,
                           path_value, zero_profile)
from pgsi.valuation import (improvements, initial_strategy, is_reasonable,
                            valuate_bellman_ford, valuate_dijkstra)


CORPUS_SIZE = 1000
RANDOM_POLICY_SEED = 5


def corpus_game(seed):
    rng = random.Random(77_000 + seed)
    nodes = rng.randint(1, 8)
    colors = rng.randint(1, 4)
    degree = rng.randint(1, 3)
    return random_game(rng, nodes, degree, colors, 0.5)


def verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print("ACCEPTANCE %d %s (%s)" % (number, "PASS" if ok else "FAIL",
                                         detail))
    assert ok, detail


class StepAuditor:
    """Watches one solver run: every iterate must stay reasonable and the
    valuation must grow, strictly somewhere, at every step."""

    def __init__(self, arena):
        self.arena = arena
        self.prev = None
        self.steps = 0
        self.failures = 0

    def __call__(self, iteration, strategy, valuation, imps):
        if not is_reasonable(self.arena, strategy):
            self.failures += 1
        if self.prev is not None:
            self.steps += 1
            if any(valuation[v] < self.prev[v] for v in self.prev):
                self.failures += 1
            if not any(self.prev[v] < valuation[v] for v in self.prev):
                self.failures += 1
        self.prev = dict(valuation)


@pytest.fixture(scope="module")
def corpus():
    started = time.perf_counter()
    games = [corpus_game(seed) for seed in range(CORPUS_SIZE)]
    oracles = [oracle_solve(game) for game in games]
    return {"games": games, "oracles": oracles,
            "seconds": time.perf_counter() - started}


@pytest.fixture(scope="module")
def solver_runs(corpus):
    """Every policy x backend over the whole corpus, with step auditing."""
    started = time.perf_counter()
    results = {}
    step_count = 0
    step_failures = 0
    for name in POLICY_NAMES:
        for backend in BACKENDS:
            bucket = []
            for game in corpus["games"]:
                arena = preprocess(build_escape_arena(game)).arena
                auditor = StepAuditor(arena)
                result = solve(game, policy=policy_by_name(
                    name, RANDOM_POLICY_SEED), backend=backend,
                    on_iteration=auditor)
                step_count += auditor.steps
                step_failures += auditor.failures
                bucket.append(result)
            results[(name, backend)] = bucket
    return {"results": results, "steps": step_count,
            "step_failures": step_failures,
            "seconds": time.perf_counter() - started}


@pytest.fixture(scope="module")
def reference_walks(corpus):
    """One instrumented all-improvements walk per corpus game: both
    valuation routes at every iterate, sweep counts of every fixpoint
    run, and the final state for extraction checks."""
    comparisons = 0
    backend_mismatches = 0
    bf_calls = 0
    sweep_violations = 0
    finals = []
    for game in corpus["games"]:
        arena = preprocess(build_escape_arena(game)).arena
        if not arena.nodes:
            finals.append(None)
            continue

        def checked_bellman_ford(strategy):
            nonlocal bf_calls, sweep_violations
            sweeps = []
            vals = valuate_bellman_ford(
                arena, strategy,
                on_update=lambda s, v, old, new: sweeps.append(s))
            bf_calls += 1
            if sweeps and max(sweeps) > len(arena.nodes):
                sweep_violations += 1
            return vals

        strategy = initial_strategy(arena)
        valuation = checked_bellman_ford(strategy)
        for _ in range(4096):
            imps = improvements(arena, strategy, valuation)
            fast = valuate_dijkstra(arena, imps.improving, valuation)
            reference = checked_bellman_ford(imps.improving)
            comparisons += 1
            if fast != reference:
                backend_mismatches += 1
            if not imps.has_strict:
                break
            strategy, valuation = imps.improving, reference
        else:
            raise AssertionError("improvement walk failed to stop")
        finals.append((arena, imps, valuation))
    return {"comparisons": comparisons,
            "backend_mismatches": backend_mismatches,
            "bf_calls": bf_calls, "sweep_violations": sweep_violations,
            "finals": finals}


def test_acceptance_1_oracle_equivalence(corpus, solver_runs, capsys):
    mismatches = 0
    for bucket in solver_runs["results"].values():
        for result, reference in zip(bucket, corpus["oracles"]):
            if result.w0 != reference.w0 or result.w1 != reference.w1:
                mismatches += 1
    seconds = corpus["seconds"] + solver_runs["seconds"]
    combos = len(solver_runs["results"])
    verdict(capsys, 1, mismatches == 0 and seconds < 60,
            "%d games x %d solver configs vs oracle, %d mismatches, %.1fs"
            % (CORPUS_SIZE, combos, mismatches, seconds))


def test_acceptance_2_backend_equivalence(reference_walks, capsys):
    verdict(capsys, 2, reference_walks["backend_mismatches"] == 0
            and reference_walks["comparisons"] == 1656,
            "%d per-iteration valuation comparisons, %d mismatches"
            % (reference_walks["comparisons"],
               reference_walks["backend_mismatches"]))


def test_acceptance_3_monotone_improvement(solver_runs, capsys):
    verdict(capsys, 3, solver_runs["step_failures"] == 0
            and solver_runs["steps"] == 6422,
            "%d improvement steps audited for growth and reasonableness, "
            "%d violations"
            % (solver_runs["steps"], solver_runs["step_failures"]))


def test_acceptance_4_convergence_bound(reference_walks, capsys):
    verdict(capsys, 4, reference_walks["sweep_violations"] == 0
            and reference_walks["bf_calls"] == 2555,
            "%d fixpoint runs, %d exceeded one sweep per node"
            % (reference_walks["bf_calls"],
               reference_walks["sweep_violations"]))


def test_acceptance_5_local_optimality(capsys):
    rng = random.Random(4242)
    games_done = 0
    comparisons = 0
    failures = 0
    while games_done < 200:
        game = random_game(rng, rng.randint(2, 6), rng.randint(1, 2),
                           rng.randint(1, 4), 0.5)
        arena = preprocess(build_escape_arena(game)).arena
        if not arena.nodes:
            continue
        games_done += 1
        strategy = initial_strategy(arena)
        for _ in range(4096):
            valuation = valuate_bellman_ford(arena, strategy)
            imps = improvements(arena, strategy, valuation)
            best = valuate_bellman_ford(arena, imps.improving)
            for choice in enumerate_direct_improvements(imps.improving):
                chosen = valuate_bellman_ford(arena, choice)
                comparisons += 1
                if not all(chosen[v] <= best[v] for v in arena.nodes):
                    failures += 1
            if not imps.has_strict:
                break
            strategy = imps.improving
        else:
            raise AssertionError("improvement walk failed to stop")
    verdict(capsys, 5, failures == 0 and comparisons == 1487,
            "%d deterministic selections vs their full improvement set "
            "on %d games, %d above" % (comparisons, games_done, failures))


def test_acceptance_6_iteration_bounds(capsys):
    rng = random.Random(606)
    built = 0
    violations = 0
    max_growth_ratio = 0.0
    max_step_ratio = 0.0
    while built < 500:
        nodes = rng.randint(8, 28)
        colors = rng.randint(1, 4)
        game = generate_game(nodes, 2, colors, 0.5, rng.randrange(10 ** 9))
        p0 = len(game.player_nodes(0))
        if not 4 <= p0 <= 20:
            continue
        built += 1
        result = solve(game)
        growth_ratio = result.iterations / (3 * DEG2_BASE ** p0)
        step_ratio = ((result.iterations - 1)
                      / (game.n * (game.n / game.d + 1.0) ** game.d))
        max_growth_ratio = max(max_growth_ratio, growth_ratio)
        max_step_ratio = max(max_step_ratio, step_ratio)
        if growth_ratio > 1.0 or step_ratio > 1.0:
            violations += 1
    verdict(capsys, 6, violations == 0
            and "%.4f" % max_growth_ratio == "0.1509"
            and "%.6f" % max_step_ratio == "0.013889",
            "%d out-degree-2 games, max growth-bound ratio %.4f, "
            "max step-bound ratio %.6f, %d violations"
            % (built, max_growth_ratio, max_step_ratio, violations))


def test_acceptance_7_extraction_and_replay(corpus, solver_runs,
                                            reference_walks, capsys):
    failures = 0
    replays = 0
    for bucket in solver_runs["results"].values():
        for game, result in zip(corpus["games"], bucket):
            replays += 1
            try:
                replay_verify(game, result)
            except Exception:
                failures += 1
    extractions = 0
    for final in reference_walks["finals"]:
        if final is None:
            continue
        arena, imps, valuation = final
        extractions += 1
        extracted = extract_deterministic(arena, imps.improving, valuation)
        if not extracted.is_deterministic:
            failures += 1
        if valuate_bellman_ford(arena, extracted) != valuation:
            failures += 1
    verdict(capsys, 7, failures == 0 and replays == 6000
            and extractions == 899,
            "%d strategy replays, %d extraction revaluations, %d failures"
            % (replays, extractions, failures))


def test_acceptance_8_profile_algebra(capsys):
    rng = random.Random(31337)
    cases = 0
    failures = 0

    def profile(d):
        roll = rng.random()
        if roll < 0.05:
            return POS_INFINITY
        if roll < 0.1:
            return NEG_INFINITY
        return ColorProfile.finite([rng.randint(0, 4) for _ in range(d)])

    for _ in range(4000):
        d = rng.randint(1, 6)
        a, b, c = profile(d), profile(d), profile(d)
        if not ((a <= b or b <= a) and (b <= c or c <= b)):
            failures += 1
        if a <= b and b <= a and a != b:
            failures += 1
        lo, mid, hi = sorted([a, b, c])
        if not (lo <= mid <= hi and lo <= hi):
            failures += 1
        cases += 3

    for _ in range(3000):
        d = rng.randint(1, 6)
        a, b = profile(d), profile(d)
        c = ColorProfile.finite([rng.randint(0, 4) for _ in range(d)])
        if a <= b and not a + c <= b + c:
            failures += 1
        cases += 1

    for _ in range(3000):
        d = rng.randint(1, 6)
        a = ColorProfile.finite([rng.randint(0, 4) for _ in range(d)])
        b = ColorProfile.finite([rng.randint(0, 4) for _ in range(d)])
        if (a + b) - b != a:
            failures += 1
        cases += 1

    for _ in range(3000):
        d = rng.randint(1, 6)
        colors = [rng.randrange(d) for _ in range(rng.randint(1, 8))]
        value = path_value(colors, d)
        top_even = max(colors) % 2 == 0
        if (value > zero_profile(d)) != top_even:
            failures += 1
        if (value < zero_profile(d)) != (not top_even):
            failures += 1
        cases += 2

    verdict(capsys, 8, failures == 0 and cases == 24000,
            "%d algebra cases, %d failures" % (cases, failures))


def test_acceptance_9_scale_smoke(tmp_path, capsys):
    game = generate_game(10_000, 4, 6, 0.5, seed=424242)
    assert game.d == 6
    path = tmp_path / "large.gm"
    path.write_text(serialize_pgsolver(game), encoding="utf-8")
    started = time.perf_counter()
    code = main(["solve", str(path), "--json"])
    elapsed = time.perf_counter() - started
    data = json.loads(capsys.readouterr().out)
    partitioned = sorted(data["w0"] + data["w1"]) == list(range(game.n))
    verdict(capsys, 9, code == 0 and partitioned and elapsed < 10,
            "10000 nodes solved in %.2fs, exit %d, partition %s"
            % (elapsed, code, "ok" if partitioned else "BROKEN"))


HANDWRITTEN = [
    "0 0 0 0;\n",
    "parity 0;\n0 3 1 0;\n",
    "parity 1;\n0 2 0 1,0 \"start\";\n1 0 1 0;\n",
    "  0   4  0   1 , 2 ;\n1 3 1 2;\n2 0 0 0 \"last one\";\n",
    "parity 99;\n\n0 1 0 1;\n\n1 2 1 0;\n",
    "1 5 1 0;\n0 2 0 1,0;\n",
    "parity 3;\n3 1 0 0;\n2 2 1 3;\n1 3 0 2;\n0 4 1 1;\n",
    "0 0 0 1;\n1 1 0 2;\n2 2 0 3;\n3 3 0 0,1,2,3;\n",
    "0 10 0 0 \"only\";\n",
    "parity 2;\n0 0 1 1,2;\n1 1 0 0 \"a b\";\n2 2 1 0 \"c,d\";\n",
]


def test_acceptance_10_format_fidelity(tmp_path, capsys):
    texts = list(HANDWRITTEN)
    rng = random.Random(99)
    while len(texts) < 50:
        texts.append(serialize_pgsolver(generate_game(
            rng.randint(1, 40), rng.randint(1, 4), rng.randint(1, 6), 0.5,
            rng.randrange(10 ** 6))))
    checked = 0
    failures = 0
    for i, text in enumerate(texts):
        path = tmp_path / ("f%02d.gm" % i)
        path.write_text(text, encoding="utf-8")
        first = serialize_pgsolver(parse_pgsolver(
            path.read_text(encoding="utf-8")))
        second = serialize_pgsolver(parse_pgsolver(first))
        if first != second:
            failures += 1
        checked += 1
    verdict(capsys, 10, failures == 0 and checked == 50,
            "%d files round-tripped, %d unstable" % (checked, failures))
