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

from pgsi import (SolveResult, oracle_solve, parse_pgsolver, policy_by_name,
                  replay_verify, serialize_pgsolver, solve)
from pgsi.arena import preprocess
from pgsi.cli import fuzz_game, generate_game, main, random_game
from pgsi.errors import InvariantViolation
from pgsi.iteration import POLICY_NAMES, extract_deterministic
from pgsi.profiles import POS_INFINITY, ProfileBasis
from pgsi.valuation import (changed_nodes, improvements, initial_strategy,
                            is_reasonable, switch_region,
                            valuate_bellman_ford, valuate_dijkstra)

from helpers import (CADENCES, enumerate_direct_improvements,
                     is_deterministic, key_of, reference_compare)


CORPUS_SIZE = 1000
RANDOM_POLICY_SEED = 5
# Observed growth base for the all-switches policy on out-degree-2 games:
# acceptance 6 checks that runs stay below `3 * DEG2_BASE ** |V0|`.
DEG2_BASE = 1.724


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
    games = [fuzz_game(77_000 + seed) for seed in range(CORPUS_SIZE)]
    oracles = [oracle_solve(game) for game in games]
    return {"games": games, "oracles": oracles,
            "seconds": time.perf_counter() - started}


@pytest.fixture(scope="module")
def solver_runs(corpus):
    """Every policy x audit cadence over the whole corpus, with step
    auditing."""
    started = time.perf_counter()
    results = {}
    step_count = 0
    step_failures = 0
    for name in POLICY_NAMES:
        for audit_every in CADENCES.values():
            bucket = []
            for game in corpus["games"]:
                arena = preprocess(game).arena
                auditor = StepAuditor(arena)
                result = solve(game, policy=policy_by_name(
                    name, RANDOM_POLICY_SEED), audit_every=audit_every,
                    on_iteration=auditor)
                step_count += auditor.steps
                step_failures += auditor.failures
                bucket.append(result)
            results[(name, audit_every)] = bucket
    return {"results": results, "steps": step_count,
            "step_failures": step_failures,
            "seconds": time.perf_counter() - started}


@pytest.fixture(scope="module")
def reference_walks(corpus):
    """One instrumented all-improvements walk per corpus game: both
    valuation routes at every iterate, sweep counts of every fixpoint
    run, and the final state for extraction checks."""
    comparisons = 0
    route_mismatches = 0
    bf_calls = 0
    sweep_violations = 0
    finals = []
    for game in corpus["games"]:
        arena = preprocess(game).arena
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
            fast = valuate_dijkstra(
                arena, imps.improving,
                switch_region(arena, imps.improving,
                              changed_nodes(strategy, imps.improving)),
                valuation)
            reference = checked_bellman_ford(imps.improving)
            comparisons += 1
            if fast != reference:
                route_mismatches += 1
            if not imps.strict:
                break
            strategy, valuation = imps.improving, reference
        else:
            raise AssertionError("improvement walk failed to stop")
        finals.append((arena, imps, valuation))
    return {"comparisons": comparisons,
            "route_mismatches": route_mismatches,
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


def test_player0_peel_is_won_by_player0_on_the_oracle_corpus(corpus):
    # player 0's peel removes only nodes of the oracle's W0, and player
    # 1's only nodes of its W1; the seeded counts pin how much each takes
    peeled = [0, 0]
    for game, oracle in zip(corpus["games"], corpus["oracles"]):
        prep = preprocess(game)
        assert prep.pre_won0 <= set(oracle.w0)
        assert prep.pre_won <= set(oracle.w1)
        peeled[0] += len(prep.pre_won0)
        peeled[1] += len(prep.pre_won)
    assert peeled == [1243, 789]


def test_acceptance_2_backend_equivalence(reference_walks, capsys):
    verdict(capsys, 2, reference_walks["route_mismatches"] == 0
            and reference_walks["comparisons"] == 1015,
            "%d per-iteration valuation comparisons, %d mismatches"
            % (reference_walks["comparisons"],
               reference_walks["route_mismatches"]))


def test_acceptance_3_monotone_improvement(solver_runs, capsys):
    verdict(capsys, 3, solver_runs["step_failures"] == 0
            and solver_runs["steps"] == 2676,
            "%d improvement steps audited for growth and reasonableness, "
            "%d violations"
            % (solver_runs["steps"], solver_runs["step_failures"]))


def test_acceptance_4_convergence_bound(reference_walks, capsys):
    verdict(capsys, 4, reference_walks["sweep_violations"] == 0
            and reference_walks["bf_calls"] == 1685,
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
        arena = preprocess(game).arena
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
            if not imps.strict:
                break
            strategy = imps.improving
        else:
            raise AssertionError("improvement walk failed to stop")
    verdict(capsys, 5, failures == 0 and comparisons == 611,
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
        if not is_deterministic(extracted):
            failures += 1
        if valuate_bellman_ford(arena, extracted) != valuation:
            failures += 1
    verdict(capsys, 7, failures == 0 and replays == 6000
            and extractions == 670,
            "%d strategy replays, %d extraction revaluations, %d failures"
            % (replays, extractions, failures))


def test_acceptance_8_profile_algebra(capsys):
    # the values the solver hands out: keys of one basis per dimension,
    # each case checked against arithmetic and reference_compare on the
    # count vectors they stand for, with +inf on top
    rng = random.Random(31337)
    cases = 0
    failures = 0
    bases = {d: ProfileBasis(d, range(d), 8) for d in range(1, 7)}

    def finite(d):
        counts = tuple(rng.randint(0, 4) for _ in range(d))
        return bases[d].from_key(key_of(bases[d], counts)), counts

    def profile(d):
        # +inf in one draw of ten
        if rng.random() < 0.1:
            return POS_INFINITY, None
        return finite(d)

    def reference(x, y):
        # reference_compare, with +inf (counts None) above every vector
        if x is None or y is None:
            return (x is None) - (y is None)
        return reference_compare(x, y)

    def order(a, b):
        return (a > b) - (a < b)

    def plus(a, c):
        # + with +inf absorbing the finite summand, as the solver's keys
        return a if a == POS_INFINITY else a + c

    def add(x, y):
        return None if x is None else tuple(map(int.__add__, x, y))

    for _ in range(4000):
        d = rng.randint(1, 6)
        drawn = [profile(d), profile(d), profile(d)]
        for (a, x), (b, y) in ((drawn[0], drawn[1]), (drawn[1], drawn[2]),
                               (drawn[0], drawn[2])):
            if order(a, b) != reference(x, y) or (a == b) != (x == y):
                failures += 1
        lo, mid, hi = sorted(drawn, key=lambda pair: pair[0])
        if not (reference(lo[1], mid[1]) <= 0 <= reference(hi[1], mid[1])
                and lo[0] <= mid[0] <= hi[0]):
            failures += 1
        cases += 3

    for _ in range(3000):
        d = rng.randint(1, 6)
        (a, x), (b, y) = profile(d), profile(d)
        c, z = finite(d)
        ac, bc = plus(a, c), plus(b, c)
        if a <= b and not ac <= bc:
            failures += 1
        if (ac.counts if ac.is_finite else None) != add(x, z) \
                or order(ac, bc) != reference(add(x, z), add(y, z)):
            failures += 1
        cases += 1

    for _ in range(3000):
        d = rng.randint(1, 6)
        (a, x), (b, y) = finite(d), finite(d)
        if (a + b) - b != a or (a + b).counts != add(x, y) \
                or (a - b).counts != tuple(map(int.__sub__, x, y)):
            failures += 1
        cases += 1

    for _ in range(3000):
        d = rng.randint(1, 6)
        colors = [rng.randrange(d) for _ in range(rng.randint(1, 8))]
        basis = bases[d]
        value, zero = basis.from_key(sum(map(basis.unit_key, colors))), \
            basis.from_key(0)
        counts = tuple(colors.count(c) for c in range(d))
        top_even = max(colors) % 2 == 0
        if value.counts != counts \
                or reference_compare(counts, (0,) * d) != (1 if top_even
                                                           else -1):
            failures += 1
        if (value > zero) != top_even:
            failures += 1
        if (value < zero) != (not top_even):
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
    # certify the CLI's own output: JSON object keys are strings
    printed = SolveResult(
        tuple(data["w0"]), tuple(data["w1"]),
        {int(v): t for v, t in data["strategy0"].items()},
        {int(v): t for v, t in data["strategy1"].items()},
        {}, data["iterations"], data["policy"], data["stats"])
    try:
        replay_verify(game, printed)
        replayed = "ok"
    except InvariantViolation as exc:
        replayed = "FAILED: %s" % exc
    verdict(capsys, 9, code == 0 and partitioned and elapsed < 10
            and replayed == "ok",
            "10000 nodes solved in %.2fs, exit %d, partition %s, replay %s"
            % (elapsed, code, "ok" if partitioned else "BROKEN", replayed))


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
