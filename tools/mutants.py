"""Mutation checks for src/pgsi.

Each mutant is a small source patch: a module of the package, a piece of
its text that must occur exactly once, the text that replaces it, and the
tests that should fail once it does.  For each mutant the tool copies
what the tests read (src/, tests/, tools/, benchmark/ without its out/,
pyproject.toml and BENCHMARK.json) to a temporary directory, applies the
patch there, runs the named tests against the mutated copy in one pytest
process, and reports the mutant killed when they fail, alive when they
pass.  Mutants run one after another, one pytest process at a time.
A kill counts only if the named tests pass in an unmutated copy built
the same way, which `baseline` runs.
Run from anywhere:

    python3 tools/mutants.py             # every mutant
    python3 tools/mutants.py NAME ...    # the named mutants
    python3 tools/mutants.py --list      # names and what each breaks

It prints one line per mutant and exits with status 0 when every mutant
it ran was killed, 1 otherwise.  A surviving mutant is mended by a test
that kills it, never by dropping the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# a mutant whose tests run longer than this counts as killed by timeout
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    what: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


ARENA = "arena.py"
A = "tests/test_arena.py::"
PROFILES = "profiles.py"
P = "tests/test_profiles.py::"
R = A + "test_parse_refusal_messages"
O = "tests/test_oracle.py::"

MUTANTS = (
    Mutant(
        "marks-from-the-sentinel",
        "the first piece's mark equals the sentinel of the ids that are no "
        "nodes, so the decomposition walks into them",
        ARENA, "    mark = size\n", "    mark = size - 1\n",
        (A + "test_state_list_bounds_match_the_unpeeled_reference",
         A + "test_analyses_agree_on_every_table_form")),
    Mutant(
        "tarjan-keeps-yielded-components",
        "Tarjan leaves a closed component's preorder numbers in place, so "
        "a later edge into it lowers a low-link",
        ARENA,
        "                    for u in comp:\n"
        "                        state[u] = 0\n"
        "                    if len(comp) > 1",
        "                    if len(comp) > 1",
        (A + "test_sccs_match_the_two_pass_reference",
         A + "test_cycle_finder_matches_reachability_oracle")),
    Mutant(
        "sccs-drop-self-loop-nodes",
        "`_sccs` leaves out every one-node component, so a node whose "
        "only cycle is its self-loop is in no piece",
        ARENA,
        "                    if len(comp) > 1 or v in succ[v]:\n",
        "                    if len(comp) > 1:\n",
        (A + "test_sccs_match_the_two_pass_reference",
         A + "test_odd_self_loop_is_dominated")),
    Mutant(
        "peel-counts-non-nodes",
        "the peel counts the in-edges of ids that are no nodes as well",
        ARENA,
        "            if state[t] <= 0:\n"
        "                state[t] -= 1\n",
        "            state[t] -= 1\n",
        (A + "test_state_list_keeps_in_edges_of_non_nodes_out_of_the_counts",
         A + "test_state_list_bounds_match_the_unpeeled_reference")),
    Mutant(
        "peel-takes-one-in-edge",
        "the peel also removes the nodes with one in-edge left",
        ARENA,
        "    peeled = [v for v in nodes if not state[v]]\n",
        "    peeled = [v for v in nodes if state[v] >= -1]\n",
        (A + "test_peeled_decomposition_matches_the_unpeeled_reference",
         A + "test_cycle_finder_matches_reachability_oracle")),
    Mutant(
        "blind-to-even-tops",
        "the decomposition yields no piece whose top is even",
        ARENA,
        "                pieces.append((high, comp))\n",
        "                if parity:\n"
        "                    pieces.append((high, comp))\n",
        (A + "test_cycle_finder_matches_reachability_oracle",)),
    Mutant(
        "never-finds-a-cycle",
        "the decomposition starts from an empty worklist",
        ARENA,
        "    work = [left]\n",
        "    work = []\n",
        (A + "test_cycle_finder_matches_reachability_oracle",)),
    Mutant(
        "early-exit-on-small-residue",
        "the decomposition returns when the peel leaves fewer than 3 nodes",
        ARENA,
        "    if not left:\n",
        "    if len(left) < 3:\n",
        (A + "test_cycle_finder_matches_reachability_oracle",)),
    Mutant(
        "top-ignores-parity",
        "a piece's top is its highest color of either parity, so a piece "
        "topped by the other parity goes back on the worklist whole",
        ARENA,
        "            if c > top and c % 2 == parity:\n",
        "            if c > top:\n",
        (A + "test_no_piece_reaches_the_scc_pass_twice",)),
    Mutant(
        "counters-from-zero",
        "an opponent's counter in `attractor` starts at 0 instead of its "
        "successor count",
        ARENA,
        "                left = (remaining[v] or len(succ[v])) - 1\n",
        "                left = remaining[v] - 1\n",
        (A + "test_attractor_matches_the_level_by_level_reference",)),
    Mutant(
        "first-smaller-rank-edge",
        "`attractor` gives a player node its first successor of smaller "
        "rank instead of the smallest-id one",
        ARENA,
        "                edge = u\n"
        "                for t in succ[v]:\n"
        "                    if t < edge and rank[t] < r:\n"
        "                        edge = t\n",
        "                edge = next(t for t in succ[v] if rank[t] < r)\n",
        (A + "test_attractor_on_sparse_ids_by_hand",
         A + "test_attractor_matches_the_level_by_level_reference")),
    Mutant(
        "attractor-target-unbounded",
        "`attractor` checks a target id against `preds` without its range "
        "test, so a negative id reads an entry from the end of the list",
        ARENA,
        "        if not 0 <= t < size or preds[t] is None:\n",
        "        if preds[t] is None:\n",
        (A + "test_attractor_rejects_foreign_target",
         A + "test_attractor_on_sparse_ids_matches_the_reference")),
    Mutant(
        "cycle-pieces-drop-self-loops",
        "the cycle strategy leaves each piece node's self-loop out of the "
        "in-piece edges it chooses from, so a one-node piece's witness "
        "gets no edge",
        ARENA,
        "                if dist.get(t, closer) < closer and ",
        "                if t != v and dist.get(t, closer) < closer and ",
        (A + "test_cycle_kernels_match_the_references_on_the_tiny_batch_games",
         A + "test_dominated_cycle_strategy_matches_the_bfs_reference")),
    Mutant(
        "piece-bfs-largest-id-edge",
        "a cycle piece's member takes its largest-id successor one step "
        "closer to the witness, the witness its largest-id one in the piece",
        ARENA,
        "(edge < 0 or t < edge)",
        "(edge < 0 or t > edge)",
        (A + "test_cycle_kernels_match_the_references_on_the_tiny_batch_games",
         A + "test_dominated_cycle_strategy_matches_the_bfs_reference")),
    Mutant(
        "piece-bfs-leaves-the-piece",
        "the BFS of a cycle piece also follows a predecessor outside the "
        "piece, so a member may move out of it",
        ARENA,
        "                if dist.get(w, 0) < 0:\n",
        "                if dist.get(w, -1) < 0:\n",
        (A + "test_cycle_kernels_match_the_references_on_the_tiny_batch_games",)),
    Mutant(
        "arena-preds-over-game-edges",
        "the arena's predecessor table is built over the game's successors "
        "instead of the kept edges",
        ARENA,
        "predecessors(nodes, succ, sink)",
        "predecessors(nodes, successors, sink)",
        (A + "test_arena_predecessor_table_holds_the_kept_edges",
         A + "test_preprocess_builds_the_arena_over_the_nodes_left")),
    Mutant(
        "predecessors-skip-the-first-node",
        "`predecessors` leaves out the edges of the first node",
        ARENA,
        "    for v in nodes:\n"
        "        for t in succ[v]:\n"
        "            preds[t].append(v)\n",
        "    for v in list(nodes)[1:]:\n"
        "        for t in succ[v]:\n"
        "            preds[t].append(v)\n",
        (A + "test_arena_predecessor_table_holds_the_kept_edges",
         A + "test_attractor_matches_the_level_by_level_reference")),
    Mutant(
        "oracle-reads-every-edge",
        "the oracle's walk follows every player-0 predecessor, whatever "
        "edge the enumerated strategy gives it",
        "oracle.py",
        "            if u not in seen and v in succ[u]:\n",
        "            if u not in seen:\n",
        (O + "test_oracle_matches_the_enumerator_on_the_tiny_batch_games",
         O + "test_solver_matches_oracle",
         O + "test_oracle_witness_matches_solver_strategy_region")),
    Mutant(
        "oracle-keeps-the-last-best",
        "the oracle keeps a strategy that loses as many nodes as the best "
        "so far, so the last of the best is the witness",
        "oracle.py",
        "        bound = len(best_losers)\n",
        "        bound = len(best_losers) + 1\n",
        (O + "test_oracle_matches_the_enumerator_on_the_tiny_batch_games",
         O + "test_oracle_keeps_the_first_best_strategy")),
    Mutant(
        "oracle-drops-one-node-early",
        "the oracle's walk leaves a strategy once it holds one node fewer "
        "than the best strategy's losers, so a strategy that loses fewer "
        "can be passed over",
        "oracle.py",
        "                if len(queue) >= bound:\n",
        "                if len(queue) >= bound - 1:\n",
        (O + "test_oracle_matches_the_enumerator_on_the_tiny_batch_games",
         O + "test_oracle_keeps_the_first_best_strategy")),
    Mutant(
        "oracle-keeps-changed-pieces",
        "the oracle walks from every piece of the last strategy decomposed, "
        "also one whose player-0 node changed its edge, so it can leave a "
        "strategy that loses fewer nodes than the best",
        "oracle.py",
        "            kept = [v for piece in pieces if changed.isdisjoint(piece)\n"
        "                    for v in piece]\n",
        "            kept = [v for piece in pieces for v in piece]\n",
        (O + "test_oracle_matches_the_enumerator_on_the_tiny_batch_games",
         O + "test_oracle_keeps_the_first_best_strategy")),
    Mutant(
        "oracle-never-skips",
        "the oracle decomposes every strategy, also one its kept pieces "
        "already rule out; the results stay the same",
        "oracle.py",
        "            if kept and _losers(kept, preds, succ, bound) is None:\n"
        "                continue\n",
        "",
        (O + "test_oracle_skips_the_strategies_its_kept_pieces_rule_out",)),
    Mutant(
        "partition-check-drops-duplicates",
        "`replay_verify` sorts a set of both winning sets, so a duplicate "
        "passes the partition check",
        "iteration.py",
        "    if sorted([*result.w0, *result.w1]) != list(range(game.n)):\n",
        "    if sorted({*result.w0, *result.w1}) != list(range(game.n)):\n",
        ("tests/test_iteration.py::"
         "test_replay_rejects_sets_that_do_not_partition",)),
    Mutant(
        "all-switches-reclassified-only",
        "`AllSwitches` returns the improving entries of its strict sources "
        "alone, so an entry whose improving edges changed keeps its old "
        "edges",
        "iteration.py",
        "        return {v: improving[v] for v in changed_nodes(strategy, "
        "improving)}\n",
        "        return {v: improving[v] for v in imps.strict}\n",
        ("tests/test_valuation.py::test_update_matches_reference_at_scale",
         "tests/test_iteration.py::"
         "test_all_switches_steps_to_the_improving_edges")),
    Mutant(
        "step-without-copy",
        "`solve` writes the entries a policy returns into the strategy a "
        "hook has seen instead of a copy",
        "iteration.py",
        "            next_sigma = sigma.copy()\n",
        "            next_sigma = sigma\n",
        ("tests/test_iteration.py::"
         "test_no_step_changes_a_dict_a_hook_has_seen",)),
    Mutant(
        "step-check-on-reclassified-only",
        "the step check visits the reclassified entries alone, not the "
        "entries the policy returned",
        "iteration.py",
        "                                   step.keys() | reclassified)\n",
        "                                   reclassified)\n",
        ("tests/test_iteration.py::"
         "test_rogue_step_caught_by_the_narrowed_check",)),
    Mutant(
        "step-check-skips-reclassified",
        "the step check visits the entries the policy returned alone, not "
        "the reclassified entries it left out",
        "iteration.py",
        "                                   step.keys() | reclassified)\n",
        "                                   step.keys())\n",
        ("tests/test_iteration.py::"
         "test_step_check_visits_reclassified_entries_the_step_left_out",)),
    Mutant(
        "seed-filter-before-step-check",
        "`solve` reads the values of the changed nodes before the step "
        "check has found them known",
        "iteration.py",
        "            step = policy.pick(arena, sigma, current, imps)\n",
        "            step = policy.pick(arena, sigma, current, imps)\n"
        "            seeds = [v for v in changed_nodes(sigma, step)\n"
        "                     if current[v] != INF_KEY]\n",
        ("tests/test_iteration.py::"
         "test_rogue_step_caught_by_the_narrowed_check[unknown-node]",)),
    Mutant(
        "seed-filter-inverted",
        "the switch region grows from the changed nodes at +inf instead of "
        "those at a finite value",
        "iteration.py",
        "            seeds = [v for v in changed if current[v] != INF_KEY]\n",
        "            seeds = [v for v in changed if current[v] == INF_KEY]\n",
        ("tests/test_iteration.py::"
         "test_every_iteration_audited_on_the_scale_games",)),
    Mutant(
        "stale-entries-from-seeds",
        "`solve` reclassifies only the changed nodes at a finite value, so "
        "a node at +inf cut down to part of its entry keeps the whole entry",
        "iteration.py",
        "_stale_entries(arena, changed, moved)",
        "_stale_entries(arena, seeds, moved)",
        ("tests/test_iteration.py::"
         "test_a_policy_narrowing_nodes_at_top_solves_alike",)),
    Mutant(
        "improvements-share-prior",
        "`improvements` writes into the improving sets of its `prior`",
        "valuation.py",
        "        improving = dict(prior.improving)\n",
        "        improving = prior.improving\n",
        ("tests/test_iteration.py::"
         "test_no_step_changes_a_dict_a_hook_has_seen",)),
    Mutant(
        "every-improving-edge-strict",
        "`improvements` counts an edge that only realizes the current "
        "value as strict",
        "valuation.py",
        "                    if x != need:\n"
        "                        better.append(t)\n",
        "                    better.append(t)\n",
        ("tests/test_valuation.py::"
         "test_improvements_escape_only_is_already_optimal",
         "tests/test_valuation.py::test_improvement_sets_are_consistent")),
    Mutant(
        "frontier-lists-non-arena-edges",
        "the frontier pass lists a player-0 source for a kept edge that is "
        "no arena edge, so the sweep settles that source",
        "valuation.py",
        "            if player1 or t in escape_choices[s]:\n"
        "                sources.append(s)\n",
        "            sources.append(s)\n",
        ("tests/test_valuation.py::"
         "test_update_rejects_strategy_edge_outside_the_arena",)),
    Mutant(
        "relaxation-skips-the-weight-check",
        "the Dijkstra relaxation takes an edge of negative weight",
        "valuation.py",
        "                if w < 0:\n",
        "                if False:\n",
        ("tests/test_valuation.py::test_update_rejects_negative_edge_weight",
         "tests/test_valuation.py::"
         "test_update_names_the_cheapest_leaving_edge_of_a_player1_node")),
    Mutant(
        "frontier-relaxes-its-preds",
        "a settled frontier node relaxes its predecessor table instead of "
        "the region sources listed for it",
        "valuation.py",
        "        for s in into[v] if v in into else preds[v]:\n",
        "        for s in preds[v]:\n",
        ("tests/test_valuation.py::"
         "test_update_reads_the_predecessor_tables_of_the_region_alone",)),
    Mutant(
        "realizing-takes-the-largest-id",
        "the realizing-edge rule takes the largest realizing id",
        "valuation.py",
        "        picked[v] = min(picks)\n",
        "        picked[v] = max(picks)\n",
        ("tests/test_valuation.py::"
         "test_response_picks_the_minimal_successor",
         "tests/test_iteration.py::"
         "test_extracted_strategy_reproduces_the_valuation")),
    Mutant(
        "realizing-takes-the-first",
        "the realizing-edge rule takes the first realizing choice, which "
        "for player 1 need not have the smallest id",
        "valuation.py",
        "        picked[v] = min(picks)\n",
        "        picked[v] = picks[0]\n",
        ("tests/test_valuation.py::"
         "test_response_picks_the_minimal_successor",
         "tests/test_valuation.py::test_response_realizes_the_valuation")),
    Mutant(
        "lt-across-bases",
        "`<` compares the keys of two bases instead of refusing them",
        PROFILES,
        "            if basis is other._basis or basis is None "
        "or other._basis is None:\n",
        "            if other._basis is other._basis:\n",
        (P + "test_values_of_two_solves_are_equal_but_do_not_mix",
         P + "test_gapped_profiles_of_two_bases_mix")),
    Mutant(
        "add-across-bases",
        "`+` adds the keys of two bases instead of refusing them",
        PROFILES,
        "            if basis is other._basis and basis is not None:\n"
        "                out = _new(ColorProfile)\n"
        "                out._d, out._pairs, out._key, out._basis = \\\n"
        "                    self._d, None, self._key + other._key, basis\n",
        "            if basis is not None and other._basis is not None:\n"
        "                out = _new(ColorProfile)\n"
        "                out._d, out._pairs, out._key, out._basis = \\\n"
        "                    self._d, None, self._key + other._key, basis\n",
        (P + "test_values_of_two_solves_are_equal_but_do_not_mix",
         P + "test_gapped_profiles_of_two_bases_mix")),
    Mutant(
        "hash-of-the-key",
        "`hash` reads the key, so equal values of two bases hash apart",
        PROFILES,
        "        return hash(self._key if self._d is None "
        "else self._nonzero())\n",
        "        return hash(self._key)\n",
        (P + "test_equal_profiles_of_different_widths",
         P + "test_gapped_keys_decode_to_profiles_in_game_colors")),
    Mutant(
        "decode-drops-the-borrow",
        "`_decode` shifts the key without taking a negative digit off "
        "first, so the digit above it reads one too high",
        PROFILES,
        "            key = (key - f) >> b\n",
        "            key = key >> b\n",
        (P + "test_packed_order_matches_reference_at_extreme_digits",
         P + "test_basis_keys_add_subtract_and_order_like_count_tuples")),
    Mutant(
        "parse-header-after-node-lines",
        "a header line after a node line is skipped instead of refused",
        ARENA,
        "            if header_allowed and not entries and "
        "_HEADER_RE.match(line):\n",
        "            if header_allowed and _HEADER_RE.match(line):\n",
        (R + "[late-header]",)),
    Mutant(
        "parse-duplicate-unchecked",
        "a node line whose numbers convert overwrites an earlier line "
        "with its id",
        ARENA,
        "        if node in entries:\n"
        "            raise FormatError(\"line %d: duplicate node id %d\" "
        "% (lineno, node))\n"
        "        entries[node] = entry\n",
        "        entries[node] = entry\n",
        (R + "[duplicate-id]", A + "test_parse_rejects_malformed")),
    Mutant(
        "parse-gapped-ids-off-by-one",
        "the id check lets the id n through, so a gap reaches the columns",
        ARENA, "    if max(entries) >= n:\n", "    if max(entries) > n:\n",
        (R + "[gapped-ids]",)),
    Mutant(
        "parse-undeclared-off-by-one",
        "the successor range check lets the successor n through to "
        "ParityGame, which refuses it with ValueError",
        ARENA,
        "    if max(chain.from_iterable(succs)) >= n:\n",
        "    if max(chain.from_iterable(succs)) > n:\n",
        (R + "[undeclared-successor]",)),
    Mutant(
        "refusal-color-before-successors",
        "the error path converts the color before the successors, so it "
        "names the color of a line with both oversized",
        ARENA,
        "    for piece in groups[3].split(\",\"):\n"
        "        piece = piece.strip()\n"
        "        if not piece:\n"
        "            raise FormatError(\"line %d: empty successor entry\" "
        "% lineno)\n"
        "        _number(piece, lineno)\n"
        "    _number(groups[1], lineno)\n",
        "    _number(groups[1], lineno)\n"
        "    for piece in groups[3].split(\",\"):\n"
        "        piece = piece.strip()\n"
        "        if not piece:\n"
        "            raise FormatError(\"line %d: empty successor entry\" "
        "% lineno)\n"
        "        _number(piece, lineno)\n",
        (R + "[oversized-color-and-successor]",
         R + "[oversized-color-and-empty-entry]")),
    Mutant(
        "refusal-skips-the-duplicate-id",
        "the error path names a bad number on a line whose id repeats an "
        "earlier one",
        ARENA,
        "    node = _number(groups[0], lineno)\n"
        "    if node in entries:\n"
        "        raise FormatError(\"line %d: duplicate node id %d\" "
        "% (lineno, node))\n",
        "    node = _number(groups[0], lineno)\n",
        (R + "[duplicate-and-empty-entry]",
         R + "[duplicate-and-oversized-successor]")),
    Mutant(
        "game-keeps-repeated-successors",
        "the storing step keeps every successor tuple as it comes, so "
        "repeated successors stay",
        ARENA,
        "            ts if len(ts) < 2 or len(set(ts)) == len(ts)\n"
        "            else tuple(dict.fromkeys(ts)) for ts in successors]))\n",
        "            ts for ts in successors]))\n",
        (A + "test_game_collapses_duplicate_edges",
         A + "test_parse_stores_what_the_game_would")),
    Mutant(
        "game-sorts-repeated-successors",
        "the storing step sorts the successors it rebuilds without repeats",
        ARENA,
        "            else tuple(dict.fromkeys(ts)) for ts in successors]))\n",
        "            else tuple(sorted(set(ts))) for ts in successors]))\n",
        (A + "test_game_collapses_duplicate_edges",
         A + "test_parse_stores_what_the_game_would")),
    Mutant(
        "repeat-test-skips-pairs",
        "the storing step takes the repeat test's shortcut for a tuple of "
        "two successors too, so a repeated pair stays",
        ARENA,
        "            ts if len(ts) < 2 or len(set(ts)) == len(ts)\n",
        "            ts if len(ts) < 3 or len(set(ts)) == len(ts)\n",
        (A + "test_game_is_an_immutable_hashable_value",
         A + "test_parse_stores_what_the_game_would")),
    Mutant(
        "one-successor-digit-by-digit",
        "the parser's one-call conversion of a field without a comma "
        "converts it digit by digit, so the successor 10 reads as 1, 0",
        ARENA,
        "                     else (int(targets),), name)\n",
        "                     else tuple(map(int, targets)), name)\n",
        (A + "test_parse_stores_what_the_game_would",
         A + "test_parse_matches_the_reference_on_the_benchmark_texts")),
    Mutant(
        "game-keeps-caller-lists",
        "a game keeps the owner and color lists it is given",
        ARENA,
        "        owner, color = tuple(owner), tuple(color)\n",
        "        owner, color = owner, color\n",
        (A + "test_round_trip_random_games",)),
    Mutant(
        "bellman-ford-first-sweep-empty",
        "no row reading the sink is due in the first sweep, so nothing is "
        "ever evaluated",
        "valuation.py",
        "        if owner_of[v] == 0 and sink in strategy[v]:\n"
        "            due[p] = 1\n",
        "        if owner_of[v] == 0 and sink in strategy[v]:\n"
        "            pass\n",
        ("tests/test_valuation.py::test_bellman_ford_matches_every_row_sweeps",)),
    Mutant(
        "bellman-ford-skips-player1-readers",
        "an update queues only the player-0 rows that read it, so a "
        "player-1 row keeps a minimum over stale values",
        "valuation.py",
        "                    if owner_of[s] == 1 or v in strategy[s]:\n",
        "                    if owner_of[s] == 0 and v in strategy[s]:\n",
        ("tests/test_valuation.py::test_bellman_ford_matches_every_row_sweeps",)),
    Mutant(
        "cli-solve-skips-replay",
        "`pgsi solve` prints the result of `solve` without replaying it",
        "cli.py",
        "    replay_verify(game, result)\n",
        "",
        ("tests/test_cli.py::test_solve_prints_nothing_replay_rejects",)),
    Mutant(
        "game-equality-ignores-names",
        "two games that differ only in their node names compare equal",
        ARENA,
        "                and self.successors == other.successors\n"
        "                and self.names == other.names)\n",
        "                and self.successors == other.successors)\n",
        (A + "test_game_is_an_immutable_hashable_value",)),
)


def patched(mutant: Mutant, source: str) -> str:
    """`source` with the mutant's patch applied; ValueError unless its
    text occurs exactly once."""
    found = source.count(mutant.old)
    if found != 1:
        raise ValueError("mutant %s: its text occurs %d times in %s"
                         % (mutant.name, found, mutant.module))
    return source.replace(mutant.old, mutant.new)


def run_tests(tests: tuple[str, ...],
              mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """One pytest process that runs `tests` in a copy of what they read,
    with `mutant`'s patch applied when one is given; TimeoutExpired past
    TIMEOUT_S."""
    with tempfile.TemporaryDirectory(prefix="pgsi-mutant-") as tmp:
        work = Path(tmp)
        for tree in ("src", "tests", "tools", "benchmark"):
            shutil.copytree(ROOT / tree, work / tree,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          "out"))
        shutil.copy(ROOT / "pyproject.toml", work)
        shutil.copy(ROOT / "BENCHMARK.json", work)
        if mutant is not None:
            target = work / "src" / "pgsi" / mutant.module
            target.write_text(
                patched(mutant, target.read_text(encoding="utf-8")),
                encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *tests],
            cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(work / "src")})


def baseline() -> subprocess.CompletedProcess:
    """Every test a mutant names, run once in an unmutated copy: a
    named test that fails there, say on a file the copy lacks, would
    count every mutant naming it as killed."""
    return run_tests(tuple(sorted({t for m in MUTANTS for t in m.tests})))


def run(mutant: Mutant) -> str:
    """'killed' or 'alive': the named tests run against a mutated copy."""
    try:
        done = run_tests(mutant.tests, mutant)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    if done.returncode == 0:
        return "alive"
    if done.returncode == 1:
        return "killed"
    # 2-5: interrupted, internal error, usage error or no tests collected
    raise RuntimeError("mutant %s: pytest exited with %d\n%s"
                       % (mutant.name, done.returncode,
                          done.stdout[-2000:] + done.stderr[-2000:]))


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print("%-34s %s" % (m.name, m.what))
        return 0
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print("unknown mutant(s): %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    alive = 0
    for mutant in [by_name[name] for name in argv] if argv else MUTANTS:
        verdict = run(mutant)
        alive += verdict == "alive"
        print("%-34s %s" % (mutant.name, verdict), flush=True)
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
