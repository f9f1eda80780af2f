"""Command-line behavior: output formats, exit codes, artifacts."""

import argparse
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings

from pgsi import (ParityGame, crosscheck, parse_pgsolver, policy_by_name,
                  serialize_pgsolver, solve)
from pgsi.cli import build_parser, fuzz_game, generate_game, main
from pgsi.errors import FormatError, InvariantViolation
from pgsi.oracle import CrosscheckReport

from conftest import fuzz_texts
from helpers import ROOT

TWO_NODE = ParityGame((0, 1), (1, 2), ((1,), (0,)))
ODD_LOOP = ParityGame((0,), (1,), ((0,),))
EVEN_LOOP2 = ParityGame((0,), (2,), ((0,),))
ODD_TRAP = ParityGame((1,), (1,), ((0,),))
# node 0 is a player-1 odd loop and node 5 a player-0 even loop, both won
# before iterating; player-0 node 1 escapes the trap by its even cycle
# through player-1 node 4, 2 follows it, 3 is stuck on an odd loop
TRAP_AND_LOOPS = ParityGame((1, 0, 0, 0, 1, 0), (1, 2, 0, 1, 0, 2),
                            ((0,), (0, 4), (1,), (3,), (1,), (5,)))


def write_game(tmp_path, game, name="game.gm"):
    path = tmp_path / name
    path.write_text(serialize_pgsolver(game), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- solve

def test_solve_human_output(tmp_path, capsys):
    path = write_game(tmp_path, TWO_NODE)
    code, out, err = run(capsys, "solve", path)
    assert code == 0 and err == ""
    assert out == ("W0: 0 1\n"
                   "W1: (empty)\n"
                   "strategy0: 0->1\n"
                   "strategy1: (empty)\n"
                   "iterations: 2\n")


def test_solve_empty_winning_set_is_marked(tmp_path, capsys):
    path = write_game(tmp_path, ODD_LOOP)
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert out.splitlines()[0] == "W0: (empty)"
    assert out.splitlines()[1] == "W1: 0"


def test_solve_json_output(tmp_path, capsys):
    path = write_game(tmp_path, TWO_NODE)
    code, out, _ = run(capsys, "solve", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["w0"] == [0, 1]
    assert data["w1"] == []
    assert data["strategy0"] == {"0": 1}
    assert data["iterations"] == 2
    assert data["policy"] == "all-switches"
    assert len(data["stats"]) == 2


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_pgsolver(TWO_NODE)))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0
    assert out.startswith("W0: 0 1\n")


def test_solve_is_deterministic(tmp_path, capsys):
    path = write_game(tmp_path, TWO_NODE)
    _, first, _ = run(capsys, "solve", path, "--json")
    _, second, _ = run(capsys, "solve", path, "--json")
    assert first == second


def test_solve_policy_and_backend_flags(tmp_path, capsys):
    # every policy solves; there is one valuation route, so neither solve
    # nor check takes a backend: --audit-every 1 runs the reference route
    # on every iteration instead
    path = write_game(tmp_path, TWO_NODE)
    for policy in ("all-switches", "deterministic-all", "single-random"):
        code, out, _ = run(capsys, "solve", path, "--policy", policy,
                           "--seed", "3", "--audit-every", "1")
        assert code == 0
        assert out.splitlines()[0] == "W0: 0 1"
    for command in ("solve", "check"):
        code, out, err = run(capsys, command, path, "--backend", "dijkstra")
        assert code == 2 and out == "", command
        assert "unrecognized arguments: --backend dijkstra" in err, command


def test_solve_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.gm"
    path.write_text("0 0 2 0;\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_solve_rejects_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/game.gm")
    assert code == 2
    assert err.startswith("error:")


def test_solve_rejects_negative_audit_every(tmp_path, capsys):
    path = write_game(tmp_path, TWO_NODE)
    code, out, err = run(capsys, "solve", path, "--audit-every", "-2")
    assert code == 2 and out == ""
    assert err == "error: audit_every must be >= 0, got -2\n"
    code, _, _ = run(capsys, "solve", path, "--audit-every", "0")
    assert code == 0


def test_internal_failures_exit_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantViolation("boom")

    monkeypatch.setattr("pgsi.cli.solve", boom)
    path = write_game(tmp_path, TWO_NODE)
    code, _, err = run(capsys, "solve", path)
    assert code == 3
    assert err == "internal error: boom\n"

    # an exception from outside the package is reported, not a traceback
    def overflow(*args, **kwargs):
        raise OverflowError("too big")

    monkeypatch.setattr("pgsi.cli.solve", overflow)
    code, _, err = run(capsys, "solve", path)
    assert code == 3
    assert err == "internal error: OverflowError: too big\n"


def test_solve_a_game_with_a_huge_color(tmp_path, capsys):
    # keys count only the colors in use, so color 10^12 takes one digit
    path = tmp_path / "huge.gm"
    path.write_text("0 1000000000000 0 0;\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["W0: 0", "W1: (empty)",
                                    "strategy0: 0->0"]


@settings(max_examples=300, deadline=None)
@given(fuzz_texts)
def test_solve_fuzz_gives_a_result_or_an_input_error(text):
    # the CLI half of the parser fuzz: a text that parses solves (exit
    # 0), any other exits 2; an internal error (3) never shows
    try:
        parse_pgsolver(text)
        expected = 0
    except FormatError:
        expected = 2
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", "-"])
    assert code == expected, err.getvalue()


# ------------------------------------------------------------------- usage

def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    capsys.readouterr()


def test_readme_synopsis_lists_every_option():
    # each subcommand has one synopsis line in README, "pgsi <name> ...",
    # which names every option the parser defines for it and no other
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        lines = re.findall(r"^pgsi +%s\b.*$" % re.escape(name), readme,
                           re.MULTILINE)
        assert len(lines) == 1, name
        defined = {option for action in sub._actions
                   for option in action.option_strings
                   if option not in ("-h", "--help")}
        for option in defined:
            assert re.search(r"(?<![\w-])%s(?![\w-])" % re.escape(option),
                             lines[0]), (name, option)
        for option in re.findall(r"(?<![\w-])--?[a-z][\w-]*", lines[0]):
            assert option in defined, (name, option)


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["solve"]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------- gen

def test_gen_is_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--nodes", "12", "--seed", "9")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--nodes", "12", "--seed", "9")
    assert first == second
    assert parse_pgsolver(first).n == 12


def test_gen_bounds_out_degree(capsys):
    code, out, _ = run(capsys, "gen", "--nodes", "40", "--degree", "2",
                       "--seed", "4")
    assert code == 0
    game = parse_pgsolver(out)
    assert all(1 <= len(ts) <= 2 for ts in game.successors)


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "out.gm"
    code, out, _ = run(capsys, "gen", "--nodes", "6", "--seed", "2",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert parse_pgsolver(target.read_text(encoding="utf-8")).n == 6


def test_gen_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "gen", "--nodes", "0")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("fraction", ["2", "-0.5", "nan"])
def test_gen_rejects_a_p0_fraction_outside_the_unit_interval(capsys,
                                                              fraction):
    code, out, err = run(capsys, "gen", "--p0-fraction", fraction)
    assert code == 2 and out == ""
    assert err.startswith("error: p0_fraction must lie in [0, 1]")


def test_generate_game_helper_matches_cli(capsys):
    _, out, _ = run(capsys, "gen", "--nodes", "7", "--seed", "11")
    assert serialize_pgsolver(generate_game(7, 3, 4, 0.5, 11)) == out


def test_fuzz_game_is_small_and_seed_stable():
    for seed in range(20):
        game = fuzz_game(seed)
        assert 1 <= game.n <= 8
        assert game.d <= 4
        assert serialize_pgsolver(game) == serialize_pgsolver(fuzz_game(seed))


# ------------------------------------------------------------------- check

def test_check_passes_on_files(tmp_path, capsys):
    a = write_game(tmp_path, TWO_NODE, "a.gm")
    b = write_game(tmp_path, ODD_LOOP, "b.gm")
    code, out, err = run(capsys, "check", a, b)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "%s: ok (w0=[0, 1], 2 iterations)" % a
    assert lines[1].startswith("%s: ok" % b)


def test_check_fuzz_campaign(capsys):
    code, out, err = run(capsys, "check", "--fuzz", "5", "--seed", "10")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("seed 10: ok")
    assert lines[4].startswith("seed 14: ok")


def test_check_rejects_a_negative_fuzz_count(capsys):
    code, out, err = run(capsys, "check", "--fuzz", "-1")
    assert code == 2 and out == ""
    assert "--fuzz must be >= 0, got -1" in err


def test_check_needs_input(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "need game files or --fuzz" in err


def test_check_refuses_files_with_fuzz(tmp_path, capsys):
    path = write_game(tmp_path, TWO_NODE)
    code, out, err = run(capsys, "check", path, "--fuzz", "2")
    assert code == 2 and out == ""
    assert err == "check: give game files or --fuzz, not both\n"


def test_check_fuzz_draws_each_game_in_its_turn(capsys, monkeypatch):
    # the campaign checks each game as it draws it, so the first verdict
    # is out before the second game exists
    drawn = []

    def one_game_only(seed):
        if drawn:
            raise RuntimeError("second game drawn")
        drawn.append(seed)
        return fuzz_game(seed)

    monkeypatch.setattr("pgsi.cli.fuzz_game", one_game_only)
    code, out, err = run(capsys, "check", "--fuzz", "3", "--seed", "4")
    assert code == 3
    assert out.splitlines() == ["seed 4: %s" % crosscheck(fuzz_game(4))
                                .describe()]
    assert err == "internal error: RuntimeError: second game drawn\n"


def test_check_honors_oracle_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOLVER_ORACLE_CAP", "1")
    game = ParityGame((0, 1), (0, 1), ((0, 1), (0,)))
    path = write_game(tmp_path, game)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "error:" in err and "cap" in err


def test_check_rejects_an_oracle_cap_that_is_no_integer(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("SOLVER_ORACLE_CAP", "x")
    code, out, err = run(capsys, "check", write_game(tmp_path, TWO_NODE))
    assert code == 2 and out == ""
    assert err == "error: SOLVER_ORACLE_CAP must be an integer, got 'x'\n"


def test_check_mismatch_writes_artifacts(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_game(tmp_path, TWO_NODE, "pair.gm")
    monkeypatch.setattr(
        "pgsi.cli.crosscheck",
        lambda game, **kw: CrosscheckReport(False, (0,), (1,), 4))
    code, out, err = run(capsys, "check", path)
    assert code == 1
    assert "MISMATCH solver-only=[0] oracle-only=[1]" in out
    assert "1 mismatch(es)" in err
    dumped = parse_pgsolver((tmp_path / "mismatch_pair.gm")
                            .read_text(encoding="utf-8"))
    assert dumped.successors == TWO_NODE.successors
    details = json.loads((tmp_path / "mismatch_pair.json")
                         .read_text(encoding="utf-8"))
    assert details == {"w0_solver": [0], "w0_oracle": [1]}


def test_check_mismatches_of_same_stem_files_keep_their_own_artifacts(
        tmp_path, capsys, monkeypatch):
    # a/g.gm and b/g.gm share a stem, so they are numbered in command-line
    # order, skipping g_2, which g_2.gm already has; pair.gm keeps its stem
    monkeypatch.chdir(tmp_path)
    games = {"a": TWO_NODE, "b": ODD_LOOP, "c": EVEN_LOOP2, "d": ODD_TRAP}
    for directory in games:
        (tmp_path / directory).mkdir()
    paths = [write_game(tmp_path / "a", games["a"], "g.gm"),
             write_game(tmp_path / "b", games["b"], "g.gm"),
             write_game(tmp_path / "c", games["c"], "g_2.gm"),
             write_game(tmp_path / "d", games["d"], "pair.gm")]
    monkeypatch.setattr(
        "pgsi.cli.crosscheck",
        lambda game, **kw: CrosscheckReport(False, (0,), (), 1))
    code, _, err = run(capsys, "check", *paths)
    assert code == 1 and "4 mismatch(es)" in err
    for label, directory in (("g_1", "a"), ("g_3", "b"), ("g_2", "c"),
                             ("pair", "d")):
        dumped = parse_pgsolver((tmp_path / ("mismatch_%s.gm" % label))
                                .read_text(encoding="utf-8"))
        assert dumped == games[directory]
        assert (tmp_path / ("mismatch_%s.json" % label)).exists()
    assert sorted(p.name for p in tmp_path.glob("mismatch_*")) == sorted(
        "mismatch_%s.%s" % (label, ext) for label in ("g_1", "g_2", "g_3",
                                                      "pair")
        for ext in ("gm", "json"))


# ------------------------------------------------------------------- trace

def test_trace_even_self_loop(tmp_path, capsys):
    # player 0's peel wins the loop, so no iteration runs
    path = write_game(tmp_path, EVEN_LOOP2)
    code, out, _ = run(capsys, "trace", path)
    assert code == 0
    assert out == ("pre-won by player 0: 0\n"
                   "iterations: 0\n")


def test_trace_two_node_alternation(tmp_path, capsys):
    path = write_game(tmp_path, TWO_NODE)
    code, out, _ = run(capsys, "trace", path)
    assert code == 0
    assert out == ("iteration 1\n"
                   "  0: (0,1,0)\n"
                   "  1: (0,1,1)\n"
                   "  bot: (0,0,0)\n"
                   "  strict: 0->1\n"
                   "iteration 2\n"
                   "  0: +inf\n"
                   "  1: +inf\n"
                   "  bot: (0,0,0)\n"
                   "  strict: (none)\n"
                   "iterations: 2\n")


def test_trace_odd_self_loop(tmp_path, capsys):
    path = write_game(tmp_path, ODD_LOOP)
    code, out, _ = run(capsys, "trace", path)
    assert code == 0
    assert out == ("iteration 1\n"
                   "  0: (0,1)\n"
                   "  bot: (0,0)\n"
                   "  strict: (none)\n"
                   "iterations: 1\n")


def test_trace_pre_won_game(tmp_path, capsys):
    path = write_game(tmp_path, ODD_TRAP)
    code, out, _ = run(capsys, "trace", path)
    assert code == 0
    assert out == ("pre-won by player 1: 0\n"
                   "iterations: 0\n")


def test_trace_updates_flag_shows_sweeps(tmp_path, capsys):
    path = write_game(tmp_path, TWO_NODE)
    code, out, _ = run(capsys, "trace", path, "--updates")
    assert code == 0
    assert "  sweep 1: 0: +inf -> (0,1,0)\n" in out


def test_trace_pre_won_then_iterations(tmp_path, capsys):
    path = write_game(tmp_path, TRAP_AND_LOOPS)
    code, out, err = run(capsys, "trace", path, "--updates")
    assert code == 0 and err == ""
    assert out == ("pre-won by player 1: 0\n"
                   "pre-won by player 0: 5\n"
                   "  sweep 1: 3: +inf -> (0,1,0)\n"
                   "  sweep 1: 2: +inf -> (1,0,0)\n"
                   "  sweep 1: 1: +inf -> (0,0,1)\n"
                   "  sweep 2: 4: +inf -> (1,0,1)\n"
                   "iteration 1\n"
                   "  1: (0,0,1)\n"
                   "  2: (1,0,0)\n"
                   "  3: (0,1,0)\n"
                   "  4: (1,0,1)\n"
                   "  bot: (0,0,0)\n"
                   "  strict: 1->4 2->1\n"
                   "  sweep 1: 3: +inf -> (0,1,0)\n"
                   "iteration 2\n"
                   "  1: +inf\n"
                   "  2: +inf\n"
                   "  3: (0,1,0)\n"
                   "  4: +inf\n"
                   "  bot: (0,0,0)\n"
                   "  strict: (none)\n"
                   "iterations: 2\n")


def test_trace_counts_the_iterations_of_solve(tmp_path, capsys):
    for seed in range(30):
        game = fuzz_game(seed)
        path = write_game(tmp_path, game)
        for policy in ("all-switches", "deterministic-all", "single-random"):
            code, out, _ = run(capsys, "trace", path, "--policy", policy,
                               "--seed", str(seed))
            assert code == 0
            expected = solve(game, policy_by_name(policy, seed),
                             audit_every=1).iterations
            assert out.splitlines()[-1] == "iterations: %d" % expected


def test_trace_prints_iterations_of_a_rejected_run(tmp_path, capsys,
                                                   monkeypatch):
    # a policy that switches nothing is rejected after the first iteration
    monkeypatch.setattr("pgsi.iteration.AllSwitches.pick",
                        lambda self, arena, strategy, vals, imps: strategy)
    path = write_game(tmp_path, TWO_NODE)
    code, out, err = run(capsys, "trace", path)
    assert code == 3
    assert out == ("iteration 1\n"
                   "  0: (0,1,0)\n"
                   "  1: (0,1,1)\n"
                   "  bot: (0,0,0)\n"
                   "  strict: 0->1\n")
    assert err == "internal error: policy applied no strict improvement\n"


def test_trace_has_no_backend_option(tmp_path, capsys):
    path = write_game(tmp_path, EVEN_LOOP2)
    code, _, _ = run(capsys, "trace", path, "--backend", "dijkstra")
    assert code == 2
