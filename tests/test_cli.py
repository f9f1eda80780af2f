"""Command-line behavior: output formats, exit codes, artifacts."""

import io
import json

import pytest

from pgsi import CrosscheckReport, ParityGame, parse_pgsolver, serialize_pgsolver
from pgsi.cli import fuzz_game, generate_game, main
from pgsi.errors import InvariantViolation

TWO_NODE = ParityGame((0, 1), (1, 2), ((1,), (0,)))
ODD_LOOP = ParityGame((0,), (1,), ((0,),))
EVEN_LOOP2 = ParityGame((0,), (2,), ((0,),))
ODD_TRAP = ParityGame((1,), (1,), ((0,),))


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
    path = write_game(tmp_path, TWO_NODE)
    for policy in ("all-switches", "deterministic-all", "single-random"):
        code, out, _ = run(capsys, "solve", path, "--policy", policy,
                           "--seed", "3", "--backend", "bellman-ford")
        assert code == 0
        assert out.splitlines()[0] == "W0: 0 1"


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


# ------------------------------------------------------------------- usage

def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["solve", "--help"]) == 0
    capsys.readouterr()


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


def test_generate_game_helper_matches_cli(capsys):
    _, out, _ = run(capsys, "gen", "--nodes", "7", "--seed", "11")
    assert serialize_pgsolver(generate_game(7, 3, 4, 0.5, 11)) == out


def test_fuzz_game_is_small_and_seed_stable():
    for seed in range(20):
        game = fuzz_game(seed)
        assert 1 <= game.n <= 8
        assert game.d <= 4
        assert serialize_pgsolver(game) == serialize_pgsolver(fuzz_game(seed))


# ------------------------------------------------------------------- bench

def test_bench_report_and_records(tmp_path, capsys):
    out_path = tmp_path / "bench.jsonl"
    code, out, _ = run(capsys, "bench", "--count", "3", "--nodes", "8",
                       "--degree", "2", "--seed", "5", "--out", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instances: 3"
    assert lines[1].startswith("max iterations (all-switches): ")
    assert lines[2].startswith("max step ratio vs termination bound: ")
    assert lines[3].startswith("max iteration ratio vs degree-2 growth bound: ")
    assert lines[4].startswith("all-switches <= deterministic-all: ")
    assert float(lines[2].rsplit(" ", 1)[1]) <= 1.0
    assert float(lines[3].rsplit(" ", 1)[1]) <= 1.0

    rows = [json.loads(line) for line in
            out_path.read_text(encoding="utf-8").splitlines()]
    assert [row["seed"] for row in rows] == [5, 6, 7]
    for row in rows:
        assert set(row) == {"seed", "nodes", "colors", "p0_nodes",
                            "all-switches", "deterministic-all"}
        for name in ("all-switches", "deterministic-all"):
            assert set(row[name]) == {"iterations", "wall_time", "w0_size"}


def test_bench_without_degree2_growth_line(capsys):
    code, out, _ = run(capsys, "bench", "--count", "2", "--nodes", "6",
                       "--degree", "3", "--seed", "1")
    assert code == 0
    assert "degree-2 growth bound" not in out


def test_bench_count_zero(capsys):
    code, out, _ = run(capsys, "bench", "--count", "0")
    assert code == 0
    assert out == "instances: 0\n"


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


def test_check_needs_input(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "need game files or --fuzz" in err


def test_check_honors_oracle_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOLVER_ORACLE_CAP", "1")
    game = ParityGame((0, 1), (0, 1), ((0, 1), (0,)))
    path = write_game(tmp_path, game)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "error:" in err and "cap" in err


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


# ------------------------------------------------------------------- trace

def test_trace_even_self_loop(tmp_path, capsys):
    path = write_game(tmp_path, EVEN_LOOP2)
    code, out, _ = run(capsys, "trace", path)
    assert code == 0
    assert out == ("iteration 1\n"
                   "  0: (0,0,1)\n"
                   "  bot: (0,0,0)\n"
                   "  strict: 0->0\n"
                   "iteration 2\n"
                   "  0: +inf\n"
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
    path = write_game(tmp_path, EVEN_LOOP2)
    code, out, _ = run(capsys, "trace", path, "--updates")
    assert code == 0
    assert "  sweep 1: 0: +inf -> (0,0,1)\n" in out
