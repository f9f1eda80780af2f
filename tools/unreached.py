"""List the statements of src/pgsi that a fixed set of runs never executes.

The runs, all under one `sys.settrace` line trace that starts before
`pgsi` is imported:

- every seed-1 instance of the four benchmark workloads that
  `benchmark/games.py` builds, solved with the policy the benchmark gives
  it (SingleRandom with the instance's policy seed, else AllSwitches) and
  certified by `replay_verify`;
- the brute-force oracle on the first 1,500 tiny-batch games;
- every policy at ``audit_every=1`` on 40 generated games
  (``generate_game(30, 3, 6, seed=s)``, s in 0..39);
- the commands ``solve``, ``solve --json``, ``trace --updates``,
  ``check`` and ``gen`` of the CLI, in process, on one small generated
  game.

A statement is one statement of a module's syntax tree, docstrings left
out.  Its own lines are its lines, decorators included, less those of
the statements nested in it, and it counts as executed when the trace
reports one of them.  Statements with no code on their own lines, such as
``global``, are not listed.  Run from anywhere:

    python3 tools/unreached.py

prints, per module, the number of statements never executed and each of
them as its line number and its first line of source, then the total.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pgsi"

ORDER = ("random-10k", "many-colours", "long-walk", "tiny-batch")
ORACLE_GAMES = 1500


def _executable_lines(code) -> set[int]:
    """The lines the instructions of `code` and its nested code carry."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """Per statement of the module at `path` that has code of its own, in
    line order: its first line and its own lines."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    code = _executable_lines(compile(tree, str(path), "exec"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            # an except clause or a match case is no statement; its body is
            blocks = [child] if isinstance(child, ast.stmt) else \
                child.body if isinstance(child, (ast.ExceptHandler,
                                                 ast.match_case)) else ()
            for inner in blocks:
                own -= set(range(inner.lineno, inner.end_lineno + 1))
        if own & code:
            found.append((first, own))
    found.sort(key=lambda entry: entry[0])
    return found


def unreached(run: Callable[[], object]) -> dict[str, list[tuple[int, str]]]:
    """Call `run` under a line trace and return, per module file name of
    src/pgsi, the statements it never executed, as (first line, that
    line's source stripped), in line order."""
    hits: dict[str, set[int]] = {}
    by_filename: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = by_filename.get(filename, False)
        if lines is False:
            path = Path(filename).resolve()
            lines = (hits.setdefault(path.name, set())
                     if path.parent == PACKAGE else None)
            by_filename[filename] = lines
        if lines is None:
            return None
        add = lines.add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(previous)

    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        seen = hits.get(path.name, set())
        source = path.read_text(encoding="utf-8").splitlines()
        report[path.name] = [(first, source[first - 1].strip())
                             for first, own in statements(path)
                             if not own & seen]
    return report


def runs() -> None:
    """The runs the module docstring lists."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    import games
    import pgsi
    from pgsi.cli import generate_game, main as cli
    from pgsi.iteration import POLICY_NAMES

    tiny = []
    for name in ORDER:
        for inst in games.WORKLOADS[name].build(1):
            game = pgsi.parse_pgsolver(inst.text)
            policy = (pgsi.AllSwitches() if inst.policy_seed is None
                      else pgsi.SingleRandom(inst.policy_seed))
            pgsi.replay_verify(game, pgsi.solve(game, policy=policy))
            if name == "tiny-batch" and len(tiny) < ORACLE_GAMES:
                tiny.append(game)
    for game in tiny:
        pgsi.oracle_solve(game)
    for seed in range(40):
        game = generate_game(30, 3, 6, seed=seed)
        for name in POLICY_NAMES:
            pgsi.solve(game, pgsi.policy_by_name(name, seed), audit_every=1)

    text = pgsi.serialize_pgsolver(generate_game(12, 3, 4, seed=1))
    with tempfile.TemporaryDirectory(prefix="pgsi-unreached-") as tmp:
        game_file = Path(tmp, "game.gm")
        game_file.write_text(text, encoding="utf-8")
        path = str(game_file)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["solve", path], ["solve", "--json", path],
                         ["trace", "--updates", path], ["check", path],
                         ["gen"]):
                if cli(argv) != 0:
                    raise SystemExit("pgsi %s failed" % " ".join(argv))


def main() -> int:
    report = unreached(runs)
    for module, entries in report.items():
        print("%s %d" % (module, len(entries)))
        for line, source in entries:
            print("  %5d  %s" % (line, source))
    print("total %d" % sum(map(len, report.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
