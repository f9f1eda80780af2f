"""Names that other code looks up in the package must resolve, and the
tools that read the package work."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pgsi
from pgsi.cli import generate_game
from pgsi.iteration import replay_verify, solve
from pgsi.profiles import ProfileBasis

from helpers import loop_game

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "benchmark" / "layers.py"
CODE_LINES = ROOT / "tools" / "code_lines.py"
UNREACHED = ROOT / "tools" / "unreached.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_layers():
    return _load(LAYERS, "benchmark_layers")


def test_public_names_resolve():
    for name in pgsi.__all__:
        assert hasattr(pgsi, name), name


def test_import_loads_no_source_introspection_modules():
    # `dataclasses` pulls in inspect, ast, dis and tokenize, a quarter of
    # the import time of a fresh interpreter; the package needs none
    code = ("import sys\n"
            "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
            "before = heavy & sys.modules.keys()\n"
            "import pgsi\n"
            "print(sorted(heavy & sys.modules.keys() - before))\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout == "[]\n"


def test_benchmark_wrapped_attributes_resolve():
    # the benchmark's tracer replaces these module attributes by name; a
    # rename would otherwise surface only as a failed benchmark run
    layers = _load_layers()
    assert layers.WRAPPED
    for module_name, attr, _ in layers.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_benchmark_tracer_records_every_wrapped_lookup():
    # a refactor that moves a call off a wrapped module attribute would
    # leave its span at 0 in a traced benchmark run; here it fails
    layers = _load_layers()

    class EntryTracer(layers.Tracer):
        """Names each span by its WRAPPED entry (module, attribute), in
        the order `installed` wraps them, since span names repeat."""

        def __init__(self):
            super().__init__()
            self._entries = iter(layers.WRAPPED)

        def _wrap(self, name, fn):
            module_name, attr, _ = next(self._entries)
            return super()._wrap((module_name, attr), fn)

    tracer = EntryTracer()
    modules = {name: importlib.import_module(name)
               for name in {entry[0] for entry in layers.WRAPPED}}
    # 5 iterations, 16 nodes won by player 1 in preprocessing; as a loop
    # game it leaves player 0's peel nothing, so the loop solves the rest
    game = loop_game(generate_game(60, 3, 6, seed=7))
    with tracer.installed(modules):
        result = solve(game, audit_every=1)
        replay_verify(game, result)
    assert result.iterations > 2 and result.w1
    called = {span[0] for span in tracer.spans}
    entries = {(module_name, attr) for module_name, attr, _ in layers.WRAPPED}
    # the re-export `pgsi.valuation.attractor` is wrapped but nothing
    # calls it; ROADMAP item 2 plans to delete it with the wrapping
    assert called == entries - {("pgsi.valuation", "attractor")}


def test_benchmark_counts_profile_operators_on_the_class():
    # the benchmark's counted pass swaps these dunders in the class's own
    # dict and reads is_finite and dimension of valuation entries; a
    # mixin or functools.total_ordering would fail the run instead
    layers = _load_layers()
    cls = pgsi.ColorProfile
    assert cls.__mro__ == (cls, object)
    for _, dunder in layers.PROFILE_OPS:
        assert cls.__dict__[dunder].__module__ == "pgsi.profiles", dunder
    basis = ProfileBasis(3, range(3), 2)
    a, b = basis.from_key(basis.unit_key(2)), basis.from_key(basis.unit_key(1))
    assert a.is_finite and a.dimension == 3
    counter = layers.OpCounter()
    with counter.installed(cls):
        a + b, a < b, a == b, a - b
    assert counter.counts == {key: 1 for key, _ in layers.PROFILE_OPS}


def test_code_line_counter_skips_docstrings_comments_and_blanks():
    # the count ROADMAP and CHANGES.md quote for src/pgsi
    tool = _load(CODE_LINES, "code_lines")
    source = (
        '"""Module docstring,\n'
        'over two lines."""\n'
        '\n'
        '# a comment line\n'
        'def f(x):\n'
        '    """Function docstring."""\n'
        '    return g(x,\n'
        '             1,\n'
        '             2)  # trailing comment\n'
        '\n'
        'MESSAGE = "a string" + """inside\n'
        'an expression"""\n'
    )
    # def, the call's three lines and the assignment's two
    assert tool.code_lines(source) == 6


def test_unreached_lists_the_statements_one_solve_skips():
    tool = _load(UNREACHED, "unreached")
    game = loop_game(generate_game(60, 3, 6, seed=7))
    report = tool.unreached(lambda: solve(game))
    path = ROOT / "src" / "pgsi" / "iteration.py"
    functions = {node.name: node for node in ast.parse(
        path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)}
    # the float overflow of the step bound, and solve's first statement
    # after its docstring
    overflow = functions["_step_bound"].body[-1].handlers[0].body[0].lineno
    first = functions["solve"].body[1].lineno
    listed = dict(report["iteration.py"])
    assert listed[overflow] == "return math.inf"
    assert first not in listed
