"""The committed mutation checks of `tools/mutants.py`: every patch still
applies to the package, and, in the slow run, every mutant is killed by
the tests named for it."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_mutant_patch_applies_once():
    tool = _load_tool()
    names = [m.name for m in tool.MUTANTS]
    assert len(set(names)) == len(names)
    package = TOOL.parents[1] / "src" / "pgsi"
    for mutant in tool.MUTANTS:
        source = (package / mutant.module).read_text(encoding="utf-8")
        assert tool.patched(mutant, source) != source, mutant.name
        assert mutant.tests, mutant.name
        # a renamed test fails here rather than as a usage error of the
        # slow run
        for test in mutant.tests:
            path, _, name = test.partition("::")
            name = name.partition("[")[0]
            module = TOOL.parents[1] / path
            assert module.is_file(), test
            assert "def %s(" % name in module.read_text(encoding="utf-8"), \
                test


@pytest.mark.slow
@pytest.mark.parametrize("name", [m.name for m in _load_tool().MUTANTS])
def test_mutant_is_killed(name):
    tool = _load_tool()
    mutant = next(m for m in tool.MUTANTS if m.name == name)
    assert tool.run(mutant).startswith("killed")
