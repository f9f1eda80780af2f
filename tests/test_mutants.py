"""The committed mutation checks of `tools/mutants.py`: every patch still
applies to the package and leaves valid Python, and, in the slow run,
the named tests pass in an unmutated copy and every mutant is killed by
the tests named for it."""

import pytest

from helpers import ROOT, load_file

tool = load_file("tools/mutants.py")


def test_every_mutant_patch_applies_once():
    names = [m.name for m in tool.MUTANTS]
    assert len(set(names)) == len(names)
    package = ROOT / "src" / "pgsi"
    for mutant in tool.MUTANTS:
        source = (package / mutant.module).read_text(encoding="utf-8")
        mutated = tool.patched(mutant, source)
        assert mutated != source, mutant.name
        # a patch that breaks the syntax fails here rather than in the
        # slow run
        compile(mutated, mutant.module, "exec")
        assert mutant.tests, mutant.name
        # a renamed test fails here rather than as a usage error of the
        # slow run
        for test in mutant.tests:
            path, _, name = test.partition("::")
            name = name.partition("[")[0]
            module = ROOT / path
            assert module.is_file(), test
            assert "def %s(" % name in module.read_text(encoding="utf-8"), \
                test


@pytest.mark.slow
def test_the_named_tests_pass_in_an_unmutated_copy():
    # otherwise a test that fails in the copy for want of a file kills
    # every mutant that names it, whatever the mutant changes
    done = tool.baseline()
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


@pytest.mark.slow
@pytest.mark.parametrize("name", [m.name for m in tool.MUTANTS])
def test_mutant_is_killed(name):
    mutant = next(m for m in tool.MUTANTS if m.name == name)
    assert tool.run(mutant).startswith("killed")
