"""Count the code lines of the modules of src/pgsi, of tests/ and of
tools/.

A line counts when a token of code starts or continues on it.  Blank
lines, comment-only lines and statements that are only a string literal
(module, class and function docstrings) do not count.  Run from anywhere:

    python3 tools/code_lines.py

prints one line per module of src/pgsi and their total, then one total
for tests/ and one for tools/.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pgsi"

# tokens that carry no code of their own
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def file_lines(path: Path) -> int:
    return code_lines(path.read_text(encoding="utf-8"))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = file_lines(path)
        total += count
        print("%-16s %5d" % (path.name, count))
    print("%-16s %5d" % ("total", total))
    for tree in ("tests", "tools"):
        print("%-16s %5d" % (tree + "/", sum(
            map(file_lines, (ROOT / tree).glob("*.py")))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
