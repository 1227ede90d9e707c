"""Count code lines: the lines of Python sources that hold a token other
than a comment, a docstring or layout (blank lines, indentation).

A docstring here is any string that stands alone as a statement.

Usage: python tools/code_lines.py [PATH ...]   (default: src/homothetics)
Prints the total over every ``*.py`` file under the given paths.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}
_STATEMENT_END = {tokenize.NEWLINE, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold a code token."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in _LAYOUT]
    lines: set[int] = set()
    for prev, tok, nxt in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type in _STATEMENT_END:
            continue
        alone = prev is None or prev.type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and alone and nxt.type in _STATEMENT_END:
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src/homothetics")]
    files = [f for r in roots for f in (sorted(r.rglob("*.py")) if r.is_dir() else [r])]
    print(sum(code_lines(f) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
