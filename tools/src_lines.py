"""Count the code-only lines of the `src/portsync` modules.

A code-only line holds at least one token other than a comment or a
docstring, as `tokenize` reads the file; blank lines, comment lines and
the lines of a string statement (a docstring) do not count.  A token
that spans lines counts each line it spans.

Run from the repository root:

    python tools/src_lines.py [directory]

It prints one count per module, then the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of `text` holding a token other than a
    comment or a docstring (a logical line of strings alone)."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for t in tokenize.generate_tokens(io.StringIO(text).readline):
        if t.type in _LAYOUT:
            continue
        if t.type != tokenize.NEWLINE:
            statement.append(t)
            continue
        if any(s.type != tokenize.STRING for s in statement):
            for s in statement:
                lines.update(range(s.start[0], s.end[0] + 1))
        statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "portsync")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
