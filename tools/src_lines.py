"""Count the lines of the package source: total and code-only, per module.

A code line holds at least one token that is not a comment, a line
break, an indent change or a docstring.  A docstring is a string
statement that stands alone on its logical line, as the first statement
of a module, class or function does.  A token that spans several lines
(a multi-line string that is not a docstring, say) counts every line it
spans.

Run from the repository root:

    python tools/src_lines.py            # src/wristband
    python tools/src_lines.py PATH...    # other files or directories
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(total, code-only) lines of one Python source text."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE:
                _add_statement(statement, code)
                statement = []
            continue
        statement.append(tok)
    _add_statement(statement, code)
    return len(source.splitlines()), len(code)


def _add_statement(tokens: list[tokenize.TokenInfo], code: set[int]) -> None:
    """Mark the lines of one logical line's tokens, unless it is a lone string (a docstring)."""
    if len(tokens) == 1 and tokens[0].type == tokenize.STRING:
        return
    for tok in tokens:
        code.update(range(tok.start[0], tok.end[0] + 1))


def _modules(paths: list[Path]) -> list[Path]:
    return sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    modules = _modules([Path(a) for a in argv] or [root / "src" / "wristband"])
    totals = [0, 0]
    for path in modules:
        total, code = count_lines(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{total:6d} {code:6d}  {path.name}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total ({len(modules)} modules): lines, code-only lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
