"""Source size of src/cpckit: physical and code lines per file and in total.

A code line holds a token that is not a comment or layout and is not part
of a docstring. Exits 1 when the package passes 3,000 physical lines or
2,000 code lines, so a cut made by reflowing layout does not pass for less
code. Run from anywhere:

    python scripts/source_size.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cpckit"
MAX_LINES, MAX_CODE_LINES = 3000, 2000
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main() -> int:
    lines = code = 0
    for path in sorted(SRC.glob("*.py")):
        src = path.read_text()
        n, c = len(src.splitlines()), code_lines(src)
        lines, code = lines + n, code + c
        print(f"{n:6d} {c:6d} {path.name}")
    print(f"{lines:6d} {code:6d} src/cpckit: physical, code lines")
    if lines > MAX_LINES or code > MAX_CODE_LINES:
        print(f"above the bounds of {MAX_LINES} physical and {MAX_CODE_LINES} code lines",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
