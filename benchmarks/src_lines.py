"""Count the lines of a package's Python source, in all and of code alone.

Usage (from the repository root):

    python3 benchmarks/src_lines.py [DIR]

DIR defaults to src/repclass. The script prints one JSON line with the
total lines of the .py files under DIR and their code lines: the lines
that are not blank, not a comment alone and not part of a docstring (the
string that opens a module, class or function body).
"""

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path


def count(source):
    """(total lines, code lines) of one Python source text."""
    lines = source.splitlines()
    skip = {i for i, line in enumerate(lines, 1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            skip.add(tok.start[0])
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return len(lines), len(lines) - len(skip)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/repclass")
    args = parser.parse_args(argv)
    totals = [count(p.read_text()) for p in sorted(Path(args.dir).rglob("*.py"))]
    print(json.dumps({"lines": sum(t for t, _ in totals), "code_lines": sum(c for _, c in totals)}))


if __name__ == "__main__":
    main()
