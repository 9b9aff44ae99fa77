"""benchmarks/src_lines.py counts a package's lines, in all and of code."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "benchmarks" / "src_lines.py"
)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment line
X = 1  # a trailing comment keeps its line


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        s = """a string that is not a docstring
        counts as code"""
        return s
'''


def test_src_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    assert src_lines.count(MODULE) == (16, 6)
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(MODULE)
    (pkg / "sub" / "b.py").write_text("def g():\n    return 1\n")
    (pkg / "notes.txt").write_text("not python\n")
    src_lines.main([str(pkg)])
    assert json.loads(capsys.readouterr().out) == {"lines": 18, "code_lines": 8}
