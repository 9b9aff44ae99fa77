"""The README's Python example runs, every name the package exports
resolves, and every flag the README's CLI section names is a CLI option, so
a deleted entry point or flag cannot stay behind in any of them. Every
public function and class is used by the program, so a second way to the
same result cannot stay behind unused."""

import argparse
import ast
import re
from pathlib import Path

import repclass
from repclass.cli import build_parser
from repclass.harness import synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = ROOT / "src" / "repclass"

# public names that no module of the program uses, each kept for a reason
UNREFERENCED_ALLOWED = {
    "shrink": "acceptance criterion 4 checks the soft-threshold operator",
    "solve_alm_l1res": "acceptance criterion 2, and R-CRC's coder for one query",
    "write_pgm": "the PGM writer the ingest tests build their fixtures with",
}


def test_readme_example_runs(capsys):
    example = re.search(r"Example:\s*```python\n(.*?)```", README.read_text(), re.S).group(1)
    data = synthetic_dataset(n_classes=3, subspace_dim=2, ambient_dim=12, n_train=4, n_test=2, seed=1)
    train, train_labels = data.columns("train")
    queries, _ = data.columns("test")
    names = {"samples": zip(train.T, train_labels), "query": queries[:, 0], "queries": queries}
    exec(compile(example, str(README), "exec"), names)
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_every_exported_name_resolves():
    assert [name for name in repclass.__all__ if not hasattr(repclass, name)] == []


def test_every_readme_cli_flag_is_an_option():
    section = re.search(r"^## CLI\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings}
    assert "--synthetic" in flags and "--set" in flags
    assert sorted(flags - options) == []


def test_every_public_definition_is_referenced():
    # __init__ only re-exports, so its imports do not count as uses
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    public = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    assert sorted(public - used) == sorted(UNREFERENCED_ALLOWED)
