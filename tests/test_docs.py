"""The README's Python example runs, and every name the package exports
resolves, so a deleted entry point cannot stay behind in either."""

import re
from pathlib import Path

import repclass
from repclass.harness import synthetic_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


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
