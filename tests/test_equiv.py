"""benchmarks/equiv.py passes two runs that agree and fails a perturbed one."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repclass.cli import main as repclass_main

_spec = importlib.util.spec_from_file_location(
    "equiv", Path(__file__).resolve().parent.parent / "benchmarks" / "equiv.py"
)
equiv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equiv)


@pytest.fixture
def runs(tmp_path, capsys):
    """Two `repclass experiment` runs of rcrc on one small dataset, in
    tmp_path/a and tmp_path/b: their timings differ, their results do not."""
    data = str(tmp_path / "data.rpmat")
    assert repclass_main([
        "ingest", "--synthetic", "--seed", "3", "--out", data,
        "--set", "n_classes=4", "--set", "subspace_dim=3",
        "--set", "ambient_dim=30", "--set", "n_train=6", "--set", "n_test=3",
    ]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": "rcrc"}))
    for side in ("a", "b"):
        run = tmp_path / side
        run.mkdir()
        assert repclass_main([
            "experiment", "--data", data, "--config", str(config),
            "--out", str(run / "report.json"), "--log", str(run / "queries.jsonl"),
        ]) == 0
    capsys.readouterr()
    return tmp_path / "a", tmp_path / "b"


def _perturbed(run, dest, change):
    """A copy of run in dest whose first log line is change(record)."""
    shutil.copytree(run, dest)
    lines = (dest / "queries.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    change(rec)
    lines[0] = json.dumps(rec)
    (dest / "queries.jsonl").write_text("\n".join(lines) + "\n")
    return dest


def _scale_a_residual(rec):
    label = next(iter(rec["residuals"]))
    rec["residuals"][label] *= 1 + 1e-13


def test_equiv_passes_two_runs_that_agree(runs, capsys):
    a, b = runs
    report_a, report_b = (json.loads((r / "report.json").read_text()) for r in runs)
    assert report_a["stages"] != report_b["stages"]  # timings are left out
    for argv, mode in (([], "exact"), (["--rtol", "1e-12"], "rtol")):
        assert equiv.main([str(a), str(b), *argv]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["mode"] == mode and verdict["pass"] and verdict["n_differences"] == 0
        assert verdict["queries"] == 12 and set(verdict["max_rel_diff"].values()) == {0.0}


def test_equiv_fails_a_perturbed_run(runs, tmp_path):
    a, _ = runs
    # a residual 1e-13 relative away: not the same bytes, but within 1e-12
    c = _perturbed(a, tmp_path / "c", _scale_a_residual)
    exact = equiv.compare(a, c)
    assert not exact["pass"] and exact["n_differences"] == 1
    assert exact["differences"][0]["at"].startswith("queries.jsonl:1.residuals.")
    assert 0 < exact["max_rel_diff"]["residuals"] <= 2e-13
    assert equiv.compare(a, c, rtol=1e-12)["pass"]
    assert not equiv.compare(a, c, rtol=1e-14)["pass"]
    # predictions and iterations are held exact under any tolerance
    d = _perturbed(a, tmp_path / "d", lambda rec: rec.update(predicted="nobody"))
    e = _perturbed(a, tmp_path / "e", lambda rec: rec.update(iterations=rec["iterations"] + 1))
    for run, field in ((d, "predicted"), (e, "iterations")):
        verdict = equiv.compare(a, run, rtol=1.0)
        assert not verdict["pass"]
        assert [diff["at"] for diff in verdict["differences"]] == [f"queries.jsonl:1.{field}"]
