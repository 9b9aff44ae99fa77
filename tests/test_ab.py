"""benchmarks/ab.py keeps every A/B run into its --out file."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _fake_perfbench(monkeypatch, run_s, sha):
    """perfbench runs that read run_s[side] + seed and stamp the change side
    with sha, and experiment runs whose decide stage reads the same and whose
    solver_iterations are 10 * seed."""

    def run_side(checkout, workload, seed, seconds):
        side = "parent" if checkout == "P" else "change"
        stamp = {"git_sha": sha if side == "change" else "0" * 40, "src_sha256": side}
        detail = {"environment": stamp, "digest": "d", "problems": []}
        metrics = {"run_s": {"value": run_s[side] + seed}}
        return detail, {"correct": True, "failed": 0, "metrics": metrics}

    def run_report(checkout, workload, seed):
        side = "parent" if checkout == "P" else "change"
        return {"stages": {"decide": run_s[side] + seed}, "solver_iterations": 10 * seed}

    monkeypatch.setattr(ab, "run_side", run_side)
    monkeypatch.setattr(ab, "run_report", run_report)
    monkeypatch.setattr(ab, "src_at_git_sha", lambda checkout: True)


def _ab(tmp_path, workload="w"):
    """One two-pair A/B into tmp_path/BENCH_w.json; its change checkout's
    BENCHMARK.json lists run_s alone."""
    change = tmp_path / "change"
    change.mkdir(exist_ok=True)
    (change / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "run_s", "better": "lower"}]})
    )
    ab.main(["--parent", "P", "--change", str(change), "--workload", workload,
             "--seeds", "1,2", "--out", str(tmp_path / "BENCH_w.json")])


def test_ab_appends_a_point_per_change_sha(tmp_path, monkeypatch):
    out = tmp_path / "BENCH_w.json"
    _fake_perfbench(monkeypatch, {"parent": 2.0, "change": 1.0}, "a" * 40)
    _ab(tmp_path)
    _fake_perfbench(monkeypatch, {"parent": 2.0, "change": 3.0}, "b" * 40)
    _ab(tmp_path)
    held = json.loads(out.read_text())
    assert held["workload"] == "w" and list(held["points"]) == ["a" * 40, "b" * 40]
    assert held["points"]["a" * 40]["summary"]["run_s"]["change_wins"] == 2
    # each side of each pair records its experiment run's stages and totals
    for pair in held["points"]["a" * 40]["pairs"]:
        for side, run_s in (("parent", 2.0), ("change", 1.0)):
            report = pair[side]["report"]
            seed = pair["seed"]
            assert report == {"stages": {"decide": run_s + seed}, "solver_iterations": 10 * seed}
    assert held["points"]["b" * 40]["summary"]["run_s"]["change_wins"] == 0
    # a re-run at a SHA already there replaces its point
    _fake_perfbench(monkeypatch, {"parent": 2.0, "change": 2.5}, "a" * 40)
    _ab(tmp_path)
    held = json.loads(out.read_text())
    assert list(held["points"]) == ["a" * 40, "b" * 40]
    assert held["points"]["a" * 40]["pairs"][0]["change"]["metrics"]["run_s"] == 3.5
    # an A/B of another workload into the file is refused
    with pytest.raises(SystemExit, match="holds workload 'w'"):
        _ab(tmp_path, workload="v")


def test_run_report_records_an_experiment_in_a_checkout():
    # one untimed experiment on perfbench's corrupt_rcrc data, in this checkout
    report = ab.run_report(Path(__file__).resolve().parent.parent, "corrupt_rcrc", 1)
    assert set(report) == set(ab.REPORT_FIELDS)
    assert report["solver_iterations"] > 0 and report["solver_inner_iterations"] == 0
    assert report["n_not_converged"] == 0 and report["stages"]["decide"] > 0
