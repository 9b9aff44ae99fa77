"""benchmarks/rcrc_scale.py prints one bench row per corruption level."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "rcrc_scale", Path(__file__).resolve().parent.parent / "benchmarks" / "rcrc_scale.py"
)
rcrc_scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rcrc_scale)


def test_rcrc_scale_reports_each_level(capsys):
    rcrc_scale.main(["--size", "small", "--queries", "2"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["corruption"] for line in lines] == [0.0, 0.3, 0.5]
    for line in lines:
        assert line["config"]["classifier"] == "rcrc"
        degradation = line["config"]["degradation"]
        assert (degradation["kind"], degradation["fraction"]) == ("pixel_corruption", line["corruption"])
        assert (line["pixels"], line["atoms"], line["queries"]) == (120, 18, 2)
        assert line["solver_iterations"] > 0 and line["n_not_converged"] == 0
        assert line["median_query_time"] > 0 and 0 <= line["max_gap"] <= 1e-6


def test_rcrc_scale_times_through_bench():
    source = Path(rcrc_scale.__file__).read_text()
    assert "import time" not in source and "statistics" not in source
    assert source.count("bench(") == 1
