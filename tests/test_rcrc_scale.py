"""benchmarks/rcrc_scale.py prints one JSON line per corruption level."""

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
        assert {"ms_per_query_p50", "iterations", "converged", "max_gap"} <= set(line)
        assert (line["pixels"], line["atoms"], line["queries"]) == (120, 18, 2)
        assert len(line["iterations"]) == 2 and line["converged"] == 2
        assert line["ms_per_query_p50"] > 0 and 0 <= line["max_gap"] <= 1e-6
