"""Compare two experiment runs' report and query log, exactly or to a tolerance.

Usage (from the repository root):

    python3 benchmarks/equiv.py PARENT CHILD [--rtol R]

PARENT and CHILD are directories, each holding the `report.json` and
`queries.jsonl` of one run of

    repclass experiment --data D --config C --out DIR/report.json --log DIR/queries.jsonl

It prints one JSON verdict and exits 0 when the two runs agree, 1 when they
do not. The verdict names its mode:

- exact (the default): the report and every log line match byte for byte,
  leaving out each log line's `wall_time` and the report's timings
  (`mean_query_time`, `median_query_time`, `offline_time`), `stages` and
  `environment`.
- rtol (`--rtol R`): the same, except that the log's `residuals`,
  `objective`, `gap` and `sci` and the report's `max_gap` need only agree to
  R relative, |a - b| <= R * max(|a|, |b|). Predictions, iterations,
  converged flags and everything else stay exact.

In both modes the verdict gives the largest relative difference seen in each
of those tolerance fields, and the first differences found, each with its
place ("queries.jsonl:LINE.FIELD..." or "report.json.FIELD...") and both
values.
"""

import argparse
import json
import math
import sys
from pathlib import Path

# top-level keys that hold timings or the machine, not results
SKIPPED = {
    "report.json": {"mean_query_time", "median_query_time", "offline_time", "stages", "environment"},
    "queries.jsonl": {"wall_time"},
}
# keys whose numbers may differ by rounding under --rtol
TOLERANT = ("residuals", "objective", "gap", "sci", "max_gap")
SHOWN = 10  # differences listed in the verdict


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


class _Comparison:
    def __init__(self, rtol):
        self.rtol = rtol
        self.max_rel = dict.fromkeys(TOLERANT, 0.0)
        self.differences = []

    def differ(self, at, parent, child):
        self.differences.append({"at": at, "parent": parent, "child": child})

    def walk(self, at, a, b, field=None):
        """Compare a and b at place `at`; field is the tolerance field they
        sit under, if any."""
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                self.differ(at + " (keys)", list(a), list(b))
                return
            for k in a:
                self.walk(f"{at}.{k}", a[k], b[k], field or (k if k in TOLERANT else None))
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.differ(at + " (length)", len(a), len(b))
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.walk(f"{at}[{i}]", x, y, field)
        elif field is not None and _is_number(a) and _is_number(b):
            rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
            self.max_rel[field] = max(self.max_rel[field], rel)
            same = json.dumps(a) == json.dumps(b) if self.rtol is None else rel <= self.rtol
            if not same:
                self.differ(at, a, b)
        elif json.dumps(a) != json.dumps(b):
            self.differ(at, a, b)

    def document(self, at, name, a, b):
        """Compare two records of file `name`, less its SKIPPED keys."""
        skipped = SKIPPED[name]
        self.walk(at, {k: v for k, v in a.items() if k not in skipped},
                  {k: v for k, v in b.items() if k not in skipped})


def _read(run):
    run = Path(run)
    report = json.loads((run / "report.json").read_text())
    log = [json.loads(line) for line in (run / "queries.jsonl").read_text().splitlines()]
    return report, log


def compare(parent, child, rtol=None):
    """The verdict on two run directories: exact when rtol is None, else to
    rtol relative in the tolerance fields."""
    (report_a, log_a), (report_b, log_b) = _read(parent), _read(child)
    c = _Comparison(rtol)
    c.document("report.json", "report.json", report_a, report_b)
    if len(log_a) != len(log_b):
        c.differ("queries.jsonl (lines)", len(log_a), len(log_b))
    for i, (a, b) in enumerate(zip(log_a, log_b), start=1):
        c.document(f"queries.jsonl:{i}", "queries.jsonl", a, b)
    return {
        "mode": "exact" if rtol is None else "rtol",
        "rtol": rtol,
        "pass": not c.differences,
        "queries": len(log_b),
        "max_rel_diff": c.max_rel,
        "n_differences": len(c.differences),
        "differences": c.differences[:SHOWN],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory with the parent run's report.json and queries.jsonl")
    parser.add_argument("child", help="directory with the child run's report.json and queries.jsonl")
    parser.add_argument("--rtol", type=float, help="relative tolerance of the tolerance fields (default: exact)")
    args = parser.parse_args(argv)
    if args.rtol is not None and not 0 <= args.rtol < math.inf:
        parser.error(f"--rtol must be finite and nonnegative, got {args.rtol}")
    verdict = compare(args.parent, args.child, args.rtol)
    print(json.dumps(verdict))
    return 0 if verdict["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
