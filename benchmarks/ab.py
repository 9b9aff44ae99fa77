"""Parent/change A/B of one perfbench workload, added to a BENCH_*.json file.

Usage (from the repository root):

    python3 benchmarks/ab.py --parent ../parent-checkout --change . \
        --workload sparse_src --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 30 \
        --out BENCH_sparse_src.json

Each seed is one pair: `perfbench/run.py --workload W --seed S --seconds T`
runs once in each checkout, one after the other, parent first on odd pairs
and change first on even ones, so a drift of the machine's speed does not
favour one side. A run that perfbench reports incorrect, or that has no
metrics, stops the A/B with its side, seed and perfbench's problems. Each
side of a pair also runs one untimed `repclass experiment` on the pair's
data (perfbench's generator, one BLAS thread) and records that report's
`stages` and solver totals (`solver_iterations`, `solver_inner_iterations`
where the side reports it, `n_not_converged`, `max_gap`), so the A/B shows
whether both sides did the same solver work. The output holds every pair's
end-to-end metrics, checks and report record, each side's environment stamp
(git SHA, whether `src/` is at it, source digest, nproc, BLAS build and
thread count), and per metric the median and quartiles of each side plus the
number of pairs the change wins.

--out keeps every A/B run into it: the file is {"workload", "points"},
where points maps the change side's git SHA (its HEAD, or its source digest
outside a git checkout) to that A/B. A new A/B is added as a point, and one
whose SHA is already there replaces it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# the report fields that an A/B point records from each side's experiment run
REPORT_FIELDS = ("stages", "solver_iterations", "solver_inner_iterations", "n_not_converged", "max_gap")

# run in a checkout: write perfbench's data for one workload and seed to a
# temporary directory, run `repclass experiment` on it, print the report
_EXPERIMENT = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
from repclass import cli
from repclass.harness import save_dataset
data, config, _ = workloads.build(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
with tempfile.TemporaryDirectory() as work:
    work = Path(work)
    save_dataset(data, work / "data.rpm")
    (work / "config.json").write_text(json.dumps(config))
    cli.main(["experiment", "--data", str(work / "data.rpm"), "--config", str(work / "config.json"),
              "--out", str(work / "report.json"), "--log", str(work / "queries.jsonl")])
    print((work / "report.json").read_text())
"""


def run_side(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`: (detail line, result line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{checkout}: perfbench printed no result (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_report(checkout, workload, seed):
    """The REPORT_FIELDS of one untimed `repclass experiment` run in
    `checkout` on the data of (workload, seed), with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _EXPERIMENT, workload, str(seed)],
        cwd=checkout, capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: repclass experiment failed (exit {proc.returncode})\n{proc.stderr}")
    report = json.loads(proc.stdout)
    return {k: report[k] for k in REPORT_FIELDS if k in report}


def src_at_git_sha(checkout):
    """Whether `src/` equals the checkout's commit (None outside a git checkout).

    perfbench stamps the commit's SHA; an uncommitted change to `src/` is
    told apart by this flag and by the stamp's `src_sha256` digest."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no", "--", "src"],
        cwd=checkout, capture_output=True, text=True,
    )
    return proc.stdout == "" if proc.returncode == 0 else None


def point_key(stamp):
    """The key of an A/B point: the change side's git SHA, else its source digest."""
    return stamp["git_sha"] or stamp["src_sha256"]


def read_points(path, workload):
    """The A/B points already in `path` (none if it does not exist)."""
    if not path.exists():
        return {}
    held = json.loads(path.read_text())
    if held.get("workload") != workload:
        raise SystemExit(f"{path} holds workload {held.get('workload')!r}, not {workload!r}")
    return held["points"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated; one pair per seed")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds: the summary takes quartiles over the pairs")
    out_path = Path(args.out)
    points = read_points(out_path, args.workload)
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    pairs, stamps = [], {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            detail, result = run_side(sides[side], args.workload, seed, args.seconds)
            if not (result["correct"] and result["metrics"]):
                raise SystemExit(
                    f"{side} ({sides[side]}), seed {seed}: perfbench reported correct: "
                    f"{json.dumps(result['correct'])} and {len(result['metrics'])} metrics; "
                    f"problems: {json.dumps(detail['problems'])}"
                )
            stamp = dict(detail["environment"], src_at_git_sha=src_at_git_sha(sides[side]))
            stamps.setdefault(side, stamp)
            pair[side] = {
                "correct": result["correct"],
                "failed": result["failed"],
                "digest": detail["digest"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "report": run_report(sides[side], args.workload, seed),
            }
        pairs.append(pair)
        print(json.dumps(pair), file=sys.stderr, flush=True)

    summary = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "better": direction,
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    points[point_key(stamps["change"])] = {
        "command": f"perfbench/run.py --workload {args.workload} --seed SEED --seconds {args.seconds:g}",
        "environment": stamps,
        "summary": summary,
        "pairs": pairs,
    }
    out = {"workload": args.workload, "points": points}
    out_path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
