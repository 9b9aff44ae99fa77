"""Run the benchmark over several seeds and summarise the run-to-run spread.

Usage (from the repository root):

    python3 perfbench/sweep.py [--workloads eigenface_crc,corrupt_rcrc,sparse_src] \
        [--seeds 1-10] [--trace 0] [--out perfbench/results/NAME.json] [--record]

For every workload (default: all in BENCHMARK.json) and seed (default: 1)
it runs perfbench/run.py once with the run_seconds of BENCHMARK.json and
prints every metric by name with its unit; it exits nonzero as soon as a
run fails its correctness checks. It then prints, per metric, the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median, flagging an end-to-end spread above a third of its
bound. --out writes every run's metrics, the summary and the environment
stamp as JSON. --record stores each seed's recognition rate and prediction
digest in perfbench/expected.json, which run.py checks later runs against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed checks {detail['problems']}")
    return detail, result


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expected_path = HERE / "expected.json"
    expected = json.loads(expected_path.read_text())
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            detail, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            calls = detail["calls"]
            raw = statistics.median(w for w, t in zip(calls["wall_s"], calls["traced"]) if not t)
            runs.append({"seed": seed, "metrics": metrics, "speed": detail["speed"],
                         "raw_run_s": raw, "calls": calls})
            report["environment"] = detail["environment"]
            if args.record:
                expected.setdefault(workload, {})[str(seed)] = {
                    "recognition_rate": detail["recognition_rate"], "digest": detail["digest"],
                }
            print(f"{workload} seed {seed}: speed={detail['speed']:.3f} raw_run_s={raw:.4g} "
                  + ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {k: summarize([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
        # diagnostics: the machine's speed and the uncorrected wall time
        summary["speed"] = summarize([r["speed"] for r in runs])
        summary["raw_run_s"] = summarize([r["raw_run_s"] for r in runs])
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for k, s in summary.items():
            flag = " (over a third of its bound)" if k in bounds and k != "setup_s" and s["spread"] > bounds[k] / 3 else ""
            print(f"  {workload} {k}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.3f}{flag}")
    if args.record:
        expected_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
