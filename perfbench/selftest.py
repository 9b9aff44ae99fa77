"""Fast self-test of the benchmark (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --size small, once untraced and once
traced, and checks that each run passes its own correctness checks, prints
exactly the metrics BENCHMARK.json names with their units, and that the
traced and untraced runs predict the same labels. It then runs the benchmark
in a directory holding only BENCHMARK.json and the benchmark's files, where
it must exit nonzero without printing a result. Exits nonzero on the first
failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = 1


def run(workload, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd, "perfbench", "run.py")), "--workload", workload, "--seed", "3",
         "--seconds", str(SECONDS), "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sections = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        digests = {}
        for trace in (0, 1):
            rc, lines, err = run(w["name"], trace)
            if rc != 0 or len(lines) < 2:
                fail(f"{w['name']} trace {trace}: exit {rc}\n{err}\n{lines[-2:]}")
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                fail(f"{w['name']} trace {trace}: {result} {detail['problems']}")
            want = {m["name"]: m["unit"] for m in sections[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{w['name']} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            digests[trace] = detail["digest"]
        if digests[0] != digests[1]:
            fail(f"{w['name']}: traced and untraced predictions differ")
        print(f"ok {w['name']}: {len(sections[0])} end-to-end and {len(sections[1])} per-layer metrics")

    bare = Path(".perfbench_work") / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        rc, lines, _ = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(Path(".perfbench_work").iterdir()):
            Path(".perfbench_work").rmdir()
    if rc == 0 or any(line.startswith('{"correct"') for line in lines):
        fail("the benchmark succeeded without the program's sources")
    print("ok: without the program's sources the benchmark exits", rc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
