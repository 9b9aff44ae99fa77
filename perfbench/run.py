"""repclass benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload eigenface_crc --seed 1 --seconds 30 --trace 0

Workloads are defined in perfbench/workloads.py. The run generates the
workload's dataset from --seed, writes it under .perfbench_work/, and starts
one measuring process (perfbench/worker.py) with `src` on PYTHONPATH and the
BLAS thread count pinned. That process calls
`repclass.cli.main(["experiment", ...])` one call after another for about
--seconds seconds. This script then checks the outputs and prints two JSON
lines: a detail line (environment stamp, per-call figures, prediction
digest), then the result line
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from perfbench/tracing.py. The exit code is 0 only when
every check passes.

Times are reported in reference seconds. The shared virtual machine this
benchmark was built on changes speed by up to a third from one minute to
the next, for identical work, which no amount of work per run averages out.
The worker therefore also times a fixed reference computation that does not
use repclass, before every call and after the last; every time metric is
the measured wall time divided by speed = median(reference timings) /
REFERENCE_S. A change to repclass moves the metrics in full, while a slower
or faster machine moves the reference too and cancels. The raw wall times
and the speed factor are printed on the detail line.

Checks: every call exits 0 and its report and log parse; n_queries and the
log length equal the generated test count; the rate recomputed from the log
equals the report's; every call of the run gives the same predictions and
the same rate; traced and untraced calls agree on predictions and traced
calls repeat their solver counters exactly. For seeds listed in
perfbench/expected.json the run must match the recorded one: the same rate
and predictions for closed-form CRC-RLS, and at least the recorded rate for
the iterative solvers, whose predictions may legitimately move when
convergence improves.
Other seeds must reach the workload's sanity floor. The rate checks apply
to the full size only; --size small is the self-test's reduced size.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1  # at most nproc; one thread keeps shared-machine timings steady
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 160
REFERENCE_S = 0.3  # worker.reference_seconds() on a 2 GHz Xeon vCPU


def metric_units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def environment(seed, workload):
    import importlib.util
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None  # a benchmark checkout need not be a git repository
    if Path(".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": _tree_digest(Path("src")),
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _tree_digest(root):
    import hashlib

    h = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _quantile(values, q):
    """Inclusive quantile q in (0, 1) of a sample (one value is its own)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _expected(workload, seed):
    table = json.loads((HERE / "expected.json").read_text())
    return table.get(workload, {}).get(str(seed))


def check(workload, seed, size, n_test, calls):
    """Return (list of failed checks, number of failed queries)."""
    problems = []
    failed_queries = 0
    for i, c in enumerate(calls):
        bad = []
        if c["rc"] != 0:
            bad.append(f"exit code {c['rc']}")
        elif "error" in c:
            bad.append(f"outputs do not parse: {c['error']}")
        elif c["n_queries"] != n_test or c["n_log_rows"] != n_test:
            bad.append(f"n_queries {c['n_queries']} / log rows {c['n_log_rows']} != {n_test}")
        elif c["rate_from_log"] != c["recognition_rate"]:
            bad.append("report rate differs from the log's predictions")
        if bad:
            failed_queries += n_test
            problems += [f"call {i}: {b}" for b in bad]
    ok = [c for c in calls if c["rc"] == 0 and "error" not in c]
    if len({c["digest"] for c in ok}) > 1:
        problems.append("predictions differ between calls of one run (traced or not)")
    if len({c["recognition_rate"] for c in ok}) > 1:
        problems.append("recognition rate differs between calls of one run")
    counters = [
        {k: v for k, v in c["layers"].items() if k.startswith("solvers.") and not k.endswith(("_s", "_us_per_iter"))}
        for c in ok if c.get("layers")
    ]
    if any(cnt != counters[0] for cnt in counters):
        problems.append("solver counters differ between traced calls")
    if ok and size == "full":
        rate = ok[0]["recognition_rate"]
        want = _expected(workload.name, seed)
        if want is None:
            if rate < workload.rate_floor:
                problems.append(f"rate {rate} below the sanity floor {workload.rate_floor}")
        elif workload.exact_rate and (rate, ok[0]["digest"]) != (want["recognition_rate"], want["digest"]):
            problems.append(f"rate {rate} or predictions differ from the recorded run")
        elif rate < want["recognition_rate"]:
            problems.append(f"rate {rate} below recorded {want['recognition_rate']}")
    return problems, failed_queries


def end_to_end(calls, speed, peak_rss_mb):
    plain = [c for c in calls if not c["traced"]]
    pooled = [t / speed for c in plain for t in c["wall_times"]]
    return {
        "run_s": statistics.median(c["wall_s"] for c in plain) / speed,
        "setup_s": statistics.median(c["offline_time"] for c in plain) / speed,
        "query_ms_p50": statistics.median(pooled) * 1e3,
        "query_ms_p95": _quantile(pooled, 0.95) * 1e3,
        "queries_per_s": len(pooled) / sum(pooled),
        "recognition_rate": plain[0]["recognition_rate"],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(calls, speed, units):
    traced = [c for c in calls if c["traced"]]
    plain = [c for c in calls if not c["traced"]]
    out = {}
    for k in traced[0]["layers"]:
        values = [c["layers"][k] for c in traced]
        # counters repeat exactly (checked), so they stay whole numbers
        out[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
        if units.get(k) in ("s", "us"):
            out[k] /= speed
    out["trace.overhead_s"] = (
        statistics.median(c["wall_s"] for c in traced) - statistics.median(c["wall_s"] for c in plain)
    ) / speed
    return out


def measure(workload, seed, seconds, trace, size, work):
    """Generate the inputs, run the worker, and return (n_test, worker result)."""
    from repclass.harness import save_dataset

    import workloads

    data, config, n_test = workloads.build(workload, seed, size)
    save_dataset(data, work / "data.rpm")
    del data
    (work / "config.json").write_text(json.dumps(config))
    plan = {
        "data": str(work / "data.rpm"), "config": str(work / "config.json"),
        "out": str(work / "report.json"), "log": str(work / "queries.jsonl"),
        "result": str(work / "result.json"), "seconds": seconds, "trace": bool(trace),
    }
    (work / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(work / "plan.json")], env=env)
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return n_test, None, "worker timed out"
    if rc != 0 or not (work / "result.json").exists():
        return n_test, None, f"worker exited with code {rc}"
    return n_test, json.loads((work / "result.json").read_text()), None


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    if not (Path("src") / "repclass" / "cli.py").is_file():
        print("perfbench: run from a repclass checkout root (src/repclass not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    workload = workloads.WORKLOADS[args.workload]

    Path(".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".perfbench_work"))
    try:
        n_test, result, error = measure(workload, args.seed, args.seconds, args.trace, args.size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_contents = list(Path(".perfbench_work").iterdir())
        if not with_contents:
            Path(".perfbench_work").rmdir()

    calls = result["calls"] if result else []
    problems, failed = check(workload, args.seed, args.size, n_test, calls) if calls else ([error], n_test)
    attempted = max(n_test * len(calls), n_test)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = {}
    speed = statistics.median(result["reference_s"]) / REFERENCE_S if result else None
    if calls and all(c["rc"] == 0 and "error" not in c for c in calls):
        if args.trace:
            values = per_layer(calls, speed, units)
        else:
            values = end_to_end(calls, speed, result["peak_rss_mb"])
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    detail = {
        "environment": environment(args.seed, args.workload),
        "size": args.size,
        "digest": calls[0].get("digest") if calls else None,
        "recognition_rate": calls[0].get("recognition_rate") if calls else None,
        "problems": problems,
        "speed": speed,
        "reference_s": result["reference_s"] if result else None,
        "calls": {k: [c.get(k) for c in calls] for k in ("traced", "rc", "wall_s", "offline_time")},
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    os.environ.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
    sys.exit(main())
