"""Measuring process of the benchmark: repeated in-process CLI calls.

Started by run.py with the BLAS thread count pinned in its environment and
`src` on PYTHONPATH. It reads a plan (JSON) naming the dataset, config and
time budget, then calls `repclass.cli.main(["experiment", ...])` one call
after another (one closed-loop client) until the budget is spent. Traced
runs alternate untraced and traced calls. Each call's wall time covers only
`cli.main`; parsing its report and log happens between calls. Before each
call and after the last one the process times a fixed reference computation
that does not use repclass (`reference_seconds`), so run.py can correct for
the machine's speed during the run. The records, the reference timings and
the process's peak resident memory go to the plan's result path.

Usage: python3 perfbench/worker.py PLAN.json
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracing

_rng = np.random.default_rng(20120411)
_REF_M = _rng.standard_normal((300, 300)) / 300**0.5
_REF_B = _rng.standard_normal((400, 300))
_REF_V = _rng.standard_normal(300)


def reference_seconds():
    """Time a fixed mix of small numpy calls in a Python loop and one LAPACK
    SVD, the same kinds of work repclass does; about 0.3 s on a 2 GHz Xeon."""
    t0 = time.perf_counter()
    a = _REF_V.copy()
    for _ in range(8000):
        a = np.tanh(_REF_M @ a) + 0.5 * a
        np.sum(a * a)
    np.linalg.svd(_REF_B, full_matrices=False)
    return time.perf_counter() - t0


def _read_outputs(out, log):
    """Parse one call's report and per-query log into a JSON-ready record."""
    report = json.loads(Path(out).read_text())
    rows = [json.loads(line) for line in Path(log).read_text().splitlines()]
    predicted = [r["predicted"] for r in rows]
    return {
        "recognition_rate": report["recognition_rate"],
        "n_queries": report["n_queries"],
        "offline_time": report["offline_time"],
        "n_log_rows": len(rows),
        "rate_from_log": sum(r["predicted"] == r["true"] for r in rows) / max(len(rows), 1),
        "wall_times": [r["wall_time"] for r in rows],
        "digest": hashlib.sha256("\n".join(predicted).encode()).hexdigest(),
    }


def _one_call(cli, plan, traced, tracer):
    out, log = plan["out"], plan["log"]
    for p in (out, log):
        Path(p).unlink(missing_ok=True)
    argv = ["experiment", "--data", plan["data"], "--config", plan["config"],
            "--out", out, "--log", log]
    if traced:
        with tracer.active():
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        spans = list(tracer.spans)
    else:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    rec = {"traced": traced, "rc": rc, "wall_s": wall}
    if rc == 0:
        try:
            rec.update(_read_outputs(out, log))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
    if traced:
        rec["layers"] = tracing.summarize(spans, wall)
    return rec


def main(plan_path):
    plan = json.loads(Path(plan_path).read_text())
    from repclass import cli

    tracer = tracing.Tracer()
    # Untraced runs repeat untraced calls; traced runs alternate untraced and
    # traced calls so both see the same machine state.
    pattern = (False, True) if plan["trace"] else (False,)
    min_calls = 2 * len(pattern)
    budget = plan["seconds"]
    records = []
    reference = []
    start = time.perf_counter()
    while True:
        traced = pattern[len(records) % len(pattern)]
        t0 = time.perf_counter()
        reference.append(reference_seconds())
        rec = _one_call(cli, plan, traced, tracer)
        records.append(rec)
        if rec["rc"] != 0 or "error" in rec:
            break  # the run has failed; run.py reports it
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(records) >= min_calls and elapsed + last > budget:
            break
    reference.append(reference_seconds())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    Path(plan["result"]).write_text(json.dumps(
        {"calls": records, "reference_s": reference, "peak_rss_mb": peak_kb / 1024}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
