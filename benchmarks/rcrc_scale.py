"""Time R-CRC coding at Extended Yale B scale, one JSON line per corruption level.

Usage (from the repository root):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/rcrc_scale.py --queries 20

The data is the `eigenface_crc` workload's set at seed 1 (38 classes of
32 training and 31 test columns, 2016 pixels), coded on raw pixels: the
dictionary has 1216 atoms and no PCA runs. --queries test columns, spread
evenly over the test split, are each corrupted at 0%, 30% and 50%: that
share of pixels is replaced by uniform values within ±3σ of the training
data (σ their standard deviation), as `perfbench` corrupts `corrupt_rcrc`.
Each query is coded by `solve_alm_l1res` over the whole dictionary at the
default λ and timed alone. For each level the script prints the median ms
per query, each query's iterations, the number of converged queries and
the largest duality gap, beside the OPENBLAS_NUM_THREADS it ran under.
--size small shrinks the data for a smoke test.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np

from repclass.degradation import DegradationSpec, apply_spec
from repclass.dictionary import build_dictionary, default_lambda
from repclass.harness import synthetic_dataset
from repclass.solvers import solve_alm_l1res

DATASET = dict(
    n_classes=38, subspace_dim=10, ambient_dim=2016, n_train=32, n_test=31,
    noise_sigma=0.08, shared_fraction=0.7,
)
SMALL = dict(n_classes=3, ambient_dim=120, n_train=6, n_test=2)
SEED, LEVELS = 1, (0.0, 0.3, 0.5)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)

    data = synthetic_dataset(seed=SEED, **{**DATASET, **(SMALL if args.size == "small" else {})})
    train, labels = data.columns("train")
    test = data.columns("test")[0]
    picks = np.linspace(0, test.shape[1] - 1, min(args.queries, test.shape[1])).astype(int)
    d = build_dictionary(zip(train.T, labels))
    lam = default_lambda(d.n)
    s = 3.0 * float(np.std(train))
    for level in LEVELS:
        spec = DegradationSpec(kind="pixel_corruption", fraction=level, seed=SEED, low=-s, high=s)
        ms, results = [], []
        for j in picks:
            y = apply_spec(test[:, j][None, :], spec, int(j)).ravel()
            t0 = time.perf_counter()
            results.append(solve_alm_l1res(d, y, lam))
            ms.append(1e3 * (time.perf_counter() - t0))
        print(json.dumps({
            "corruption": level,
            "pixels": d.m,
            "atoms": d.n,
            "queries": len(picks),
            "ms_per_query_p50": statistics.median(ms),
            "iterations": [r.iterations for r in results],
            "converged": sum(bool(r.converged) for r in results),
            "max_gap": max(r.gap for r in results),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        }), flush=True)


if __name__ == "__main__":
    main()
