"""Time R-CRC at Extended Yale B scale through `harness.bench`, one JSON line per corruption level.

Usage (from the repository root):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/rcrc_scale.py --queries 20

The data is the `eigenface_crc` workload's set at seed 1 (38 classes of
32 training and 31 test columns, 2016 pixels), coded on raw pixels: the
dictionary has 1216 atoms and no PCA runs. The test split is cut to
--queries columns, spread evenly over it. One `bench` call runs an `rcrc`
config at the default λ for each of 0%, 30% and 50% corruption: that
share of pixels is replaced by uniform values within ±3σ of the training
data (σ their standard deviation), as `perfbench` corrupts `corrupt_rcrc`,
seeded by each query's position in the cut split. So the draws differ
from those of the earlier one-query loop behind the figures ROADMAP
quotes.

What is timed is what `run_experiment` runs: `decide_block` codes the
whole split by `solve_l1res_block` in lockstep, and each query's time is
its share of that call. `bench` runs each level three times, so a full
run takes about three times as long as one pass. Each line is one bench
row (the report's config, rate, solver iterations, non-converged count
and largest duality gap beside the mean and median seconds per query),
with the corruption level, the shape and the OPENBLAS_NUM_THREADS it ran
under. --size small shrinks the data for a smoke test.
"""

import argparse
import json
import os

import numpy as np

from repclass.degradation import DegradationSpec
from repclass.harness import Dataset, ExperimentConfig, bench, synthetic_dataset

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

    full = synthetic_dataset(seed=SEED, **{**DATASET, **(SMALL if args.size == "small" else {})})
    train, labels = full.columns("train")
    test, test_labels = full.columns("test")
    picks = np.linspace(0, test.shape[1] - 1, min(args.queries, test.shape[1])).astype(int)
    data = Dataset(
        features=np.concatenate([train, test[:, picks]], axis=1),
        labels=labels + [test_labels[j] for j in picks],
        split=["train"] * len(labels) + ["test"] * len(picks),
    )
    s = 3.0 * float(np.std(train))
    configs = [
        ExperimentConfig(
            classifier="rcrc",
            degradation=DegradationSpec(kind="pixel_corruption", fraction=level, seed=SEED, low=-s, high=s),
        )
        for level in LEVELS
    ]
    for level, row in zip(LEVELS, bench(configs, data)["rows"]):
        print(json.dumps({
            "corruption": level,
            "pixels": train.shape[0],
            "atoms": train.shape[1],
            "queries": len(picks),
            **row,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        }), flush=True)


if __name__ == "__main__":
    main()
