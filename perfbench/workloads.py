"""The benchmark's workloads: a seeded dataset plus an experiment config each.

Every dataset comes from `repclass.harness.synthetic_dataset`, seeded by the
benchmark's `--seed`, and is written to disk before timing starts, so the
program only sees the generated files. `size="small"` shrinks each workload
for the self-test; the full size is what the benchmark measures.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: dict  # synthetic_dataset keyword arguments, without the seed
    config: dict  # ExperimentConfig JSON, without seed and degradation
    image_shape: tuple | None = None
    corruption: float = 0.0  # fraction of query entries replaced, 0 for none
    small: dict | None = None  # overrides of dataset/config/image_shape for size="small"
    rate_floor: float = 0.0  # sanity floor for seeds without a recorded rate
    exact_rate: bool = False  # recorded rate and predictions must repeat exactly


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="eigenface_crc",
            why="Extended Yale B scale, PCA to 300 and CRC-RLS: PCA set-up and "
            "per-class residuals carry the time; no iterative solver runs",
            dataset=dict(
                n_classes=38, subspace_dim=10, ambient_dim=2016, n_train=32, n_test=31,
                noise_sigma=0.08, shared_fraction=0.7,
            ),
            config={"classifier": "crc_rls", "feature_dim": 300},
            image_shape=(48, 42),
            small=dict(
                dataset=dict(ambient_dim=224, n_classes=6, n_train=8, n_test=3),
                config={"feature_dim": 30},
                image_shape=(16, 14),
            ),
            rate_floor=0.8,
            exact_rate=True,
        ),
        Workload(
            name="corrupt_rcrc",
            why="R-CRC with default ALM on pixel-corrupted queries: the ALM solver "
            "and degradation carry the time; PCA and CRC-RLS are bypassed",
            dataset=dict(
                n_classes=10, subspace_dim=4, ambient_dim=600, n_train=8, n_test=1,
                noise_sigma=0.02,
            ),
            config={"classifier": "rcrc"},
            corruption=0.5,
            small=dict(
                dataset=dict(ambient_dim=100, n_classes=3, n_train=4),
                config={"alm": {"max_iter": 20}},
            ),
            rate_floor=0.7,
        ),
        Workload(
            name="sparse_src",
            why="SRC with default FISTA: the FISTA solver carries the time; it shares "
            "the solvers layer with corrupt_rcrc but uses it differently",
            dataset=dict(
                n_classes=20, subspace_dim=5, ambient_dim=100, n_train=20, n_test=1,
                noise_sigma=0.05,
            ),
            config={"classifier": "src"},
            small=dict(
                dataset=dict(n_classes=4, n_train=6),
                config={"fista": {"max_iter": 50}},
            ),
            rate_floor=0.8,
        ),
    )
}


def build(workload, seed, size="full"):
    """Generate the workload's dataset and config for one seed.

    Returns (Dataset, config dict, number of test queries).
    """
    import numpy as np

    from repclass.harness import synthetic_dataset

    dataset_kw, config, image_shape = dict(workload.dataset), dict(workload.config), workload.image_shape
    if size == "small":
        dataset_kw.update(workload.small.get("dataset", {}))
        config.update(workload.small.get("config", {}))
        image_shape = workload.small.get("image_shape", image_shape)
    data = synthetic_dataset(seed=seed, **dataset_kw)
    data.image_shape = image_shape
    config["seed"] = seed
    if workload.corruption:
        train, _ = data.columns("train")
        # corruption values at the scale of the feature entries, as 8-bit
        # pixels replaced by uniform values over the full pixel range
        s = 3.0 * float(np.std(train))
        config["degradation"] = {
            "kind": "pixel_corruption", "fraction": workload.corruption, "seed": seed,
            "low": -s, "high": s,
        }
    return data, config, data.split.count("test")
