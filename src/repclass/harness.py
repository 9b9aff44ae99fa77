"""Batch experiment machinery: dataset ingestion, experiment runs,
parameter sweeps, ROC evaluation, and timing benchmarks."""

import functools
import json
import math
import numbers
import os
import platform
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import degradation as degrade_mod
from .classifiers import CLASSIFIERS, SCI_CLASSIFIERS, block_sci, fit
from .dictionary import build_dictionary, default_lambda, is_number
from .errors import (
    ConfigInvalid,
    EmptyInput,
    MalformedMatrix,
    MissingPath,
    MixedImageSizes,
    OverlappingClasses,
)
from .features import fit_pca, project_pca, vectorize_image
from .io import check_labels_saveable, read_matrix, read_pgm, read_sidecar, write_matrix, write_sidecar
from .solvers import AlmParams, FistaParams
from .synthetic import make_subspace_dataset

@dataclass
class Dataset:
    features: np.ndarray  # m x N
    labels: list
    split: list  # "train" / "test" per column
    provenance: dict = field(default_factory=dict)
    image_shape: tuple | None = None  # (H, W) when columns are flattened images

    def __post_init__(self):
        # column-major, so that a split that is one run of columns is one
        # contiguous block, laid out as a fancy-index copy of columns is
        self.features = np.asfortranarray(self.features)

    @property
    def n_columns(self):
        return self.features.shape[1]

    def columns(self, which):
        """The columns of one split and their labels. A split that is one
        run of columns comes as a read-only view of features, with no copy;
        any other split comes as a copy. Both are column-major."""
        idx = [i for i, s in enumerate(self.split) if s == which]
        labels = [self.labels[i] for i in idx]
        if idx and idx[-1] - idx[0] + 1 == len(idx):
            view = self.features[:, idx[0] : idx[-1] + 1]
            view.flags.writeable = False
            return view, labels
        return self.features[:, idx], labels


@dataclass
class ExperimentConfig:
    """Settings of one experiment; to_json and from_json map them to the
    config file. seed is recorded with the report and read by no
    computation: DegradationSpec.seed seeds the degradation."""

    classifier: str = "crc_rls"
    lam: object = "auto"  # positive float, or "auto" for 0.001 * n / 700
    feature_dim: int | None = None
    degradation: degrade_mod.DegradationSpec | None = None
    seed: int = 0
    decision_variant: str = "regularized_residual"
    alm: AlmParams = field(default_factory=AlmParams)
    fista: FistaParams | None = None  # None: src and rns_l1 run SSNAL under alm

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ConfigInvalid(f"unknown classifier {self.classifier!r}")
        lam, dim = self.lam, self.feature_dim
        if lam != "auto" and not (is_number(lam) and 0 < lam < math.inf):
            raise ConfigInvalid(f"'lambda' must be finite and positive or 'auto', got {lam!r}")
        if dim is not None and not is_number(dim, numbers.Integral):
            raise ConfigInvalid(f"'feature_dim' must be an integer or null, got {dim!r}")
        if not is_number(self.seed, numbers.Integral):
            raise ConfigInvalid(f"'seed' must be an integer, got {self.seed!r}")
        if self.decision_variant not in ("plain_residual", "regularized_residual"):
            raise ConfigInvalid(f"unknown decision variant {self.decision_variant!r}")

    def resolve_lambda(self, n_train):
        return default_lambda(n_train) if self.lam == "auto" else float(self.lam)

    def to_json(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[_JSON_KEYS.get(f.name, f.name)] = asdict(v) if is_dataclass(v) else v
        return out

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; an absent key takes its field's default."""
        if not isinstance(obj, dict):
            raise ConfigInvalid(f"config is not an object: got {type(obj).__name__}")
        known = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
        unknown = set(obj) - set(known)
        if unknown:
            raise ConfigInvalid(f"config has unknown key {min(unknown)!r}")
        kwargs = {}
        for key, value in obj.items():
            name = known[key]
            section = _SECTIONS.get(name)
            if section is not None and (value is not None or name == "alm"):
                value = section(**_section(value, key, section))
            kwargs[name] = value
        return cls(**kwargs)


# JSON key of each config field whose key differs from its name
_JSON_KEYS = {"lam": "lambda"}
# the dataclass of each nested config section; null leaves degradation and
# fista unset, and alm is always set
_SECTIONS = {
    "degradation": degrade_mod.DegradationSpec, "alm": AlmParams, "fista": FistaParams,
}


def _section(section, name, cls):
    """Nested config object `name`, checked to hold exactly fields of `cls`."""
    if not isinstance(section, dict):
        raise ConfigInvalid(f"config section {name!r} is not an object")
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigInvalid(f"config section {name!r} has unknown key {min(unknown)!r}")
    missing = {
        f.name for f in fields(cls) if f.default is f.default_factory is MISSING
    } - set(section)
    if missing:
        raise ConfigInvalid(f"config section {name!r} lacks key {min(missing)!r}")
    return section


@dataclass
class Report:
    recognition_rate: float
    per_class_rates: dict
    confusion: dict
    n_queries: int
    mean_query_time: float
    median_query_time: float
    offline_time: float
    config: dict
    environment: dict
    per_query: list  # JSON-ready per-query records
    stages: dict = field(default_factory=dict)  # seconds spent per stage of the run

    @property
    def n_not_converged(self):
        """Queries whose solver reported converged=False: it stopped at its
        iteration cap or, for SSNAL, on a duality gap that stalled above tol."""
        return sum(1 for rec in self.per_query if rec["converged"] is False)

    def to_json(self):
        """The report as JSON, with three run totals of the query log: the
        summed iterations and inner iterations and the largest gap (None
        without gaps)."""
        gaps = [rec["gap"] for rec in self.per_query if rec["gap"] is not None]
        return {
            "recognition_rate": self.recognition_rate,
            "per_class_rates": self.per_class_rates,
            "confusion": self.confusion,
            "n_queries": self.n_queries,
            "n_not_converged": self.n_not_converged,
            "solver_iterations": sum(rec["iterations"] for rec in self.per_query),
            "solver_inner_iterations": sum(rec["inner_iterations"] for rec in self.per_query),
            "max_gap": max(gaps, default=None),
            "mean_query_time": self.mean_query_time,
            "median_query_time": self.median_query_time,
            "offline_time": self.offline_time,
            "config": self.config,
            "environment": self.environment,
            "stages": self.stages,
        }

    def write_query_log(self, path):
        with open(path, "w") as fh:
            for rec in self.per_query:
                fh.write(json.dumps(rec) + "\n")


def save_dataset(dataset, path):
    """Write a dataset as a matrix file plus JSON sidecar.

    Labels must be strings (else BadLabel, before any file is written).
    """
    check_labels_saveable(dataset.labels)
    write_matrix(path, dataset.features)
    write_sidecar(path, {
        "labels": list(dataset.labels),
        "split": list(dataset.split),
        "provenance": dataset.provenance,
        "image_shape": list(dataset.image_shape) if dataset.image_shape else None,
    })


def load_dataset(path):
    """Read a dataset file; MalformedMatrix names a sidecar list of wrong
    length, a label that is not a string, a split entry other than "train"
    and "test", or an image_shape whose pixel count is not the row count."""
    path = Path(path)
    features = read_matrix(path, order="F")
    sidecar = read_sidecar(path, ("labels",))
    m, n = features.shape
    lists = {"labels": sidecar["labels"], "split": sidecar.get("split", ["train"] * n)}
    for key, values in lists.items():
        if not isinstance(values, list) or len(values) != n:
            raise MalformedMatrix(f"{path}: sidecar {key!r} needs {n} entries, one per column")
    if not all(isinstance(lab, str) for lab in lists["labels"]):
        raise MalformedMatrix(f"{path}: sidecar 'labels' are not all strings")
    bad = [s for s in lists["split"] if s not in ("train", "test")]
    if bad:
        raise MalformedMatrix(f"{path}: sidecar 'split' entry {bad[0]!r} is not 'train' or 'test'")
    shape = sidecar.get("image_shape") or None
    if shape is not None and not (
        isinstance(shape, list)
        and all(is_number(s, numbers.Integral) and s > 0 for s in shape)
        and math.prod(shape) == m
    ):
        raise MalformedMatrix(
            f"{path}: sidecar 'image_shape' {shape} needs positive sizes whose product is {m}"
        )
    return Dataset(
        features=features,
        provenance=sidecar.get("provenance", {}),
        image_shape=tuple(shape) if shape else None,
        **lists,
    )


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _environment_stamp():
    """Interpreter, numpy, BLAS build and thread settings, once per process."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def ingest_dataset(path, train_per_class=None):
    """Load a dataset from class subdirectories of PGM images: one
    subdirectory per class of same-size P5 images, vectorized column-major,
    ordered lexicographically by class then filename. The train/test split
    takes the first train_per_class images per class (all "train" when None).
    """
    path = Path(path)
    if not path.exists():
        raise MissingPath(str(path))
    cols, labels = [], []
    shape = None
    for class_dir in sorted(p for p in path.iterdir() if p.is_dir()):
        for img_path in sorted(class_dir.glob("*.pgm")):
            img = read_pgm(img_path)
            if shape is None:
                shape = img.shape
            elif img.shape != shape:
                raise MixedImageSizes(
                    f"{img_path}: size {img.shape} differs from {shape}"
                )
            cols.append(vectorize_image(img))
            labels.append(class_dir.name)
    if not cols:
        raise MissingPath(f"{path}: no class directories with PGM images")
    features = np.column_stack(cols)
    split = ["train"] * len(labels)
    if train_per_class is not None:
        seen = {}
        for i, lab in enumerate(labels):
            seen[lab] = seen.get(lab, 0) + 1
            split[i] = "train" if seen[lab] <= train_per_class else "test"
    return Dataset(
        features=features,
        labels=labels,
        split=split,
        provenance={"path": str(path), "layout": "class_dirs"},
        image_shape=shape,
    )


def synthetic_dataset(
    n_classes=10,
    subspace_dim=5,
    ambient_dim=50,
    n_train=10,
    n_test=5,
    noise_sigma=0.05,
    seed=0,
    shared_fraction=0.0,
):
    """Built-in seeded generator: one random subspace per class."""
    sizes = {"n_classes": n_classes, "subspace_dim": subspace_dim,
             "ambient_dim": ambient_dim, "n_train": n_train, "n_test": n_test}
    for name, size in sizes.items():
        if not (is_number(size, numbers.Integral) and size >= 0):
            raise ConfigInvalid(f"synthetic size {name!r} must be a whole number >= 0, got {size!r}")
    if n_classes < 1:
        raise ConfigInvalid(f"synthetic 'n_classes' must be >= 1, got {n_classes}")
    if subspace_dim > ambient_dim:
        raise ConfigInvalid(f"synthetic 'subspace_dim' {subspace_dim} exceeds 'ambient_dim' {ambient_dim}")
    if not (is_number(seed, numbers.Integral) and seed >= 0):
        raise ConfigInvalid(f"synthetic 'seed' must be a whole number >= 0, got {seed!r}")
    if not (is_number(noise_sigma) and 0 <= noise_sigma < math.inf):
        raise ConfigInvalid(f"synthetic 'noise_sigma' must be finite and >= 0, got {noise_sigma!r}")
    if not (is_number(shared_fraction) and 0 <= shared_fraction < 1):
        raise ConfigInvalid(f"synthetic 'shared_fraction' must be in [0, 1), got {shared_fraction!r}")
    train, train_labels, test, test_labels = make_subspace_dataset(
        n_classes, subspace_dim, ambient_dim, n_train, n_test, noise_sigma, seed,
        shared_fraction=shared_fraction,
    )
    features = np.concatenate([train, test], axis=1)
    labels = train_labels + test_labels
    split = ["train"] * len(train_labels) + ["test"] * len(test_labels)
    provenance = {
        "source": "synthetic",
        "n_classes": n_classes,
        "subspace_dim": subspace_dim,
        "ambient_dim": ambient_dim,
        "noise_sigma": noise_sigma,
        "seed": seed,
        "shared_fraction": shared_fraction,
    }
    return Dataset(features=features, labels=labels, split=split, provenance=provenance)


class Stages(dict):
    """Seconds spent per stage of a run, keyed by stage name."""

    def time(self, name, f, *args):
        """f(*args), with the call's wall time added to stage name."""
        t0 = time.perf_counter()
        out = f(*args)
        self[name] += time.perf_counter() - t0
        return out


def _degrade_queries(queries, spec, image_shape):
    """Apply the configured degradation to each test column (pre-PCA)."""
    shape = image_shape if image_shape is not None else (queries.shape[0], 1)
    out = queries.copy()
    for j in range(queries.shape[1]):
        img = queries[:, j].reshape(shape, order="F")
        out[:, j] = vectorize_image(degrade_mod.apply_spec(img, spec, j))
    return out


def run_experiment(config, data):
    """Train on the train split, classify the test split, return a Report."""
    if "test" not in data.split:
        raise ConfigInvalid("dataset has no test split")
    check_labels_saveable(data.labels)  # the report keys by label
    spec = config.degradation
    degrade = spec is not None and spec.fraction > 0
    if degrade and spec.kind == "block_occlusion" and data.image_shape is None:
        raise ConfigInvalid("block occlusion needs image-shaped data")
    train_raw, train_labels = data.columns("train")

    stages = Stages.fromkeys(
        ("degrade", "pca_fit", "pca_project", "dictionary", "fit", "decide", "sci", "rows"),
        0.0,
    )
    # the test columns are taken and degraded only after the offline stages,
    # so they are not held through the PCA fit's or the model fit's peak memory
    pca, train_feats = None, train_raw
    if config.feature_dim is not None:
        pca = stages.time("pca_fit", fit_pca, train_raw, config.feature_dim)
        train_feats = pca.train_features
    dictionary = stages.time("dictionary", build_dictionary, zip(train_feats.T, train_labels))
    model = stages.time("fit", fit, dictionary, config)
    offline_time = sum(stages.values())  # the stages so far are the offline ones

    test_raw, test_labels = data.columns("test")
    if degrade:
        test_raw = stages.time("degrade", _degrade_queries, test_raw, spec, data.image_shape)
    test_feats = test_raw if pca is None else stages.time("pca_project", project_pca, pca, test_raw)

    block = model.decide_block(test_feats)
    classes = dictionary.classes
    predicted = [classes[i] for i in block.predicted]
    times = block.seconds.tolist()
    stages["decide"] = sum(times)
    n = len(times)
    sci = [None] * n
    gap = [None] * n if block.gap is None else block.gap.tolist()
    if dictionary.k >= 2 and config.classifier in SCI_CLASSIFIERS:
        sci = stages.time("sci", block_sci, dictionary, block.alpha).tolist()
    keys = ("query", "true", "predicted", "residuals", "sci", "wall_time",
            "iterations", "inner_iterations", "converged", "objective", "gap")
    per_query = stages.time("rows", lambda: [dict(zip(keys, row)) for row in zip(
        range(n), test_labels, predicted,
        (dict(zip(classes, row)) for row in _jsonable(block.scores.T)), sci, times,
        block.iterations.tolist(), block.inner_iterations.tolist(), block.converged.tolist(),
        _jsonable(block.objective), gap,
    )])
    total_by_class = Counter(test_labels)
    correct_by_class = Counter(t for t, p in zip(test_labels, predicted) if p == t)
    confusion = {}
    for (true, pred), count in Counter(zip(test_labels, predicted)).items():
        confusion.setdefault(true, {})[pred] = count
    return Report(
        recognition_rate=sum(correct_by_class.values()) / n,
        per_class_rates={lab: correct_by_class[lab] / cnt for lab, cnt in total_by_class.items()},
        confusion=confusion,
        n_queries=n,
        mean_query_time=float(np.mean(times)),
        median_query_time=float(np.median(times)),
        offline_time=offline_time,
        config=config.to_json(),
        environment=_environment_stamp(),
        per_query=per_query,
        stages=stages,
    )


def _jsonable(v):
    """A number, or an array as a list, with "inf" for each non-finite entry."""
    return np.where(np.isfinite(v), np.asarray(v, dtype=object), "inf").tolist()


def lambda_sweep(config, data, lambdas):
    """One Report per lambda; lambdas must be finite, positive and sorted,
    which is checked before the first run."""
    lambdas = list(lambdas)
    for lam in lambdas:
        if not (is_number(lam) and 0 < lam < math.inf):
            raise ConfigInvalid(f"lambda must be finite and positive, got {lam!r}")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigInvalid("lambdas must be strictly increasing")
    return [run_experiment(replace(config, lam=lam), data) for lam in lambdas]


def run_roc(config, gallery, customers, imposters, thresholds):
    """SCI-threshold ROC: TPR over customers, FPR over imposters.

    A customer query counts as a true positive when it is both accepted at
    the threshold and correctly identified. The classifier must code over
    the whole dictionary (SCI_CLASSIFIERS). Queries are used as given, so a
    config that asks for features or degradation is rejected, and so is a
    NaN or infinite threshold, and an empty customer or imposter set
    (EmptyInput).
    """
    if config.classifier not in SCI_CLASSIFIERS:
        raise ConfigInvalid(
            f"run_roc needs SCI, which {config.classifier!r} does not define: it "
            "gives no code over the whole dictionary"
        )
    for name in ("feature_dim", "degradation"):
        if getattr(config, name) is not None:
            raise ConfigInvalid(f"run_roc does not apply {name!r}; leave it unset")
    for name, queries in (("customer", customers), ("imposter", imposters)):
        if queries.n_columns == 0:
            raise EmptyInput(f"run_roc needs at least one {name} query")
    thresholds = list(thresholds)
    for thr in thresholds:
        if not (is_number(thr) and math.isfinite(thr)):
            raise ConfigInvalid(f"ROC threshold must be a finite number, got {thr!r}")
    train_feats, train_labels = gallery.columns("train")
    gallery_classes = set(train_labels)
    imposter_feats, imposter_labels = imposters.features, imposters.labels
    if gallery_classes & set(imposter_labels):
        raise OverlappingClasses("imposter classes must be disjoint from the gallery")
    customer_feats, customer_labels = customers.features, customers.labels

    model = fit(build_dictionary(zip(train_feats.T, train_labels)), config)

    d = model.dictionary
    customer = model.decide_block(customer_feats)
    known = block_sci(d, customer.alpha)
    hit = np.array([d.classes[i] == lab for i, lab in zip(customer.predicted, customer_labels)])
    imposter = block_sci(d, model.decide_block(imposter_feats).alpha)
    return [
        {
            "threshold": float(thr),
            "tpr": int(np.count_nonzero((known >= thr) & hit)) / len(customer_labels),
            "fpr": int(np.count_nonzero(imposter >= thr)) / len(imposter_labels),
        }
        for thr in thresholds
    ]


def roc_auc(points):
    """Trapezoidal AUC of ROC points (any threshold order)."""
    pts = sorted((p["fpr"], p["tpr"]) for p in points)
    pts = [(0.0, 0.0)] + pts + [(1.0, 1.0)]
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return auc


def bench(configs, data, repetitions=3):
    """Timing comparison across classifier configs on one dataset.

    Per-query times exclude dictionary/projector construction, which is
    reported separately as offline time. Accuracy outputs are deterministic
    across repetitions; timings are averaged over them. Rows are keyed by
    classifier name, so each config must name a different classifier.
    """
    if repetitions < 3:
        raise ConfigInvalid("need at least 3 repetitions")
    configs = list(configs)
    names = [config.classifier for config in configs]
    if len(set(names)) < len(names):
        raise ConfigInvalid(f"bench configs must name different classifiers: {names}")
    rows = {}
    for config in configs:
        name = config.classifier
        mean_times, median_times = [], []
        report = None
        for _ in range(repetitions):
            report = run_experiment(config, data)
            mean_times.append(report.mean_query_time)
            median_times.append(report.median_query_time)
        rows[name] = {
            "recognition_rate": report.recognition_rate,
            "mean_query_time": float(np.mean(mean_times)),
            "median_query_time": float(np.median(median_times)),
            "offline_time": report.offline_time,
        }
    fastest = min(rows, key=lambda k: rows[k]["mean_query_time"])
    for name, row in rows.items():
        row["slowdown_vs_fastest"] = row["mean_query_time"] / rows[fastest]["mean_query_time"]
    return {"fastest": fastest, "rows": rows}
