import json
import os
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest

from repclass import harness
from repclass.classifiers import Model, fit
from repclass.degradation import DegradationSpec
from repclass.dictionary import build_dictionary
from repclass.errors import (
    BadLabel,
    ConfigInvalid,
    EmptyInput,
    MalformedMatrix,
    MissingPath,
    MixedImageSizes,
    NonFiniteInput,
    OverlappingClasses,
)
from repclass.features import fit_pca, project_pca
from repclass.harness import (
    Dataset,
    ExperimentConfig,
    bench,
    ingest_dataset,
    lambda_sweep,
    load_dataset,
    roc_auc,
    run_experiment,
    run_roc,
    save_dataset,
    synthetic_dataset,
)
from repclass.io import write_matrix, write_pgm
from repclass.solvers import AlmParams, FistaParams


def _small_data(seed=0, **kw):
    args = dict(n_classes=4, subspace_dim=3, ambient_dim=30, n_train=6,
                n_test=4, noise_sigma=0.05, seed=seed)
    args.update(kw)
    return synthetic_dataset(**args)


# ------------------------------------------------------------- datasets

def test_synthetic_dataset_shapes_and_split():
    data = _small_data()
    assert data.features.shape == (30, 4 * 10)
    assert data.split.count("train") == 24
    assert data.split.count("test") == 16
    train, labels = data.columns("train")
    assert train.shape == (30, 24)
    assert len(set(labels)) == 4
    assert data.provenance["source"] == "synthetic"


def test_synthetic_dataset_seeded():
    a = _small_data(seed=5)
    b = _small_data(seed=5)
    c = _small_data(seed=6)
    np.testing.assert_array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_dataset_save_load_roundtrip(tmp_path):
    data = _small_data(seed=1, ambient_dim=12)
    data.image_shape = (4, 3)
    p = tmp_path / "data.rpmat"
    save_dataset(data, p)
    back = load_dataset(p)
    np.testing.assert_array_equal(back.features, data.features)
    assert back.labels == data.labels
    assert back.split == data.split
    assert back.provenance == data.provenance
    assert back.image_shape == (4, 3)


@pytest.mark.parametrize(
    "sidecar, key",
    [
        ({"labels": ["a"] * 5}, "labels"),
        ({"labels": ["a"] * 6, "split": ["train"] * 7}, "split"),
        ({"labels": ["a"] * 6, "image_shape": [5, 5]}, "image_shape"),
        ({"labels": ["a"] * 6, "image_shape": [2, "2"]}, "image_shape"),
        ({"labels": ["a"] * 6, "image_shape": [True, 4]}, "image_shape"),
    ],
    ids=[
        "short-labels", "long-split", "image-shape-product", "image-shape-not-int",
        "image-shape-bool",
    ],
)
def test_load_dataset_rejects_sidecar_list_length(tmp_path, sidecar, key):
    p = tmp_path / "feats.rpmat"
    write_matrix(p, np.ones((4, 6)))
    p.with_suffix(p.suffix + ".json").write_text(json.dumps(sidecar))
    with pytest.raises(MalformedMatrix, match=repr(key)):
        load_dataset(p)


@pytest.mark.parametrize(
    "sidecar, words",
    [
        # used to die in run_experiment with TypeError: unhashable type: 'list'
        ({"labels": [["a"]] * 6}, "'labels' are not all strings"),
        # a misspelt split entry used to drop its column from both splits
        ({"labels": ["a"] * 6, "split": ["train"] * 5 + ["tset"]}, "'split' entry 'tset'"),
    ],
    ids=["list-labels", "misspelt-split"],
)
def test_load_dataset_rejects_bad_labels_and_split(tmp_path, sidecar, words):
    p = tmp_path / "feats.rpmat"
    write_matrix(p, np.ones((4, 6)))
    p.with_suffix(p.suffix + ".json").write_text(json.dumps(sidecar))
    with pytest.raises(MalformedMatrix, match=r"feats\.rpmat: sidecar " + words):
        load_dataset(p)


def test_ingest_class_dirs(tmp_path):
    rng = np.random.default_rng(3)
    for lab in ("s1", "s2"):
        d = tmp_path / lab
        d.mkdir()
        for i in range(4):
            write_pgm(d / f"{i:02d}.pgm", np.round(rng.uniform(0, 255, size=(6, 5))))
    data = ingest_dataset(tmp_path, train_per_class=3)
    assert data.features.shape == (30, 8)
    assert data.labels == ["s1"] * 4 + ["s2"] * 4
    assert data.split == ["train", "train", "train", "test"] * 2
    assert data.image_shape == (6, 5)


def test_columns_of_a_contiguous_split_is_a_read_only_view():
    data = _small_data()
    for which in ("train", "test"):
        cols, labels = data.columns(which)
        idx = [i for i, s in enumerate(data.split) if s == which]
        assert np.shares_memory(cols, data.features) and not cols.flags.writeable
        assert cols.flags.f_contiguous
        np.testing.assert_array_equal(cols, data.features[:, idx])
        assert labels == [data.labels[i] for i in idx]


def test_columns_of_an_interleaved_split_is_a_copy(tmp_path):
    rng = np.random.default_rng(30)
    for lab in ("s1", "s2"):
        (tmp_path / lab).mkdir()
        for i in range(3):
            write_pgm(tmp_path / lab / f"{i}.pgm", np.round(rng.uniform(0, 255, size=(4, 3))))
    data = ingest_dataset(tmp_path, train_per_class=2)
    for which, idx in (("train", [0, 1, 3, 4]), ("test", [2, 5])):
        cols, labels = data.columns(which)
        assert not np.shares_memory(cols, data.features) and cols.flags.f_contiguous
        np.testing.assert_array_equal(cols, data.features[:, idx])
        assert labels == [data.labels[i] for i in idx]


def test_ingest_mixed_sizes_rejected(tmp_path):
    d = tmp_path / "c1"
    d.mkdir()
    write_pgm(d / "a.pgm", np.zeros((4, 4)))
    write_pgm(d / "b.pgm", np.zeros((5, 4)))
    with pytest.raises(MixedImageSizes):
        ingest_dataset(tmp_path)


def test_ingest_missing_path(tmp_path):
    with pytest.raises(MissingPath):
        ingest_dataset(tmp_path / "nope")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(MissingPath):
        ingest_dataset(empty)


# --------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ExperimentConfig(classifier="svm")
    with pytest.raises(ConfigInvalid):
        ExperimentConfig(lam=-0.5)
    with pytest.raises(ConfigInvalid):
        ExperimentConfig(decision_variant="softmax")
    for obj, match in [
        ({"alm": {"foo": 1}}, "'alm' has unknown key 'foo'"),
        ({"fista": 3}, "'fista' is not an object"),
        ({"degradation": {"kind": "pixel_corruption", "seed": 1}},
         "'degradation' lacks key 'fraction'"),
        ({"lamda": 5}, "unknown key 'lamda'"),
        ({"alm": {"tol": 0}}, "'tol' must be positive"),
        ({"fista": {"max_iter": 0}}, "'max_iter' must be >= 1"),
        # values of the wrong type used to end in a TypeError, run at
        # lambda = 1.0 (true), round a cap of 2.5 up, or pass NaN through
        ({"alm": {"tol": "x"}}, "'tol' must be positive"),
        ({"alm": {"max_iter": 2.5}}, "'max_iter' must be >= 1"),
        ({"fista": {"max_iter": "5"}}, "'max_iter' must be >= 1"),
        ({"fista": {"tol": True}}, "'tol' must be positive"),
        ({"feature_dim": "abc"}, "'feature_dim' must be an integer"),
        ({"feature_dim": 2.5}, "'feature_dim' must be an integer"),
        ({"lambda": True}, "'lambda' must be finite and positive"),
        ({"lambda": float("nan")}, "'lambda' must be finite and positive"),
        ({"lambda": float("inf")}, "'lambda' must be finite and positive"),
        # seed is echoed into the report, so a non-integer used to be written there
        ({"seed": "x"}, "'seed' must be an integer"),
        ({"seed": True}, "'seed' must be an integer"),
        ({"seed": 2.5}, "'seed' must be an integer"),
        # a degradation used to be coerced: {} ran with none, true ran at
        # fraction 1, "0.5" was read as 0.5 and a seed of 2.7 ran as 2
        ({"degradation": {}}, "'degradation' lacks key 'fraction'"),
        ({"degradation": {"kind": "pixel_corruption", "fraction": True, "seed": 1}},
         "'fraction' must be a finite number"),
        ({"degradation": {"kind": "pixel_corruption", "fraction": "0.5", "seed": 1}},
         "'fraction' must be a finite number"),
        ({"degradation": {"kind": "pixel_corruption", "fraction": 0.5, "seed": 2.7}},
         "'seed' must be a whole number"),
        ({"degradation": {"kind": "pixel_corruption", "fraction": 0.5, "seed": True}},
         "'seed' must be a whole number"),
        ({"degradation": {"kind": "pixel_corruption", "fraction": 0.5, "seed": 1, "low": "0"}},
         "'low' must be a finite number"),
        ({"degradation": {"kind": "pixel_corruption", "fraction": 0.5, "seed": 1, "high": None}},
         "'high' must be a finite number"),
        # used to load the data and then fail in numpy: "high - low < 0"
        ({"degradation": {"kind": "pixel_corruption", "fraction": 0.5, "seed": 1, "low": 5, "high": 1}},
         "'low' 5 exceeds 'high' 1"),
        ({"degradation": False}, "'degradation' is not an object"),
        ({"alm": None}, "'alm' is not an object"),
        # a top-level list used to end in AttributeError: 'list' object has no attribute 'items'
        ([], "config is not an object"),
        ("src", "config is not an object"),
    ]:
        with pytest.raises(ConfigInvalid, match=match):
            ExperimentConfig.from_json(obj)
    # numpy scalars are numbers
    cfg = ExperimentConfig(
        lam=np.float64(0.1), feature_dim=np.int64(3), seed=np.int64(5),
        alm=AlmParams(tol=np.float32(1e-5), max_iter=np.int64(20)),
    )
    assert cfg.resolve_lambda(10) == 0.1
    # null leaves a section unset; a perfbench-style degradation decodes as before
    assert ExperimentConfig.from_json({"degradation": None, "fista": None}) == ExperimentConfig()
    spec = {"kind": "pixel_corruption", "fraction": 0.5, "seed": 7, "low": -0.3, "high": 0.3}
    assert ExperimentConfig.from_json({"degradation": spec}).degradation == DegradationSpec(
        "pixel_corruption", 0.5, 7, -0.3, 0.3
    )


def test_config_alm_keeps_only_tol_and_max_iter():
    # the penalty schedule is fixed, so a config naming one of its old knobs is invalid
    assert tuple(f.name for f in fields(AlmParams)) == ("tol", "max_iter")
    with pytest.raises(ConfigInvalid, match="'alm' has unknown key 'mu0'"):
        ExperimentConfig.from_json({"alm": {"mu0": 2.0}})


def test_config_json_roundtrip():
    cfg = ExperimentConfig(
        classifier="rcrc",
        lam=0.01,
        feature_dim=12,
        degradation=DegradationSpec("pixel_corruption", 0.3, seed=4, low=-1, high=1),
        seed=9,
        alm=AlmParams(tol=1e-5, max_iter=50),
        fista=FistaParams(tol=1e-8, max_iter=100),
    )
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.resolve_lambda(700) == 0.01
    assert ExperimentConfig(lam="auto").resolve_lambda(700) == pytest.approx(0.001)
    # fista round-trips as null too, the default, which codes SRC by SSNAL
    default = ExperimentConfig(classifier="src")
    assert default.fista is None and default.to_json()["fista"] is None
    assert ExperimentConfig.from_json(json.loads(json.dumps(default.to_json()))) == default
    assert ExperimentConfig.from_json({"fista": {}}).fista == FistaParams()


# ------------------------------------------------------------ experiments

def test_run_experiment_stage_timings():
    data = _small_data(seed=4, ambient_dim=40)
    spec = DegradationSpec("pixel_corruption", 0.2, seed=1, low=-1.0, high=1.0)
    config = ExperimentConfig(classifier="src", feature_dim=12, degradation=spec)
    t0 = time.perf_counter()
    report = run_experiment(config, data)
    wall = time.perf_counter() - t0
    stages = report.to_json()["stages"]
    assert list(stages) == [
        "degrade", "pca_fit", "pca_project", "dictionary", "fit", "decide", "sci", "rows",
    ]
    assert all(v >= 0.0 for v in stages.values())
    assert stages["decide"] == sum(rec["wall_time"] for rec in report.per_query)
    assert sum(stages.values()) <= wall


def test_run_experiment_projects_only_the_test_columns(monkeypatch):
    # the training columns' features come with the PCA fit, so pca_project
    # times the test columns alone and the offline time leaves it out
    calls = []

    def project(pca, x):
        calls.append(x.shape)
        return project_pca(pca, x)

    monkeypatch.setattr(harness, "project_pca", project)
    data = _small_data(seed=4, ambient_dim=40)
    report = run_experiment(ExperimentConfig(feature_dim=12), data)
    assert calls == [data.columns("test")[0].shape]
    stages = report.stages
    assert report.offline_time == stages["pca_fit"] + stages["dictionary"] + stages["fit"]


def test_run_experiment_with_pca_and_degradation_matches_manual_pipeline():
    # run_experiment takes and degrades the test columns after the PCA fit;
    # the order must not change what is decided
    data = _small_data(seed=4, ambient_dim=40)
    spec = DegradationSpec("pixel_corruption", 0.3, seed=2, low=-1.0, high=1.0)
    config = ExperimentConfig(classifier="crc_rls", feature_dim=12, degradation=spec)
    report = run_experiment(config, data)
    train, train_labels = data.columns("train")
    test, test_labels = data.columns("test")
    test = harness._degrade_queries(test, spec, data.image_shape)
    pca = fit_pca(train, 12)
    model = fit(build_dictionary(zip(pca.train_features.T, train_labels)), config)
    block = model.decide_block(project_pca(pca, test))
    names = [str(c) for c in model.dictionary.classes]
    assert [rec["predicted"] for rec in report.per_query] == [
        names[i] for i in block.predicted
    ]
    assert [rec["true"] for rec in report.per_query] == list(map(str, test_labels))
    assert [list(rec["residuals"].values()) for rec in report.per_query] == block.scores.T.tolist()


@pytest.mark.parametrize("classifier", harness.CLASSIFIERS)
def test_run_experiment_refuses_queries_whose_squared_norm_overflows(classifier):
    # the dictionary's columns are normalized overflow-safely but the queries
    # are not: at this scale every rule read chance (0.20), as the argmin over
    # all-inf class scores, and exited cleanly
    data = synthetic_dataset(n_classes=5, subspace_dim=2, ambient_dim=30, n_train=5, n_test=3, seed=1)
    big = Dataset(data.features * 1e160, data.labels, data.split)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="overflows"):
            run_experiment(ExperimentConfig(classifier=classifier), big)


def test_run_experiment_leaves_the_dataset_unchanged():
    data = _small_data(seed=4)
    before = data.features.copy()
    spec = DegradationSpec("pixel_corruption", 0.5, seed=3, low=-1.0, high=1.0)
    for dim in (None, 12):
        run_experiment(ExperimentConfig(feature_dim=dim, degradation=spec), data)
        assert data.features.tobytes() == before.tobytes()


def test_run_experiment_block_occlusion_needs_image_shape():
    data = _small_data(seed=4, ambient_dim=12)
    spec = DegradationSpec("block_occlusion", 0.3, seed=1, low=-1.0, high=1.0)
    config = ExperimentConfig(degradation=spec)
    with pytest.raises(ConfigInvalid, match="block occlusion needs image-shaped data"):
        run_experiment(config, data)
    data.image_shape = (4, 3)
    assert run_experiment(config, data).n_queries == 16


def _no_call(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran before the input was refused")

    return fail


def test_block_occlusion_without_image_shape_is_refused_before_the_fit(monkeypatch):
    # the check used to sit in the degradation step, after the PCA fit
    monkeypatch.setattr(harness, "fit_pca", _no_call("the PCA fit"))
    spec = DegradationSpec("block_occlusion", 0.3, seed=1, low=-1.0, high=1.0)
    with pytest.raises(ConfigInvalid, match="block occlusion"):
        run_experiment(ExperimentConfig(feature_dim=3, degradation=spec), _small_data(seed=4, ambient_dim=12))


def test_run_experiment_refuses_non_string_labels(monkeypatch):
    # classes 1 and "1" used to be scored apart but reported as one class "1"
    rng = np.random.default_rng(2)
    labels = [1] * 4 + ["1"] * 4
    split = ["train", "train", "train", "test"] * 2
    data = Dataset(features=rng.standard_normal((10, 8)), labels=labels, split=split)
    monkeypatch.setattr(harness, "fit_pca", _no_call("the PCA fit"))
    monkeypatch.setattr(Model, "decide_block", _no_call("a query"))
    with pytest.raises(BadLabel, match="label 1"):
        run_experiment(ExperimentConfig(feature_dim=2), data)


def test_run_experiment_report_contents():
    data = _small_data(seed=4)
    report = run_experiment(ExperimentConfig(classifier="crc_rls"), data)
    assert report.n_queries == 16
    assert 0.0 <= report.recognition_rate <= 1.0
    assert set(report.per_class_rates) <= {f"class{c:03d}" for c in range(4)}
    assert report.mean_query_time > 0
    assert report.offline_time > 0
    assert len(report.per_query) == 16
    rec = report.per_query[0]
    assert {
        "query", "true", "predicted", "residuals", "sci", "wall_time",
        "iterations", "converged", "objective", "gap",
    } <= set(rec)
    assert rec["iterations"] == 0 and rec["converged"] is True and rec["gap"] is None
    assert rec["objective"] > 0
    # confusion row sums match per-class query counts
    total = sum(sum(row.values()) for row in report.confusion.values())
    assert total == 16
    # report serializes
    assert json.loads(json.dumps(report.to_json()))["n_not_converged"] == 0
    env = report.environment
    assert {"python", "numpy", "platform", "blas", "blas_threads", "cpu_count"} <= set(env)
    assert set(env["blas_threads"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
    }
    assert env["cpu_count"] == os.cpu_count()
    # computed once per process
    assert run_experiment(ExperimentConfig(classifier="nn"), data).environment is env


def test_run_experiment_reports_solver_caps():
    data = _small_data(seed=4, n_classes=3, n_train=4, n_test=2)
    cfg = ExperimentConfig(classifier="rcrc", alm=AlmParams(max_iter=1))
    report = run_experiment(cfg, data)
    assert [rec["iterations"] for rec in report.per_query] == [1] * 6
    assert [rec["converged"] for rec in report.per_query] == [False] * 6
    assert report.to_json()["n_not_converged"] == 6


def test_run_experiment_logs_the_duality_gap():
    data = _small_data(seed=4, n_classes=3, n_train=4, n_test=2)
    for cap in (1, 500):
        cfg = ExperimentConfig(classifier="src", alm=AlmParams(max_iter=cap))
        report = run_experiment(cfg, data)
        for rec in report.per_query:
            assert isinstance(rec["gap"], float)
            assert rec["converged"] == (rec["gap"] <= cfg.alm.tol)
        assert report.to_json()["n_not_converged"] == (6 if cap == 1 else 0)
    fista = ExperimentConfig(classifier="src", fista=FistaParams(max_iter=3))
    assert [rec["gap"] for rec in run_experiment(fista, data).per_query] == [None] * 6
    # R-CRC logs its gap too; its converged flag means gap <= tol
    rcrc = run_experiment(ExperimentConfig(classifier="rcrc"), data)
    assert all(isinstance(rec["gap"], float) for rec in rcrc.per_query)


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(classifier="rcrc"),
        ExperimentConfig(classifier="src", alm=AlmParams(max_iter=2)),
        ExperimentConfig(classifier="src", fista=FistaParams(max_iter=3)),
        ExperimentConfig(classifier="crc_rls"),
    ],
    ids=["rcrc", "ssnal-capped", "fista-no-gap", "crc_rls"],
)
def test_report_run_totals_match_the_query_log(config, tmp_path):
    # the report sums the log's iterations and inner iterations and takes
    # its largest gap; writing the report leaves the log's bytes as they are
    report = run_experiment(config, _small_data(seed=4, n_classes=3, n_train=4, n_test=2))
    before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    report.write_query_log(before)
    out = json.loads(json.dumps(report.to_json()))
    report.write_query_log(after)
    assert before.read_bytes() == after.read_bytes()
    rows = [json.loads(line) for line in before.read_text().splitlines()]
    assert {key for row in rows for key in row} == {
        "query", "true", "predicted", "residuals", "sci", "wall_time",
        "iterations", "inner_iterations", "converged", "objective", "gap",
    }
    assert out["solver_iterations"] == sum(row["iterations"] for row in rows)
    assert out["solver_inner_iterations"] == sum(row["inner_iterations"] for row in rows)
    # Newton steps come from SSNAL alone, at least one per outer step
    ssnal = config.classifier == "src" and config.fista is None
    assert (out["solver_inner_iterations"] >= out["solver_iterations"] > 0) if ssnal else (
        out["solver_inner_iterations"] == 0
    )
    gaps = [row["gap"] for row in rows]
    assert out["max_gap"] == (None if None in gaps else max(gaps))
    assert (out["max_gap"] is None) == (config.classifier == "crc_rls" or config.fista is not None)


def test_n_not_converged_counts_the_ssnal_stall_exit():
    # sparse_src seed 1: at tol=1e-12 rounding floors query 0's gap, so SSNAL
    # takes its stall exit, below the iteration cap, with converged=False
    data = synthetic_dataset(
        n_classes=20, subspace_dim=5, ambient_dim=100, n_train=20, n_test=1,
        noise_sigma=0.05, seed=1,
    )
    cfg = ExperimentConfig(classifier="src", alm=AlmParams(tol=1e-12))
    report = run_experiment(cfg, data)
    first = report.per_query[0]
    assert first["converged"] is False and first["iterations"] < cfg.alm.max_iter
    flags = [rec["converged"] for rec in report.per_query]
    assert report.to_json()["n_not_converged"] == flags.count(False) >= 1


def test_run_experiment_sci_only_for_whole_dictionary_codes():
    data = _small_data(seed=4, n_classes=3, n_train=4, n_test=2)
    rns = run_experiment(ExperimentConfig(classifier="rns_l2"), data)
    assert [rec["sci"] for rec in rns.per_query] == [None] * 6
    crc = run_experiment(ExperimentConfig(classifier="crc_rls"), data)
    assert all(isinstance(rec["sci"], float) for rec in crc.per_query)


def test_run_experiment_deterministic_accuracy():
    data = _small_data(seed=7)
    cfg = ExperimentConfig(classifier="crc_rls", seed=3)
    r1 = run_experiment(cfg, data)
    r2 = run_experiment(cfg, data)
    assert r1.recognition_rate == r2.recognition_rate
    for a, b in zip(r1.per_query, r2.per_query):
        assert a["predicted"] == b["predicted"]
        assert a["residuals"] == b["residuals"]


def test_run_experiment_all_classifiers_run():
    data = _small_data(seed=8, n_classes=3, n_train=4, n_test=2)
    for clf in ("src", "crc_rls", "rcrc", "rns_l1", "rns_l2", "nn", "ns"):
        report = run_experiment(ExperimentConfig(classifier=clf), data)
        assert report.n_queries == 6


def test_run_experiment_with_pca_and_degradation():
    data = _small_data(seed=9, ambient_dim=40)
    spec = DegradationSpec("pixel_corruption", 0.2, seed=1, low=-1.0, high=1.0)
    cfg = ExperimentConfig(classifier="crc_rls", feature_dim=10, degradation=spec)
    report = run_experiment(cfg, data)
    assert report.n_queries == 16
    # degradation happens before PCA, so feature dim is the PCA dim
    assert report.config["feature_dim"] == 10


def test_run_experiment_requires_test_split():
    data = _small_data(seed=10)
    data = Dataset(
        features=data.features,
        labels=data.labels,
        split=["train"] * len(data.labels),
    )
    with pytest.raises(ConfigInvalid):
        run_experiment(ExperimentConfig(), data)


def test_query_log_jsonlines(tmp_path):
    data = _small_data(seed=11)
    report = run_experiment(ExperimentConfig(), data)
    log = tmp_path / "queries.jsonl"
    report.write_query_log(log)
    lines = log.read_text().strip().split("\n")
    assert len(lines) == report.n_queries
    assert json.loads(lines[0])["query"] == 0


def test_lambda_sweep_validation_and_order():
    data = _small_data(seed=12)
    cfg = ExperimentConfig()
    with pytest.raises(ConfigInvalid):
        lambda_sweep(cfg, data, [0.1, 0.1])
    with pytest.raises(ConfigInvalid):
        lambda_sweep(cfg, data, [-1.0, 0.1])
    reports = lambda_sweep(cfg, data, [1e-4, 1e-2])
    assert len(reports) == 2
    assert reports[0].config["lambda"] == 1e-4


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_lambda_sweep_checks_every_lambda_before_running(monkeypatch, bad):
    # a NaN lambda passed the <= 0 test (every comparison with NaN is false),
    # so the sweep ran its first experiment in full before ExperimentConfig
    # refused the bad one; an infinite lambda did the same
    monkeypatch.setattr(harness, "run_experiment", _no_call("an experiment"))
    with pytest.raises(ConfigInvalid, match=f"got {bad!r}"):
        lambda_sweep(ExperimentConfig(), _small_data(seed=12), [0.01, bad])


# ------------------------------------------------------------------- ROC

def _roc_datasets(seed=13):
    full = synthetic_dataset(n_classes=6, subspace_dim=3, ambient_dim=30,
                             n_train=6, n_test=4, noise_sigma=0.1, seed=seed)
    keep = {f"class{c:03d}" for c in range(4)}

    def subset(inside, split=None):
        idx = [i for i in range(full.n_columns)
               if (full.labels[i] in keep) == inside
               and (split is None or full.split[i] == split)]
        return Dataset(
            features=full.features[:, idx],
            labels=[full.labels[i] for i in idx],
            split=[full.split[i] for i in idx],
        )

    return subset(True), subset(True, "test"), subset(False)


def test_run_roc_points_and_auc():
    gallery, customers, imposters = _roc_datasets()
    thresholds = np.linspace(0, 1, 11)
    points = run_roc(ExperimentConfig(), gallery, customers, imposters, thresholds)
    fprs = [p["fpr"] for p in points]
    tprs = [p["tpr"] for p in points]
    assert all(0 <= v <= 1 for v in fprs + tprs)
    assert all(b <= a + 1e-12 for a, b in zip(fprs, fprs[1:]))
    assert 0.0 <= roc_auc(points) <= 1.0


@pytest.mark.parametrize("classifier", ["rns_l1", "rns_l2", "nn"])
def test_run_roc_rejects_classifiers_without_sci(classifier, monkeypatch):
    # rns_* used to crash inside compute_sci and nn scored SCI 0 for every query
    gallery, customers, imposters = _roc_datasets()

    def no_query(self, Y):
        raise AssertionError("a query ran before the classifier was rejected")

    monkeypatch.setattr(Model, "decide_block", no_query)
    with pytest.raises(ConfigInvalid, match=classifier):
        run_roc(ExperimentConfig(classifier=classifier), gallery, customers, imposters, [0.5])


@pytest.mark.parametrize(
    "name, value",
    [("feature_dim", 3),
     ("degradation", DegradationSpec("pixel_corruption", 0.9, seed=1, low=-1.0, high=1.0))],
)
def test_run_roc_rejects_features_and_degradation(name, value, monkeypatch):
    # both used to be ignored: the ROC equalled the default config's
    gallery, customers, imposters = _roc_datasets()

    def no_query(self, Y):
        raise AssertionError("a query ran before the config was rejected")

    monkeypatch.setattr(Model, "decide_block", no_query)
    config = ExperimentConfig(**{name: value})
    with pytest.raises(ConfigInvalid, match=name):
        run_roc(config, gallery, customers, imposters, [0.5])


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_run_roc_rejects_non_finite_thresholds(threshold, monkeypatch):
    # each used to give a point whose threshold JSON cannot hold
    gallery, customers, imposters = _roc_datasets()
    monkeypatch.setattr(harness, "fit", _no_call("the fit"))
    monkeypatch.setattr(Model, "decide_block", _no_call("a query"))
    with pytest.raises(ConfigInvalid, match=f"threshold.*{threshold}"):
        run_roc(ExperimentConfig(), gallery, customers, imposters, [0.5, threshold])


@pytest.mark.parametrize("classifier", ["crc_rls", "src"])
@pytest.mark.parametrize("empty", ["customers", "imposters"])
def test_run_roc_rejects_an_empty_query_set(classifier, empty):
    # an empty customer set used to end in TypeError (crc_rls) or IndexError
    # (src), an empty imposter set in ZeroDivisionError
    gallery, customers, imposters = _roc_datasets()
    sets = {"customers": customers, "imposters": imposters}
    sets[empty] = Dataset(features=np.zeros((gallery.features.shape[0], 0)), labels=[], split=[])
    with pytest.raises(EmptyInput, match=empty[:-1]):
        run_roc(ExperimentConfig(classifier=classifier), gallery, **sets, thresholds=[0.5])


def test_experiment_and_roc_decide_each_query_set_in_one_block(monkeypatch):
    calls = []
    block = Model.decide_block

    def spy(self, Y):
        calls.append(Y.shape[1])
        return block(self, Y)

    monkeypatch.setattr(Model, "decide_block", spy)
    run_experiment(ExperimentConfig(classifier="src"), _small_data(seed=4))
    assert calls == [16]
    calls.clear()
    gallery, customers, imposters = _roc_datasets()
    run_roc(ExperimentConfig(), gallery, customers, imposters, [0.5])
    assert calls == [customers.n_columns, imposters.n_columns]


def test_query_log_of_a_degenerate_query():
    # an all-zero query codes to zero: every regularized score is inf, which
    # the log writes as "inf"
    data = _small_data(seed=5)
    first_test = data.split.index("test")
    data.features[:, first_test] = 0.0
    report = run_experiment(ExperimentConfig(), data)
    rec = json.loads(json.dumps(report.per_query[0]))
    assert set(rec["residuals"].values()) == {"inf"}
    assert rec["sci"] == 0.0 and rec["objective"] == 0.0
    assert all("inf" not in r["residuals"].values() for r in report.per_query[1:])


def test_run_experiment_nn_has_no_sci():
    data = _small_data(seed=4, n_classes=3, n_train=4, n_test=2)
    report = run_experiment(ExperimentConfig(classifier="nn"), data)
    assert [rec["sci"] for rec in report.per_query] == [None] * 6


def test_run_roc_rejects_overlapping_classes():
    gallery, customers, _ = _roc_datasets()
    with pytest.raises(OverlappingClasses):
        run_roc(ExperimentConfig(), gallery, customers, customers, [0.5])


def test_roc_auc_known_values():
    perfect = [{"fpr": 0.0, "tpr": 1.0}]
    assert roc_auc(perfect) == pytest.approx(1.0)
    diagonal = [{"fpr": t, "tpr": t} for t in (0.25, 0.5, 0.75)]
    assert roc_auc(diagonal) == pytest.approx(0.5)


# ------------------------------------------------------------------ bench

def test_bench_table():
    data = _small_data(seed=14, n_classes=3, n_train=4, n_test=2)
    configs = [ExperimentConfig(classifier="crc_rls"), ExperimentConfig(classifier="nn")]
    table = bench(configs, data, repetitions=3)
    assert set(table["rows"]) == {"crc_rls", "nn"}
    assert table["fastest"] in table["rows"]
    for row in table["rows"].values():
        assert row["slowdown_vs_fastest"] >= 1.0 - 1e-12
    with pytest.raises(ConfigInvalid):
        bench(configs, data, repetitions=2)


def test_bench_rejects_configs_sharing_a_classifier(monkeypatch):
    data = _small_data(seed=14, n_classes=3, n_train=4, n_test=2)
    monkeypatch.setattr(harness, "run_experiment", None)  # no run may start
    configs = [ExperimentConfig(lam=0.01), ExperimentConfig(classifier="nn"),
               ExperimentConfig(lam=0.1)]
    with pytest.raises(ConfigInvalid, match="'crc_rls'"):
        bench(configs, data, repetitions=3)
