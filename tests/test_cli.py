import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repclass import analysis, harness
from repclass.classifiers import fit
from repclass.cli import main
from repclass.io import load_dictionary, load_projector, read_matrix, write_matrix


@pytest.fixture
def dataset(tmp_path):
    path = str(tmp_path / "data.rpmat")
    rc = main([
        "ingest", "--synthetic", "--seed", "3", "--out", path,
        "--set", "n_classes=4", "--set", "subspace_dim=3",
        "--set", "ambient_dim=30", "--set", "n_train=6", "--set", "n_test=3",
        "--set", "noise_sigma=0.05",
    ])
    assert rc == 0
    return path


def test_ingest_synthetic_requires_seed(tmp_path, capsys):
    rc = main(["ingest", "--synthetic", "--out", str(tmp_path / "d.rpmat")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["message"]


@pytest.mark.parametrize(
    "setting, words",
    [("n_clases=2", ("n_clases",)), ('n_classes="3"', ("n_classes",)),
     ("n_classes=true", ("n_classes",)), ("n_train=2.5", ("n_train",))],
    ids=["unknown-key", "size-string", "size-bool", "size-fraction"],
)
def test_ingest_synthetic_bad_config_is_json_error(tmp_path, setting, words, capsys):
    # an unknown key used to be ignored, a string size to end in a TypeError
    # traceback and n_classes=true to give one class
    out = tmp_path / "d.rpmat"
    rc = main(["ingest", "--synthetic", "--seed", "1", "--out", str(out), "--set", setting])
    assert rc == 1 and not out.exists()
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "ConfigInvalid"
    assert all(repr(word) in err["message"] for word in words)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ingest"], "--path"),
        (["analyze", "--mode", "residual_curve", "--grid", "0.1"], "--query"),
        (["analyze", "--mode", "residual_curve", "--query", "q.rpmat"], "--grid"),
        (["analyze", "--mode", "geometry"], "--query"),
        (["analyze", "--mode", "perturbation", "--query", "q.rpmat"], "--delta"),
        (["analyze", "--mode", "perturbation", "--delta", "d.rpmat"], "--query"),
    ],
    ids=["ingest-path", "residual-curve-query", "residual-curve-grid", "geometry-query",
         "perturbation-delta", "perturbation-query"],
)
def test_missing_flag_is_json_error(tmp_path, argv, flag, capsys):
    # the flags are checked before any file is read: none of these exists;
    # they used to end in AttributeError and TypeError tracebacks
    missing = str(tmp_path / "missing.rpmat")
    extra = ["--input", missing] if argv[0] == "analyze" else []
    rc = main([*argv, *extra, "--out", str(tmp_path / "out")])
    assert rc == 1
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "ConfigInvalid"
    assert flag in err["message"]


def test_ingest_reports_shape(dataset, capsys):
    pass  # fixture already ran; nothing else to assert here


def test_train_and_classify(dataset, tmp_path, capsys):
    dict_path = str(tmp_path / "model.rpmat")
    rc = main(["train", "--data", dataset, "--out", dict_path])
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert info["columns"] == 24 and info["classes"] == 4

    d = load_dictionary(dict_path)
    # classify a training column of class000: should be an easy hit
    query_path = str(tmp_path / "q.rpmat")
    write_matrix(query_path, d.class_block("class000")[:, 0])
    rc = main(["classify", "--dict", dict_path, "--query", query_path])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert out["predicted"] == "class000"
    assert set(out["residuals"]) == {f"class{c:03d}" for c in range(4)}


@pytest.fixture
def trained(dataset, tmp_path, capsys):
    """A trained dictionary plus a query file holding the first test column."""
    dict_path = str(tmp_path / "model.rpmat")
    assert main(["train", "--data", dataset, "--out", dict_path]) == 0
    capsys.readouterr()
    query = harness.load_dataset(dataset).columns("test")[0][:, 0]
    query_path = str(tmp_path / "q.rpmat")
    write_matrix(query_path, query)
    return dict_path, query_path, query


@pytest.mark.parametrize("classifier", harness.CLASSIFIERS)
def test_classify_matches_harness_runner(trained, classifier, capsys):
    dict_path, query_path, query = trained
    rc = main(["classify", "--dict", dict_path, "--query", query_path,
               "--classifier", classifier])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)

    d = load_dictionary(dict_path)
    proj = load_projector(dict_path + ".proj") if classifier == "crc_rls" else None
    config = harness.ExperimentConfig(classifier=classifier)
    decision = fit(d, config, proj).decide(query)
    assert out["predicted"] == str(decision.predicted)
    assert out["residuals"] == {
        str(k): harness._jsonable(v) for k, v in decision.per_class_residuals.items()
    }


def test_classify_nan_query_is_json_error(trained, capsys):
    dict_path, query_path, query = trained
    bad = query.copy()
    bad[0] = np.nan
    write_matrix(query_path, bad)
    rc = main(["classify", "--dict", dict_path, "--query", query_path])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteInput"


def test_classify_lambda_option_is_used(trained, capsys):
    dict_path, query_path, query = trained
    assert main(["classify", "--dict", dict_path, "--query", query_path]) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(["classify", "--dict", dict_path, "--query", query_path,
                 "--lambda", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["residuals"] != default["residuals"]

    d = load_dictionary(dict_path)
    config = harness.ExperimentConfig(classifier="crc_rls", lam=5.0)
    decision = fit(d, config).decide(query)
    assert out["residuals"] == {
        str(k): harness._jsonable(v) for k, v in decision.per_class_residuals.items()
    }


def test_classify_malformed_sidecar_is_json_error(trained, capsys):
    dict_path, query_path, _ = trained
    sidecar_path = Path(dict_path + ".json")
    sidecar = json.loads(sidecar_path.read_text())
    del sidecar["fingerprint"]
    sidecar_path.write_text(json.dumps(sidecar))
    rc = main(["classify", "--dict", dict_path, "--query", query_path])
    assert rc == 1
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "MalformedMatrix"
    assert "fingerprint" in err["message"]


def test_experiment_short_labels_sidecar_is_json_error(dataset, tmp_path, capsys):
    sidecar_path = Path(dataset + ".json")
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["labels"] = sidecar["labels"][:-1]
    sidecar_path.write_text(json.dumps(sidecar))
    capsys.readouterr()
    rc = main(["experiment", "--data", dataset, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "MalformedMatrix"
    assert "'labels'" in err["message"]


def test_experiment_and_log(dataset, tmp_path):
    out = tmp_path / "report.json"
    log = tmp_path / "queries.jsonl"
    rc = main([
        "experiment", "--data", dataset, "--out", str(out), "--log", str(log),
        "--set", "classifier=crc_rls",
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["n_queries"] == 12
    assert 0.0 <= report["recognition_rate"] <= 1.0
    assert len(log.read_text().strip().split("\n")) == 12


def test_experiment_reports_load_and_log_write_stages(dataset, tmp_path):
    out = tmp_path / "report.json"
    log = tmp_path / "queries.jsonl"
    for argv in ([], ["--log", str(log)]):
        assert main(["experiment", "--data", dataset, "--out", str(out)] + argv) == 0
        stages = json.loads(out.read_text())["stages"]
        assert list(stages)[-2:] == ["load", "log_write"]
        assert stages["load"] > 0.0
        assert (stages["log_write"] > 0.0) == bool(argv)


@pytest.mark.parametrize("feature_dim", [None, 5])
def test_experiment_non_finite_training_is_json_error(dataset, tmp_path, feature_dim, capsys):
    # with or without PCA, a NaN in the training columns is NonFiniteInput
    features = read_matrix(dataset)
    features[0, 0] = np.nan
    write_matrix(dataset, features)
    capsys.readouterr()
    rc = main(["experiment", "--data", dataset, "--out", str(tmp_path / "r.json"),
               "--set", f"feature_dim={json.dumps(feature_dim)}"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteInput"


def test_experiment_config_file_with_override(dataset, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classifier": "nn", "lambda": 0.5}))
    out = tmp_path / "report.json"
    rc = main([
        "experiment", "--data", dataset, "--config", str(cfg),
        "--set", "classifier=crc_rls", "--set", "alm.tol=1e-5",
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["config"]["classifier"] == "crc_rls"
    assert report["config"]["lambda"] == 0.5
    assert report["config"]["alm"]["tol"] == 1e-5


@pytest.mark.parametrize(
    "overrides, words",
    [
        (["--set", "alm.foo=1"], ("alm", "foo")),
        (["--set", "degradation.kind=pixel_corruption", "--set", "degradation.seed=1"],
         ("degradation", "fraction")),
        (["--set", "lamda=5"], ("lamda",)),
        (["--set", "alm=3", "--set", "alm.tol=1e-5"], ("alm.tol", "alm")),
        (["--set", "degradation=null", "--set", "degradation.kind=x"],
         ("degradation.kind", "degradation")),
        (["--set", "alm.tol=0"], ("tol",)),
        (["--set", "fista.max_iter=0"], ("max_iter",)),
        (["--set", 'feature_dim="abc"'], ("feature_dim",)),
        (["--set", "feature_dim=2.5"], ("feature_dim",)),
        (["--set", 'alm.tol="x"'], ("tol",)),
        (["--set", 'fista.max_iter="5"'], ("max_iter",)),
        (["--set", "alm.max_iter=2.5"], ("max_iter",)),
        (["--set", "lambda=true"], ("lambda",)),
        (["--set", "lambda=NaN"], ("lambda",)),
        (["--set", "lambda=Infinity"], ("lambda",)),
        (["--set", "classifier=nn", "--set", "lambda=NaN"], ("lambda",)),
        (["--set", "degradation={}"], ("degradation", "fraction")),
        (["--set", 'degradation={"kind": "pixel_corruption", "fraction": true, "seed": 1}'],
         ("fraction",)),
        (["--set", 'degradation={"kind": "pixel_corruption", "fraction": "0.5", "seed": 1}'],
         ("fraction",)),
        (["--set", 'degradation={"kind": "pixel_corruption", "fraction": 0.5, "seed": 2.7}'],
         ("seed",)),
    ],
    ids=[
        "unknown-alm-key", "degradation-without-fraction", "unknown-top-level-key",
        "dotted-key-through-number", "dotted-key-through-null", "alm-tol-zero",
        "fista-max-iter-zero", "feature-dim-string", "feature-dim-fraction",
        "alm-tol-string", "fista-max-iter-string", "alm-max-iter-fraction",
        "lambda-bool", "lambda-nan", "lambda-inf", "nn-lambda-nan",
        "degradation-empty", "degradation-fraction-bool", "degradation-fraction-string",
        "degradation-seed-fraction",
    ],
)
def test_experiment_malformed_config_section_is_json_error(
    dataset, overrides, words, capsys
):
    rc = main(["experiment", "--data", dataset, *overrides])
    assert rc == 1
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "ConfigInvalid"
    assert all(repr(word) in err["message"] for word in words)


@pytest.mark.parametrize(
    "overrides", [[], ["--set", "classifier=src"]], ids=["config-alone", "config-and-set"]
)
def test_experiment_config_not_an_object_is_json_error(dataset, tmp_path, overrides, capsys):
    # a top-level list used to end in an AttributeError traceback
    cfg = tmp_path / "list.json"
    cfg.write_text("[]")
    rc = main(["experiment", "--data", dataset, "--config", str(cfg), *overrides])
    assert rc == 1
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "ConfigInvalid"
    assert "not an object" in err["message"]


def test_sweep_csv(dataset, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--data", dataset, "--lambdas", "0.001,0.01,0.1", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,recognition_rate"
    assert len(lines) == 4


def test_bench_command(dataset, tmp_path):
    c1 = tmp_path / "c1.json"
    c1.write_text(json.dumps({"classifier": "crc_rls"}))
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps({"classifier": "nn"}))
    out = tmp_path / "bench.json"
    rc = main([
        "bench", "--configs", f"{c1},{c2}", "--data", dataset, "--out", str(out),
    ])
    assert rc == 0
    table = json.loads(out.read_text())
    assert set(table["rows"]) == {"crc_rls", "nn"}


def test_bench_config_not_an_object_is_json_error(dataset, tmp_path, capsys):
    # bench reads its configs as experiment does; with --seed a top-level
    # list used to end in a TypeError traceback
    cfg = tmp_path / "list.json"
    cfg.write_text("[]")
    rc = main(["bench", "--configs", str(cfg), "--data", dataset, "--seed", "1"])
    assert rc == 1
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "ConfigInvalid"
    assert "not an object" in err["message"]


def test_analyze_coef_fit(tmp_path):
    rng = np.random.default_rng(5)
    coefs = tmp_path / "coefs.rpmat"
    write_matrix(coefs, rng.laplace(size=(5000, 1)))
    out = tmp_path / "fit.json"
    rc = main(["analyze", "--mode", "coef_fit", "--input", str(coefs), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["kl_laplacian"] < rep["kl_gaussian"]


def test_analyze_residual_curve(tmp_path):
    rng = np.random.default_rng(6)
    Phi = tmp_path / "phi.rpmat"
    write_matrix(Phi, rng.standard_normal((10, 5)))
    q = tmp_path / "y.rpmat"
    write_matrix(q, rng.standard_normal(10))
    out = tmp_path / "curve.csv"
    for p in ("2", "0"):
        rc = main([
            "analyze", "--mode", "residual_curve", "--input", str(Phi),
            "--query", str(q), "--grid", "0.1,1.0,10.0", "--p", p, "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "epsilon,residual"
        vals = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # with p = 0 the budget 0.1 is below one atom: the residual is ||y||
    assert vals[0] == pytest.approx(np.linalg.norm(read_matrix(q)))


def test_roc_matches_library(dataset, tmp_path):
    # imposters: a second synthetic set under class names apart from the gallery's
    other = harness.synthetic_dataset(
        n_classes=2, subspace_dim=3, ambient_dim=30, n_train=0, n_test=3, seed=4
    )
    imposters = str(tmp_path / "imposters.rpmat")
    harness.save_dataset(
        dataclasses.replace(other, labels=[f"imposter-{lab}" for lab in other.labels]), imposters
    )
    out = tmp_path / "roc.json"
    rc = main(["roc", "--gallery", dataset, "--customers", dataset, "--imposters", imposters,
               "--thresholds", "0.0,0.2,0.5,1.0", "--out", str(out)])
    assert rc == 0
    data = harness.load_dataset(dataset)
    points = harness.run_roc(
        harness.ExperimentConfig(), data, data, harness.load_dataset(imposters),
        [0.0, 0.2, 0.5, 1.0],
    )
    assert json.loads(out.read_text()) == {"points": points, "auc": harness.roc_auc(points)}


def test_analyze_geometry_matches_library(trained, tmp_path):
    dict_path, query_path, query = trained
    out = tmp_path / "geometry.json"
    rc = main(["analyze", "--mode", "geometry", "--input", dict_path, "--query", query_path,
               "--label", "class001", "--out", str(out)])
    assert rc == 0
    rep = analysis.geometry_check(load_dictionary(dict_path), query, "class001")
    assert json.loads(out.read_text()) == dataclasses.asdict(rep)


def test_analyze_perturbation_matches_library(trained, tmp_path):
    dict_path, query_path, query = trained
    rng = np.random.default_rng(8)
    X = load_dictionary(dict_path).class_block("class002")
    delta = 1e-3 * rng.standard_normal(X.shape)
    X_path, delta_path = str(tmp_path / "x.rpmat"), str(tmp_path / "delta.rpmat")
    write_matrix(X_path, X)
    write_matrix(delta_path, delta)
    out = tmp_path / "perturbation.json"
    rc = main(["analyze", "--mode", "perturbation", "--input", X_path, "--delta", delta_path,
               "--query", query_path, "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text()) == analysis.perturbation_demo(X, delta, query)


def test_error_is_machine_readable(tmp_path, capsys):
    rc = main(["experiment", "--data", str(tmp_path / "missing.rpmat")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err
