import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repclass import analysis, harness
from repclass.classifiers import fit
from repclass.cli import main
from repclass.io import load_dictionary, load_projector, read_matrix, write_matrix, write_pgm


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


@pytest.mark.parametrize("route", ["config", "set"])
def test_ingest_synthetic_seed_is_taken_one_way(tmp_path, route, capsys):
    # a config seed used to be overwritten by --seed unread, with exit 0
    config = tmp_path / "config.json"
    config.write_text('{"seed": 5, "n_classes": 2}')
    given = ["--config", str(config)] if route == "config" else ["--set", "seed=5", "--set", "n_classes=2"]
    out = tmp_path / "d.rpmat"
    rc = main(["ingest", "--synthetic", "--seed", "3", *given, "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid" and "--seed" in err["message"]
    # without --seed, a config seed still does not stand in for it
    rc = main(["ingest", "--synthetic", *given, "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert "--seed is required" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize(
    "setting, words",
    [("n_clases=2", ("n_clases",)), ('n_classes="3"', ("n_classes",)),
     ("n_classes=true", ("n_classes",)), ("n_train=2.5", ("n_train",)),
     ("n_classes=0", ("n_classes",)), ("subspace_dim=60", ("subspace_dim", "ambient_dim")),
     (["--seed", "-3"], ("seed",)), ('noise_sigma="x"', ("noise_sigma",)),
     ("noise_sigma=NaN", ("noise_sigma",)), ("shared_fraction=1.5", ("shared_fraction",))],
    ids=["unknown-key", "size-string", "size-bool", "size-fraction", "no-classes",
         "subspace-above-ambient", "negative-seed", "noise-string", "noise-nan",
         "shared-fraction-above-one"],
)
def test_ingest_synthetic_bad_config_is_json_error(tmp_path, setting, words, capsys):
    # an unknown key used to be ignored, a string size or noise_sigma to end
    # in a TypeError traceback, n_classes=true to give one class, a NaN
    # noise_sigma or a shared_fraction above 1 to be generated from, and the
    # other cases to end in an untyped ValueError
    out = tmp_path / "d.rpmat"
    args = setting if isinstance(setting, list) else ["--seed", "1", "--set", setting]
    rc = main(["ingest", "--synthetic", "--out", str(out), *args])
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
        (["analyze", "--mode", "geometry", "--query", "q.rpmat"], "--label"),
        (["analyze", "--mode", "perturbation", "--query", "q.rpmat"], "--delta"),
        (["analyze", "--mode", "perturbation", "--delta", "d.rpmat"], "--query"),
    ],
    ids=["ingest-path", "residual-curve-query", "residual-curve-grid", "geometry-query",
         "geometry-label", "perturbation-delta", "perturbation-query"],
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


@pytest.mark.parametrize(
    "argv, flag, entry",
    [
        (["train", "--data", "d.rpmat", "--lambda", "abc", "--out", "m.rpmat"], "--lambda", "abc"),
        (["classify", "--dict", "m.rpmat", "--query", "q.rpmat", "--lambda", "abc"], "--lambda", "abc"),
        (["sweep", "--data", "d.rpmat", "--lambdas", "1,x"], "--lambdas", "x"),
        (["roc", "--gallery", "g.rpmat", "--customers", "c.rpmat", "--imposters", "i.rpmat",
          "--thresholds", "0.1,zz"], "--thresholds", "zz"),
        (["analyze", "--mode", "residual_curve", "--input", "p.rpmat", "--query", "q.rpmat",
          "--grid", "1,b"], "--grid", "b"),
    ],
    ids=["train-lambda", "classify-lambda", "sweep-lambdas", "roc-thresholds", "analyze-grid"],
)
def test_bad_number_flag_is_config_invalid(tmp_path, monkeypatch, argv, flag, entry, capsys):
    # these used to give an untyped ValueError; the numbers are parsed before
    # any file is read, so none of the files named here exists
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    err = json.loads(err_text)
    assert err["error"] == "ConfigInvalid"
    assert flag in err["message"] and repr(entry) in err["message"]


def _pgm_tree(root):
    """Two class directories of three 4 x 3 PGM images each under root."""
    rng = np.random.default_rng(9)
    for lab in ("s1", "s2"):
        (root / lab).mkdir(parents=True)
        for i in range(3):
            write_pgm(root / lab / f"{i}.pgm", np.round(rng.uniform(0, 255, size=(4, 3))))
    return str(root)


def test_ingest_path_reads_class_dirs(tmp_path, capsys):
    tree = _pgm_tree(tmp_path / "faces")
    out = str(tmp_path / "faces.rpmat")
    rc = main(["ingest", "--path", tree, "--train-per-class", "2", "--out", out])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"columns": 6, "classes": 2}
    back, want = harness.load_dataset(out), harness.ingest_dataset(tree, train_per_class=2)
    np.testing.assert_array_equal(back.features, want.features)
    assert back.labels == want.labels == ["s1"] * 3 + ["s2"] * 3
    assert back.split == want.split == ["train", "train", "test"] * 2
    assert back.image_shape == want.image_shape == (4, 3)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--path", "TREE", "--synthetic", "--seed", "1"], "--path"),
        (["--path", "TREE", "--config", "CONFIG"], "--config"),
        (["--path", "TREE", "--set", "n_classes=2"], "--set"),
        (["--path", "TREE", "--seed", "1"], "--seed"),
        (["--synthetic", "--seed", "1", "--train-per-class", "2"], "--train-per-class"),
    ],
    ids=["path-with-synthetic", "config-with-path", "set-with-path", "seed-with-path",
         "train-per-class-with-synthetic"],
)
def test_ingest_takes_one_source(tmp_path, argv, flag, capsys):
    # the other source's flags used to be ignored, with exit 0
    tree = _pgm_tree(tmp_path / "faces")
    config = tmp_path / "config.json"
    config.write_text("{}")
    argv = [{"TREE": tree, "CONFIG": str(config)}.get(a, a) for a in argv]
    out = tmp_path / "d.rpmat"
    rc = main(["ingest", *argv, "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    assert flag in err["message"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ingest", "--path", "d", "--layout", "class_dirs", "--out", "o"], "--layout"),
        (["experiment", "--data", "d", "--seed", "1"], "--seed"),
        (["sweep", "--data", "d", "--lambdas", "1", "--seed", "1"], "--seed"),
        (["roc", "--gallery", "g", "--customers", "c", "--imposters", "i", "--seed", "1"],
         "--seed"),
        (["bench", "--configs", "c", "--data", "d", "--seed", "1"], "--seed"),
    ],
    ids=["ingest-layout", "experiment-seed", "sweep-seed", "roc-seed", "bench-seed"],
)
def test_removed_flags_are_usage_errors(argv, flag, capsys):
    # ingest reads class directories only, and the top-level seed seeds
    # nothing, so these flags are not options
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_output_goes_to_stdout_without_out(dataset, capsys):
    capsys.readouterr()
    assert main(["experiment", "--data", dataset]) == 0
    assert json.loads(capsys.readouterr().out)["n_queries"] == 12
    assert main(["sweep", "--data", dataset, "--lambdas", "0.01,1"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[0] == "lambda,recognition_rate" and len(lines) == 4 and lines[-1] == ""


def test_ingest_reports_shape(capsys, dataset):
    # capsys is set up before the fixture runs, so it holds ingest's summary
    assert json.loads(capsys.readouterr().out) == {"columns": 36, "classes": 4}


def test_train_and_classify(dataset, tmp_path, capsys):
    dict_path = str(tmp_path / "model.rpmat")
    rc = main(["train", "--data", dataset, "--out", dict_path])
    assert rc == 0
    info = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert info["columns"] == 24 and info["classes"] == 4

    d = load_dictionary(dict_path)
    # classify a training column of class000: should be an easy hit
    query_path = str(tmp_path / "q.rpmat")
    lo, _ = d.class_ranges["class000"]
    write_matrix(query_path, d.data[:, lo])
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
    b = fit(d, config, proj).decide_block(query[:, None])
    assert out["predicted"] == str(d.classes[b.predicted[0]])
    assert out["residuals"] == dict(zip(map(str, d.classes), harness._jsonable(b.scores[:, 0])))


def test_classify_nan_query_is_json_error(trained, capsys):
    dict_path, query_path, query = trained
    bad = query.copy()
    bad[0] = np.nan
    write_matrix(query_path, bad)
    rc = main(["classify", "--dict", dict_path, "--query", query_path])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteInput"


def test_classify_non_finite_projector_is_json_error(trained, capsys):
    # a NaN projector entry used to give exit 0 and an "inf" residual
    dict_path, query_path, _ = trained
    proj_path = dict_path + ".proj"
    matrix = read_matrix(proj_path)
    matrix[0, 0] = np.nan
    write_matrix(proj_path, matrix)
    rc = main(["classify", "--dict", dict_path, "--query", query_path])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedMatrix"
    assert proj_path in err["message"]


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
    b = fit(d, config).decide_block(query[:, None])
    assert out["residuals"] == dict(zip(map(str, d.classes), harness._jsonable(b.scores[:, 0])))


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


@pytest.mark.parametrize("classifier", ["crc_rls", "rns_l2", "src", "rns_l1"])
def test_lambda_below_a_rank_deficient_dictionary_is_json_error(tmp_path, classifier, capsys):
    # two equal training columns and lambda = 1e-20: train and experiment
    # used to print {"error": "LinAlgError", ...}
    rng = np.random.default_rng(5)
    features = rng.standard_normal((6, 7))
    features[:, 1] = features[:, 0]
    data = harness.Dataset(features, ["a", "a", "b", "b", "b", "a", "b"], ["train"] * 5 + ["test"] * 2)
    path = str(tmp_path / "dup.rpmat")
    harness.save_dataset(data, path)
    runs = [["experiment", "--data", path, "--set", "lambda=1e-20", "--set", f'classifier="{classifier}"']]
    if classifier == "crc_rls":
        runs.append(["train", "--data", path, "--out", str(tmp_path / "model.rpmat"), "--lambda", "1e-20"])
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RankDeficient" and "lambda=1e-20" in err["message"]


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
    c2.write_text(json.dumps({"classifier": "crc_rls", "decision_variant": "plain_residual"}))
    out = tmp_path / "bench.json"
    rc = main([
        "bench", "--configs", f"{c1},{c2}", "--data", dataset, "--out", str(out),
    ])
    assert rc == 0
    table = json.loads(out.read_text())
    # one row per config file, in order, though both name crc_rls
    assert [row["config"]["decision_variant"] for row in table["rows"]] == [
        "regularized_residual", "plain_residual",
    ]
    assert table["fastest"] in (0, 1)


def test_bench_config_not_an_object_is_json_error(dataset, tmp_path, capsys):
    # bench reads its configs as experiment does; a top-level list used to
    # end in a TypeError traceback
    cfg = tmp_path / "list.json"
    cfg.write_text("[]")
    rc = main(["bench", "--configs", str(cfg), "--data", dataset])
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


def test_roc_non_finite_threshold_is_config_invalid(dataset, tmp_path, capsys):
    # "nan" used to be written as the threshold NaN, which is not JSON
    out = tmp_path / "roc.json"
    rc = main(["roc", "--gallery", dataset, "--customers", dataset, "--imposters", dataset,
               "--thresholds", "0.5,nan", "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid" and "threshold" in err["message"]


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
    d = load_dictionary(dict_path)
    lo, hi = d.class_ranges["class002"]
    X = d.data[:, lo:hi]
    delta = 1e-3 * rng.standard_normal(X.shape)
    X_path, delta_path = str(tmp_path / "x.rpmat"), str(tmp_path / "delta.rpmat")
    write_matrix(X_path, X)
    write_matrix(delta_path, delta)
    out = tmp_path / "perturbation.json"
    rc = main(["analyze", "--mode", "perturbation", "--input", X_path, "--delta", delta_path,
               "--query", query_path, "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text()) == analysis.perturbation_demo(X, delta, query)


def _analyze_error(argv, capsys):
    """The error name that `repclass analyze` prints for argv, which must fail."""
    assert main(["analyze"] + argv) == 1
    return json.loads(capsys.readouterr().err)["error"]


def test_analyze_coef_fit_non_finite_is_json_error(tmp_path, capsys):
    # a NaN coefficient exited 0 with KL 0.0, an inf one wrote "kl_gaussian": NaN
    coefs, out = str(tmp_path / "coefs.rpmat"), tmp_path / "fit.json"
    for bad in (np.nan, np.inf):
        sample = np.random.default_rng(5).laplace(size=(500, 1))
        sample[3] = bad
        write_matrix(coefs, sample)
        argv = ["--mode", "coef_fit", "--input", coefs, "--out", str(out)]
        assert _analyze_error(argv, capsys) == "NonFiniteInput"
    assert not out.exists()


def test_analyze_geometry_bad_query_is_json_error(trained, tmp_path, capsys):
    # an all-NaN query wrote "r_total_sq": NaN (not JSON), and a short one
    # gave numpy's untyped LinAlgError
    dict_path, query_path, query = trained
    out = tmp_path / "geometry.json"
    for bad, error in ((np.full_like(query, np.nan), "NonFiniteInput"), (query[:-1], "DimensionMismatch")):
        write_matrix(query_path, bad)
        argv = ["--mode", "geometry", "--input", dict_path, "--query", query_path,
                "--label", "class001", "--out", str(out)]
        assert _analyze_error(argv, capsys) == error
    assert not out.exists()


def test_analyze_perturbation_bad_input_is_json_error(tmp_path, capsys):
    # each exited 0 or raised an untyped numpy error; see test_analysis
    rng = np.random.default_rng(9)
    X, y = rng.standard_normal((10, 3)), rng.standard_normal(10)
    nan_y, nan_delta = y.copy(), np.zeros_like(X)
    nan_y[2] = nan_delta[4, 1] = np.nan
    cases = [
        (X, np.zeros_like(X), nan_y, "NonFiniteInput"),
        (X, nan_delta, y, "NonFiniteInput"),
        (X, np.zeros((9, 3)), y, "DimensionMismatch"),
        (X.T, np.zeros((3, 10)), y[:3], "RankDeficient"),
    ]
    out = tmp_path / "perturbation.json"
    paths = [str(tmp_path / f"{name}.rpmat") for name in ("x", "delta", "y")]
    for X_i, delta, query, error in cases:
        for path, a in zip(paths, (X_i, delta, query)):
            write_matrix(path, a)
        argv = ["--mode", "perturbation", "--input", paths[0], "--delta", paths[1],
                "--query", paths[2], "--out", str(out)]
        assert _analyze_error(argv, capsys) == error
    assert not out.exists()


def test_sweep_non_finite_lambda_is_config_invalid(dataset, tmp_path, capsys):
    # the sweep ran the 0.01 experiment in full before refusing nan
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--data", dataset, "--lambdas", "0.01,nan", "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid" and "nan" in err["message"]


def test_error_is_machine_readable(tmp_path, capsys):
    rc = main(["experiment", "--data", str(tmp_path / "missing.rpmat")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err
