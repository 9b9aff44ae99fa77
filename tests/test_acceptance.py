"""Acceptance suite: one test per release criterion.

Each test prints a single machine-greppable PASS/FAIL line. Criterion 12
needs an external face dataset and is skipped unless REPCLASS_YALEB_DIR
points at a class-per-directory tree of PGM images.
"""

import os
import time

import numpy as np
import pytest

from repclass.analysis import coef_distribution_fit, geometry_check
from repclass.degradation import DegradationSpec
from repclass.dictionary import build_dictionary, build_projector, default_lambda
from repclass.features import fit_pca, project_pca
from repclass.harness import (
    Dataset,
    ExperimentConfig,
    ingest_dataset,
    lambda_sweep,
    roc_auc,
    run_experiment,
    run_roc,
    synthetic_dataset,
)
from repclass.solvers import (
    FistaParams,
    shrink,
    solve_alm_l1res,
    solve_fista_l1,
    solve_rls,
)
from repclass.synthetic import make_subspace_dataset


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_rls_oracle_equivalence():
    """solve_rls agrees with direct normal-equation solves to 1e-10 relative."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(5, 51))
        n = int(rng.integers(5, 101))
        lam = float(10 ** rng.uniform(-6, 0))
        X = rng.standard_normal((m, n))
        y = rng.standard_normal(m)
        got = solve_rls(X, y, lam).alpha
        ref = np.linalg.solve(X.T @ X + lam * np.eye(n), X.T @ y)
        denom = max(np.linalg.norm(ref), 1e-300)
        worst = max(worst, np.linalg.norm(got - ref) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"worst rel err {worst:.2e}, {elapsed:.2f}s over 100 instances")


def test_criterion_02_alm_optimality():
    """Feasibility and KKT conditions on random instances; scalar grid oracle."""
    # scalar oracle: brute-force grid minimization of |2 - a| + a^2
    grid = np.linspace(-1.0, 3.0, 800001)
    a_star = grid[np.argmin(np.abs(2.0 - grid) + grid ** 2)]
    res = solve_alm_l1res(np.array([[1.0]]), np.array([2.0]), 1.0)
    scalar_ok = (
        abs(res.alpha[0] - a_star) <= 1e-4
        and abs(res.residual_vec[0] - (2.0 - a_star)) <= 1e-4
    )

    rng = np.random.default_rng(1002)
    worst_feas = worst_stat = worst_mult = worst_sign = 0.0
    for _ in range(50):
        X = rng.standard_normal((15, 30))
        X /= np.linalg.norm(X, axis=0)
        y = rng.standard_normal(15)
        lam = float(rng.uniform(0.05, 1.0))
        out = solve_alm_l1res(X, y, lam)
        a, e, z = out.alpha, out.residual_vec, out.multiplier
        worst_feas = max(
            worst_feas, np.linalg.norm(y - X @ a - e) / np.linalg.norm(y)
        )
        worst_stat = max(
            worst_stat,
            np.linalg.norm(2 * lam * a - X.T @ z) / (1 + np.linalg.norm(a)),
        )
        worst_mult = max(worst_mult, np.max(np.abs(z)) - 1.0)
        big = np.abs(e) > 1e-6
        if np.any(big):
            worst_sign = max(worst_sign, np.max(np.abs(z[big] - np.sign(e[big]))))
    kkt_ok = (
        worst_feas <= 1e-6
        and worst_stat <= 1e-4
        and worst_mult <= 1e-4
        and worst_sign <= 1e-3
    )
    ok = scalar_ok and kkt_ok
    _report(
        2, ok,
        f"scalar |a-0.5|={abs(res.alpha[0] - 0.5):.1e}; feas {worst_feas:.1e}, "
        f"stationarity {worst_stat:.1e}, |z|-1 {worst_mult:.1e}, sign {worst_sign:.1e}",
    )


def test_criterion_03_geometric_identities():
    """Residual decomposition and sine-ratio identity at 1e-8 relative."""
    t0 = time.perf_counter()
    worst_dec = worst_sin = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        m = int(rng.integers(20, 50))
        samples = []
        for lab in ("a", "b", "c", "d"):
            for _ in range(int(rng.integers(2, 5))):
                samples.append((rng.standard_normal(m), lab))
        d = build_dictionary(samples)
        y = rng.standard_normal(m)
        rep = geometry_check(d, y, "b")
        worst_dec = max(
            worst_dec,
            abs(rep.r_total_sq - (rep.r_perp_sq + rep.r_star_sq)) / rep.r_total_sq,
        )
        worst_sin = max(
            worst_sin,
            abs(rep.sin_identity_lhs - rep.sin_identity_rhs)
            / max(rep.sin_identity_lhs, 1e-300),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_dec <= 1e-8 and worst_sin <= 1e-8 and elapsed < 5.0
    _report(3, ok, f"decomposition {worst_dec:.1e}, sine identity {worst_sin:.1e}, {elapsed:.2f}s")


def test_criterion_04_shrink_and_fista():
    """shrink is exact; FISTA matches the separable closed form to 1e-6."""
    rng = np.random.default_rng(1004)
    shrink_ok = True
    for _ in range(200):
        x = rng.standard_normal(int(rng.integers(1, 40))) * 10 ** rng.uniform(-3, 3)
        a = float(10 ** rng.uniform(-3, 3))
        if not np.array_equal(shrink(x, a), np.sign(x) * np.maximum(np.abs(x) - a, 0.0)):
            shrink_ok = False
    worst = 0.0
    for trial in range(10):
        y = rng.standard_normal(20)
        lam = float(10 ** rng.uniform(-2, 1))
        res = solve_fista_l1(
            np.eye(20), y, lam, FistaParams(tol=1e-12, max_iter=2000)
        )
        worst = max(worst, np.max(np.abs(res.alpha - shrink(y, lam / 2.0))))
    ok = shrink_ok and worst <= 1e-6
    _report(4, ok, f"shrink exact on 200 draws; FISTA vs closed form {worst:.1e}")


def test_criterion_05_classification_ordering():
    """CRC-RLS >= NN and within 2 points of l1 coding on a synthetic set."""
    t0 = time.perf_counter()
    data = synthetic_dataset(
        n_classes=20, subspace_dim=5, ambient_dim=100,
        n_train=20, n_test=10, noise_sigma=0.05, seed=42,
    )
    acc = {}
    for clf in ("crc_rls", "nn", "src"):
        acc[clf] = run_experiment(ExperimentConfig(classifier=clf), data).recognition_rate
    elapsed = time.perf_counter() - t0
    ok = (
        acc["crc_rls"] >= acc["nn"]
        and abs(acc["crc_rls"] - acc["src"]) <= 0.02
        and elapsed < 60.0
    )
    _report(
        5, ok,
        f"crc_rls {acc['crc_rls']:.3f}, nn {acc['nn']:.3f}, src {acc['src']:.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_robustness_ordering():
    """l1-residual coding beats plain CRC by >= 10 points at 60% corruption."""
    t0 = time.perf_counter()
    data = synthetic_dataset(
        n_classes=10, subspace_dim=4, ambient_dim=600,
        n_train=8, n_test=10, noise_sigma=0.02, seed=7,
    )
    train, _ = data.columns("train")
    # corruption values drawn at the scale of the feature entries (the analog
    # of replacing 8-bit pixels by uniform values over the full pixel range)
    s = 3.0 * float(train.std())
    acc = {}
    for frac in (0.0, 0.6):
        spec = (
            DegradationSpec("pixel_corruption", frac, seed=11, low=-s, high=s)
            if frac > 0 else None
        )
        for clf in ("crc_rls", "rcrc"):
            cfg = ExperimentConfig(classifier=clf, degradation=spec)
            acc[(frac, clf)] = run_experiment(cfg, data).recognition_rate
    elapsed = time.perf_counter() - t0
    ok = (
        acc[(0.6, "rcrc")] >= acc[(0.6, "crc_rls")] + 0.10
        and abs(acc[(0.0, "rcrc")] - acc[(0.0, "crc_rls")]) <= 0.02
        and elapsed < 300.0
    )
    _report(
        6, ok,
        f"60%: rcrc {acc[(0.6, 'rcrc')]:.3f} vs crc_rls {acc[(0.6, 'crc_rls')]:.3f}; "
        f"0%: {acc[(0.0, 'rcrc')]:.3f} vs {acc[(0.0, 'crc_rls')]:.3f}; {elapsed:.0f}s",
    )


def test_criterion_07_speedup():
    """Projector-based classification is >= 10x faster per query than FISTA."""
    data = synthetic_dataset(
        n_classes=60, subspace_dim=5, ambient_dim=300,
        n_train=20, n_test=9, noise_sigma=0.05, seed=3,
    )
    assert data.split.count("test") == 540  # >= 500 queries
    crc = run_experiment(ExperimentConfig(classifier="crc_rls"), data)
    src = run_experiment(
        ExperimentConfig(classifier="src", fista=FistaParams(tol=1e-3, max_iter=150)),
        data,
    )
    speedup = src.mean_query_time / crc.mean_query_time
    ok = (
        speedup >= 10.0
        and abs(crc.recognition_rate - src.recognition_rate) <= 0.02
    )
    _report(
        7, ok,
        f"speedup {speedup:.0f}x over {crc.n_queries} queries "
        f"(crc {crc.mean_query_time * 1e3:.2f}ms / src {src.mean_query_time * 1e3:.1f}ms); "
        f"accuracy {crc.recognition_rate:.3f} vs {src.recognition_rate:.3f}",
    )


def test_criterion_08_distribution_fit_trend():
    """Pooled coding coefficients turn Laplacian as the feature dim grows."""
    train, train_labels, test, _ = make_subspace_dataset(
        40, 5, 600, 40, 5, 0.05, 21
    )
    kl = {}
    for dim in (25, 400):
        pca = fit_pca(train, dim)
        tr = project_pca(pca, train)
        te = project_pca(pca, test)
        d = build_dictionary([(tr[:, i], train_labels[i]) for i in range(tr.shape[1])])
        proj = build_projector(d, default_lambda(d.n))
        coefs = proj.matrix @ te
        # normalize per query so the pooled histogram reflects coefficient
        # shape rather than query-to-query energy spread
        coefs = coefs / coefs.std(axis=0, keepdims=True)
        rep = coef_distribution_fit(coefs.ravel())
        kl[dim] = (rep.kl_gaussian, rep.kl_laplacian)
    ok = kl[400][1] < kl[25][1] and kl[400][1] < kl[400][0]
    _report(
        8, ok,
        f"kl_laplacian 400={kl[400][1]:.4f} < 25={kl[25][1]:.4f}; "
        f"kl_gaussian at 400 = {kl[400][0]:.4f}",
    )


def test_criterion_09_lambda_sweep_shape():
    """Mid-range lambda beats both sweep extremes."""
    data = synthetic_dataset(
        n_classes=10, subspace_dim=3, ambient_dim=80,
        n_train=20, n_test=20, noise_sigma=0.2, seed=13,
        shared_fraction=0.6,
    )
    lams = [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 100.0]
    accs = [
        r.recognition_rate
        for r in lambda_sweep(ExperimentConfig(classifier="crc_rls"), data, lams)
    ]
    mid = max(accs[1:-1])
    ok = mid > accs[0] and mid > accs[-1]
    _report(
        9, ok,
        "accuracy by lambda " + ", ".join(f"{l:g}:{a:.3f}" for l, a in zip(lams, accs)),
    )


def test_criterion_10_validation_roc():
    """SCI-threshold ROC: FPR monotone in threshold, AUC above chance."""
    full = synthetic_dataset(
        n_classes=12, subspace_dim=5, ambient_dim=60,
        n_train=15, n_test=10, noise_sigma=0.15, seed=31,
        shared_fraction=0.3,
    )
    keep = {f"class{c:03d}" for c in range(10)}

    def subset(inside, split=None):
        idx = [
            i for i in range(full.n_columns)
            if (full.labels[i] in keep) == inside
            and (split is None or full.split[i] == split)
        ]
        return Dataset(
            features=full.features[:, idx],
            labels=[full.labels[i] for i in idx],
            split=[full.split[i] for i in idx],
        )

    points = run_roc(
        ExperimentConfig(classifier="crc_rls"),
        subset(True), subset(True, "test"), subset(False),
        np.linspace(0.0, 1.0, 21),
    )
    fprs = [p["fpr"] for p in points]
    auc = roc_auc(points)
    monotone = all(b <= a + 1e-12 for a, b in zip(fprs, fprs[1:]))
    ok = monotone and auc > 0.5
    _report(10, ok, f"FPR monotone: {monotone}, AUC {auc:.3f}")


def test_criterion_11_determinism():
    """Re-running an experiment reproduces accuracy outputs bit-identically."""
    data1 = synthetic_dataset(
        n_classes=6, subspace_dim=3, ambient_dim=50,
        n_train=8, n_test=5, noise_sigma=0.1, seed=77,
    )
    data2 = synthetic_dataset(
        n_classes=6, subspace_dim=3, ambient_dim=50,
        n_train=8, n_test=5, noise_sigma=0.1, seed=77,
    )
    spec = DegradationSpec("pixel_corruption", 0.2, seed=5, low=-1.0, high=1.0)
    ok = True
    for clf in ("crc_rls", "rcrc", "src", "nn"):
        cfg = ExperimentConfig(classifier=clf, feature_dim=20, degradation=spec, seed=9)
        r1 = run_experiment(cfg, data1)
        r2 = run_experiment(cfg, data2)
        if r1.recognition_rate != r2.recognition_rate:
            ok = False
        if r1.per_class_rates != r2.per_class_rates:
            ok = False
        for a, b in zip(r1.per_query, r2.per_query):
            if a["predicted"] != b["predicted"] or a["residuals"] != b["residuals"]:
                ok = False
    _report(11, ok, "4 classifiers, corrupted queries + PCA, byte-equal outputs")


YALEB_DIR = os.environ.get("REPCLASS_YALEB_DIR", "")


@pytest.mark.skipif(
    not (YALEB_DIR and os.path.isdir(YALEB_DIR)),
    reason="set REPCLASS_YALEB_DIR to a class-per-directory PGM tree to enable",
)
def test_criterion_12_yaleb_reproduction():
    """Extended Yale B at Eigenface dimension 300: 97.9% +/- 1.5 points."""
    data = ingest_dataset(YALEB_DIR)
    rng = np.random.default_rng(2023)
    # random half split: 32 training images per person, rest held out
    by_class = {}
    for i, lab in enumerate(data.labels):
        by_class.setdefault(lab, []).append(i)
    split = ["test"] * data.n_columns
    for lab, idx in by_class.items():
        chosen = rng.permutation(idx)[:32]
        for i in chosen:
            split[i] = "train"
    data = Dataset(
        features=data.features, labels=data.labels, split=split,
        provenance=data.provenance, image_shape=data.image_shape,
    )
    report = run_experiment(
        ExperimentConfig(classifier="crc_rls", feature_dim=300), data
    )
    ok = abs(report.recognition_rate - 0.979) <= 0.015
    _report(12, ok, f"recognition rate {report.recognition_rate:.4f} vs 0.979 +/- 0.015")
