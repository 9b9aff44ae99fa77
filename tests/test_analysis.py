import numpy as np
import pytest

from repclass.analysis import (
    coef_distribution_fit,
    geometry_check,
    perturbation_demo,
)
from repclass.dictionary import build_dictionary
from repclass.errors import (
    ConfigInvalid,
    DegenerateAngle,
    RankDeficient,
    TooFewSamples,
    UnknownClass,
)


# ------------------------------------------------------- distribution fit

def test_fit_prefers_true_gaussian():
    rng = np.random.default_rng(0)
    sample = rng.normal(0.0, 2.0, size=200_000)
    rep = coef_distribution_fit(sample)
    assert rep.kl_gaussian < rep.kl_laplacian
    assert rep.kl_gaussian < 0.01
    mu, sigma = rep.gaussian_params
    assert mu == pytest.approx(0.0, abs=0.02)
    assert sigma == pytest.approx(2.0, abs=0.02)


def test_fit_prefers_true_laplacian():
    rng = np.random.default_rng(1)
    sample = rng.laplace(0.0, 1.5, size=200_000)
    rep = coef_distribution_fit(sample)
    assert rep.kl_laplacian < rep.kl_gaussian
    assert rep.kl_laplacian < 0.01
    loc, scale = rep.laplacian_params
    assert loc == pytest.approx(0.0, abs=0.02)
    assert scale == pytest.approx(1.5, abs=0.02)


def test_fit_histogram_properties():
    rng = np.random.default_rng(2)
    rep = coef_distribution_fit(rng.normal(size=5000), bins=51)
    assert rep.counts.sum() == pytest.approx(1.0)
    assert len(rep.bin_edges) == 52
    # symmetric range around zero
    assert rep.bin_edges[0] == pytest.approx(-rep.bin_edges[-1])


def test_fit_too_few_bins_is_config_invalid():
    with pytest.raises(ConfigInvalid, match="10 bins"):
        coef_distribution_fit(np.random.default_rng(2).normal(size=500), bins=9)


def test_fit_kl_nonnegative():
    rng = np.random.default_rng(3)
    for sample in (rng.normal(size=1000), rng.laplace(size=1000), rng.uniform(size=1000)):
        rep = coef_distribution_fit(sample)
        assert rep.kl_gaussian >= 0.0
        assert rep.kl_laplacian >= 0.0


def test_fit_too_few_samples():
    with pytest.raises(TooFewSamples):
        coef_distribution_fit(np.zeros(99))


# --------------------------------------------------------------- geometry

def _geometry_instance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(20, 40))
    per_class = int(rng.integers(2, 5))
    samples = []
    for lab in ("a", "b", "c"):
        for _ in range(per_class):
            samples.append((rng.standard_normal(m), lab))
    y = rng.standard_normal(m)
    return build_dictionary(samples), y


def test_geometry_decomposition_identity():
    for seed in range(20):
        d, y = _geometry_instance(seed)
        rep = geometry_check(d, y, "b")
        assert rep.r_total_sq == pytest.approx(
            rep.r_perp_sq + rep.r_star_sq, rel=1e-8
        )


def test_geometry_sine_ratio_identity():
    for seed in range(20, 40):
        d, y = _geometry_instance(seed)
        rep = geometry_check(d, y, "a")
        assert rep.sin_identity_lhs == pytest.approx(rep.sin_identity_rhs, rel=1e-8)


def test_geometry_degenerate_query():
    d, _ = _geometry_instance(99)
    with pytest.raises(DegenerateAngle):
        geometry_check(d, np.zeros(d.m), "a")


def test_geometry_unknown_label_is_unknown_class():
    d, y = _geometry_instance(5)
    with pytest.raises(UnknownClass, match="'zz'"):
        geometry_check(d, y, "zz")


# ------------------------------------------------------------ perturbation

def test_perturbation_zero_delta():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 5))
    out = perturbation_demo(X, np.zeros_like(X), rng.standard_normal(12))
    assert out["xi"] == 0.0
    assert out["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert out["kappa2"] >= 1.0


def test_perturbation_small_delta_tracks_first_order():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 6))
    delta = 1e-6 * rng.standard_normal((20, 6))
    out = perturbation_demo(X, delta, rng.standard_normal(20))
    assert out["xi"] == pytest.approx(1e-6 * np.linalg.norm(delta * 1e6, "fro") / np.linalg.norm(X, "fro"))
    # well-conditioned instance: the residual moves on the order of xi
    assert out["lhs"] <= 10 * out["rhs_first_order"]


def test_perturbation_bound_uses_two_kappa():
    # Golub & Van Loan, Thm 5.3.1: the residual bound carries (1 + 2 kappa)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((15, 4))
    delta = 1e-3 * rng.standard_normal((15, 4))
    out = perturbation_demo(X, delta, rng.standard_normal(15))
    s = np.linalg.svd(X, compute_uv=False)
    xi = np.linalg.norm(delta, "fro") / np.linalg.norm(X, "fro")
    assert out["rhs_first_order"] == pytest.approx(xi * (1 + 2 * s[0] / s[-1]), rel=1e-12)


def test_perturbation_rank_deficient():
    X = np.ones((8, 3))
    with pytest.raises(RankDeficient):
        perturbation_demo(X, np.zeros_like(X), np.ones(8))
