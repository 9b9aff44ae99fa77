import numpy as np
import pytest

from repclass.analysis import (
    _laplace_cdf,
    coef_distribution_fit,
    geometry_check,
    perturbation_demo,
)
from repclass.dictionary import build_dictionary
from repclass.errors import (
    ConfigInvalid,
    DegenerateAngle,
    DimensionMismatch,
    NonFiniteInput,
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


def test_fit_constant_coefficients_are_too_few_samples():
    # 500 zeros read as a perfect fit of both laws, with an overflow warning
    # from the Laplace CDF at the 1e-300 scale floor
    for value in (0.0, 2.5):
        with pytest.raises(TooFewSamples, match="no spread"):
            coef_distribution_fit(np.full(500, value))


def test_laplace_cdf_takes_far_tails_without_overflow():
    z = np.array([-1e308, -800.0, -1.0, 0.0, 1.0, 800.0, 1e308])
    np.testing.assert_array_equal(
        _laplace_cdf(z, 0.0, 1.0), [0.0, 0.0, 0.5 * np.exp(-1.0), 0.5, 1.0 - 0.5 * np.exp(-1.0), 1.0, 1.0]
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_fit_non_finite_coefficient_is_non_finite_input(bad):
    # a NaN coefficient gave KL 0.0 and NaN parameters, an inf one a NaN KL
    sample = np.random.default_rng(3).laplace(size=500)
    sample[7] = bad
    with pytest.raises(NonFiniteInput):
        coef_distribution_fit(sample)


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


def test_geometry_checks_its_query():
    # an all-NaN query gave a report of NaN, and a short one numpy's
    # untyped LinAlgError
    d, y = _geometry_instance(5)
    with pytest.raises(NonFiniteInput):
        geometry_check(d, np.full(d.m, np.nan), "a")
    with pytest.raises(DimensionMismatch):
        geometry_check(d, y[:-1], "a")


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


def _perturbation_cases():
    """(X_i, delta, y, error) for each bad input, on a 10 x 3 X_i."""
    rng = np.random.default_rng(9)
    X, y = rng.standard_normal((10, 3)), rng.standard_normal(10)
    nan_y, nan_delta = y.copy(), np.zeros_like(X)
    nan_y[2] = nan_delta[4, 1] = np.nan
    return {
        "nan-query": (X, np.zeros_like(X), nan_y, NonFiniteInput),  # lhs read 0.0
        "nan-delta": (X, nan_delta, y, NonFiniteInput),  # an untyped LinAlgError
        "short-delta": (X, np.zeros((9, 3)), y, DimensionMismatch),  # a broadcast ValueError
        "short-query": (X, np.zeros_like(X), y[:9], DimensionMismatch),  # an untyped LinAlgError
        # the rank check saw min(m, n) singular values, and rhs_first_order read -0.0
        "wide": (X.T, np.zeros((3, 10)), y[:3], RankDeficient),
    }


@pytest.mark.parametrize("case", list(_perturbation_cases()))
def test_perturbation_refuses_bad_input(case):
    X, delta, y, error = _perturbation_cases()[case]
    with pytest.raises(error):
        perturbation_demo(X, delta, y)
