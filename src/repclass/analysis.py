"""Diagnostic studies: coefficient-distribution fits, residual geometry,
and the least-squares perturbation demonstration."""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalid,
    DegenerateAngle,
    DimensionMismatch,
    NonFiniteInput,
    RankDeficient,
    TooFewSamples,
    UnknownClass,
)
from .solvers import _check_dims


@dataclass
class FitReport:
    bin_edges: np.ndarray
    counts: np.ndarray  # normalized to sum to 1
    kl_gaussian: float
    kl_laplacian: float
    gaussian_params: tuple  # (mean, stddev)
    laplacian_params: tuple  # (location, scale)


@dataclass
class GeometryReport:
    r_total_sq: float
    r_perp_sq: float
    r_star_sq: float
    sin_identity_lhs: float
    sin_identity_rhs: float


def _gaussian_cdf(x, mu, sigma):
    from scipy.special import ndtr

    return ndtr((np.asarray(x) - mu) / sigma)


def _laplace_cdf(x, loc, scale):
    x = np.asarray(x, dtype=np.float64)
    z = (x - loc) / scale
    tail = 0.5 * np.exp(-np.abs(z))  # exp of a nonpositive number cannot overflow
    return np.where(z < 0, tail, 1.0 - tail)


def _kl(counts, bin_masses):
    mask = counts > 0
    q = np.maximum(bin_masses[mask], 1e-300)
    p = counts[mask]
    return float(np.sum(p * np.log(p / q)))


def coef_distribution_fit(coefs, bins=101):
    """Histogram pooled coefficients and fit Gaussian/Laplacian densities.

    The histogram is symmetric about zero and clipped to the 0.1-99.9
    percentile range; KL divergence is taken between histogram masses and
    the fitted density integrated per bin, skipping empty bins. A NaN or
    infinite coefficient raises NonFiniteInput, and constant coefficients,
    which no density fits, TooFewSamples.
    """
    coefs = np.asarray(coefs, dtype=np.float64).ravel()
    if coefs.size < 100:
        raise TooFewSamples(f"need at least 100 samples, got {coefs.size}")
    if not np.isfinite(coefs).all():
        raise NonFiniteInput("coefficients contain NaN or inf")
    if coefs.min() == coefs.max():
        raise TooFewSamples(f"all {coefs.size} coefficients equal {float(coefs[0])!r}: no spread to fit")
    if bins < 10:
        raise ConfigInvalid(f"need at least 10 bins, got {bins}")
    lo, hi = np.percentile(coefs, [0.1, 99.9])
    half = max(abs(lo), abs(hi))
    if half == 0.0:
        half = 1e-12
    edges = np.linspace(-half, half, bins + 1)
    raw, _ = np.histogram(coefs, bins=edges)  # explicit edges drop the values outside them
    counts = raw / raw.sum()

    mu, sigma = float(np.mean(coefs)), float(np.std(coefs))
    sigma = max(sigma, 1e-300)
    loc = float(np.median(coefs))
    scale = max(float(np.mean(np.abs(coefs - loc))), 1e-300)

    g_mass = np.diff(_gaussian_cdf(edges, mu, sigma))
    l_mass = np.diff(_laplace_cdf(edges, loc, scale))
    return FitReport(
        bin_edges=edges,
        counts=counts,
        kl_gaussian=_kl(counts, g_mass),
        kl_laplacian=_kl(counts, l_mass),
        gaussian_params=(mu, sigma),
        laplacian_params=(loc, scale),
    )


def _sin(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        raise DegenerateAngle("angle undefined for a (near-)zero vector")
    c = float(np.clip((u @ v) / (nu * nv), -1.0, 1.0))
    return np.sqrt(1.0 - c * c)


def geometry_check(dictionary, y, label):
    """Residual decomposition and the sine-ratio identity for one class.

    With the unregularized collaborative fit y_hat = X a, the class residual
    splits as ||y - X_i a_i||^2 = ||y - y_hat||^2 + ||y_hat - X_i a_i||^2, and
    the in-span part equals sin^2(y_hat, chi_i) * ||y_hat||^2 / sin^2(chi_i,
    chibar_i) where chi_i = X_i a_i and chibar_i is the other classes' part.
    A query of another length than the dictionary's columns raises
    DimensionMismatch, and a NaN or infinite one NonFiniteInput.
    """
    X = dictionary.data
    y = _check_dims(X, y)
    alpha, *_ = np.linalg.lstsq(X, y, rcond=None)
    y_hat = X @ alpha
    if label not in dictionary.class_ranges:
        raise UnknownClass(f"no class {label!r} in dictionary")
    lo, hi = dictionary.class_ranges[label]
    chi = X[:, lo:hi] @ alpha[lo:hi]
    chibar = y_hat - chi
    r_total_sq = float(np.sum((y - chi) ** 2))
    r_perp_sq = float(np.sum((y - y_hat) ** 2))
    r_star_sq = float(np.sum((y_hat - chi) ** 2))
    sin_top = _sin(y_hat, chi)
    sin_bot = _sin(chi, chibar)
    if sin_bot < 1e-12:
        raise DegenerateAngle("class and complement components are collinear")
    rhs = (sin_top ** 2) * float(y_hat @ y_hat) / (sin_bot ** 2)
    return GeometryReport(
        r_total_sq=r_total_sq,
        r_perp_sq=r_perp_sq,
        r_star_sq=r_star_sq,
        sin_identity_lhs=r_star_sq,
        sin_identity_rhs=rhs,
    )


def perturbation_demo(X_i, delta, y):
    """Report how the least-squares residual moves under a dictionary perturbation.

    Returns both sides of the first-order sensitivity bound without asserting
    it: lhs = ||r_j - r_i||_2 / ||y||_2 for X_j = X_i + delta, and
    rhs = xi * (1 + 2 kappa) * min(1, m - n) (Golub & Van Loan, Thm 5.3.1),
    with xi the relative perturbation size and kappa the condition number
    of X_i. delta must have X_i's shape and y one entry per row (else
    DimensionMismatch), all finite (else NonFiniteInput), and X_i full
    column rank, so no more columns than rows (else RankDeficient).
    """
    X_i = np.asarray(X_i, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if X_i.ndim != 2 or delta.shape != X_i.shape:
        raise DimensionMismatch(f"delta is {delta.shape}, it needs X_i's shape {X_i.shape}")
    if not (np.isfinite(X_i).all() and np.isfinite(delta).all()):
        raise NonFiniteInput("X_i or delta contains NaN or inf")
    y = _check_dims(X_i, y)
    m, n = X_i.shape
    s = np.linalg.svd(X_i, compute_uv=False)
    if not 0 < n <= m or s[-1] <= 1e-12 * s[0]:
        raise RankDeficient(f"X_i ({m} x {n}) must have full column rank")
    kappa = float(s[0] / s[-1])
    xi = float(np.linalg.norm(delta, "fro") / np.linalg.norm(X_i, "fro"))

    def _residual(A):
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return y - A @ coef

    r_i = _residual(X_i)
    r_j = _residual(X_i + delta)
    ynorm = float(np.linalg.norm(y))
    lhs = float(np.linalg.norm(r_j - r_i)) / ynorm if ynorm > 0 else 0.0
    rhs_first_order = xi * (1.0 + 2.0 * kappa) * min(1, m - n)
    return {
        "xi": xi,
        "kappa2": kappa,
        "lhs": lhs,
        "rhs_first_order": rhs_first_order,
    }
