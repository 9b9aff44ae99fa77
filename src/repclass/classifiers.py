"""Classification rules built on the coders.

All rules produce a Decision: per-class scores plus the argmin label, with
ties broken toward the earliest class block in the dictionary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FingerprintMismatch, NonFiniteInput, SingleClass
from .solvers import (
    AlmParams,
    CodingResult,
    FistaParams,
    solve_alm_l1res,
    solve_fista_l1,
    solve_rls,
)

_ZERO_COEF_TOL = 1e-12


@dataclass
class Decision:
    predicted: object
    per_class_residuals: dict
    coding: CodingResult
    sci: float | None = None
    degenerate: bool = False


@dataclass
class ValidationOutcome:
    accepted: bool
    sci: float
    threshold: float


def _argmin_decision(dictionary, residuals, coding, sci=None, degenerate=False):
    # dict preserves class-range order, so min() on items keeps the earliest
    # class on ties only if we scan explicitly.
    best = None
    best_r = np.inf
    for lab in dictionary.classes:
        r = residuals[lab]
        if r < best_r:
            best_r = r
            best = lab
    if best is None:
        best = dictionary.classes[0]
        degenerate = True
    return Decision(
        predicted=best,
        per_class_residuals=residuals,
        coding=coding,
        sci=sci,
        degenerate=degenerate,
    )


def _check_query(dictionary, y):
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != dictionary.m:
        raise DimensionMismatch(
            f"query has dimension {y.shape[0]}, dictionary has {dictionary.m}"
        )
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("query contains NaN or inf")
    return y


def _check_code(dictionary, alpha):
    if alpha.shape[0] != dictionary.n:
        raise DimensionMismatch(
            f"alpha has length {alpha.shape[0]}, dictionary has {dictionary.n} columns"
        )


def _plain_residuals(dictionary, y, alpha):
    _check_code(dictionary, alpha)
    X = dictionary.data
    out = {}
    for lab, (lo, hi) in dictionary.class_ranges.items():
        r = y - X[:, lo:hi] @ alpha[lo:hi]
        out[lab] = math.sqrt(r @ r)
    return out


def _regularized_residuals(dictionary, y, alpha, e=None):
    """Ratio residuals ||y - X_i a_i (- e)||_2 / ||a_i||_2 with a zero guard."""
    _check_code(dictionary, alpha)
    target = y if e is None else y - e
    X = dictionary.data
    out = {}
    for lab, (lo, hi) in dictionary.class_ranges.items():
        ai = alpha[lo:hi]
        nai = math.sqrt(ai @ ai)
        if nai < _ZERO_COEF_TOL:
            out[lab] = np.inf
        else:
            r = target - X[:, lo:hi] @ ai
            out[lab] = math.sqrt(r @ r) / nai
    return out


def classify_src(dictionary, y, lam, params=None, variant="plain_residual"):
    """Sparse-representation classification: l1 coding, per-class residual."""
    y = _check_query(dictionary, y)
    coding = solve_fista_l1(dictionary, y, lam, params or FistaParams())
    if variant == "regularized_residual":
        residuals = _regularized_residuals(dictionary, y, coding.alpha)
    else:
        residuals = _plain_residuals(dictionary, y, coding.alpha)
    return _argmin_decision(dictionary, residuals, coding)


def classify_crc_rls(projector, dictionary, y, variant="regularized_residual"):
    """Collaborative representation with ridge coding and ratio residuals."""
    if projector.dictionary_fingerprint != dictionary.fingerprint:
        raise FingerprintMismatch("projector was built from a different dictionary")
    y = _check_query(dictionary, y)
    alpha = projector.matrix @ y
    r = y - dictionary.data @ alpha
    obj = float(r @ r + projector.lam * alpha @ alpha)
    coding = CodingResult(alpha=alpha, objective=obj)
    if variant == "plain_residual":
        residuals = _plain_residuals(dictionary, y, alpha)
    else:
        residuals = _regularized_residuals(dictionary, y, alpha)
    degenerate = all(not np.isfinite(v) for v in residuals.values())
    return _argmin_decision(dictionary, residuals, coding, degenerate=degenerate)


def classify_rcrc(dictionary, y, lam, params=None, variant="regularized_residual"):
    """Robust collaborative representation: l1 residual coding via ALM.

    The per-class score subtracts the estimated outlier vector before the
    ratio residual, so occluded/corrupted pixels do not pollute the fit.
    """
    y = _check_query(dictionary, y)
    coding = solve_alm_l1res(dictionary, y, lam, params or AlmParams())
    if variant == "plain_residual":
        residuals = _plain_residuals(dictionary, y - coding.residual_vec, coding.alpha)
    else:
        residuals = _regularized_residuals(dictionary, y, coding.alpha, e=coding.residual_vec)
    degenerate = all(not np.isfinite(v) for v in residuals.values())
    return _argmin_decision(dictionary, residuals, coding, degenerate=degenerate)


def classify_rns(dictionary, y, lam, p=2, params=None):
    """Regularized nearest subspace: per-class coding, regularized objective."""
    y = _check_query(dictionary, y)
    residuals = {}
    codings = {}
    for lab in dictionary.classes:
        block = dictionary.class_block(lab)
        if p == 2:
            res = solve_rls(block, y, lam)
        elif p == 1:
            res = solve_fista_l1(block, y, lam, params or FistaParams())
        else:
            raise ValueError(f"p must be 1 or 2, got {p}")
        residuals[lab] = float(res.objective)
        codings[lab] = res
    decision = _argmin_decision(dictionary, residuals, None)
    decision.coding = codings[decision.predicted]
    return decision


def classify_nn(dictionary, y):
    """Nearest neighbor over all training columns."""
    y = _check_query(dictionary, y)
    d = np.linalg.norm(dictionary.data - y[:, None], axis=0)
    residuals = {}
    for lab in dictionary.classes:
        lo, hi = dictionary.class_ranges[lab]
        residuals[lab] = float(np.min(d[lo:hi]))
    coding = CodingResult(alpha=np.zeros(dictionary.n), objective=float(min(residuals.values())))
    return _argmin_decision(dictionary, residuals, coding)


def classify_ns(dictionary, y, rcond=1e-10):
    """Nearest subspace: unregularized per-class least squares residual."""
    y = _check_query(dictionary, y)
    residuals = {}
    alpha = np.zeros(dictionary.n)
    for lab in dictionary.classes:
        block = dictionary.class_block(lab)
        coef, *_ = np.linalg.lstsq(block, y, rcond=rcond)
        residuals[lab] = float(np.linalg.norm(y - block @ coef))
        lo, hi = dictionary.class_ranges[lab]
        alpha[lo:hi] = coef
    coding = CodingResult(alpha=alpha, objective=float(min(residuals.values())) ** 2)
    return _argmin_decision(dictionary, residuals, coding)


def compute_sci(dictionary, coding):
    """Sparsity concentration index of a coding vector, in [0, 1].

    (K * max_i ||a_i||_1 / ||a||_1 - 1) / (K - 1); 0 for an (almost) zero
    vector, 1 when all l1 mass sits in a single class block.
    """
    if dictionary.k < 2:
        raise SingleClass("SCI is undefined for a single-class dictionary")
    alpha = np.asarray(coding.alpha, dtype=np.float64)
    _check_code(dictionary, alpha)
    mass = np.abs(alpha)
    total = float(np.sum(mass))
    if total <= 1e-12:
        return 0.0
    # the class blocks partition the columns, so the l1 mass of each block is
    # one segment of a reduceat over the block starts in column order
    starts = sorted(lo for lo, _ in dictionary.class_ranges.values())
    best = float(np.max(np.add.reduceat(mass, starts))) / total
    k = dictionary.k
    return float(min(1.0, max(0.0, (k * best - 1.0) / (k - 1.0))))


def validate(dictionary, coding, threshold):
    """Accept the coding as a known subject iff its SCI reaches the threshold."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    sci = compute_sci(dictionary, coding)
    return ValidationOutcome(accepted=sci >= threshold, sci=sci, threshold=threshold)
