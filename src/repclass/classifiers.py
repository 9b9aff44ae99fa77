"""Classification rules built on the coders.

fit(dictionary, config) binds one of CLASSIFIERS to a dictionary; its
Model.decide(y) produces a Decision: per-class scores plus the argmin label,
with ties broken toward the earliest class block in the dictionary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, Projector, build_projector
from .errors import DimensionMismatch, FingerprintMismatch, SingleClass
from .solvers import CodingResult, _check_dims, solve_alm_l1res, solve_fista_l1, solve_rls
from .solvers import solve_ssnal_l1

_ZERO_COEF_TOL = 1e-12


CLASSIFIERS = ("src", "crc_rls", "rcrc", "rns_l1", "rns_l2", "nn", "ns")
# classifiers whose code covers the whole dictionary, so SCI is defined for
# it; rns_* code each class on its own and nn codes nothing
SCI_CLASSIFIERS = ("src", "crc_rls", "rcrc", "ns")


@dataclass
class Decision:
    predicted: object
    per_class_residuals: dict
    coding: CodingResult
    degenerate: bool = False


@dataclass
class ValidationOutcome:
    accepted: bool
    sci: float
    threshold: float


def _argmin_decision(residuals, coding):
    # min keeps the first of equal scores, and residuals follow class order
    best = min(residuals, key=residuals.get)
    return Decision(best, residuals, coding, degenerate=residuals[best] == np.inf)


def _class_residuals(dictionary, target, alpha, variant):
    """Per-class ||target - X_i a_i||_2; the regularized variant divides it by
    ||a_i||_2, with inf for an (almost) zero a_i."""
    X = dictionary.data
    out = {}
    for lab, (lo, hi) in dictionary.class_ranges.items():
        ai = alpha[lo:hi]
        scale = 1.0
        if variant == "regularized_residual":
            scale = math.sqrt(ai @ ai)
            if scale < _ZERO_COEF_TOL:
                out[lab] = np.inf
                continue
        r = target - X[:, lo:hi] @ ai
        out[lab] = math.sqrt(r @ r) / scale
    return out


@dataclass(frozen=True)
class Model:
    """A classifier bound to its dictionary, with its offline work done.

    config is an ExperimentConfig: the classifier name, decision variant and
    solver settings are read from it. lam is the resolved ridge/l1 weight;
    projector is the CRC-RLS ridge projector (None for the other rules).
    """

    dictionary: Dictionary
    config: object
    lam: float
    projector: Projector | None = None

    def decide(self, y):
        """Classify one query: per-class scores and the argmin class.

        crc_rls, src and rcrc code y over the whole dictionary and score each
        class by its residual, less R-CRC's outlier estimate. src and rns_l1
        run the semismooth-Newton lasso coder under the alm settings, or FISTA
        when the config gives fista settings. The solvers are looked up as
        module globals at call time, so tracing can wrap them.
        """
        d, c = self.dictionary, self.config
        y = _check_dims(d.data, y)
        ranges = d.class_ranges.items()
        if c.classifier in ("rns_l1", "rns_l2"):  # code each class block alone
            residuals, codings = {}, {}
            for lab, (lo, hi) in ranges:
                block = d.data[:, lo:hi]
                if c.classifier == "rns_l2":
                    res = solve_rls(block, y, self.lam)
                else:
                    res = self._lasso(block, y)
                residuals[lab] = float(res.objective)
                codings[lab] = res
            decision = _argmin_decision(residuals, None)
            decision.coding = codings[decision.predicted]
            return decision
        if c.classifier == "nn":  # distance to the nearest column of each class
            dist = np.linalg.norm(d.data - y[:, None], axis=0)
            residuals = {lab: float(np.min(dist[lo:hi])) for lab, (lo, hi) in ranges}
            coding = CodingResult(alpha=np.zeros(d.n), objective=float(min(residuals.values())))
        elif c.classifier == "ns":  # least-squares residual of each class block
            residuals = {}
            alpha = np.zeros(d.n)
            for lab, (lo, hi) in ranges:
                block = d.data[:, lo:hi]
                coef, *_ = np.linalg.lstsq(block, y, rcond=1e-10)
                residuals[lab] = float(np.linalg.norm(y - block @ coef))
                alpha[lo:hi] = coef
            coding = CodingResult(alpha=alpha, objective=float(min(residuals.values())) ** 2)
        else:
            if c.classifier == "crc_rls":
                alpha = self.projector.matrix @ y
                r = y - d.data @ alpha
                obj = float(r @ r + self.lam * alpha @ alpha)
                coding = CodingResult(alpha=alpha, objective=obj)
            elif c.classifier == "src":
                coding = self._lasso(d, y)
            else:
                coding = solve_alm_l1res(d, y, self.lam, c.alm)
            target = y if coding.residual_vec is None else y - coding.residual_vec
            residuals = _class_residuals(d, target, coding.alpha, c.decision_variant)
        return _argmin_decision(residuals, coding)

    def _lasso(self, X, y):
        c = self.config
        if c.fista is None:
            return solve_ssnal_l1(X, y, self.lam, c.alm)
        return solve_fista_l1(X, y, self.lam, c.fista)


def fit(dictionary, config, projector=None):
    """Bind the configured classifier to a dictionary and do its offline work.

    For crc_rls that is the ridge projector at the resolved lambda: a given
    projector is reused when it was built at that lambda, else a new one is
    built. A projector from another dictionary raises FingerprintMismatch.
    """
    if projector is not None and projector.dictionary_fingerprint != dictionary.fingerprint:
        raise FingerprintMismatch("projector was built from a different dictionary")
    lam = config.resolve_lambda(dictionary.n)
    if config.classifier != "crc_rls":
        projector = None
    elif projector is None or projector.lam != lam:
        projector = build_projector(dictionary, lam)
    return Model(dictionary, config, lam, projector)


def compute_sci(dictionary, coding):
    """Sparsity concentration index of a coding vector, in [0, 1].

    (K * max_i ||a_i||_1 / ||a||_1 - 1) / (K - 1); 0 for an (almost) zero
    vector, 1 when all l1 mass sits in a single class block.
    """
    if dictionary.k < 2:
        raise SingleClass("SCI is undefined for a single-class dictionary")
    alpha = np.asarray(coding.alpha, dtype=np.float64)
    if alpha.shape[0] != dictionary.n:
        raise DimensionMismatch(
            f"alpha has length {alpha.shape[0]}, dictionary has {dictionary.n} columns"
        )
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
