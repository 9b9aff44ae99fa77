"""Classification rules built on the coders.

fit(dictionary, config) binds one of CLASSIFIERS to a dictionary; its
Model.decide_block(Y) scores each class for each query of a block and picks
the argmin, ties going to the earliest class block. One query is the block
of one column.
"""

import time
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, _ridge_map
from .errors import (
    DimensionMismatch,
    FingerprintMismatch,
    MalformedMatrix,
    SingleClass,
)
from .solvers import _check_block, solve_fista_l1, solve_l1res_block, solve_ssnal_l1

_ZERO_COEF_TOL = 1e-12


CLASSIFIERS = ("src", "crc_rls", "rcrc", "rns_l1", "rns_l2", "nn", "ns")
# classifiers whose code spans the whole dictionary, so SCI is defined for it
# (ns's is its per-class least-squares codes stacked); rns_* score each class
# by its own coding objective and nn codes nothing
SCI_CLASSIFIERS = ("src", "crc_rls", "rcrc", "ns")


@dataclass
class Decisions:
    """Decisions on a block of q queries; column (or entry) j is query j.

    scores is K x q with rows in class order; predicted the row of each
    column's least score. alpha is the n x q code (for rns_* each class
    block's code of the query alone, zeros for nn) and gap the relative
    duality gaps of the SSNAL and R-CRC codes (None for the other coders).
    inner_iterations counts SSNAL's Newton steps (0 for the other coders).
    seconds is each query's own coding time plus an equal share of the rest.
    rcrc codes the block in one call, so its own coding time is that call's
    time shared in proportion to the queries' iterations.
    """

    scores: np.ndarray
    predicted: np.ndarray
    alpha: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    objective: np.ndarray
    gap: np.ndarray | None
    seconds: np.ndarray
    inner_iterations: np.ndarray


def _residual_sq(T, A, B):
    """||t - B a||^2 for each row t of T and a of A. np.vecdot is one BLAS dot
    per row, so a one-row block rounds as r @ r does for one vector."""
    R = A @ B.T
    np.subtract(T, R, out=R)
    return np.vecdot(R, R)


def _timed_slices(coder, rows, seconds, size=1):
    """coder(slice) for each slice of size rows, one coding per row; each call's wall time
    goes to seconds, shared in proportion to iterations (equally when none iterated)."""
    out = []
    for lo in range(0, len(rows), size):
        t0 = time.perf_counter()
        part = coder(rows[lo : lo + size])
        dt = time.perf_counter() - t0
        its = np.array([r.iterations for r in part], dtype=float)
        seconds[lo : lo + size] += dt * its / its.sum() if its.sum() else dt / len(part)
        out += part
    return out


@dataclass(frozen=True, eq=False)
class Model:
    """A classifier bound to its dictionary, with its offline work done.

    config is an ExperimentConfig: the classifier name, decision variant and
    solver settings are read from it. lam is the resolved ridge/l1 weight;
    code_map is the n x m map L coding a block as A = L Y: for crc_rls the
    ridge projector's matrix, for rns_l2 and ns each class's ridge map or
    pseudo-inverse stacked in class order (None for the others).
    """

    dictionary: Dictionary
    config: object
    lam: float
    code_map: np.ndarray | None = None

    def decide_block(self, Y):
        """Classify the m x q block Y of queries at once, as Decisions.

        crc_rls, src and rcrc code over the whole dictionary and score class i
        by ||t - X_i a_i|| (over ||a_i|| under regularized_residual); rns_* by
        the objective of coding with block i alone, nn by the nearest column,
        ns by the least-squares residual. crc_rls, rns_l2 and ns code the
        block by one code_map product; src and rns_l1 by solvers run query by
        query, rcrc by one call of its block coder, all looked up as module
        globals at call time, so tracing can wrap them.
        """
        d, c, rule = self.dictionary, self.config, self.config.classifier
        X = d.data
        Y = _check_block(X, Y)
        t_start = time.perf_counter()
        Yt = np.ascontiguousarray(Y.T)  # one query per row
        q = Yt.shape[0]
        At = np.zeros((q, d.n)) if self.code_map is None else Y.T @ self.code_map.T
        Et, codings, per_class = None, None, []
        seconds, scores = np.zeros(q), np.empty((d.k, q))
        if rule == "crc_rls":
            objective = _residual_sq(Yt, At, X) + self.lam * np.vecdot(At, At)
        elif rule in ("src", "rcrc"):
            if rule == "src":
                codings = _timed_slices(lambda R: [self._lasso(d, R[0])], Yt, seconds)
            else:
                codings = _timed_slices(
                    lambda R: solve_l1res_block(d, R.T, self.lam, c.alm), Yt, seconds, max(q, 1)
                )
                Et = np.reshape([r.residual_vec for r in codings], Yt.shape)
            At = np.reshape([r.alpha for r in codings], (q, d.n))
        T = Yt if Et is None else Yt - Et  # the query less rcrc's outlier estimate
        code_sq = np.empty((d.k, q))  # squared norm of each class's code
        for i, (lo, hi) in enumerate(d.class_ranges.values()):
            B = X[:, lo:hi]
            if rule == "nn":
                # imported here: scipy.spatial adds about 10 MB to every process
                from scipy.spatial.distance import cdist

                scores[i] = cdist(Yt, B.T).min(axis=1)
                continue
            if rule == "rns_l1":
                per_class.append(_timed_slices(lambda R: [self._lasso(B, R[0])], Yt, seconds))
                At[:, lo:hi] = np.reshape([r.alpha for r in per_class[i]], (q, hi - lo))
                scores[i] = [r.objective for r in per_class[i]]
                continue
            Ai = At[:, lo:hi]
            scores[i], code_sq[i] = _residual_sq(T, Ai, B), np.vecdot(Ai, Ai)
        if rule == "rns_l2":
            scores += self.lam * code_sq
        elif rule in ("crc_rls", "src", "rcrc", "ns"):
            scores = np.sqrt(scores)
            if rule != "ns" and c.decision_variant == "regularized_residual":
                norm = np.sqrt(code_sq)
                big = norm >= _ZERO_COEF_TOL
                scores = np.divide(scores, norm, out=np.full_like(scores, np.inf), where=big)
        predicted = np.argmin(scores, axis=0)
        if rule in ("nn", "ns", "rns_l2"):
            objective = scores.min(axis=0) ** (2 if rule == "ns" else 1)
        elif rule == "rns_l1":
            codings = [per_class[i][j] for j, i in enumerate(predicted)]
        iterations, converged, gap = np.zeros(q, int), np.ones(q, bool), None
        inner = np.zeros(q, int)
        if codings is not None:
            iterations = np.array([r.iterations for r in codings], dtype=int)
            inner = np.array([r.inner_iterations for r in codings], dtype=int)
            converged = np.array([r.converged for r in codings], dtype=bool)
            objective = np.array([r.objective for r in codings], dtype=float)
            gaps = [r.gap for r in codings]  # None from a coder without a gap
            gap = None if None in gaps else np.array(gaps, dtype=float)
        seconds += (time.perf_counter() - t_start - seconds.sum()) / max(q, 1)
        return Decisions(scores, predicted, At.T, iterations, converged, objective, gap, seconds, inner)

    def _lasso(self, X, y):
        c = self.config
        if c.fista is None:
            return solve_ssnal_l1(X, y, self.lam, c.alm)
        return solve_fista_l1(X, y, self.lam, c.fista)


def fit(dictionary, config, projector=None):
    """Bind the configured classifier to a dictionary and do its offline work.

    For crc_rls that is the ridge map at the resolved lambda: a given
    projector's matrix is reused when it was built at that lambda, else the
    map is computed as build_projector computes it. A projector from another
    dictionary raises FingerprintMismatch, and one that is not n x m raises
    MalformedMatrix.
    For rns_l2 and ns it is each class block's ridge map or pseudo-inverse
    (cut at 1e-10 of its largest singular value), stacked as one code map.
    """
    if projector is not None:
        if projector.dictionary_fingerprint != dictionary.fingerprint:
            raise FingerprintMismatch("projector was built from a different dictionary")
        if projector.matrix.shape != (dictionary.n, dictionary.m):
            raise MalformedMatrix(
                f"projector is {projector.matrix.shape[0]} x {projector.matrix.shape[1]}, "
                f"the dictionary needs {dictionary.n} x {dictionary.m}"
            )
    lam, rule = config.resolve_lambda(dictionary.n), config.classifier
    code_map = None
    if rule == "crc_rls":
        reuse = projector is not None and projector.lam == lam
        code_map = projector.matrix if reuse else _ridge_map(dictionary.data, lam)
    elif rule in ("rns_l2", "ns"):
        blocks = (dictionary.data[:, lo:hi] for lo, hi in dictionary.class_ranges.values())
        maps = [_ridge_map(B, lam) if rule == "rns_l2" else np.linalg.pinv(B, rtol=1e-10) for B in blocks]
        code_map = np.asfortranarray(np.vstack(maps))
    return Model(dictionary, config, lam, code_map)


def block_sci(dictionary, A):
    """Sparsity concentration index of each column of the n x q code block A.

    (K * max_i ||a_i||_1 / ||a||_1 - 1) / (K - 1), clipped to [0, 1]; 0 for
    an (almost) zero column, 1 when all l1 mass sits in one class block.
    """
    if dictionary.k < 2:
        raise SingleClass("SCI is undefined for a single-class dictionary")
    mass = np.abs(np.asarray(A, dtype=np.float64))
    if mass.shape[0] != dictionary.n:
        raise DimensionMismatch(f"codes have {mass.shape[0]} rows, dictionary has {dictionary.n} columns")
    total = mass.sum(axis=0)
    # the class blocks partition the rows in column order, so the l1 mass of
    # each block is one segment of a reduceat over the block starts
    starts = [lo for lo, _ in dictionary.class_ranges.values()]
    best = np.add.reduceat(mass, starts, axis=0).max(axis=0)
    live = total > 1e-12
    k = dictionary.k
    sci = (k * (best / np.where(live, total, 1.0)) - 1.0) / (k - 1.0)
    return np.where(live, np.clip(sci, 0.0, 1.0), 0.0)
