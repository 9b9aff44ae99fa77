"""Classification rules built on the coders.

fit(dictionary, config) binds one of CLASSIFIERS, each a cell of CELLS, to
a dictionary; its Model.decide_block(Y) scores each class for each query of
a block and picks the argmin, ties going to the earliest class block. One
query is the block of one column.
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


# Each classifier is one cell of the coding grid: (residual norm, coefficient
# norm, scope). Scope "collaborative" codes a query over the whole dictionary
# once, "per-class" over each class block alone. The coefficient norm "none"
# codes by least squares, with no penalty. The "nearest" cell codes nothing,
# so it has no coefficient (None), and scores each class by its nearest column.
CELLS = {
    "src": ("l2", "l1", "collaborative"),
    "crc_rls": ("l2", "l2", "collaborative"),
    "rcrc": ("l1", "l2", "collaborative"),
    "rns_l1": ("l2", "l1", "per-class"),
    "rns_l2": ("l2", "l2", "per-class"),
    "nn": ("l2", None, "nearest"),
    "ns": ("l2", "none", "per-class"),
}
CLASSIFIERS = tuple(CELLS)
# the cells with one code over the whole dictionary, so SCI is defined for it:
# the collaborative ones, and the coefficient-free per-class one, whose
# least-squares codes stack into one
SCI_CLASSIFIERS = tuple(
    name for name, (_, coef, scope) in CELLS.items() if scope == "collaborative" or coef == "none"
)


@dataclass
class Decisions:
    """Decisions on a block of q queries; column (or entry) j is query j.

    scores is K x q with rows in class order; predicted the row of each
    column's least score. alpha is the n x q code (for a per-class cell each
    class block's code of the query alone, zeros for nearest). objective is
    the coding objective of the collaborative code, or the picked class's
    score (its square for the coefficient-free cell, whose score is a
    residual norm). iterations, converged, gap (the relative duality gap of
    the SSNAL and R-CRC codes, None for the other coders) and
    inner_iterations (SSNAL's Newton steps, 0 for the other coders) are the
    solver's for the code that scored the pick. seconds is each query's own
    coding time plus an equal share of the rest. R-CRC codes the block in
    one call, so its own coding time is that call's time shared in
    proportion to the queries' iterations.
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


def _spans(d, scope):
    """(matrix, lo, hi) for each span a scope's coder runs over: the whole
    dictionary once (as the Dictionary, whose norm FISTA reuses), or each
    class block."""
    if scope == "collaborative":
        return [(d, 0, d.n)]
    return [(d.data[:, lo:hi], lo, hi) for lo, hi in d.class_ranges.values()]


@dataclass(frozen=True, eq=False)
class Model:
    """A classifier bound to its dictionary, with its offline work done.

    config is an ExperimentConfig: the classifier name, decision variant and
    solver settings are read from it. lam is the resolved ridge/l1 weight;
    code_map is the n x m map L coding a block as A = L Y, for the cells with
    an l2 residual and an l2 or no coefficient norm: the ridge map of each
    span (the projector's matrix for the collaborative cell), or the
    pseudo-inverse, stacked in class order (None for the other cells).
    """

    dictionary: Dictionary
    config: object
    lam: float
    code_map: np.ndarray | None = None

    def decide_block(self, Y):
        """Classify the m x q block Y of queries at once, as Decisions.

        The classifier's cell says how. Its residual and coefficient norms
        pick the coder: the code map (one product for the block), the l1
        coder (SSNAL, or FISTA under fista settings, query by query) or the
        l1-residual coder (solve_l1res_block, one call for the block); the
        solvers are looked up as module globals at call time, so tracing can
        wrap them. Its scope picks what the coder runs over: the whole
        dictionary once, or each class block. A collaborative cell scores
        class i by ||t - X_i a_i|| (over ||a_i|| under regularized_residual),
        t the query less the l1-residual coder's outlier estimate; a
        per-class cell by its coding objective over block i, the
        coefficient-free one by its residual norm; nearest by the nearest
        column of block i.
        """
        d, c = self.dictionary, self.config
        residual, coefficient, scope = CELLS[c.classifier]
        X = d.data
        Y = _check_block(X, Y)
        t_start = time.perf_counter()
        Yt = np.ascontiguousarray(Y.T)  # one query per row
        q = Yt.shape[0]
        At = np.zeros((q, d.n)) if self.code_map is None else Y.T @ self.code_map.T
        spans = _spans(d, scope)
        seconds, objectives, codings = np.zeros(q), np.empty((len(spans), q)), []
        for s, (S, lo, hi) in enumerate(spans):  # each span's code of each query, and its objective
            A, B = At[:, lo:hi], X[:, lo:hi]
            if scope == "nearest":
                # imported here: scipy.spatial adds about 10 MB to every process
                from scipy.spatial.distance import cdist

                objectives[s] = cdist(Yt, B.T).min(axis=1)
            elif self.code_map is None:
                codings.append(self._code(residual, S, Yt, seconds))
                A[:] = np.reshape([r.alpha for r in codings[s]], A.shape)
                objectives[s] = [r.objective for r in codings[s]]
            else:
                objectives[s] = _residual_sq(Yt, A, B)
                if coefficient == "l2":
                    objectives[s] += self.lam * np.vecdot(A, A)
        if scope == "collaborative":
            objective, T = objectives[0], Yt
            if residual == "l1":  # the query less the coder's outlier estimate
                T = Yt - np.reshape([r.residual_vec for r in codings[0]], Yt.shape)
            blocks = [(At[:, lo:hi], X[:, lo:hi]) for lo, hi in d.class_ranges.values()]
            scores = np.sqrt([_residual_sq(T, A, B) for A, B in blocks])
            if c.decision_variant == "regularized_residual":
                norm = np.sqrt([np.vecdot(A, A) for A, _ in blocks])
                big = norm >= _ZERO_COEF_TOL
                scores = np.divide(scores, norm, out=np.full_like(scores, np.inf), where=big)
        else:
            scores = np.sqrt(objectives) if coefficient == "none" else objectives
            objective = scores.min(axis=0) ** (2 if coefficient == "none" else 1)
        predicted = np.argmin(scores, axis=0)
        iterations, converged, gap = np.zeros(q, int), np.ones(q, bool), None
        inner = np.zeros(q, int)
        if codings:  # the solver's diagnostics of the code that scored each pick
            picked = [codings[0 if scope == "collaborative" else i][j] for j, i in enumerate(predicted)]
            iterations = np.array([r.iterations for r in picked], dtype=int)
            inner = np.array([r.inner_iterations for r in picked], dtype=int)
            converged = np.array([r.converged for r in picked], dtype=bool)
            gaps = [r.gap for r in picked]  # None from a coder without a gap
            gap = None if None in gaps else np.array(gaps, dtype=float)
        seconds += (time.perf_counter() - t_start - seconds.sum()) / max(q, 1)
        return Decisions(scores, predicted, At.T, iterations, converged, objective, gap, seconds, inner)

    def _code(self, residual, S, Yt, seconds):
        """One CodingResult per query (row of Yt) over the span S: by the
        l1-residual coder for an l1 residual, else by the l1 coder. Each
        query's coding time goes to seconds."""
        c, lam = self.config, self.lam
        if residual == "l1":
            return _timed_slices(lambda R: solve_l1res_block(S, R.T, lam, c.alm), Yt, seconds, max(len(Yt), 1))
        lasso, params = (solve_ssnal_l1, c.alm) if c.fista is None else (solve_fista_l1, c.fista)
        return _timed_slices(lambda R: [lasso(S, R[0], lam, params)], Yt, seconds)


def fit(dictionary, config, projector=None):
    """Bind the configured classifier to a dictionary and do its offline work.

    For a cell with an l2 residual and an l2 coefficient norm that is the
    ridge map of each span at the resolved lambda (RankDeficient when it
    cannot be factored). For the collaborative cell, a given projector's
    matrix is reused when it was built at that lambda, else the map is
    computed as build_projector computes it. A projector from another
    dictionary raises FingerprintMismatch, and one that is not n x m raises
    MalformedMatrix. For the coefficient-free cell it is each class block's
    pseudo-inverse (cut at 1e-10 of its largest singular value). Per-class
    maps are stacked as one code map.
    """
    if projector is not None:
        if projector.dictionary_fingerprint != dictionary.fingerprint:
            raise FingerprintMismatch("projector was built from a different dictionary")
        if projector.matrix.shape != (dictionary.n, dictionary.m):
            raise MalformedMatrix(
                f"projector is {projector.matrix.shape[0]} x {projector.matrix.shape[1]}, "
                f"the dictionary needs {dictionary.n} x {dictionary.m}"
            )
    lam = config.resolve_lambda(dictionary.n)
    residual, coefficient, scope = CELLS[config.classifier]
    if residual != "l2" or coefficient not in ("l2", "none"):  # coded by a solver, or not coded
        return Model(dictionary, config, lam)
    if projector is not None and projector.lam == lam and (coefficient, scope) == ("l2", "collaborative"):
        return Model(dictionary, config, lam, projector.matrix)
    blocks = (dictionary.data[:, lo:hi] for _, lo, hi in _spans(dictionary, scope))
    maps = [_ridge_map(B, lam) if coefficient == "l2" else np.linalg.pinv(B, rtol=1e-10) for B in blocks]
    code_map = maps[0] if scope == "collaborative" else np.asfortranarray(np.vstack(maps))
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
