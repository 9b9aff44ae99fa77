"""Multi-class training dictionaries and precomputed ridge projectors."""

import hashlib
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import svdvals
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    DimensionMismatch,
    EmptyInput,
    MalformedMatrix,
    NonFiniteInput,
    NonPositiveLambda,
    RankDeficient,
    ZeroColumn,
)

_ZERO_NORM_TOL = 1e-12


def is_number(value, kind=numbers.Real):
    """Whether value is a number of the given kind; a bool is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_lambda(lam):
    """lam as a float; NonPositiveLambda unless it is a finite number > 0."""
    if not (is_number(lam) and 0.0 < lam < np.inf):
        raise NonPositiveLambda(f"lambda must be finite and positive, got {lam!r}")
    return float(lam)


def default_lambda(n_columns):
    """Default ridge weight, scaled by the number of training columns."""
    return 0.001 * n_columns / 700.0


def normalize_columns(raw):
    """Return a copy of `raw` with every column scaled to unit l2-norm
    (NonFiniteInput when a column holds NaN or inf, or its norm is above the
    largest float). The norm of a finite column whose squares overflow is
    taken over the column scaled by its largest |entry|."""
    raw = np.asarray(raw, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, checked below
        norms = np.linalg.norm(raw, axis=0)
        if np.isinf(norms).any():
            big = np.flatnonzero(np.isinf(norms))
            big = big[np.isfinite(raw[:, big]).all(axis=0)]  # finite, but their squares overflow
            top = np.abs(raw[:, big]).max(axis=0)
            norms[big] = top * np.linalg.norm(raw[:, big] / top, axis=0)
    if not np.all(np.isfinite(norms)):
        raise NonFiniteInput("a column holds NaN or inf, or its norm overflows")
    if np.any(norms < _ZERO_NORM_TOL):
        bad = int(np.argmin(norms))
        raise ZeroColumn(f"column {bad} has norm {norms[bad]:.3e}")
    return raw / norms


def _spectral_norm_sq(X):
    """||X||_2^2, the largest squared singular value of X, from LAPACK's
    singular values (0 for a matrix with no entries)."""
    s = svdvals(X)
    return float(s[0]) ** 2 if s.size else 0.0


def _cholesky(A):
    """The lower Cholesky factor of a symmetric positive definite A, by
    LAPACK potrf, the routine scipy's cho_factor calls, without its wrapper
    cost (about 25 us a call, up to two thirds of a solve at the sizes
    _newton meets). A is factored as A.T, which equals A, through its lower
    triangle: a C-ordered A makes A.T Fortran-ordered, so LAPACK's copy of it
    is a plain one, not a transposing one (with OpenBLAS 0.3.31 on one
    Haswell thread, the lower potrf and potrs take about 25 us where the
    upper pair on A takes 36 us at order 80, and 35 us where it takes 50 us
    at order 100). A is not changed. LinAlgError (a ValueError) if A is not
    finite or not positive definite, as from the wrapper.
    """
    if not np.isfinite(A).all():
        raise np.linalg.LinAlgError("array must not contain infs or NaNs")
    c, info = dpotrf(A.T, lower=1, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization of order {A.shape[0]} failed: info {info}")
    return c


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Column-normalized training matrix with contiguous per-class blocks.

    data: m x n matrix, unit-norm columns, finite (else NonFiniteInput; the
        solvers take it unscanned).
    labels: class identifier per column; each class is one run of columns.
    class_ranges: class -> (start, stop) column range, derived from labels
        in column order (MalformedMatrix when a class is not one run).

    data never changes, so its fingerprint and FISTA's factor of it
    (sigma_sq) are computed on first use and kept on the instance, living
    and dying with it. Equality and hashing go by identity (eq=False), as
    for Projector, PcaModel and Model: an elementwise == over the arrays has
    no single truth value.
    """

    data: np.ndarray
    labels: tuple
    class_ranges: dict = field(init=False)

    def __post_init__(self):
        if len(self.labels) != self.data.shape[1]:
            raise MalformedMatrix(f"{len(self.labels)} labels for {self.data.shape[1]} columns")
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteInput("dictionary data contains NaN or inf")
        ranges = {}
        for i, lab in enumerate(self.labels):
            lo, hi = ranges.get(lab, (i, i))
            if hi != i:
                raise MalformedMatrix(f"class {lab!r} is not one run: column {i} is apart from {lo}..{hi - 1}")
            ranges[lab] = (lo, i + 1)
        object.__setattr__(self, "class_ranges", ranges)

    @property
    def m(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]

    @property
    def k(self):
        return len(self.class_ranges)

    @property
    def classes(self):
        return list(self.class_ranges.keys())

    @cached_property
    def fingerprint(self):
        """sha256 over data and labels, which fix the class layout too; ties
        projectors and saved files to it."""
        h = hashlib.sha256(self.data.tobytes())
        h.update(repr(self.labels).encode())
        return h.hexdigest()

    @cached_property
    def sigma_sq(self):
        """Largest squared singular value of data, from LAPACK: half FISTA's L."""
        return _spectral_norm_sq(self.data)


def build_dictionary(samples):
    """Build a Dictionary from (feature vector, class label) pairs.

    Columns are regrouped so each class occupies one contiguous block, with
    classes ordered by first appearance in the input.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInput("no training samples")
    vecs = [np.asarray(v, dtype=np.float64).ravel() for v, _ in samples]
    m = vecs[0].shape[0]
    for i, v in enumerate(vecs):
        if v.shape[0] != m:
            raise DimensionMismatch(f"sample {i} has dimension {v.shape[0]}, expected {m}")
    by_class = {}  # label -> its columns, labels in first-seen order
    for v, (_, lab) in zip(vecs, samples):
        by_class.setdefault(lab, []).append(v)
    raw = np.column_stack([v for block in by_class.values() for v in block])
    labels = tuple(lab for lab, block in by_class.items() for _ in block)
    return Dictionary(data=normalize_columns(raw), labels=labels)


@dataclass(frozen=True, eq=False)
class Projector:
    """Precomputed ridge projection (X^T X + lambda I)^{-1} X^T.

    dictionary_fingerprint ties it to the dictionary it was built from.
    """

    matrix: np.ndarray
    lam: float
    dictionary_fingerprint: str


def _ridge_map(X, lam):
    """The n x m ridge map (X^T X + lam I)^{-1} X^T of an m x n X, by LAPACK
    potrs on the _cholesky factor of the smaller of the SPD matrices
    X^T X + lam*I (n x n) and, when n > m, X X^T + lam*I (m x m), by the
    identity (X^T X + lam I)^{-1} X^T = X^T (X X^T + lam I)^{-1}.
    RankDeficient when that matrix is not positive definite to working
    precision: X is rank deficient and lam below its rounding.
    """
    wide = X.shape[1] > X.shape[0]
    gram = X @ X.T if wide else X.T @ X
    gram.flat[:: gram.shape[0] + 1] += lam
    try:
        factor = _cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(
            f"ridge system singular to working precision at lambda={lam:g}; raise lambda"
        ) from exc
    S = dpotrs(factor, X if wide else X.T, lower=1)[0]
    # Fortran order either way: a block decide's Y^T P^T ran a fifth slower
    # with P in C order (300 x 1178 queries, 1216 columns)
    return np.asfortranarray(S.T) if wide else S


def build_projector(dictionary, lam):
    """Precompute the ridge projector of a dictionary: its _ridge_map."""
    lam = check_lambda(lam)
    return Projector(_ridge_map(dictionary.data, lam), lam, dictionary.fingerprint)

